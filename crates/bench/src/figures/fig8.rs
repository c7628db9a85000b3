//! Fig. 8: 3-bit MCAM few-shot accuracy vs `Vth` variation sigma.

use femcam_mann::{variation_sweep, FewShotTask, VariationPoint};

use crate::{write_csv, Table};

/// The Fig. 8 reproduction.
#[derive(Debug, Clone)]
pub struct Fig8Report {
    /// Sigma grid in volts.
    pub sigmas: Vec<f64>,
    /// Sweep points (task-major).
    pub points: Vec<VariationPoint>,
    /// Worst accuracy drop (vs sigma 0) at 80 mV across tasks.
    pub drop_at_80mv: f64,
    /// Worst accuracy drop at the largest sigma across tasks.
    pub drop_at_max: f64,
}

/// Configuration for the Fig. 8 sweep.
#[derive(Debug, Clone)]
pub struct Fig8Config {
    /// Sigma grid in volts (paper sweeps 0–300 mV).
    pub sigmas: Vec<f64>,
    /// Episodes per point.
    pub n_episodes: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker threads.
    pub n_threads: usize,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Fig8Config {
            sigmas: vec![0.0, 0.04, 0.08, 0.12, 0.16, 0.20, 0.25, 0.30],
            n_episodes: 200,
            seed: 42,
            n_threads: std::thread::available_parallelism().map_or(4, usize::from),
        }
    }
}

/// Runs the sweep over the paper's four tasks and writes
/// `results/fig8_variation.csv`.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn run(cfg: &Fig8Config) -> femcam_core::Result<Fig8Report> {
    let report = evaluate(cfg)?;
    report.write_csv();
    Ok(report)
}

/// The sweep behind [`run`], without the CSV: the tracked figure is
/// written only by the figure binaries.
pub(crate) fn evaluate(cfg: &Fig8Config) -> femcam_core::Result<Fig8Report> {
    let tasks = FewShotTask::paper_tasks();
    let points = variation_sweep(
        3,
        &cfg.sigmas,
        &tasks,
        cfg.n_episodes,
        cfg.seed,
        cfg.n_threads,
    )?;

    let acc_at = |task: FewShotTask, sigma: f64| -> f64 {
        points
            .iter()
            .find(|p| p.task == task && (p.sigma_v - sigma).abs() < 1e-12)
            .map(|p| p.result.accuracy)
            .unwrap_or(f64::NAN)
    };
    let max_sigma = cfg.sigmas.iter().copied().fold(0.0, f64::max);
    let mut drop_80 = 0.0f64;
    let mut drop_max = 0.0f64;
    for &task in &tasks {
        let base = acc_at(task, 0.0);
        if cfg.sigmas.iter().any(|&s| (s - 0.08).abs() < 1e-12) {
            drop_80 = drop_80.max(base - acc_at(task, 0.08));
        }
        drop_max = drop_max.max(base - acc_at(task, max_sigma));
    }

    Ok(Fig8Report {
        sigmas: cfg.sigmas.clone(),
        points,
        drop_at_80mv: drop_80,
        drop_at_max: drop_max,
    })
}

impl Fig8Report {
    /// Writes the sweep to `results/fig8_variation.csv`.
    fn write_csv(&self) {
        let csv_rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.0}", p.sigma_v * 1000.0),
                    p.task.label(),
                    format!("{:.4}", p.result.accuracy),
                    format!("{:.4}", p.result.std_error),
                ]
            })
            .collect();
        write_csv(
            "fig8_variation.csv",
            &["sigma_mv", "task", "accuracy", "std_error"],
            &csv_rows,
        );
    }

    /// Prints the sweep table with the paper's claims.
    pub fn print(&self) {
        println!("== Fig. 8: 3-bit MCAM few-shot accuracy vs Vth variation ==");
        println!("paper: no accuracy loss up to sigma = 80 mV (the worst");
        println!("       device-model sigma); degradation beyond\n");
        let tasks = FewShotTask::paper_tasks();
        let mut header = vec!["sigma (mV)".to_string()];
        header.extend(tasks.iter().map(FewShotTask::label));
        let mut t = Table::new(&header);
        for &sigma in &self.sigmas {
            let mut row = vec![format!("{:.0}", sigma * 1000.0)];
            for &task in &tasks {
                let acc = self
                    .points
                    .iter()
                    .find(|p| p.task == task && (p.sigma_v - sigma).abs() < 1e-12)
                    .map(|p| p.result.accuracy)
                    .unwrap_or(f64::NAN);
                row.push(crate::pct(acc));
            }
            t.row(&row);
        }
        t.print();
        println!(
            "\nworst accuracy drop at 80 mV: {:.2}% (paper: ~0%)",
            100.0 * self.drop_at_80mv
        );
        println!(
            "worst accuracy drop at {:.0} mV: {:.2}%",
            self.sigmas.iter().copied().fold(0.0, f64::max) * 1000.0,
            100.0 * self.drop_at_max
        );
        println!("csv: results/fig8_variation.csv");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_shape_holds() {
        let cfg = Fig8Config {
            sigmas: vec![0.0, 0.08, 0.30],
            n_episodes: 25,
            seed: 42,
            n_threads: 4,
        };
        let r = evaluate(&cfg).unwrap();
        assert!(
            r.drop_at_80mv < 0.05,
            "80 mV should be nearly free, dropped {:.3}",
            r.drop_at_80mv
        );
        assert!(
            r.drop_at_max > r.drop_at_80mv,
            "300 mV should hurt more than 80 mV"
        );
    }
}
