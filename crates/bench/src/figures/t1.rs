//! T1: the paper's in-text accuracy claims, aggregated from the Fig. 6
//! and Fig. 7 reproductions.

use crate::figures::{fig6, fig7};
use crate::Table;

/// One claim row: description, paper value, measured value, holds?
#[derive(Debug, Clone)]
pub struct Claim {
    /// What the paper asserts.
    pub description: String,
    /// The paper's number (as printed).
    pub paper: String,
    /// Our measured number.
    pub measured: String,
    /// Whether the claim's *shape* holds in the reproduction.
    pub holds: bool,
}

/// The T1 summary.
#[derive(Debug, Clone)]
pub struct T1Report {
    /// All claims.
    pub claims: Vec<Claim>,
}

/// Evaluates the claims from fresh Fig. 6 / Fig. 7 runs.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn run(
    fig6_cfg: &fig6::Fig6Config,
    fig7_cfg: &fig7::Fig7Config,
) -> femcam_core::Result<T1Report> {
    let f6 = fig6::run(fig6_cfg)?;
    // The evaluation alone: the tracked Fig. 7 CSV comes from the
    // fig7 binary's own configuration.
    let f7 = fig7::evaluate(fig7_cfg)?;

    // The 5-way rows of Fig. 7 (lineup order: mcam3, mcam2, tcam,
    // cosine, euclidean).
    let five_way_1shot = &f7.rows[0].1;
    let five_way_5shot = &f7.rows[1].1;

    let mut claims = Vec::new();
    claims.push(Claim {
        description: "5-way 5-shot 3-bit MCAM accuracy (abstract: 98.34%)".into(),
        paper: "98.34%".into(),
        measured: crate::pct(five_way_5shot[0]),
        holds: five_way_5shot[0] > 0.95,
    });
    claims.push(Claim {
        description: "5-way MCAM within ~0.8% of cosine".into(),
        paper: "-0.8%".into(),
        measured: format!("{:+.2}%", 100.0 * (five_way_1shot[0] - five_way_1shot[3])),
        holds: (five_way_1shot[3] - five_way_1shot[0]) < 0.03,
    });
    claims.push(Claim {
        description: "few-shot: 3-bit MCAM vs TCAM+LSH mean gap".into(),
        paper: "+13%".into(),
        measured: format!("{:+.1}%", 100.0 * f7.mcam3_vs_tcam),
        holds: f7.mcam3_vs_tcam > 0.05,
    });
    claims.push(Claim {
        description: "few-shot: 2-bit MCAM vs TCAM+LSH mean gap".into(),
        paper: "+11.6%".into(),
        measured: format!("{:+.1}%", 100.0 * f7.mcam2_vs_tcam),
        holds: f7.mcam2_vs_tcam > 0.03 && f7.mcam2_vs_tcam < f7.mcam3_vs_tcam + 0.02,
    });
    claims.push(Claim {
        description: "NN classification: 3-bit MCAM vs TCAM+LSH mean gap".into(),
        paper: "+12%".into(),
        measured: format!("{:+.1}%", 100.0 * f6.mcam3_vs_tcam),
        holds: f6.mcam3_vs_tcam > 0.05,
    });
    claims.push(Claim {
        description: "NN classification: MCAM on par with software".into(),
        paper: "~0%".into(),
        measured: format!("{:+.1}%", 100.0 * f6.mcam3_vs_software),
        holds: f6.mcam3_vs_software.abs() < 0.06,
    });
    Ok(T1Report { claims })
}

impl T1Report {
    /// Prints the claims table.
    pub fn print(&self) {
        println!("== T1: in-text accuracy claims ==\n");
        let mut t = Table::new(&["claim", "paper", "measured", "holds"]);
        for c in &self.claims {
            t.row(&[
                c.description.clone(),
                c.paper.clone(),
                c.measured.clone(),
                c.holds.to_string(),
            ]);
        }
        t.print();
    }

    /// True if every claim's shape holds.
    #[must_use]
    pub fn all_hold(&self) -> bool {
        self.claims.iter().all(|c| c.holds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_hold_at_reduced_budget() {
        let f6 = fig6::Fig6Config {
            n_splits: 2,
            ..fig6::Fig6Config::default()
        };
        let f7 = fig7::Fig7Config {
            n_episodes: 40,
            seed: 42,
            n_threads: 4,
        };
        let r = run(&f6, &f7).unwrap();
        assert_eq!(r.claims.len(), 6);
        for c in &r.claims {
            assert!(
                c.holds,
                "claim failed: {} (measured {})",
                c.description, c.measured
            );
        }
    }
}
