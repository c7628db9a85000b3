//! Energy and latency cost models (paper §IV-C, in-text "T2" numbers).
//!
//! The paper evaluates MCAM vs TCAM vs a Jetson TX2 GPU under the
//! assumptions of Ni et al. (Nature Electronics 2019) and reports:
//!
//! * equal search and programming **delay** for same-sized MCAMs and
//!   TCAMs (same cells, same sensing scheme, same pulse widths);
//! * MCAM average **programming energy ~12% lower** (intermediate
//!   states need lower pulse amplitudes than a full-switching TCAM
//!   write);
//! * MCAM average **search energy 56% higher** (the multi-bit input
//!   ladder drives higher data-line voltages);
//! * **end-to-end** MANN improvements of **4.4× energy / 4.5× latency**
//!   over the GPU for both CAM types, bounded by the neural-network
//!   portion of the pipeline (Amdahl).
//!
//! This crate derives the first three from the actual device models
//! ([`cam`]) — the +56% emerges *exactly* from the Fig. 3(b) input
//! ladder — and composes the fourth from a calibrated GPU cost
//! distribution ([`gpu`], [`endtoend`]), mirroring the paper's own
//! "following the distribution in \[3\]" methodology.
//!
//! # Quickstart
//!
//! ```
//! use femcam_energy::EnergyReport;
//!
//! # fn main() -> femcam_core::Result<()> {
//! let report = EnergyReport::paper_default()?;
//! // MCAM searches cost more, programs cost less, end-to-end is a wash.
//! assert!(report.search_energy_ratio > 1.4);
//! assert!(report.program_energy_ratio < 1.0);
//! assert!(report.latency_speedup_mcam > 4.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cam;
pub mod endtoend;
pub mod gpu;

pub use cam::{CamArraySpec, ProgramEnergyModel, SearchEnergyModel};
pub use endtoend::{EndToEnd, MannWorkload};
pub use gpu::GpuCostModel;

use femcam_core::Result;

/// The paper's §IV-C energy/delay summary, derived from the models.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EnergyReport {
    /// MCAM / TCAM average per-cell programming energy.
    pub program_energy_ratio: f64,
    /// MCAM / TCAM average per-cell search energy (paper: 1.56).
    pub search_energy_ratio: f64,
    /// MCAM / TCAM search delay (paper: 1.0 — identical).
    pub search_delay_ratio: f64,
    /// End-to-end MANN energy improvement vs GPU with an MCAM
    /// (paper: ≈4.4×).
    pub energy_speedup_mcam: f64,
    /// End-to-end MANN latency improvement vs GPU with an MCAM
    /// (paper: ≈4.5×).
    pub latency_speedup_mcam: f64,
    /// End-to-end energy improvement with a TCAM (paper: ≈ the MCAM's).
    pub energy_speedup_tcam: f64,
    /// End-to-end latency improvement with a TCAM.
    pub latency_speedup_tcam: f64,
}

impl EnergyReport {
    /// Evaluates the full report with paper-default parameters: the
    /// default FeFET/programming models, a 3-bit ladder, a 64-cell word,
    /// and the TX2-calibrated GPU distribution.
    ///
    /// # Errors
    ///
    /// Propagates device-model failures.
    pub fn paper_default() -> Result<Self> {
        use femcam_core::LevelLadder;
        use femcam_device::PulseProgrammer;

        let ladder = LevelLadder::new(3)?;
        let programmer = PulseProgrammer::default();
        let search = SearchEnergyModel::default();
        let program = ProgramEnergyModel::default();
        let workload = MannWorkload::paper_default();
        let gpu = GpuCostModel::tx2_mann_default();

        let search_ratio = search.mcam_vs_tcam(&ladder);
        let program_ratio = program.mcam_vs_tcam(&programmer, &ladder)?;
        let spec = CamArraySpec {
            rows: workload.memory_entries,
            cols: workload.feature_dims,
        };
        let mcam = EndToEnd::evaluate(
            &gpu,
            &workload,
            search.mcam_array_search(&ladder, &spec),
            spec.search_delay(),
        );
        let tcam = EndToEnd::evaluate(
            &gpu,
            &workload,
            search.tcam_array_search(&spec),
            spec.search_delay(),
        );

        Ok(EnergyReport {
            program_energy_ratio: program_ratio,
            search_energy_ratio: search_ratio,
            search_delay_ratio: 1.0,
            energy_speedup_mcam: mcam.energy_improvement,
            latency_speedup_mcam: mcam.latency_improvement,
            energy_speedup_tcam: tcam.energy_improvement,
            latency_speedup_tcam: tcam.latency_improvement,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shape_holds() {
        let r = EnergyReport::paper_default().unwrap();
        // Search energy: paper +56%.
        assert!(
            (1.4..1.8).contains(&r.search_energy_ratio),
            "search ratio {} off the paper's +56%",
            r.search_energy_ratio
        );
        // Programming energy: paper −12%.
        assert!(
            (0.80..0.97).contains(&r.program_energy_ratio),
            "program ratio {} off the paper's −12%",
            r.program_energy_ratio
        );
        // Delay parity.
        assert_eq!(r.search_delay_ratio, 1.0);
        // End-to-end ≈ 4.4× / 4.5× and nearly identical across CAMs.
        assert!(
            (4.0..5.0).contains(&r.latency_speedup_mcam),
            "latency speedup {}",
            r.latency_speedup_mcam
        );
        assert!(
            (3.9..5.0).contains(&r.energy_speedup_mcam),
            "energy speedup {}",
            r.energy_speedup_mcam
        );
        let diff = (r.latency_speedup_mcam - r.latency_speedup_tcam).abs();
        assert!(
            diff / r.latency_speedup_tcam < 0.02,
            "CAM choice should not move end-to-end numbers (Amdahl): {diff}"
        );
    }
}
