//! GPU baseline cost model (Jetson TX2 regime).
//!
//! The paper measures its end-to-end MANN baselines on a Jetson TX2 and
//! reports that the CAM accelerators' end-to-end gains are "bound by the
//! neural network part of the MANN", i.e. by the fraction of GPU time
//! and energy the NN-search stage occupies. We model the GPU pipeline
//! with that measured distribution as the calibration anchor — the same
//! "following the distribution in \[3\]" methodology the paper uses —
//! plus simple per-operation scaling so workload changes move the
//! numbers sensibly.

/// Per-query GPU cost model for a MANN inference pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct GpuCostModel {
    /// CNN feature-extraction time per query (seconds).
    pub t_cnn: f64,
    /// CNN feature-extraction energy per query (joules).
    pub e_cnn: f64,
    /// Fixed NN-search overhead per query: kernel launch + DRAM
    /// round-trips for the memory entries (seconds).
    pub t_search_fixed: f64,
    /// Fixed NN-search energy overhead per query (joules).
    pub e_search_fixed: f64,
    /// Incremental search time per (entry × feature) distance term
    /// (seconds).
    pub t_search_per_term: f64,
    /// Incremental search energy per term (joules).
    pub e_search_per_term: f64,
}

impl GpuCostModel {
    /// TX2-calibrated defaults for the paper's MANN workload: the
    /// NN-search stage (distance kernel + memory traffic) takes ~78% of
    /// per-query latency and ~77% of energy, which is what bounds the
    /// end-to-end improvement at ≈4.5×/4.4×.
    #[must_use]
    pub fn tx2_mann_default() -> Self {
        GpuCostModel {
            t_cnn: 0.40e-3,
            e_cnn: 3.2e-3,
            t_search_fixed: 1.35e-3,
            e_search_fixed: 10.4e-3,
            t_search_per_term: 3.1e-8,
            e_search_per_term: 2.5e-7,
        }
    }

    /// GPU NN-search time for `entries × dims` memory (seconds).
    #[must_use]
    pub fn search_time(&self, entries: usize, dims: usize) -> f64 {
        self.t_search_fixed + self.t_search_per_term * (entries * dims) as f64
    }

    /// GPU NN-search energy for `entries × dims` memory (joules).
    #[must_use]
    pub fn search_energy(&self, entries: usize, dims: usize) -> f64 {
        self.e_search_fixed + self.e_search_per_term * (entries * dims) as f64
    }

    /// Total GPU per-query latency (seconds).
    #[must_use]
    pub fn total_time(&self, entries: usize, dims: usize) -> f64 {
        self.t_cnn + self.search_time(entries, dims)
    }

    /// Total GPU per-query energy (joules).
    #[must_use]
    pub fn total_energy(&self, entries: usize, dims: usize) -> f64 {
        self.e_cnn + self.search_energy(entries, dims)
    }

    /// Fraction of per-query latency spent in NN search.
    #[must_use]
    pub fn search_time_fraction(&self, entries: usize, dims: usize) -> f64 {
        self.search_time(entries, dims) / self.total_time(entries, dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx2_distribution_is_search_bound() {
        let gpu = GpuCostModel::tx2_mann_default();
        // The paper's 25-entry (5-way 5-shot), 64-feature memory.
        let f = gpu.search_time_fraction(25, 64);
        assert!(
            (0.75..0.82).contains(&f),
            "search fraction {f} should bound speedup near 4.5x"
        );
    }

    #[test]
    fn search_fraction_grows_with_memory() {
        let gpu = GpuCostModel::tx2_mann_default();
        assert!(gpu.search_time_fraction(400, 64) > gpu.search_time_fraction(25, 64));
        assert!(gpu.search_time_fraction(25, 64) < 1.0);
    }

    #[test]
    fn costs_scale_with_memory_size() {
        let gpu = GpuCostModel::tx2_mann_default();
        assert!(gpu.search_time(1000, 64) > gpu.search_time(25, 64));
        assert!(gpu.search_energy(1000, 64) > gpu.search_energy(25, 64));
        assert!(gpu.total_time(25, 64) > gpu.search_time(25, 64));
    }
}
