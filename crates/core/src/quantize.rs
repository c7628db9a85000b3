//! Feature quantizers: real-valued vectors → MCAM levels (paper §IV-A).
//!
//! "The real-valued features of the query and memory entries are
//! quantized to the same bit precision as the MCAM" — this module
//! provides that mapping. Three strategies are offered; the ablation in
//! `femcam-bench` compares them:
//!
//! * [`QuantizeStrategy::PerFeatureMinMax`] — each feature gets its own
//!   uniform grid over its training range (the default; robust to
//!   feature scale differences, important for the UCI datasets).
//! * [`QuantizeStrategy::GlobalMinMax`] — one grid over the pooled range.
//! * [`QuantizeStrategy::PerFeatureQuantile`] — per-feature equal-mass
//!   bins (robust to outliers and heavy tails).

use crate::error::CoreError;
use crate::Result;

/// Quantization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum QuantizeStrategy {
    /// Uniform grid per feature over `[min, max]` of the training data.
    #[default]
    PerFeatureMinMax,
    /// Uniform grid shared by all features.
    GlobalMinMax,
    /// Per-feature quantile (equal-mass) bins.
    PerFeatureQuantile,
}

/// A fitted quantizer mapping `dims`-dimensional real vectors onto
/// `n_levels` discrete levels per feature.
///
/// # Examples
///
/// ```
/// use femcam_core::{QuantizeStrategy, Quantizer};
///
/// # fn main() -> femcam_core::Result<()> {
/// let train: Vec<Vec<f32>> = vec![vec![0.0, 10.0], vec![1.0, 20.0], vec![2.0, 30.0]];
/// let q = Quantizer::fit(
///     train.iter().map(|r| r.as_slice()),
///     2,
///     8,
///     QuantizeStrategy::PerFeatureMinMax,
/// )?;
/// let levels = q.quantize(&[1.0, 20.0])?;
/// assert_eq!(levels.len(), 2);
/// assert!(levels.iter().all(|&l| l < 8));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Quantizer {
    dims: usize,
    n_levels: u16,
    strategy: QuantizeStrategy,
    /// Per-feature bin edges: `edges[f]` has `n_levels - 1` interior
    /// thresholds; level = number of thresholds below the value.
    edges: Vec<Vec<f32>>,
    /// Per-feature reconstruction centers, `n_levels` each.
    centers: Vec<Vec<f32>>,
}

impl Quantizer {
    /// Fits a quantizer on training rows.
    ///
    /// # Errors
    ///
    /// * [`CoreError::QuantizerNotFitted`] if `rows` is empty.
    /// * [`CoreError::DimensionMismatch`] if any row length differs from
    ///   `dims`.
    /// * [`CoreError::InvalidParameter`] if `n_levels < 2` or
    ///   `dims == 0`.
    pub fn fit<'a, I>(
        rows: I,
        dims: usize,
        n_levels: u16,
        strategy: QuantizeStrategy,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        if n_levels < 2 {
            return Err(CoreError::InvalidParameter {
                name: "n_levels",
                value: n_levels as f64,
            });
        }
        if dims == 0 {
            return Err(CoreError::InvalidParameter {
                name: "dims",
                value: 0.0,
            });
        }
        // Collect per-feature samples, presized to the row count when
        // the iterator knows it.
        let rows = rows.into_iter();
        let mut columns: Vec<Vec<f32>> = (0..dims)
            .map(|_| Vec::with_capacity(rows.size_hint().0))
            .collect();
        for row in rows {
            if row.len() != dims {
                return Err(CoreError::DimensionMismatch {
                    expected: dims,
                    actual: row.len(),
                });
            }
            for (f, &v) in row.iter().enumerate() {
                columns[f].push(v);
            }
        }
        if columns[0].is_empty() {
            return Err(CoreError::QuantizerNotFitted);
        }

        let (edges, centers) = match strategy {
            QuantizeStrategy::PerFeatureMinMax => {
                let mut edges = Vec::with_capacity(dims);
                let mut centers = Vec::with_capacity(dims);
                for col in &columns {
                    let (lo, hi) = min_max(col);
                    let (e, c) = uniform_grid(lo, hi, n_levels);
                    edges.push(e);
                    centers.push(c);
                }
                (edges, centers)
            }
            QuantizeStrategy::GlobalMinMax => {
                let mut lo = f32::INFINITY;
                let mut hi = f32::NEG_INFINITY;
                for col in &columns {
                    let (l, h) = min_max(col);
                    lo = lo.min(l);
                    hi = hi.max(h);
                }
                let (e, c) = uniform_grid(lo, hi, n_levels);
                (vec![e; dims], vec![c; dims])
            }
            QuantizeStrategy::PerFeatureQuantile => {
                let mut edges = Vec::with_capacity(dims);
                let mut centers = Vec::with_capacity(dims);
                for col in &mut columns {
                    // Stable, so `-0.0`/`+0.0` keep their sample order
                    // and the edges their bits.
                    // femcam::allow(no_panic): features were rejected as
                    // non-finite at ingestion.
                    col.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
                    let (e, c) = quantile_grid(col, n_levels);
                    edges.push(e);
                    centers.push(c);
                }
                (edges, centers)
            }
        };

        Ok(Quantizer {
            dims,
            n_levels,
            strategy,
            edges,
            centers,
        })
    }

    /// Input dimensionality.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Levels per feature.
    #[must_use]
    pub fn n_levels(&self) -> u16 {
        self.n_levels
    }

    /// The strategy this quantizer was fitted with.
    #[must_use]
    pub fn strategy(&self) -> QuantizeStrategy {
        self.strategy
    }

    /// Level of a single value on feature `f`.
    ///
    /// Out-of-range values clamp to the boundary levels, as a CAM input
    /// driver would.
    ///
    /// # Panics
    ///
    /// Panics if `f >= dims()`.
    #[must_use]
    pub fn level_of(&self, f: usize, value: f32) -> u8 {
        let e = &self.edges[f];
        // Count thresholds strictly below the value.
        let lvl = e.partition_point(|&t| t <= value);
        lvl.min(self.n_levels as usize - 1) as u8
    }

    /// Quantizes a full vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] on length mismatch.
    pub fn quantize(&self, x: &[f32]) -> Result<Vec<u8>> {
        if x.len() != self.dims {
            return Err(CoreError::DimensionMismatch {
                expected: self.dims,
                actual: x.len(),
            });
        }
        Ok(x.iter()
            .enumerate()
            .map(|(f, &v)| self.level_of(f, v))
            .collect())
    }

    /// Reconstructs the level centers for a quantized vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] or
    /// [`CoreError::LevelOutOfRange`] for malformed inputs.
    pub fn dequantize(&self, levels: &[u8]) -> Result<Vec<f32>> {
        if levels.len() != self.dims {
            return Err(CoreError::DimensionMismatch {
                expected: self.dims,
                actual: levels.len(),
            });
        }
        levels
            .iter()
            .enumerate()
            .map(|(f, &l)| {
                if l as usize >= self.n_levels as usize {
                    return Err(CoreError::LevelOutOfRange {
                        level: l,
                        max: (self.n_levels - 1) as u8,
                    });
                }
                Ok(self.centers[f][l as usize])
            })
            .collect()
    }
}

fn min_max(xs: &[f32]) -> (f32, f32) {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if !lo.is_finite() || !hi.is_finite() || lo == hi {
        // Degenerate (constant or empty) feature: pick a tiny symmetric
        // range so quantization is well defined.
        let center = if lo.is_finite() { lo } else { 0.0 };
        return (center - 0.5, center + 0.5);
    }
    (lo, hi)
}

fn uniform_grid(lo: f32, hi: f32, n_levels: u16) -> (Vec<f32>, Vec<f32>) {
    let n = n_levels as usize;
    let step = (hi - lo) / n as f32;
    let edges = (1..n).map(|i| lo + step * i as f32).collect();
    let centers = (0..n).map(|i| lo + step * (i as f32 + 0.5)).collect();
    (edges, centers)
}

fn quantile_grid(sorted: &[f32], n_levels: u16) -> (Vec<f32>, Vec<f32>) {
    let n = n_levels as usize;
    let m = sorted.len();
    let q = |p: f64| -> f32 {
        let idx = (p * (m - 1) as f64).round() as usize;
        sorted[idx.min(m - 1)]
    };
    let mut edges: Vec<f32> = (1..n).map(|i| q(i as f64 / n as f64)).collect();
    // Enforce strictly non-decreasing edges (duplicates collapse bins).
    for i in 1..edges.len() {
        if edges[i] < edges[i - 1] {
            edges[i] = edges[i - 1];
        }
    }
    let mut centers = Vec::with_capacity(n);
    for i in 0..n {
        let lo = if i == 0 { sorted[0] } else { edges[i - 1] };
        let hi = if i == n - 1 { sorted[m - 1] } else { edges[i] };
        centers.push(0.5 * (lo + hi));
    }
    (edges, centers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(data: &[&[f32]]) -> Vec<Vec<f32>> {
        data.iter().map(|r| r.to_vec()).collect()
    }

    fn fit(data: &[&[f32]], levels: u16, strategy: QuantizeStrategy) -> Quantizer {
        let owned = rows(data);
        Quantizer::fit(
            owned.iter().map(|r| r.as_slice()),
            data[0].len(),
            levels,
            strategy,
        )
        .unwrap()
    }

    #[test]
    fn min_max_levels_cover_range_uniformly() {
        let q = fit(&[&[0.0], &[8.0]], 8, QuantizeStrategy::PerFeatureMinMax);
        assert_eq!(q.level_of(0, 0.0), 0);
        assert_eq!(q.level_of(0, 0.5), 0);
        assert_eq!(q.level_of(0, 1.5), 1);
        assert_eq!(q.level_of(0, 7.99), 7);
        assert_eq!(q.level_of(0, 8.0), 7);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let q = fit(&[&[0.0], &[1.0]], 4, QuantizeStrategy::PerFeatureMinMax);
        assert_eq!(q.level_of(0, -100.0), 0);
        assert_eq!(q.level_of(0, 100.0), 3);
    }

    #[test]
    fn per_feature_scaling_is_independent() {
        let q = fit(
            &[&[0.0, 0.0], &[1.0, 1000.0]],
            4,
            QuantizeStrategy::PerFeatureMinMax,
        );
        // Same relative position → same level, despite wildly different scales.
        assert_eq!(q.level_of(0, 0.6), q.level_of(1, 600.0));
    }

    #[test]
    fn global_strategy_shares_the_grid() {
        let q = fit(
            &[&[0.0, 0.0], &[1.0, 1000.0]],
            4,
            QuantizeStrategy::GlobalMinMax,
        );
        // Feature 0 occupies only the lowest global bin.
        assert_eq!(q.level_of(0, 1.0), 0);
        assert_eq!(q.level_of(1, 1000.0), 3);
    }

    #[test]
    fn quantile_strategy_balances_mass() {
        // 100 samples heavily skewed: quantile bins should still split
        // them roughly evenly.
        let col: Vec<Vec<f32>> = (0..100)
            .map(|i| {
                vec![if i < 90 {
                    i as f32 * 0.01
                } else {
                    1000.0 + i as f32
                }]
            })
            .collect();
        let q = Quantizer::fit(
            col.iter().map(|r| r.as_slice()),
            1,
            4,
            QuantizeStrategy::PerFeatureQuantile,
        )
        .unwrap();
        let mut counts = [0usize; 4];
        for r in &col {
            counts[q.level_of(0, r[0]) as usize] += 1;
        }
        for (lvl, &c) in counts.iter().enumerate() {
            assert!(
                (15..=35).contains(&c),
                "level {lvl} holds {c} of 100 samples — not balanced"
            );
        }
    }

    #[test]
    fn quantize_dequantize_roundtrip_within_bin() {
        let data: Vec<Vec<f32>> = (0..64).map(|i| vec![i as f32]).collect();
        let q = Quantizer::fit(
            data.iter().map(|r| r.as_slice()),
            1,
            8,
            QuantizeStrategy::PerFeatureMinMax,
        )
        .unwrap();
        for r in &data {
            let levels = q.quantize(r).unwrap();
            let back = q.dequantize(&levels).unwrap();
            // Reconstruction error bounded by half a bin width (63/8/2 ≈ 3.94).
            assert!((back[0] - r[0]).abs() <= 63.0 / 8.0 / 2.0 + 1e-4);
        }
    }

    #[test]
    fn monotonicity_of_levels() {
        let data: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32 * 0.37]).collect();
        let q = Quantizer::fit(
            data.iter().map(|r| r.as_slice()),
            1,
            8,
            QuantizeStrategy::PerFeatureMinMax,
        )
        .unwrap();
        let mut last = 0u8;
        for i in 0..100 {
            let l = q.level_of(0, i as f32 * 0.37);
            assert!(l >= last);
            last = l;
        }
    }

    #[test]
    fn constant_feature_is_stable() {
        let q = fit(
            &[&[5.0, 1.0], &[5.0, 2.0]],
            8,
            QuantizeStrategy::PerFeatureMinMax,
        );
        // All identical values map to one consistent level.
        let l = q.level_of(0, 5.0);
        assert_eq!(q.level_of(0, 5.0), l);
        assert!(l < 8);
    }

    #[test]
    fn fit_rejects_bad_configs() {
        let data = rows(&[&[1.0, 2.0]]);
        assert!(Quantizer::fit(
            data.iter().map(|r| r.as_slice()),
            2,
            1,
            QuantizeStrategy::default()
        )
        .is_err());
        assert!(Quantizer::fit(
            data.iter().map(|r| r.as_slice()),
            0,
            4,
            QuantizeStrategy::default()
        )
        .is_err());
        assert!(matches!(
            Quantizer::fit(std::iter::empty(), 2, 4, QuantizeStrategy::default()),
            Err(CoreError::QuantizerNotFitted)
        ));
        assert!(matches!(
            Quantizer::fit(
                data.iter().map(|r| &r.as_slice()[..1]),
                2,
                4,
                QuantizeStrategy::default()
            ),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn quantize_checks_dimensions() {
        let q = fit(&[&[0.0, 0.0], &[1.0, 1.0]], 4, QuantizeStrategy::default());
        assert!(q.quantize(&[0.5]).is_err());
        assert!(q.dequantize(&[0]).is_err());
        assert!(q.dequantize(&[0, 200]).is_err());
    }
}
