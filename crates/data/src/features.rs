//! Class-conditional feature sources (paper §IV-C input representation).
//!
//! The paper's few-shot experiments run NN search over 64-dimensional
//! feature vectors produced by the last fully-connected layer of a
//! trained CNN. [`PrototypeFeatureModel`] is a surrogate for that
//! embedding: every class owns a fixed unit-norm prototype direction and
//! samples are unit-normalized perturbations of it. This preserves the
//! geometry the search engines operate on — unit-norm, class-clustered,
//! 64-d — while remaining deterministic, fast, and dataset-free.
//!
//! The real CNN path still exists: `femcam-nn` trains an embedding on
//! [`crate::glyphs`] data and plugs in through the same
//! [`ClassFeatureSource`] trait.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A source of labelled feature vectors, sampled per class.
///
/// Implementors decide what a "class" is; callers use opaque `u64` class
/// identifiers (unbounded — the Omniglot regime has ~1600 classes, a
/// prototype model has 2⁶⁴).
pub trait ClassFeatureSource {
    /// Feature dimensionality.
    fn dims(&self) -> usize;

    /// Draws one feature vector for `class`.
    fn sample(&mut self, class: u64) -> Vec<f32>;

    /// Draws `n` feature vectors for `class`.
    fn sample_n(&mut self, class: u64, n: usize) -> Vec<Vec<f32>> {
        (0..n).map(|_| self.sample(class)).collect()
    }
}

/// Surrogate for a trained embedding network: unit-norm class prototypes
/// plus intra-class Gaussian noise, renormalized.
///
/// The default noise level is calibrated so FP32 cosine 5-way 1-shot
/// accuracy lands near the paper's ≈99% (see `femcam-mann` tests).
///
/// # Examples
///
/// ```
/// use femcam_data::{ClassFeatureSource, PrototypeFeatureModel};
///
/// let mut model = PrototypeFeatureModel::new(64, 0.055, 42);
/// let a = model.sample(3);
/// let b = model.sample(3);
/// let c = model.sample(9);
/// let dot = |x: &[f32], y: &[f32]| -> f32 { x.iter().zip(y).map(|(a, b)| a * b).sum() };
/// assert!(dot(&a, &b) > dot(&a, &c), "same-class samples are closer");
/// ```
#[derive(Debug, Clone)]
pub struct PrototypeFeatureModel {
    dims: usize,
    noise_sigma: f64,
    seed: u64,
    rng: StdRng,
}

impl PrototypeFeatureModel {
    /// Creates a model with per-coordinate noise `noise_sigma` (the
    /// effective angular perturbation is `noise_sigma · √dims`).
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or `noise_sigma` is negative/non-finite.
    #[must_use]
    pub fn new(dims: usize, noise_sigma: f64, seed: u64) -> Self {
        assert!(dims > 0, "dims must be positive");
        assert!(
            noise_sigma >= 0.0 && noise_sigma.is_finite(),
            "noise_sigma must be finite and non-negative"
        );
        PrototypeFeatureModel {
            dims,
            noise_sigma,
            seed,
            rng: StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A),
        }
    }

    /// The paper's configuration: 64-d features (the MANN's last FC
    /// layer has 64 nodes), with the intra-class noise calibrated so the
    /// FP32 baselines and the TCAM+LSH/MCAM accuracy gaps land in the
    /// paper's Fig. 7 regime (cosine ≈ 99%, 3-bit MCAM within ~1%,
    /// TCAM+LSH ≈ 13% behind on average).
    #[must_use]
    pub fn paper_default(seed: u64) -> Self {
        PrototypeFeatureModel::new(64, 0.12, seed)
    }

    /// Per-coordinate noise sigma.
    #[must_use]
    pub fn noise_sigma(&self) -> f64 {
        self.noise_sigma
    }

    /// The deterministic unit-norm prototype of `class`.
    #[must_use]
    pub fn prototype(&self, class: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, class));
        let mut v: Vec<f64> = (0..self.dims).map(|_| normal(&mut rng)).collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
        v.iter_mut().for_each(|x| *x /= norm);
        v.into_iter().map(|x| x as f32).collect()
    }

    /// One unit-normalized noisy draw around `proto`.
    fn perturb(&mut self, proto: &[f32]) -> Vec<f32> {
        let mut v: Vec<f64> = proto
            .iter()
            .map(|&p| p as f64 + self.noise_sigma * normal(&mut self.rng))
            .collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
        v.iter_mut().for_each(|x| *x /= norm);
        v.into_iter().map(|x| x as f32).collect()
    }
}

impl ClassFeatureSource for PrototypeFeatureModel {
    fn dims(&self) -> usize {
        self.dims
    }

    fn sample(&mut self, class: u64) -> Vec<f32> {
        let proto = self.prototype(class);
        self.perturb(&proto)
    }

    /// Draws the `n` samples around one prototype computation; the same
    /// `self.rng` stream in the same order as `n` calls to
    /// [`sample`](ClassFeatureSource::sample), so bit-identical to them.
    fn sample_n(&mut self, class: u64, n: usize) -> Vec<Vec<f32>> {
        let proto = self.prototype(class);
        (0..n).map(|_| self.perturb(&proto)).collect()
    }
}

/// SplitMix64-style mixing of a seed and a class id into an RNG seed.
fn mix(seed: u64, class: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(class.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(&x, &y)| (x * y) as f64).sum()
    }

    fn norm(a: &[f32]) -> f64 {
        dot(a, a).sqrt()
    }

    #[test]
    fn prototypes_are_unit_norm_and_deterministic() {
        let m = PrototypeFeatureModel::paper_default(1);
        for class in [0u64, 1, 99, u64::MAX] {
            let p = m.prototype(class);
            assert_eq!(p.len(), 64);
            assert!((norm(&p) - 1.0).abs() < 1e-6);
            assert_eq!(p, m.prototype(class));
        }
    }

    #[test]
    fn different_classes_are_nearly_orthogonal() {
        let m = PrototypeFeatureModel::paper_default(5);
        // Random 64-d unit vectors concentrate around orthogonality.
        let mut max_abs_cos = 0.0f64;
        for a in 0..12u64 {
            for b in (a + 1)..12u64 {
                max_abs_cos = max_abs_cos.max(dot(&m.prototype(a), &m.prototype(b)).abs());
            }
        }
        assert!(
            max_abs_cos < 0.55,
            "prototype pair too correlated: {max_abs_cos}"
        );
    }

    #[test]
    fn samples_are_unit_norm_and_cluster_around_prototype() {
        let mut m = PrototypeFeatureModel::paper_default(7);
        let proto = m.prototype(42);
        for _ in 0..50 {
            let s = m.sample(42);
            assert!((norm(&s) - 1.0).abs() < 1e-6);
            // With the calibrated noise (sigma 0.12 over 64 dims) the
            // expected cosine to the prototype is ~1/sqrt(1 + (8σ)²) ≈ 0.72.
            assert!(
                dot(&s, &proto) > 0.5,
                "sample strayed too far from its prototype"
            );
        }
    }

    #[test]
    fn zero_noise_reproduces_the_prototype() {
        let mut m = PrototypeFeatureModel::new(16, 0.0, 3);
        let s = m.sample(8);
        let p = m.prototype(8);
        for (a, b) in s.iter().zip(&p) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = PrototypeFeatureModel::paper_default(11);
        let mut b = PrototypeFeatureModel::paper_default(11);
        assert_eq!(a.sample(5), b.sample(5));
        assert_eq!(a.sample_n(6, 3), b.sample_n(6, 3));
    }

    #[test]
    fn sample_n_equals_consecutive_samples_bitwise() {
        let bits = |xs: &[Vec<f32>]| -> Vec<Vec<u32>> {
            xs.iter()
                .map(|x| x.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        for n in [0usize, 1, 5] {
            let mut batched = PrototypeFeatureModel::paper_default(17);
            // Advance the stream first so the draw starts mid-stream.
            let _ = batched.sample(2);
            let mut single = batched.clone();
            let a = batched.sample_n(9, n);
            let b: Vec<Vec<f32>> = (0..n).map(|_| single.sample(9)).collect();
            assert_eq!(a.len(), n);
            assert_eq!(bits(&a), bits(&b), "sample_n({n}) diverged from sample");
            // Both models advanced their RNG identically.
            assert_eq!(
                bits(&[batched.sample(4)]),
                bits(&[single.sample(4)]),
                "stream position differs after sample_n({n})"
            );
        }
    }

    #[test]
    fn sample_n_returns_distinct_draws() {
        let mut m = PrototypeFeatureModel::paper_default(13);
        let xs = m.sample_n(1, 4);
        assert_eq!(xs.len(), 4);
        assert_ne!(xs[0], xs[1]);
    }

    #[test]
    #[should_panic(expected = "dims must be positive")]
    fn zero_dims_panics() {
        let _ = PrototypeFeatureModel::new(0, 0.1, 0);
    }

    #[test]
    #[should_panic(expected = "noise_sigma")]
    fn negative_noise_panics() {
        let _ = PrototypeFeatureModel::new(8, -0.1, 0);
    }
}
