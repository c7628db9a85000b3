//! Nearest-neighbor search engines (paper §IV-A).
//!
//! The paper compares three implementations on identical workloads:
//!
//! 1. [`SoftwareNn`] — FP32 software search with any [`Distance`]
//!    (cosine and Euclidean are the GPU baselines);
//! 2. [`TcamLshNn`] — LSH signatures + in-TCAM Hamming search (Ni et
//!    al.);
//! 3. [`McamNn`] — quantized features + single-step in-MCAM search with
//!    the proposed distance function.
//!
//! All three implement [`NnIndex`], so applications (1-NN
//! classification, MANN few-shot inference) are engine-agnostic.

use femcam_device::FefetModel;
use femcam_lsh::RandomHyperplanes;

use crate::array::{McamArray, McamArrayBuilder, VariationSpec};
use crate::distance::Distance;
use crate::error::CoreError;
use crate::exec::{self, Metric, Precision, SearchSpec};
use crate::levels::LevelLadder;
use crate::lut::ConductanceLut;
use crate::par;
use crate::quantize::{QuantizeStrategy, Quantizer};
use crate::tcam::TcamArray;
use crate::Result;

/// The nearest stored entry for a query.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct QueryResult {
    /// Row index of the nearest entry.
    pub index: usize,
    /// Label attached to the nearest entry.
    pub label: u32,
    /// Engine-specific score; smaller is nearer (distance, total ML
    /// conductance, or Hamming mismatch count).
    pub score: f64,
}

/// A labelled nearest-neighbor index.
pub trait NnIndex {
    /// Feature dimensionality accepted by the index.
    fn dims(&self) -> usize;

    /// Number of stored entries.
    fn len(&self) -> usize;

    /// Returns `true` if nothing is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stores a labelled feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] for wrong-length features
    /// (plus engine-specific failures).
    fn add(&mut self, features: &[f32], label: u32) -> Result<()>;

    /// Finds the nearest stored entry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyArray`] when nothing is stored, or
    /// [`CoreError::DimensionMismatch`] for wrong-length queries.
    fn query(&self, features: &[f32]) -> Result<QueryResult>;

    /// Finds the `k` nearest stored entries, nearest first.
    ///
    /// # `k` contract (uniform across engines)
    ///
    /// `k` is **clamped, never an error**: `k = 0` returns an empty
    /// vector, `k > len()` returns all `len()` entries — identically
    /// for every engine in this crate and for the batched variants
    /// ([`query_k_batch`](Self::query_k_batch)), so callers can pass a
    /// user-supplied `k` straight through without pre-validating it
    /// against the index size.
    ///
    /// # Errors
    ///
    /// Same conditions as [`query`](Self::query) — an empty index or a
    /// malformed query, never an out-of-range `k`.
    fn query_k(&self, features: &[f32], k: usize) -> Result<Vec<QueryResult>>;

    /// Finds the nearest stored entry for each query, in query order.
    ///
    /// The default implementation loops [`query`](Self::query); every
    /// engine in this crate overrides it with a natively batched path
    /// (compiled MCAM plans, worker-thread sharding) that returns
    /// identical results.
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyArray`] if the index is empty — even for an
    ///   empty batch, matching [`query`](Self::query) (the same
    ///   contract as [`crate::McamArray::search_batch_with`]).
    /// * Otherwise the first failing query (in query order) fails the
    ///   batch; an empty batch on a nonempty index is `Ok(vec![])`.
    fn query_batch(&self, queries: &[&[f32]]) -> Result<Vec<QueryResult>> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        queries.iter().map(|q| self.query(q)).collect()
    }

    /// Finds the `k` nearest stored entries for each query, in query
    /// order (nearest first within each result).
    ///
    /// Default and override semantics mirror
    /// [`query_batch`](Self::query_batch); `k` is clamped exactly as
    /// in [`query_k`](Self::query_k).
    ///
    /// # Errors
    ///
    /// Same conditions as [`query_batch`](Self::query_batch).
    fn query_k_batch(&self, queries: &[&[f32]], k: usize) -> Result<Vec<Vec<QueryResult>>> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        queries.iter().map(|q| self.query_k(q, k)).collect()
    }

    /// Human-readable engine name for reports.
    fn name(&self) -> String;
}

/// k-NN majority-vote classification: queries the `k` nearest entries
/// and returns the most frequent label (nearest-first tie break).
///
/// # Errors
///
/// Propagates [`NnIndex::query_k`] failures.
pub fn classify_knn<I>(index: &I, features: &[f32], k: usize) -> Result<u32>
where
    I: NnIndex + ?Sized,
{
    let hits = index.query_k(features, k)?;
    let mut counts: Vec<(u32, usize)> = Vec::new();
    for h in &hits {
        match counts.iter_mut().find(|(l, _)| *l == h.label) {
            Some((_, c)) => *c += 1,
            None => counts.push((h.label, 1)),
        }
    }
    // Max count; ties resolved by earliest (nearest) appearance.
    Ok(counts
        .iter()
        .max_by_key(|&&(_, c)| c)
        .map(|&(l, _)| l)
        // femcam::allow(no_panic): query_k(.., 1) on a nonempty engine
        // returns at least one hit.
        .expect("query_k returns at least one hit"))
}

/// FP32 exact software NN search with a pluggable distance function.
#[derive(Debug, Clone)]
pub struct SoftwareNn<D> {
    distance: D,
    dims: usize,
    data: Vec<f32>,
    labels: Vec<u32>,
}

impl<D: Distance> SoftwareNn<D> {
    /// Creates an empty index over `dims`-dimensional vectors.
    #[must_use]
    pub fn new(distance: D, dims: usize) -> Self {
        SoftwareNn {
            distance,
            dims,
            data: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// The distance function driving this index.
    #[must_use]
    pub fn distance(&self) -> &D {
        &self.distance
    }
}

impl<D: Distance> NnIndex for SoftwareNn<D> {
    fn dims(&self) -> usize {
        self.dims
    }

    fn len(&self) -> usize {
        self.labels.len()
    }

    fn add(&mut self, features: &[f32], label: u32) -> Result<()> {
        if features.len() != self.dims {
            return Err(CoreError::DimensionMismatch {
                expected: self.dims,
                actual: features.len(),
            });
        }
        self.data.extend_from_slice(features);
        self.labels.push(label);
        Ok(())
    }

    fn query(&self, features: &[f32]) -> Result<QueryResult> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        if features.len() != self.dims {
            return Err(CoreError::DimensionMismatch {
                expected: self.dims,
                actual: features.len(),
            });
        }
        let mut best = QueryResult {
            index: 0,
            label: self.labels[0],
            score: f64::INFINITY,
        };
        for (i, row) in self.data.chunks_exact(self.dims).enumerate() {
            let d = self.distance.eval(features, row);
            if d < best.score {
                best = QueryResult {
                    index: i,
                    label: self.labels[i],
                    score: d,
                };
            }
        }
        Ok(best)
    }

    fn query_k(&self, features: &[f32], k: usize) -> Result<Vec<QueryResult>> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        if features.len() != self.dims {
            return Err(CoreError::DimensionMismatch {
                expected: self.dims,
                actual: features.len(),
            });
        }
        let scores: Vec<f64> = self
            .data
            .chunks_exact(self.dims)
            .map(|row| self.distance.eval(features, row))
            .collect();
        Ok(exec::top_k_indices(&scores, k)
            .into_iter()
            .map(|index| QueryResult {
                index,
                label: self.labels[index],
                score: scores[index],
            })
            .collect())
    }

    fn query_batch(&self, queries: &[&[f32]]) -> Result<Vec<QueryResult>> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        let threads = par::threads_for(queries.len() * self.len() * self.dims);
        par::try_par_map(queries, threads, |_, q| self.query(q))
    }

    fn query_k_batch(&self, queries: &[&[f32]], k: usize) -> Result<Vec<Vec<QueryResult>>> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        let threads = par::threads_for(queries.len() * self.len() * self.dims);
        par::try_par_map(queries, threads, |_, q| self.query_k(q, k))
    }

    fn name(&self) -> String {
        format!("fp32-{}", self.distance.name())
    }
}

/// The proposed in-MCAM NN engine: quantize features, store them in an
/// MCAM array, and search in a single in-memory step.
///
/// # Examples
///
/// ```
/// use femcam_core::{McamNn, NnIndex, QuantizeStrategy};
/// use femcam_device::FefetModel;
///
/// # fn main() -> femcam_core::Result<()> {
/// let train: Vec<Vec<f32>> = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.0, 1.0]];
/// let mut index = McamNn::fit(
///     3,
///     train.iter().map(|r| r.as_slice()),
///     2,
///     QuantizeStrategy::PerFeatureMinMax,
///     &FefetModel::default(),
/// )?;
/// index.add(&[0.0, 0.0], 0)?;
/// index.add(&[1.0, 1.0], 1)?;
/// assert_eq!(index.query(&[0.9, 0.95])?.label, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct McamNn {
    quantizer: Quantizer,
    array: McamArray,
    labels: Vec<u32>,
    precision: Precision,
    metric: Metric,
}

impl McamNn {
    /// Assembles an engine from a fitted quantizer and a prepared array.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the quantizer's level
    /// count differs from the array ladder's.
    pub fn new(quantizer: Quantizer, array: McamArray) -> Result<Self> {
        if quantizer.n_levels() as usize != array.ladder().n_levels() {
            return Err(CoreError::InvalidParameter {
                name: "n_levels",
                value: quantizer.n_levels() as f64,
            });
        }
        Ok(McamNn {
            quantizer,
            array,
            labels: Vec::new(),
            precision: Precision::F64,
            metric: Metric::default(),
        })
    }

    /// The execution precision queries run at (default
    /// [`Precision::F64`], bit-identical to the scalar physics path).
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Selects the execution precision for all query paths.
    /// [`Precision::F32`] opts into the fast plane kernel (roughly 2×
    /// on the bandwidth-bound hot loop) under the accuracy contract
    /// documented in [`crate::exec`]'s "Precision modes";
    /// [`Precision::Codes`] opts into the byte-packed LUT-gather kernel
    /// (bit-identical to `F32` on shared-LUT arrays, transparent `f32`
    /// fallback under device variation — see "Codes mode" there).
    pub fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
    }

    /// Builder-style [`set_precision`](Self::set_precision).
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// The distance semantics queries run under (default
    /// [`Metric::McamConductance`], the paper's analog distance).
    #[must_use]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Selects the distance semantics for all query paths — a runtime
    /// knob beside [`set_precision`](Self::set_precision). Synthesized
    /// metrics ([`Metric::L1`], [`Metric::Linf`], [`Metric::Hamming`])
    /// run through the same compiled kernels with distance-valued
    /// tables (see [`crate::exec`]'s "Metric modes"); "smaller score =
    /// nearer" holds for every choice. Switching costs nothing until
    /// the next query, which compiles (and caches) the chosen metric's
    /// plan.
    pub fn set_metric(&mut self, metric: Metric) {
        self.metric = metric;
    }

    /// Builder-style [`set_metric`](Self::set_metric).
    #[must_use]
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Convenience constructor: fits a quantizer on training rows and
    /// builds a nominal `bits`-bit array from the device model.
    ///
    /// # Errors
    ///
    /// Propagates ladder, quantizer, and array construction failures.
    pub fn fit<'a, I>(
        bits: u8,
        rows: I,
        dims: usize,
        strategy: QuantizeStrategy,
        model: &FefetModel,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        let ladder = LevelLadder::new(bits)?;
        let quantizer = Quantizer::fit(rows, dims, ladder.n_levels() as u16, strategy)?;
        let lut = ConductanceLut::from_device(model, &ladder);
        let array = McamArray::new(ladder, lut, dims);
        McamNn::new(quantizer, array)
    }

    /// Like [`fit`](Self::fit), but with per-cell Gaussian `Vth`
    /// variation applied to every stored cell (paper Fig. 8).
    ///
    /// # Errors
    ///
    /// Propagates ladder, quantizer, and array construction failures.
    pub fn fit_with_variation<'a, I>(
        bits: u8,
        rows: I,
        dims: usize,
        strategy: QuantizeStrategy,
        model: &FefetModel,
        variation: VariationSpec,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        let ladder = LevelLadder::new(bits)?;
        let quantizer = Quantizer::fit(rows, dims, ladder.n_levels() as u16, strategy)?;
        let lut = ConductanceLut::from_device(model, &ladder);
        let array = McamArrayBuilder::new(ladder, lut)
            .word_len(dims)
            .variation(variation, *model)
            .build();
        McamNn::new(quantizer, array)
    }

    /// Replaces the array's LUT-producing path with a measured LUT (the
    /// Fig. 9 experimental table) while keeping the fitted quantizer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] on level-count mismatch.
    pub fn with_lut(self, lut: ConductanceLut) -> Result<Self> {
        if lut.n_levels() != self.array.ladder().n_levels() {
            return Err(CoreError::InvalidParameter {
                name: "n_levels",
                value: lut.n_levels() as f64,
            });
        }
        let ladder = *self.array.ladder();
        let dims = self.quantizer.dims();
        let mut array = McamArray::new(ladder, lut, dims);
        // Re-store existing rows into the fresh array.
        for r in 0..self.array.n_rows() {
            array
                .store(self.array.row(r))
                // femcam::allow(no_panic): rows were validated when first
                // stored; re-storing them cannot fail.
                .expect("existing rows are valid");
        }
        Ok(McamNn {
            quantizer: self.quantizer,
            array,
            labels: self.labels,
            precision: self.precision,
            metric: self.metric,
        })
    }

    /// The fitted quantizer.
    #[must_use]
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    /// The underlying MCAM array.
    #[must_use]
    pub fn array(&self) -> &McamArray {
        &self.array
    }

    /// The search spec every query runs at: this index's precision and
    /// metric.
    fn spec(&self) -> SearchSpec<'static> {
        SearchSpec {
            precision: self.precision,
            metric: self.metric,
            banks: None,
        }
    }

    /// A stored row's answer, labelled.
    fn result(&self, index: usize, score: f64) -> QueryResult {
        QueryResult {
            index,
            label: self.labels[index],
            score,
        }
    }

    /// Quantizes every query, failing on the first malformed one in
    /// query order.
    fn quantize_batch(&self, queries: &[&[f32]]) -> Result<Vec<Vec<u8>>> {
        queries.iter().map(|q| self.quantizer.quantize(q)).collect()
    }
}

impl NnIndex for McamNn {
    fn dims(&self) -> usize {
        self.quantizer.dims()
    }

    fn len(&self) -> usize {
        self.labels.len()
    }

    fn add(&mut self, features: &[f32], label: u32) -> Result<()> {
        let levels = self.quantizer.quantize(features)?;
        self.array.store(&levels)?;
        self.labels.push(label);
        Ok(())
    }

    fn query(&self, features: &[f32]) -> Result<QueryResult> {
        let levels = self.quantizer.quantize(features)?;
        let winners = self
            .array
            .search_batch_winners_with(&[&levels[..]], self.spec())?;
        let (index, score) = winners[0];
        Ok(self.result(index, score))
    }

    fn query_k(&self, features: &[f32], k: usize) -> Result<Vec<QueryResult>> {
        let levels = self.quantizer.quantize(features)?;
        let hits = self
            .array
            .search_batch_top_k_with(&[&levels[..]], k, self.spec())?;
        Ok(hits[0]
            .iter()
            .map(|&(index, score)| self.result(index, score))
            .collect())
    }

    fn query_batch(&self, queries: &[&[f32]]) -> Result<Vec<QueryResult>> {
        // Emptiness outranks per-query validation (the cross-engine
        // contract on the trait), so check it before quantizing.
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        let levels = self.quantize_batch(queries)?;
        let refs: Vec<&[u8]> = levels.iter().map(|l| l.as_slice()).collect();
        let winners = self.array.search_batch_winners_with(&refs, self.spec())?;
        Ok(winners
            .into_iter()
            .map(|(index, score)| self.result(index, score))
            .collect())
    }

    fn query_k_batch(&self, queries: &[&[f32]], k: usize) -> Result<Vec<Vec<QueryResult>>> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        let levels = self.quantize_batch(queries)?;
        let refs: Vec<&[u8]> = levels.iter().map(|l| l.as_slice()).collect();
        let hits = self.array.search_batch_top_k_with(&refs, k, self.spec())?;
        Ok(hits
            .into_iter()
            .map(|top| {
                top.into_iter()
                    .map(|(index, score)| self.result(index, score))
                    .collect()
            })
            .collect())
    }

    fn name(&self) -> String {
        format!(
            "mcam-{}bit{}{}",
            self.array.ladder().bits(),
            self.precision.name_suffix(),
            self.metric.name_suffix()
        )
    }
}

/// The TCAM+LSH baseline: LSH signatures stored in a TCAM, searched by
/// in-memory Hamming distance.
#[derive(Debug)]
pub struct TcamLshNn {
    lsh: RandomHyperplanes,
    tcam: TcamArray,
    labels: Vec<u32>,
}

impl TcamLshNn {
    /// Creates an engine producing `signature_bits`-bit signatures over
    /// `dims`-dimensional inputs.
    ///
    /// The paper's iso-word-length comparison uses as many signature bits
    /// as the MCAM has cells; Ni et al.'s original 512-bit signatures are
    /// reproduced by passing `signature_bits = 512`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Lsh`] for an empty configuration.
    pub fn new(signature_bits: usize, dims: usize, seed: u64) -> Result<Self> {
        let lsh = RandomHyperplanes::new(signature_bits, dims, seed)?;
        Ok(TcamLshNn {
            lsh,
            tcam: TcamArray::new(signature_bits),
            labels: Vec::new(),
        })
    }

    /// Signature length in bits.
    #[must_use]
    pub fn signature_bits(&self) -> usize {
        self.lsh.bits()
    }
}

impl NnIndex for TcamLshNn {
    fn dims(&self) -> usize {
        self.lsh.dims()
    }

    fn len(&self) -> usize {
        self.labels.len()
    }

    fn add(&mut self, features: &[f32], label: u32) -> Result<()> {
        let sig = self.lsh.signature(features)?;
        self.tcam.store_signature(&sig)?;
        self.labels.push(label);
        Ok(())
    }

    fn query(&self, features: &[f32]) -> Result<QueryResult> {
        let sig = self.lsh.signature(features)?;
        let outcome = self.tcam.hamming_search(&sig)?;
        let index = outcome.best_row();
        Ok(QueryResult {
            index,
            label: self.labels[index],
            score: outcome.hamming(index) as f64,
        })
    }

    fn query_k(&self, features: &[f32], k: usize) -> Result<Vec<QueryResult>> {
        let sig = self.lsh.signature(features)?;
        let outcome = self.tcam.hamming_search(&sig)?;
        let scores: Vec<f64> = outcome.mismatches().iter().map(|&m| m as f64).collect();
        Ok(exec::top_k_indices(&scores, k)
            .into_iter()
            .map(|index| QueryResult {
                index,
                label: self.labels[index],
                score: scores[index],
            })
            .collect())
    }

    fn query_batch(&self, queries: &[&[f32]]) -> Result<Vec<QueryResult>> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        let threads = par::threads_for(queries.len() * self.len() * self.lsh.bits());
        par::try_par_map(queries, threads, |_, q| self.query(q))
    }

    fn query_k_batch(&self, queries: &[&[f32]], k: usize) -> Result<Vec<Vec<QueryResult>>> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        let threads = par::threads_for(queries.len() * self.len() * self.lsh.bits());
        par::try_par_map(queries, threads, |_, q| self.query_k(q, k))
    }

    fn name(&self) -> String {
        format!("tcam+lsh-{}b", self.lsh.bits())
    }
}

/// 1-NN classification accuracy over parallel feature/label slices,
/// evaluated through the engine's batched query path.
///
/// # Errors
///
/// * [`CoreError::DimensionMismatch`] if `features` and `labels` differ
///   in length.
/// * Propagates query failures.
pub fn accuracy<I>(index: &I, features: &[Vec<f32>], labels: &[u32]) -> Result<f64>
where
    I: NnIndex + ?Sized,
{
    if features.len() != labels.len() {
        return Err(CoreError::DimensionMismatch {
            expected: labels.len(),
            actual: features.len(),
        });
    }
    if features.is_empty() {
        return Err(CoreError::EmptyArray);
    }
    let refs: Vec<&[f32]> = features.iter().map(|f| f.as_slice()).collect();
    let results = index.query_batch(&refs)?;
    let correct = results
        .iter()
        .zip(labels)
        .filter(|(r, &l)| r.label == l)
        .count();
    Ok(correct as f64 / features.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{Cosine, Euclidean};

    fn clustered_data() -> (Vec<Vec<f32>>, Vec<u32>) {
        // Two clusters separated both in magnitude and in angle, so every
        // engine family (Euclidean, cosine, LSH-Hamming, MCAM) can split
        // them.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            let t = i as f32 * 0.005;
            features.push(vec![1.0 - t, 0.05 + t, 0.1]);
            labels.push(0);
            features.push(vec![0.05 + t, 1.0 - t, 0.9]);
            labels.push(1);
        }
        (features, labels)
    }

    #[test]
    fn software_nn_finds_euclidean_nearest() {
        let mut idx = SoftwareNn::new(Euclidean, 2);
        idx.add(&[0.0, 0.0], 10).unwrap();
        idx.add(&[5.0, 5.0], 20).unwrap();
        let r = idx.query(&[4.0, 4.5]).unwrap();
        assert_eq!(r.index, 1);
        assert_eq!(r.label, 20);
        assert!((r.score - Euclidean.eval(&[4.0, 4.5], &[5.0, 5.0])).abs() < 1e-12);
    }

    #[test]
    fn software_nn_validates() {
        let mut idx = SoftwareNn::new(Cosine, 3);
        assert!(idx.add(&[1.0], 0).is_err());
        assert!(matches!(
            idx.query(&[1.0, 0.0, 0.0]),
            Err(CoreError::EmptyArray)
        ));
        idx.add(&[1.0, 0.0, 0.0], 0).unwrap();
        assert!(idx.query(&[1.0]).is_err());
    }

    #[test]
    fn mcam_nn_classifies_clustered_data_perfectly() {
        let (features, labels) = clustered_data();
        let mut idx = McamNn::fit(
            3,
            features.iter().map(|r| r.as_slice()),
            3,
            QuantizeStrategy::PerFeatureMinMax,
            &FefetModel::default(),
        )
        .unwrap();
        for (f, &l) in features.iter().zip(&labels) {
            idx.add(f, l).unwrap();
        }
        let acc = accuracy(&idx, &features, &labels).unwrap();
        assert!(acc > 0.99, "self-classification accuracy {acc}");
        // And held-out points near each cluster classify correctly.
        assert_eq!(idx.query(&[0.95, 0.1, 0.12]).unwrap().label, 0);
        assert_eq!(idx.query(&[0.1, 0.93, 0.88]).unwrap().label, 1);
    }

    #[test]
    fn mcam_nn_level_mismatch_rejected() {
        let train: Vec<Vec<f32>> = vec![vec![0.0], vec![1.0]];
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let array = McamArray::new(ladder, lut, 1);
        let quantizer = Quantizer::fit(
            train.iter().map(|r| r.as_slice()),
            1,
            4, // 2-bit quantizer vs 3-bit array
            QuantizeStrategy::PerFeatureMinMax,
        )
        .unwrap();
        assert!(McamNn::new(quantizer, array).is_err());
    }

    #[test]
    fn tcam_lsh_nn_classifies_well_separated_angles() {
        let mut idx = TcamLshNn::new(256, 3, 7).unwrap();
        idx.add(&[1.0, 0.0, 0.0], 0).unwrap();
        idx.add(&[0.0, 1.0, 0.0], 1).unwrap();
        idx.add(&[0.0, 0.0, 1.0], 2).unwrap();
        assert_eq!(idx.query(&[0.9, 0.1, 0.05]).unwrap().label, 0);
        assert_eq!(idx.query(&[0.05, 0.95, 0.1]).unwrap().label, 1);
        assert_eq!(idx.query(&[0.0, 0.2, 0.9]).unwrap().label, 2);
    }

    #[test]
    fn engines_share_the_nn_index_interface() {
        let (features, labels) = clustered_data();
        let mut engines: Vec<Box<dyn NnIndex>> = vec![
            Box::new(SoftwareNn::new(Euclidean, 3)),
            Box::new(SoftwareNn::new(Cosine, 3)),
            Box::new(
                McamNn::fit(
                    2,
                    features.iter().map(|r| r.as_slice()),
                    3,
                    QuantizeStrategy::PerFeatureMinMax,
                    &FefetModel::default(),
                )
                .unwrap(),
            ),
            Box::new(TcamLshNn::new(64, 3, 3).unwrap()),
        ];
        for engine in &mut engines {
            for (f, &l) in features.iter().zip(&labels) {
                engine.add(f, l).unwrap();
            }
            let acc = accuracy(engine.as_ref(), &features, &labels).unwrap();
            assert!(
                acc > 0.9,
                "{} self-accuracy {acc} too low on trivially separable data",
                engine.name()
            );
            assert!(!engine.name().is_empty());
            assert_eq!(engine.len(), features.len());
        }
    }

    #[test]
    fn accuracy_on_validates() {
        let idx = SoftwareNn::new(Euclidean, 1);
        assert!(accuracy(&idx, &[vec![1.0]], &[]).is_err());
        assert!(accuracy(&idx, &[], &[]).is_err());
    }

    #[test]
    fn query_k_orders_and_truncates_consistently_across_engines() {
        let (features, labels) = clustered_data();
        let mut engines: Vec<Box<dyn NnIndex>> = vec![
            Box::new(SoftwareNn::new(Euclidean, 3)),
            Box::new(
                McamNn::fit(
                    3,
                    features.iter().map(|r| r.as_slice()),
                    3,
                    QuantizeStrategy::PerFeatureMinMax,
                    &FefetModel::default(),
                )
                .unwrap(),
            ),
            Box::new(TcamLshNn::new(64, 3, 5).unwrap()),
        ];
        for engine in &mut engines {
            for (f, &l) in features.iter().zip(&labels) {
                engine.add(f, l).unwrap();
            }
            let q = &features[0];
            let top = engine.query_k(q, 5).unwrap();
            assert_eq!(top.len(), 5, "{}", engine.name());
            // Sorted by score, and the first equals query().
            for w in top.windows(2) {
                assert!(w[0].score <= w[1].score, "{}", engine.name());
            }
            assert_eq!(top[0].index, engine.query(q).unwrap().index);
            // Oversized k returns everything.
            assert_eq!(engine.query_k(q, 10_000).unwrap().len(), features.len());
        }
    }

    #[test]
    fn batched_queries_equal_sequential_queries_across_engines() {
        let (features, labels) = clustered_data();
        let mut engines: Vec<Box<dyn NnIndex>> = vec![
            Box::new(SoftwareNn::new(Euclidean, 3)),
            Box::new(SoftwareNn::new(Cosine, 3)),
            Box::new(
                McamNn::fit(
                    3,
                    features.iter().map(|r| r.as_slice()),
                    3,
                    QuantizeStrategy::PerFeatureMinMax,
                    &FefetModel::default(),
                )
                .unwrap(),
            ),
            Box::new(TcamLshNn::new(64, 3, 3).unwrap()),
        ];
        for engine in &mut engines {
            for (f, &l) in features.iter().zip(&labels) {
                engine.add(f, l).unwrap();
            }
            let refs: Vec<&[f32]> = features.iter().map(|f| f.as_slice()).collect();
            let batched = engine.query_batch(&refs).unwrap();
            assert_eq!(batched.len(), refs.len(), "{}", engine.name());
            for (q, b) in refs.iter().zip(&batched) {
                let s = engine.query(q).unwrap();
                assert_eq!((b.index, b.label), (s.index, s.label), "{}", engine.name());
                assert_eq!(b.score, s.score, "{} batched score drifted", engine.name());
            }
            let batched_k = engine.query_k_batch(&refs, 3).unwrap();
            for (q, bk) in refs.iter().zip(&batched_k) {
                let sk = engine.query_k(q, 3).unwrap();
                assert_eq!(bk.len(), sk.len(), "{}", engine.name());
                for (b, s) in bk.iter().zip(&sk) {
                    assert_eq!((b.index, b.score), (s.index, s.score), "{}", engine.name());
                }
            }
        }
    }

    #[test]
    fn batch_of_empty_queries_is_empty() {
        let mut idx = SoftwareNn::new(Euclidean, 2);
        idx.add(&[0.0, 0.0], 0).unwrap();
        assert!(idx.query_batch(&[]).unwrap().is_empty());
        assert!(idx.query_k_batch(&[], 3).unwrap().is_empty());
    }

    #[test]
    fn empty_index_refuses_batches_like_single_queries() {
        // The empty-array/empty-batch contract: an empty index errors
        // first, even when the batch is also empty.
        let idx = SoftwareNn::new(Euclidean, 2);
        assert!(matches!(idx.query_batch(&[]), Err(CoreError::EmptyArray)));
        assert!(matches!(
            idx.query_k_batch(&[], 3),
            Err(CoreError::EmptyArray)
        ));
        let tcam = TcamLshNn::new(16, 2, 1).unwrap();
        assert!(matches!(tcam.query_batch(&[]), Err(CoreError::EmptyArray)));
        assert!(matches!(
            tcam.query_k_batch(&[], 1),
            Err(CoreError::EmptyArray)
        ));
    }

    #[test]
    fn batch_propagates_first_error_in_query_order() {
        let mut idx = SoftwareNn::new(Euclidean, 2);
        idx.add(&[0.0, 0.0], 0).unwrap();
        let queries: Vec<&[f32]> = vec![&[0.0, 0.0], &[1.0], &[1.0, 2.0, 3.0]];
        assert!(matches!(
            idx.query_batch(&queries),
            Err(CoreError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn knn_majority_vote_fixes_outlier_neighbors() {
        // One mislabeled point right next to the query: 1-NN fails,
        // 3-NN recovers.
        let mut idx = SoftwareNn::new(Euclidean, 1);
        idx.add(&[0.0], 1).unwrap(); // mislabeled outlier
        idx.add(&[0.1], 0).unwrap();
        idx.add(&[0.2], 0).unwrap();
        idx.add(&[5.0], 1).unwrap();
        assert_eq!(idx.query(&[0.01]).unwrap().label, 1);
        assert_eq!(classify_knn(&idx, &[0.01], 3).unwrap(), 0);
    }

    #[test]
    fn mcam_with_measured_lut_keeps_rows() {
        let train: Vec<Vec<f32>> = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let mut idx = McamNn::fit(
            2,
            train.iter().map(|r| r.as_slice()),
            2,
            QuantizeStrategy::PerFeatureMinMax,
            &FefetModel::default(),
        )
        .unwrap();
        idx.add(&[0.0, 0.0], 0).unwrap();
        idx.add(&[1.0, 1.0], 1).unwrap();
        // Swap in a distorted LUT; stored rows and labels survive.
        let lut =
            ConductanceLut::from_fn(4, |i, s| ((i as f64 - s as f64).abs() + 0.1) * 1e-6).unwrap();
        let idx = idx.with_lut(lut).unwrap();
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.query(&[0.95, 0.9]).unwrap().label, 1);
    }
}
