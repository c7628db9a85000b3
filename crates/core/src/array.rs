//! MCAM arrays: storage, single-step NN search, match-line discharge.
//!
//! A search applies one input voltage pair per column; every row's match
//! line (ML), precharged to 0.8 V, then discharges through the parallel
//! conductance of its cells: `G_T = G_1 + … + G_N` (paper Fig. 4(c)).
//! Because each cell's conductance encodes its input/state distance,
//! `G_T` *is* the row's distance from the query, and the slowest
//! discharging ML is the nearest neighbor. The winner-take-all sense
//! amplifier of Imani et al. (SearcHD) detects exactly that ML.
//!
//! [`McamArray`] supports two cell banks:
//!
//! * **shared** — every cell at state `S` searched with `I` has the
//!   nominal LUT conductance (the paper's simulation methodology);
//! * **per-cell** — with [`VariationSpec`], each stored cell samples its
//!   own Gaussian-perturbed FeFET thresholds and materializes a private
//!   input→conductance row (the §IV-C variation studies, Fig. 8).

use femcam_device::{FefetModel, GaussianVth};

use std::sync::Arc;

use crate::cell::McamCell;
use crate::error::CoreError;
use crate::exec::{
    self, BlockKernel, CodesDispatch, CompiledMcam, Metric, PlanCache, PlanMemoryBytes,
    PlaneScalar, Precision, SearchSpec, WinnerSweep,
};
use crate::levels::LevelLadder;
use crate::lut::ConductanceLut;
use crate::par;
use crate::Result;

/// Gaussian device-variation specification for an array build.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct VariationSpec {
    /// Standard deviation of per-FeFET threshold perturbation, in volts.
    pub sigma_v: f64,
    /// Seed for the perturbation stream (device-to-device disorder is
    /// frozen per stored cell).
    pub seed: u64,
}

/// Match-line RC discharge model (paper Fig. 4(c)).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MlTiming {
    /// Match-line capacitance in farads (identical for all rows).
    pub c_ml: f64,
    /// Precharge voltage in volts (0.8 V in the paper).
    pub v_precharge: f64,
    /// Sense threshold in volts at which a discharge is detected.
    pub v_sense: f64,
}

impl Default for MlTiming {
    fn default() -> Self {
        MlTiming {
            c_ml: 20e-15,
            v_precharge: 0.8,
            v_sense: 0.4,
        }
    }
}

impl MlTiming {
    /// Time (seconds) for an ML with total conductance `g_total` to
    /// discharge from `v_precharge` to `v_sense`:
    /// `t = (C / G) · ln(V_pre / V_sense)`.
    ///
    /// Returns `f64::INFINITY` for zero conductance.
    #[must_use]
    pub fn discharge_time(&self, g_total: f64) -> f64 {
        if g_total <= 0.0 {
            return f64::INFINITY;
        }
        (self.c_ml / g_total) * (self.v_precharge / self.v_sense).ln()
    }

    /// Match-line voltage after `t` seconds for total conductance
    /// `g_total`.
    #[must_use]
    pub fn voltage_at(&self, g_total: f64, t: f64) -> f64 {
        self.v_precharge * (-(g_total / self.c_ml) * t).exp()
    }
}

/// Winner-take-all sense amplifier with finite timing resolution.
///
/// The amplifier reports the last ML to cross the sense threshold; MLs
/// whose crossings fall within one timing resolution of the winner are
/// indistinguishable, and the lowest row index among them is returned
/// (deterministic tie-break).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SenseAmp {
    /// Timing resolution in seconds; crossings closer than this are ties.
    pub resolution_s: f64,
}

impl Default for SenseAmp {
    fn default() -> Self {
        SenseAmp {
            resolution_s: 1e-12,
        }
    }
}

impl SenseAmp {
    /// Picks the winning (slowest-discharging) row from per-row discharge
    /// times. Returns `None` for an empty slice.
    #[must_use]
    pub fn winner(&self, discharge_times: &[f64]) -> Option<usize> {
        let (mut best_idx, mut best_t) = (None, f64::NEG_INFINITY);
        for (i, &t) in discharge_times.iter().enumerate() {
            if t > best_t + self.resolution_s {
                best_idx = Some(i);
                best_t = t;
            }
        }
        best_idx
    }
}

/// Result of one MCAM search: per-row total conductances.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SearchOutcome {
    conductances: Vec<f64>,
}

impl SearchOutcome {
    /// Wraps precomputed per-row conductances (the compiled executor
    /// produces these; see [`crate::exec`]).
    pub(crate) fn from_conductances(conductances: Vec<f64>) -> Self {
        SearchOutcome { conductances }
    }

    /// Index of the nearest row (minimum total conductance = slowest ML).
    ///
    /// # Panics
    ///
    /// Never panics: arrays refuse to search when empty.
    #[must_use]
    pub fn best_row(&self) -> usize {
        self.argmin()
    }

    fn argmin(&self) -> usize {
        self.conductances
            .iter()
            .enumerate()
            // femcam::allow(no_panic): conductances come from the ladder
            // model, which never yields NaN.
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("conductances are finite"))
            .map(|(i, _)| i)
            // femcam::allow(no_panic): the iterator is nonempty — arrays
            // are constructed with n_levels >= 2.
            .expect("outcome is nonempty")
    }

    /// Total conductance of row `r`, in siemens.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn conductance(&self, r: usize) -> f64 {
        self.conductances[r]
    }

    /// All per-row conductances.
    #[must_use]
    pub fn conductances(&self) -> &[f64] {
        &self.conductances
    }

    /// Row indices of the `k` smallest conductances, nearest first
    /// (bounded-heap selection, `O(n_rows log k)`).
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        exec::top_k_indices(&self.conductances, k)
    }

    /// Per-row discharge times under an RC timing model.
    #[must_use]
    pub fn discharge_times(&self, timing: &MlTiming) -> Vec<f64> {
        self.conductances
            .iter()
            .map(|&g| timing.discharge_time(g))
            .collect()
    }

    /// The row a physical sense amplifier would report: the last ML to
    /// discharge, subject to the amplifier's timing resolution.
    #[must_use]
    pub fn sensed_winner(&self, timing: &MlTiming, sense_amp: &SenseAmp) -> Option<usize> {
        sense_amp.winner(&self.discharge_times(timing))
    }
}

#[derive(Debug, Clone)]
enum Bank {
    /// All cells share the nominal LUT.
    Shared,
    /// Per-cell input→conductance rows (variation realized per cell),
    /// `n_cells × n_levels`, row-major by cell.
    PerCell(Vec<f64>),
}

#[derive(Debug)]
struct VariationState {
    model: FefetModel,
    sampler: GaussianVth,
}

/// Builder for [`McamArray`].
#[derive(Debug)]
pub struct McamArrayBuilder {
    ladder: LevelLadder,
    lut: ConductanceLut,
    word_len: usize,
    variation: Option<(VariationSpec, FefetModel)>,
}

impl McamArrayBuilder {
    /// Starts a builder from a ladder and a (nominal or measured) LUT.
    #[must_use]
    pub fn new(ladder: LevelLadder, lut: ConductanceLut) -> Self {
        McamArrayBuilder {
            ladder,
            lut,
            word_len: 0,
            variation: None,
        }
    }

    /// Sets the number of cells per stored word. A word length of zero
    /// (the default) adopts the length of the first stored word.
    #[must_use]
    pub fn word_len(mut self, word_len: usize) -> Self {
        self.word_len = word_len;
        self
    }

    /// Enables per-cell Gaussian `Vth` variation: every stored cell
    /// samples its own perturbed thresholds through `model`.
    #[must_use]
    pub fn variation(mut self, spec: VariationSpec, model: FefetModel) -> Self {
        self.variation = Some((spec, model));
        self
    }

    /// Builds the (empty) array.
    ///
    /// # Panics
    ///
    /// Panics if a variation sigma is negative or non-finite; validate
    /// externally or use finite sigmas.
    #[must_use]
    pub fn build(self) -> McamArray {
        let variation = self.variation.map(|(spec, model)| VariationState {
            model,
            sampler: GaussianVth::new(spec.sigma_v, spec.seed)
                // femcam::allow(no_panic): the spec was validated at
                // configuration time; this re-checks a construction
                // invariant.
                .expect("variation sigma must be finite and non-negative"),
        });
        let bank = if variation.is_some() {
            Bank::PerCell(Vec::new())
        } else {
            Bank::Shared
        };
        McamArray {
            ladder: self.ladder,
            lut: self.lut,
            word_len: self.word_len,
            states: Vec::new(),
            bank,
            variation,
            plans: PlanCache::default(),
        }
    }
}

/// The engine a flat search runs on, chosen once per call by
/// `McamArray::plan_for`.
enum FlatPlan {
    /// The scalar oracle ([`McamArray::search_metric`]): a cold `f64`
    /// cache and a batch too small to pay for compiling, or no queries.
    Scalar,
    F64(Arc<CompiledMcam<f64>>),
    F32(Arc<CompiledMcam<f32>>),
    Codes(CodesDispatch),
}

/// Each query's winner on one flat plan: the one-bank case of the
/// banked winner merge, so the codes plan runs the same bounded,
/// self-seeded sweep as a banked memory.
fn one_bank_winners<K: BlockKernel>(
    plan: &K,
    queries: &[&[u8]],
    threads: usize,
) -> Result<Vec<(usize, f64)>> {
    exec::banked_winner_batch_kernel(&[plan], &[0], queries, WinnerSweep::Full, threads)
}

/// An MCAM array: stored multi-bit words plus the machinery to run
/// single-step in-memory NN searches over them.
///
/// Searches take their parameters at search time, as the hardware
/// does: one [`SearchSpec`] carries the precision and the metric, and
/// there is one batched entry point per result shape
/// ([`search_batch_with`](Self::search_batch_with),
/// [`search_batch_winners_with`](Self::search_batch_winners_with),
/// [`search_batch_top_k_with`](Self::search_batch_top_k_with)) beside
/// the scalar oracle ([`search`](Self::search),
/// [`search_metric`](Self::search_metric)). A single compiled query is
/// a batch of one, so it runs on one worker: a lone query is no longer
/// row-parallel. No benchmark workload times single flat queries.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug)]
pub struct McamArray {
    ladder: LevelLadder,
    lut: ConductanceLut,
    word_len: usize,
    /// Stored states, row-major.
    states: Vec<u8>,
    bank: Bank,
    variation: Option<VariationState>,
    /// Cached compiled plans (one slot per precision), invalidated on
    /// every mutation — see [`crate::exec`]'s "Cached, auto-recompiling
    /// plans".
    plans: PlanCache,
}

impl McamArray {
    /// Convenience constructor: nominal array with `word_len` cells per
    /// word.
    #[must_use]
    pub fn new(ladder: LevelLadder, lut: ConductanceLut, word_len: usize) -> Self {
        McamArrayBuilder::new(ladder, lut)
            .word_len(word_len)
            .build()
    }

    /// The array's level ladder.
    #[must_use]
    pub fn ladder(&self) -> &LevelLadder {
        &self.ladder
    }

    /// The array's nominal LUT.
    #[must_use]
    pub fn lut(&self) -> &ConductanceLut {
        &self.lut
    }

    /// Cells per stored word (0 until the first store when unset).
    #[must_use]
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// Number of stored rows.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.states.len().checked_div(self.word_len).unwrap_or(0)
    }

    /// Returns `true` if no rows are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Whether stored cells carry individually realized conductances
    /// (device variation) instead of sharing the nominal LUT.
    /// Shared-LUT arrays are eligible for the packed-code execution
    /// mode ([`Precision::Codes`]); per-cell arrays transparently fall
    /// back to the `f32` plane kernel there.
    #[must_use]
    pub fn has_per_cell_bank(&self) -> bool {
        matches!(self.bank, Bank::PerCell(_))
    }

    /// Stored states of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= n_rows()`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[u8] {
        assert!(r < self.n_rows(), "row {r} out of range {}", self.n_rows());
        &self.states[r * self.word_len..(r + 1) * self.word_len]
    }

    fn check_word(&self, word: &[u8]) -> Result<()> {
        if self.word_len != 0 && word.len() != self.word_len {
            return Err(CoreError::WordLengthMismatch {
                expected: self.word_len,
                actual: word.len(),
            });
        }
        if word.is_empty() {
            return Err(CoreError::WordLengthMismatch {
                expected: self.word_len.max(1),
                actual: 0,
            });
        }
        for &s in word {
            self.ladder.check_level(s)?;
        }
        Ok(())
    }

    /// Stores one word (a vector of level indices) as a new row and
    /// returns its row index.
    ///
    /// With variation enabled, the cell thresholds are sampled here —
    /// programming happens once, searches reuse the realized cells.
    ///
    /// # Errors
    ///
    /// * [`CoreError::WordLengthMismatch`] if the word length differs
    ///   from the array's.
    /// * [`CoreError::LevelOutOfRange`] if any level exceeds the ladder.
    pub fn store(&mut self, word: &[u8]) -> Result<usize> {
        self.check_word(word)?;
        if self.word_len == 0 {
            self.word_len = word.len();
        }
        if let (Bank::PerCell(bank), Some(var)) = (&mut self.bank, &mut self.variation) {
            let n = self.ladder.n_levels();
            for &state in word {
                let nominal = McamCell::programmed(&self.ladder, state)?;
                let cell = McamCell::with_thresholds(
                    var.sampler.perturb(nominal.vth_left()),
                    var.sampler.perturb(nominal.vth_right()),
                );
                for input in 0..n as u8 {
                    bank.push(cell.conductance(&var.model, &self.ladder, input)?);
                }
            }
        }
        self.states.extend_from_slice(word);
        // The stored contents changed: any cached compiled plan is now
        // stale (the dirty-flag half of plan auto-recompilation).
        self.plans.invalidate();
        Ok(self.n_rows() - 1)
    }

    /// Stores a batch of words.
    ///
    /// # Errors
    ///
    /// Propagates the first failing [`store`](Self::store); earlier rows
    /// in the batch remain stored.
    pub fn store_all<'a, I>(&mut self, words: I) -> Result<()>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        for w in words {
            self.store(w)?;
        }
        Ok(())
    }

    /// Conductance contributed by cell `c` of row `r` under `input`
    /// (the scalar oracle's per-cell read; compiled plans fill whole
    /// planes through [`fill_metric_plane`](Self::fill_metric_plane)).
    #[inline]
    pub(crate) fn cell_conductance(&self, r: usize, c: usize, input: u8) -> f64 {
        match &self.bank {
            Bank::Shared => self.lut.get(input, self.states[r * self.word_len + c]),
            Bank::PerCell(bank) => {
                let n = self.ladder.n_levels();
                bank[(r * self.word_len + c) * n + input as usize]
            }
        }
    }

    /// Per-cell value of cell `c` of row `r` under `input` for a chosen
    /// [`Metric`]: the realized conductance for the default metric, the
    /// synthesized level-space distance for the digital metrics (which
    /// read the stored level code only and never see device variation).
    pub(crate) fn cell_metric_value(&self, r: usize, c: usize, input: u8, metric: Metric) -> f64 {
        match metric {
            Metric::McamConductance => self.cell_conductance(r, c, input),
            _ => metric.level_distance(input, self.states[r * self.word_len + c]),
        }
    }

    /// Fills one input's compiled plane: the value of every stored cell
    /// under `input` for `metric`, column-outer and row-inner (the
    /// [`CompiledMcam`] plane layout), into `plane` (`n_rows × word_len`
    /// entries). Each entry is
    /// `S::from_f64(self.cell_metric_value(r, c, input, metric))`. A
    /// realized per-cell bank under the conductance metric is read
    /// directly; otherwise one `n_levels` row of values for `input` is
    /// built and indexed by stored state, so a digital metric never
    /// sees the bank.
    pub(crate) fn fill_metric_plane<S: PlaneScalar>(
        &self,
        input: u8,
        metric: Metric,
        plane: &mut [S],
    ) {
        let w = self.word_len;
        let n = self.ladder.n_levels();
        let columns = plane.chunks_exact_mut(self.n_rows().max(1)).take(w);
        match (&self.bank, metric) {
            (Bank::PerCell(bank), Metric::McamConductance) => {
                for (c, column) in columns.enumerate() {
                    let cells = bank.iter().skip(c * n + input as usize).step_by(w * n);
                    for (dst, &g) in column.iter_mut().zip(cells) {
                        *dst = S::from_f64(g);
                    }
                }
            }
            _ => {
                let by_state: Vec<S> = (0..n as u8)
                    .map(|s| {
                        S::from_f64(match metric {
                            Metric::McamConductance => self.lut.get(input, s),
                            _ => metric.level_distance(input, s),
                        })
                    })
                    .collect();
                for (c, column) in columns.enumerate() {
                    let states = self.states.iter().skip(c).step_by(w);
                    for (dst, &s) in column.iter_mut().zip(states) {
                        *dst = by_state[s as usize];
                    }
                }
            }
        }
    }

    /// Total ML conductance of row `r` for `query`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::WordLengthMismatch`] or
    /// [`CoreError::LevelOutOfRange`] for malformed queries.
    pub fn row_conductance(&self, r: usize, query: &[u8]) -> Result<f64> {
        self.check_word(query)?;
        Ok((0..self.word_len)
            .map(|c| self.cell_conductance(r, c, query[c]))
            .sum())
    }

    /// Runs a single-step in-memory NN search: applies the query to all
    /// rows at once and returns every row's total ML conductance.
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyArray`] if nothing is stored.
    /// * [`CoreError::WordLengthMismatch`] /
    ///   [`CoreError::LevelOutOfRange`] for malformed queries.
    pub fn search(&self, query: &[u8]) -> Result<SearchOutcome> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        self.check_word(query)?;
        let conductances = (0..self.n_rows())
            .map(|r| {
                (0..self.word_len)
                    .map(|c| self.cell_conductance(r, c, query[c]))
                    .sum()
            })
            .collect();
        Ok(SearchOutcome { conductances })
    }

    /// The scalar per-metric reference oracle: folds each row's
    /// per-cell metric values in ascending column order starting from
    /// `0.0` (sum, or max for [`Metric::Linf`]) in `f64` — the path
    /// every compiled `f64` metric plan is bit-identical to, exactly as
    /// [`search`](Self::search) anchors the default metric
    /// (`search_metric(q, Metric::McamConductance)` *is*
    /// [`search`](Self::search)).
    ///
    /// # Errors
    ///
    /// Same conditions as [`search`](Self::search).
    pub fn search_metric(&self, query: &[u8], metric: Metric) -> Result<SearchOutcome> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        self.check_word(query)?;
        let max_fold = metric.is_max_fold();
        let conductances = (0..self.n_rows())
            .map(|r| {
                let mut acc = 0.0f64;
                for (c, &input) in query.iter().enumerate() {
                    let v = self.cell_metric_value(r, c, input, metric);
                    acc = if max_fold {
                        // The same `>` maximum the compiled fold runs.
                        if v > acc {
                            v
                        } else {
                            acc
                        }
                    } else {
                        acc + v
                    };
                }
                acc
            })
            .collect();
        Ok(SearchOutcome { conductances })
    }

    /// Compiles the array's current contents into a reusable
    /// plane-major query plan (see [`crate::exec`]). This is an
    /// explicit snapshot; prefer the cached entry points
    /// ([`cached_plan`](Self::cached_plan),
    /// [`search_batch_with`](Self::search_batch_with)) unless you need
    /// one.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyArray`] if nothing is stored.
    pub fn compile(&self) -> Result<CompiledMcam> {
        CompiledMcam::compile(self)
    }

    /// The cached compiled plan for plane scalar `S` at `metric`,
    /// compiling it on first use; every [`store`](Self::store)
    /// invalidates the cache so the next call transparently recompiles
    /// against the new contents. `cached_plan::<f64>` is the reference
    /// (bit-identical) plan, `cached_plan::<f32>` the opt-in fast mode
    /// (see [`crate::exec`]'s "Precision modes" for its accuracy
    /// contract).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyArray`] if nothing is stored.
    pub fn cached_plan<S: PlaneScalar>(&self, metric: Metric) -> Result<Arc<CompiledMcam<S>>> {
        self.plans.get_or_compile::<S>(self, metric)
    }

    /// The cached plan for `S` at `metric` if one is currently
    /// compiled, without compiling on a miss.
    pub fn cached_plan_if_warm<S: PlaneScalar>(
        &self,
        metric: Metric,
    ) -> Option<Arc<CompiledMcam<S>>> {
        self.plans.cached::<S>(metric)
    }

    /// The cached codes-mode execution engine ([`Precision::Codes`]) at
    /// `metric`: the byte-packed LUT-gather plan on shared-LUT arrays,
    /// or the `f32` plane plan on per-cell (variation) arrays under the
    /// conductance metric — the dispatch is transparent
    /// ([`CodesDispatch::is_packed`] tells you which). Synthesized
    /// (digital) metrics pack even on per-cell arrays. Every
    /// [`store`](Self::store) invalidates the cache. Unlike the `f64`
    /// path there is no cold-cache scalar fallback: compiling a code
    /// plan costs about one scalar query
    /// ([`exec::CODES_COMPILE_THRESHOLD`] is 1), so even a lone query
    /// compiles eagerly.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyArray`] if nothing is stored.
    pub fn compiled_codes(&self, metric: Metric) -> Result<CodesDispatch> {
        self.plans.get_or_compile_codes(self, metric)
    }

    /// Resident bytes of the cached compiled plans, one field per
    /// precision slot (0 = slot cold) — serving-layer backpressure can
    /// budget node memory against this (see
    /// [`exec::PlanMemoryBytes`]).
    #[must_use]
    pub fn plan_memory_bytes(&self) -> PlanMemoryBytes {
        self.plans.memory_bytes()
    }

    /// Validates `spec` against this array and picks the engine a batch
    /// of `batch` queries runs on — the one place a flat search chooses
    /// its plan. At [`Precision::F64`] that is the cached plan when warm
    /// (reusing it is free), a fresh cached compile when `batch`
    /// queries amortize the `n_levels` plane fills, and otherwise the
    /// bit-identical scalar oracle: the cache is cold and the batch is
    /// too small to pay for compiling (e.g. single queries interleaved
    /// with stores). The other precisions always run compiled. An empty
    /// batch compiles nothing.
    fn plan_for(&self, batch: usize, spec: &SearchSpec<'_>) -> Result<FlatPlan> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        if spec.banks.is_some() {
            return Err(CoreError::InvalidParameter {
                name: "bank mask",
                value: 0.0,
            });
        }
        if batch == 0 {
            return Ok(FlatPlan::Scalar);
        }
        let metric = spec.metric;
        Ok(match spec.precision {
            Precision::F64 => {
                if let Some(plan) = self.plans.cached::<f64>(metric) {
                    FlatPlan::F64(plan)
                } else if batch >= self.ladder.n_levels() {
                    FlatPlan::F64(self.cached_plan::<f64>(metric)?)
                } else {
                    FlatPlan::Scalar
                }
            }
            Precision::F32 => FlatPlan::F32(self.cached_plan::<f32>(metric)?),
            Precision::Codes => FlatPlan::Codes(self.compiled_codes(metric)?),
        })
    }

    /// Searches a batch of queries (e.g. a MANN query set applied
    /// back-to-back to the same programmed array) through the cached
    /// compiled plan, with query groups sharded across worker threads
    /// ([`crate::exec`]), and returns every query's full per-row
    /// outcome in query order. The plan compiles on the first call
    /// after a mutation and is reused afterwards.
    ///
    /// `spec` sets the [`Precision`] and [`Metric`]; a bare
    /// [`Precision`] converts, with the default metric. At
    /// [`Precision::F64`] outcomes are bit-identical to the scalar
    /// oracle [`search_metric`](Self::search_metric) (which is
    /// [`search`](Self::search) at the default metric), and a cold
    /// cache falls back to it until a batch pays for the compile;
    /// [`Precision::F32`] and [`Precision::Codes`] trade the documented
    /// accuracy contract for throughput (see [`crate::exec`]).
    ///
    /// # Empty-batch contract
    ///
    /// All batch entry points on this type (and on
    /// [`crate::banked::BankedMcam`]) share one contract with
    /// [`search`](Self::search): an empty **array** is an error first —
    /// [`CoreError::EmptyArray`], even when the batch is also empty —
    /// while an empty **batch** against a nonempty array is a no-op
    /// (`Ok(vec![])`). A caller that cannot search one query at a time
    /// cannot search zero of them in a batch either.
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyArray`] if nothing is stored (even for an
    ///   empty batch).
    /// * [`CoreError::InvalidParameter`] (`"bank mask"`) if `spec` sets
    ///   `banks`: a flat array has none.
    /// * Otherwise the first failing [`search`](Self::search) in query
    ///   order.
    pub fn search_batch_with<'a>(
        &self,
        queries: &[&[u8]],
        spec: impl Into<SearchSpec<'a>>,
    ) -> Result<Vec<SearchOutcome>> {
        self.outcomes(queries, spec.into())
    }

    /// The non-generic body of
    /// [`search_batch_with`](Self::search_batch_with).
    fn outcomes(&self, queries: &[&[u8]], spec: SearchSpec<'_>) -> Result<Vec<SearchOutcome>> {
        let threads = par::max_threads();
        match self.plan_for(queries.len(), &spec)? {
            FlatPlan::Scalar => queries
                .iter()
                .map(|q| self.search_metric(q, spec.metric))
                .collect(),
            FlatPlan::F64(plan) => plan.search_batch(queries, threads),
            FlatPlan::F32(plan) => plan.search_batch(queries, threads),
            FlatPlan::Codes(plan) => plan.search_batch(queries, threads),
        }
    }

    /// Each query's nearest row as `(row, total_conductance)` through
    /// the cached plan — the allocation-free winners kernel (no per-row
    /// vector is materialized per query; at [`Precision::Codes`] on the
    /// vector tiers, most cells of rows that cannot win are never
    /// scored, see [`crate::exec`]'s "Bounded winners"). Exact ties
    /// resolve to the lowest row, as in
    /// [`SearchOutcome::best_row`]. A single query is a batch of one.
    ///
    /// # Errors
    ///
    /// Same conditions as [`search_batch_with`](Self::search_batch_with).
    pub fn search_batch_winners_with<'a>(
        &self,
        queries: &[&[u8]],
        spec: impl Into<SearchSpec<'a>>,
    ) -> Result<Vec<(usize, f64)>> {
        self.winners(queries, spec.into())
    }

    /// The non-generic body of
    /// [`search_batch_winners_with`](Self::search_batch_winners_with):
    /// a compiled plan runs as the one-bank case of the banked winner
    /// merge.
    fn winners(&self, queries: &[&[u8]], spec: SearchSpec<'_>) -> Result<Vec<(usize, f64)>> {
        let threads = par::max_threads();
        match self.plan_for(queries.len(), &spec)? {
            FlatPlan::Scalar => queries
                .iter()
                .map(|q| {
                    let outcome = self.search_metric(q, spec.metric)?;
                    let best = outcome.best_row();
                    Ok((best, outcome.conductance(best)))
                })
                .collect(),
            FlatPlan::F64(plan) => one_bank_winners(plan.as_ref(), queries, threads),
            FlatPlan::F32(plan) => one_bank_winners(plan.as_ref(), queries, threads),
            FlatPlan::Codes(plan) => one_bank_winners(&plan, queries, threads),
        }
    }

    /// Each query's `k` nearest rows as `(row, total_conductance)`
    /// (nearest first, exact ties to the lowest row) through the cached
    /// plan, using the reusable bounded-heap kernel; the selection
    /// works unchanged under every metric because every metric's
    /// scores obey "smaller = nearer". `k` is clamped to the stored
    /// rows, never an error. A single query is a batch of one.
    ///
    /// # Errors
    ///
    /// Same conditions as [`search_batch_with`](Self::search_batch_with).
    pub fn search_batch_top_k_with<'a>(
        &self,
        queries: &[&[u8]],
        k: usize,
        spec: impl Into<SearchSpec<'a>>,
    ) -> Result<Vec<Vec<(usize, f64)>>> {
        self.top_k(queries, k, spec.into())
    }

    /// The non-generic body of
    /// [`search_batch_top_k_with`](Self::search_batch_top_k_with).
    fn top_k(
        &self,
        queries: &[&[u8]],
        k: usize,
        spec: SearchSpec<'_>,
    ) -> Result<Vec<Vec<(usize, f64)>>> {
        let threads = par::max_threads();
        match self.plan_for(queries.len(), &spec)? {
            FlatPlan::Scalar => queries
                .iter()
                .map(|q| {
                    let outcome = self.search_metric(q, spec.metric)?;
                    Ok(outcome
                        .top_k(k)
                        .into_iter()
                        .map(|r| (r, outcome.conductance(r)))
                        .collect())
                })
                .collect(),
            FlatPlan::F64(plan) => {
                exec::kernel_search_batch_top_k(plan.as_ref(), queries, k, threads)
            }
            FlatPlan::F32(plan) => {
                exec::kernel_search_batch_top_k(plan.as_ref(), queries, k, threads)
            }
            FlatPlan::Codes(plan) => exec::kernel_search_batch_top_k(&plan, queries, k, threads),
        }
    }

    /// Conventional exact-match search: rows whose every cell matches the
    /// query (ML stays above the leakage threshold).
    ///
    /// The decision threshold is placed between the worst-case full-match
    /// leakage and the best-case single-mismatch conductance of the
    /// nominal LUT.
    ///
    /// # Errors
    ///
    /// Same as [`search`](Self::search).
    pub fn exact_match(&self, query: &[u8]) -> Result<Vec<usize>> {
        let outcome = self.search(query)?;
        let threshold = self.match_threshold();
        Ok((0..self.n_rows())
            .filter(|&r| outcome.conductance(r) < threshold)
            .collect())
    }

    /// The exact-match decision threshold for this array (siemens).
    #[must_use]
    pub fn match_threshold(&self) -> f64 {
        let n = self.lut.n_levels() as u8;
        let mut worst_match: f64 = 0.0;
        let mut best_mismatch = f64::INFINITY;
        for s in 0..n {
            worst_match = worst_match.max(self.lut.get(s, s));
            for i in 0..n {
                if i != s {
                    best_mismatch = best_mismatch.min(self.lut.get(i, s));
                }
            }
        }
        let full_match = worst_match * self.word_len.max(1) as f64;
        let one_mismatch = full_match - worst_match + best_mismatch;
        0.5 * (full_match + one_mismatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal_array(word_len: usize) -> McamArray {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        McamArray::new(ladder, lut, word_len)
    }

    #[test]
    fn exact_match_row_wins_search() {
        let mut a = nominal_array(4);
        a.store(&[1, 2, 3, 4]).unwrap();
        a.store(&[4, 3, 2, 1]).unwrap();
        a.store(&[7, 7, 7, 7]).unwrap();
        let outcome = a.search(&[4, 3, 2, 1]).unwrap();
        assert_eq!(outcome.best_row(), 1);
    }

    #[test]
    fn nearest_neighbor_beats_farther_rows() {
        let mut a = nominal_array(4);
        a.store(&[0, 0, 0, 0]).unwrap(); // four cells at distance 1
        a.store(&[2, 2, 2, 2]).unwrap(); // four cells at distance 1
        a.store(&[1, 1, 1, 2]).unwrap(); // one cell at distance 1
        let outcome = a.search(&[1, 1, 1, 1]).unwrap();
        assert_eq!(outcome.best_row(), 2);
    }

    #[test]
    fn concentrated_error_conducts_more_than_spread_error() {
        // The G^n_d property: one cell at distance 4 conducts more than
        // four cells at distance 1 (§III-B).
        let mut a = nominal_array(16);
        let mut spread = [0u8; 16];
        for cell in spread.iter_mut().take(4) {
            *cell = 1;
        }
        let mut concentrated = [0u8; 16];
        concentrated[0] = 4;
        a.store(&spread).unwrap();
        a.store(&concentrated).unwrap();
        let outcome = a.search(&[0u8; 16]).unwrap();
        assert!(
            outcome.conductance(1) > outcome.conductance(0),
            "G(1 cell @ d=4) must exceed G(4 cells @ d=1)"
        );
    }

    #[test]
    fn search_rejects_malformed_queries() {
        let mut a = nominal_array(4);
        a.store(&[0, 0, 0, 0]).unwrap();
        assert!(matches!(
            a.search(&[0, 0, 0]),
            Err(CoreError::WordLengthMismatch {
                expected: 4,
                actual: 3
            })
        ));
        assert!(matches!(
            a.search(&[0, 0, 0, 9]),
            Err(CoreError::LevelOutOfRange { level: 9, .. })
        ));
    }

    #[test]
    fn empty_array_refuses_search() {
        let a = nominal_array(4);
        assert!(matches!(
            a.search(&[0, 0, 0, 0]),
            Err(CoreError::EmptyArray)
        ));
    }

    #[test]
    fn store_rejects_wrong_length_and_level() {
        let mut a = nominal_array(3);
        assert!(a.store(&[0, 1]).is_err());
        assert!(a.store(&[0, 1, 8]).is_err());
        assert!(a.store(&[]).is_err());
        assert_eq!(a.n_rows(), 0);
    }

    #[test]
    fn word_len_adopted_from_first_store() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut a = McamArrayBuilder::new(ladder, lut).build();
        assert_eq!(a.word_len(), 0);
        a.store(&[1, 2]).unwrap();
        assert_eq!(a.word_len(), 2);
        assert!(a.store(&[1, 2, 3]).is_err());
    }

    #[test]
    fn row_accessor_returns_stored_word() {
        let mut a = nominal_array(3);
        a.store(&[5, 0, 7]).unwrap();
        assert_eq!(a.row(0), &[5, 0, 7]);
    }

    #[test]
    fn exact_match_finds_only_identical_rows() {
        let mut a = nominal_array(8);
        a.store(&[1, 2, 3, 4, 5, 6, 7, 0]).unwrap();
        a.store(&[1, 2, 3, 4, 5, 6, 7, 1]).unwrap(); // one cell off
        a.store(&[1, 2, 3, 4, 5, 6, 7, 0]).unwrap(); // duplicate
        let matches = a.exact_match(&[1, 2, 3, 4, 5, 6, 7, 0]).unwrap();
        assert_eq!(matches, vec![0, 2]);
    }

    #[test]
    fn discharge_time_ordering_matches_conductance_ordering() {
        let mut a = nominal_array(4);
        a.store(&[0, 0, 0, 0]).unwrap();
        a.store(&[3, 3, 3, 3]).unwrap();
        a.store(&[0, 0, 0, 1]).unwrap();
        let outcome = a.search(&[0, 0, 0, 0]).unwrap();
        let times = outcome.discharge_times(&MlTiming::default());
        // Lowest conductance = slowest discharge.
        assert!(times[0] > times[2]);
        assert!(times[2] > times[1]);
        // And the sensed winner equals the argmin row.
        let winner = outcome
            .sensed_winner(&MlTiming::default(), &SenseAmp::default())
            .unwrap();
        assert_eq!(winner, outcome.best_row());
    }

    #[test]
    fn coarse_sense_amp_cannot_split_near_ties() {
        let sa = SenseAmp { resolution_s: 1.0 };
        // Second row is slower but within resolution — first index wins.
        assert_eq!(sa.winner(&[1.0, 1.5]), Some(0));
        let sharp = SenseAmp { resolution_s: 0.1 };
        assert_eq!(sharp.winner(&[1.0, 1.5]), Some(1));
        assert_eq!(sharp.winner(&[]), None);
    }

    #[test]
    fn ml_timing_math() {
        let t = MlTiming {
            c_ml: 1e-15,
            v_precharge: 0.8,
            v_sense: 0.4,
        };
        let g = 1e-6;
        let expected = (1e-15 / 1e-6) * 2.0_f64.ln();
        assert!((t.discharge_time(g) - expected).abs() < 1e-18);
        assert_eq!(t.discharge_time(0.0), f64::INFINITY);
        // voltage_at at the discharge time equals v_sense
        let td = t.discharge_time(g);
        assert!((t.voltage_at(g, td) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn top_k_orders_by_conductance() {
        let mut a = nominal_array(2);
        a.store(&[0, 0]).unwrap();
        a.store(&[7, 7]).unwrap();
        a.store(&[1, 0]).unwrap();
        let outcome = a.search(&[0, 0]).unwrap();
        assert_eq!(outcome.top_k(2), vec![0, 2]);
        assert_eq!(outcome.top_k(10).len(), 3);
    }

    #[test]
    fn zero_sigma_variation_matches_nominal() {
        let ladder = LevelLadder::new(3).unwrap();
        let model = FefetModel::default();
        let lut = ConductanceLut::from_device(&model, &ladder);
        let mut nominal = McamArray::new(ladder, lut.clone(), 4);
        let mut varied = McamArrayBuilder::new(ladder, lut)
            .word_len(4)
            .variation(
                VariationSpec {
                    sigma_v: 0.0,
                    seed: 1,
                },
                model,
            )
            .build();
        for w in [[0u8, 1, 2, 3], [7, 6, 5, 4], [3, 3, 3, 3]] {
            nominal.store(&w).unwrap();
            varied.store(&w).unwrap();
        }
        let q = [1u8, 1, 2, 3];
        let a = nominal.search(&q).unwrap();
        let b = varied.search(&q).unwrap();
        for r in 0..3 {
            assert!(
                (a.conductance(r) - b.conductance(r)).abs() / a.conductance(r) < 1e-9,
                "row {r} diverges at zero sigma"
            );
        }
    }

    #[test]
    fn variation_perturbs_conductances_but_small_sigma_keeps_winner() {
        let ladder = LevelLadder::new(3).unwrap();
        let model = FefetModel::default();
        let lut = ConductanceLut::from_device(&model, &ladder);
        let mut varied = McamArrayBuilder::new(ladder, lut.clone())
            .word_len(8)
            .variation(
                VariationSpec {
                    sigma_v: 0.02,
                    seed: 42,
                },
                model,
            )
            .build();
        varied.store(&[0, 1, 2, 3, 4, 5, 6, 7]).unwrap();
        varied.store(&[7, 6, 5, 4, 3, 2, 1, 0]).unwrap();
        let outcome = varied.search(&[0, 1, 2, 3, 4, 5, 6, 7]).unwrap();
        assert_eq!(outcome.best_row(), 0);
        // But the conductances differ from nominal.
        let mut nominal = McamArray::new(ladder, lut, 8);
        nominal.store(&[0, 1, 2, 3, 4, 5, 6, 7]).unwrap();
        let nom = nominal.search(&[0, 1, 2, 3, 4, 5, 6, 7]).unwrap();
        assert!((outcome.conductance(0) - nom.conductance(0)).abs() > 0.0);
    }

    #[test]
    fn variation_is_reproducible_per_seed() {
        let ladder = LevelLadder::new(3).unwrap();
        let model = FefetModel::default();
        let lut = ConductanceLut::from_device(&model, &ladder);
        let build = |seed| {
            let mut a = McamArrayBuilder::new(ladder, lut.clone())
                .word_len(4)
                .variation(
                    VariationSpec {
                        sigma_v: 0.05,
                        seed,
                    },
                    model,
                )
                .build();
            a.store(&[1, 2, 3, 4]).unwrap();
            a.search(&[1, 2, 3, 4]).unwrap().conductance(0)
        };
        assert_eq!(build(9), build(9));
        assert_ne!(build(9), build(10));
    }

    #[test]
    fn store_all_batches() {
        let mut a = nominal_array(2);
        let words: Vec<Vec<u8>> = vec![vec![0, 1], vec![2, 3]];
        a.store_all(words.iter().map(|w| w.as_slice())).unwrap();
        assert_eq!(a.n_rows(), 2);
    }
}
