//! Multi-bank MCAM organization.
//!
//! Physical CAM arrays are tiled: match-line length (word width) and
//! array height (rows per bank) are bounded by RC constants and sense
//! margins, so a realistic deployment splits a large memory across
//! fixed-size banks, searches them in parallel, and merges the per-bank
//! winners in a second (digital) stage — a hierarchical winner-take-all.
//! [`BankedMcam`] models exactly that on top of [`McamArray`], and the
//! simulation really is parallel: searches run batched through per-bank
//! compiled plans ([`crate::exec`]), sharding query groups across worker
//! threads ([`crate::par`]), and the winner merge is a fixed-order fold
//! over per-bank results in bank order, so every path is bit-identical
//! to a sequential bank-by-bank sweep.
//!
//! A search takes its parameters at search time, as the hardware does:
//! one [`SearchSpec`] carries the precision, the metric and an
//! optional bank mask, and there is one entry
//! point per result shape ([`BankedMcam::search_batch_winners_with`],
//! [`BankedMcam::search_batch_top_k_with`]). A single query is a batch
//! of one. Single-query latency on warm plans is therefore no longer
//! bank-parallel: a batch of one runs on one worker. No benchmark
//! workload issues single banked queries; the serving layer batches
//! them first.

use std::sync::Arc;

use crate::array::{McamArray, McamArrayBuilder};
use crate::error::CoreError;
use crate::exec::{
    self, BlockKernel, CodesDispatch, CompiledBanked, CompiledBankedCodes, CompiledMcam, Metric,
    PlanMemoryBytes, Precision, SearchSpec, WinnerSweep,
};
use crate::levels::LevelLadder;
use crate::lut::ConductanceLut;
use crate::par;
use crate::Result;

/// A row-tiled stack of MCAM banks sharing one ladder/LUT.
///
/// Searches go through two batched entry points, one per result shape —
/// [`search_batch_winners_with`](Self::search_batch_winners_with) and
/// [`search_batch_top_k_with`](Self::search_batch_top_k_with) — each
/// taking a [`SearchSpec`].
///
/// # Examples
///
/// ```
/// use femcam_core::banked::BankedMcam;
/// use femcam_core::{ConductanceLut, LevelLadder, SearchSpec};
/// use femcam_device::FefetModel;
///
/// # fn main() -> femcam_core::Result<()> {
/// let ladder = LevelLadder::new(3)?;
/// let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
/// let mut banked = BankedMcam::new(ladder, lut, 4, 2); // 2 rows per bank
/// for row in [[0u8, 1, 2, 3], [7, 7, 7, 7], [1, 1, 2, 3], [4, 4, 4, 4]] {
///     banked.store(&row)?;
/// }
/// assert_eq!(banked.n_banks(), 2);
/// let query: &[u8] = &[1, 1, 2, 3];
/// let winners = banked.search_batch_winners_with(&[query], SearchSpec::default())?;
/// assert_eq!(winners[0].0, 2); // global row index
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BankedMcam {
    ladder: LevelLadder,
    lut: ConductanceLut,
    word_len: usize,
    rows_per_bank: usize,
    banks: Vec<McamArray>,
}

impl BankedMcam {
    /// Creates an empty banked memory with `rows_per_bank` rows per
    /// physical array.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_bank` or `word_len` is zero.
    #[must_use]
    pub fn new(
        ladder: LevelLadder,
        lut: ConductanceLut,
        word_len: usize,
        rows_per_bank: usize,
    ) -> Self {
        assert!(rows_per_bank > 0, "banks need at least one row");
        assert!(word_len > 0, "words need at least one cell");
        BankedMcam {
            ladder,
            lut,
            word_len,
            rows_per_bank,
            banks: Vec::new(),
        }
    }

    /// Number of allocated banks.
    #[must_use]
    pub fn n_banks(&self) -> usize {
        self.banks.len()
    }

    /// Total stored rows across all banks.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.banks.iter().map(McamArray::n_rows).sum()
    }

    /// Returns `true` if nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n_rows() == 0
    }

    /// Rows per physical bank.
    #[must_use]
    pub fn rows_per_bank(&self) -> usize {
        self.rows_per_bank
    }

    /// Cells per stored word.
    #[must_use]
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// The level ladder shared by every bank.
    #[must_use]
    pub fn ladder(&self) -> &LevelLadder {
        &self.ladder
    }

    /// The nominal LUT shared by every bank.
    #[must_use]
    pub fn lut(&self) -> &ConductanceLut {
        &self.lut
    }

    /// Validates a query against this memory's geometry (word length
    /// and ladder levels) without executing it — what a serving front
    /// end runs at admission time, so a malformed request is rejected
    /// synchronously instead of failing a whole micro-batch later.
    ///
    /// # Errors
    ///
    /// [`CoreError::WordLengthMismatch`] /
    /// [`CoreError::LevelOutOfRange`] exactly as
    /// [`search_batch_winners_with`](Self::search_batch_winners_with)
    /// would report them.
    pub fn check_query(&self, query: &[u8]) -> Result<()> {
        exec::validate_query(self.word_len, self.ladder.n_levels(), query)
    }

    /// Splits this memory into exactly `n_parts` contiguous bank
    /// ranges, in global-row order — the physical partition a sharded
    /// serving front end hands to its per-shard dispatchers. Every
    /// part keeps the shared ladder/LUT and the same `word_len` /
    /// `rows_per_bank`; part `i`'s global rows start at the sum of the
    /// earlier parts' row counts, so `(partition, concat)` round-trips
    /// global row indices exactly.
    ///
    /// When there are fewer banks than parts, the trailing parts come
    /// back empty (they still accept stores). Because only the globally
    /// last bank can be partial, every bank outside the last nonempty
    /// part is full — which is what keeps the per-part global-row
    /// arithmetic exact.
    ///
    /// # Panics
    ///
    /// Panics if `n_parts` is zero.
    #[must_use]
    pub fn partition(mut self, n_parts: usize) -> Vec<BankedMcam> {
        assert!(n_parts > 0, "partition needs at least one part");
        let total = self.banks.len();
        let per = total / n_parts;
        let extra = total % n_parts;
        let mut banks = self.banks.drain(..);
        (0..n_parts)
            .map(|i| {
                let take = per + usize::from(i < extra);
                BankedMcam {
                    ladder: self.ladder,
                    lut: self.lut.clone(),
                    word_len: self.word_len,
                    rows_per_bank: self.rows_per_bank,
                    banks: banks.by_ref().take(take).collect(),
                }
            })
            .collect()
    }

    /// Reassembles memories produced by [`partition`](Self::partition)
    /// (in the same order) into one banked memory — the shutdown path
    /// of a sharded server. Validates that the parts share a geometry
    /// and that every bank except the global last is full, so the
    /// concatenated memory's global row indices equal the parts'
    /// base-offset rows exactly.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] if `parts` is empty, the
    ///   `rows_per_bank` / ladder geometries disagree, or an interior
    ///   bank is not full.
    /// * [`CoreError::WordLengthMismatch`] if the word lengths
    ///   disagree.
    pub fn concat(parts: Vec<BankedMcam>) -> Result<BankedMcam> {
        let Some(first) = parts.first() else {
            return Err(CoreError::InvalidParameter {
                name: "concat parts",
                value: 0.0,
            });
        };
        let (ladder, lut) = (first.ladder, first.lut.clone());
        let (word_len, rows_per_bank) = (first.word_len, first.rows_per_bank);
        let mut banks = Vec::new();
        for part in parts {
            if part.word_len != word_len {
                return Err(CoreError::WordLengthMismatch {
                    expected: word_len,
                    actual: part.word_len,
                });
            }
            if part.rows_per_bank != rows_per_bank || part.ladder.n_levels() != ladder.n_levels() {
                return Err(CoreError::InvalidParameter {
                    name: "rows_per_bank",
                    value: part.rows_per_bank as f64,
                });
            }
            // Same geometry is not enough: conductances from different
            // LUTs live on different scales, and a merge across the
            // seam would compare them directly — wrong winners with no
            // error. Refuse loudly instead.
            if part.lut != lut {
                return Err(CoreError::InvalidParameter {
                    name: "conductance lut",
                    value: part.lut.n_levels() as f64,
                });
            }
            banks.extend(part.banks);
        }
        if banks
            .iter()
            .rev()
            .skip(1)
            .any(|b| b.n_rows() != rows_per_bank)
        {
            return Err(CoreError::InvalidParameter {
                name: "interior bank rows",
                value: rows_per_bank as f64,
            });
        }
        Ok(BankedMcam {
            ladder,
            lut,
            word_len,
            rows_per_bank,
            banks,
        })
    }

    /// Stores a word, allocating a new bank when the last one is full;
    /// returns the global row index.
    ///
    /// # Errors
    ///
    /// Propagates [`McamArray::store`] failures.
    pub fn store(&mut self, word: &[u8]) -> Result<usize> {
        let need_new = self
            .banks
            .last()
            .is_none_or(|b| b.n_rows() >= self.rows_per_bank);
        if need_new {
            self.banks.push(
                McamArrayBuilder::new(self.ladder, self.lut.clone())
                    .word_len(self.word_len)
                    .build(),
            );
        }
        let bank_idx = self.banks.len() - 1;
        let local = self.banks[bank_idx].store(word)?;
        Ok(bank_idx * self.rows_per_bank + local)
    }

    /// The banks a search selects, with their global bank indices, in
    /// ascending order: every bank without a mask, else the (already
    /// validated) mask's banks. Its size hint is exact, so collecting
    /// the selection (or plans for it) allocates once.
    fn selected<'s>(
        &'s self,
        banks: Option<&'s [usize]>,
    ) -> impl Iterator<Item = (usize, &'s McamArray)> + 's {
        let (all, mask) = match banks {
            None => (0..self.banks.len(), &[][..]),
            Some(mask) => (0..0, mask),
        };
        all.chain(mask.iter().copied()).map(|b| (b, &self.banks[b]))
    }

    /// One cached plan per selected bank; each bank compiles lazily and
    /// recompiles only when *that* bank has mutated since its last
    /// compile (storing a row dirties one bank, not the whole memory).
    fn plans<T>(
        &self,
        banks: Option<&[usize]>,
        plan: impl Fn(&McamArray) -> Result<T>,
    ) -> Result<Vec<T>> {
        self.selected(banks).map(|(_, bank)| plan(bank)).collect()
    }

    /// Whether compiled `f64` plans should serve `batch` queries over
    /// the selected banks: always when every one is already warm, else
    /// only once `batch` queries amortize compiling the cold ones.
    /// Otherwise the bit-identical scalar sweep serves the call (cold
    /// cache, workload too small to pay for `n_levels` plane fills per
    /// bank).
    fn f64_plans_pay(&self, batch: usize, metric: Metric, banks: Option<&[usize]>) -> bool {
        batch >= self.ladder.n_levels()
            || self
                .selected(banks)
                .all(|(_, bank)| bank.cached_plan_if_warm::<f64>(metric).is_some())
    }

    /// The scalar reference sweep: per-bank physics-path searches of the
    /// selected banks (sharded across workers), winners merged in bank
    /// order.
    fn search_scalar(
        &self,
        query: &[u8],
        metric: Metric,
        banks: Option<&[usize]>,
    ) -> Result<(usize, f64)> {
        let selected: Vec<(usize, &McamArray)> = self.selected(banks).collect();
        let per_bank = par::try_par_map(&selected, self.search_threads(), |_, (_, bank)| {
            bank.search_metric(query, metric)
        })?;
        let mut best: Option<(usize, f64)> = None;
        for ((bank_idx, _), outcome) in selected.iter().zip(&per_bank) {
            let local = outcome.best_row();
            let g = outcome.conductance(local);
            let global = bank_idx * self.rows_per_bank + local;
            if best.is_none_or(|(_, bg)| g < bg) {
                best = Some((global, g));
            }
        }
        // femcam::allow(no_panic): searches validate that the memory is
        // nonempty and that a mask names at least one bank.
        Ok(best.expect("at least one selected bank"))
    }

    /// Runs the batched winner kernel over the selected banks at
    /// `precision`; a routed `sweep`'s banks are positions among them.
    fn sweep_winners(
        &self,
        queries: &[&[u8]],
        precision: Precision,
        metric: Metric,
        banks: Option<&[usize]>,
        sweep: WinnerSweep<'_>,
    ) -> Result<Vec<(usize, f64)>> {
        match precision {
            Precision::F64 => {
                let plans = self.plans(banks, |b| b.cached_plan::<f64>(metric))?;
                let refs: Vec<&CompiledMcam<f64>> = plans.iter().map(Arc::as_ref).collect();
                self.winner_kernel(&refs, banks, queries, sweep)
            }
            Precision::F32 => {
                let plans = self.plans(banks, |b| b.cached_plan::<f32>(metric))?;
                let refs: Vec<&CompiledMcam<f32>> = plans.iter().map(Arc::as_ref).collect();
                self.winner_kernel(&refs, banks, queries, sweep)
            }
            // Codes plans compile eagerly, with no cold-cache gate:
            // compiling one costs about one scalar query over the bank
            // ([`exec::CODES_COMPILE_THRESHOLD`]).
            Precision::Codes => {
                let plans = self.plans(banks, |b| b.compiled_codes(metric))?;
                let refs: Vec<&CodesDispatch> = plans.iter().collect();
                self.winner_kernel(&refs, banks, queries, sweep)
            }
        }
    }

    fn winner_kernel<K: BlockKernel>(
        &self,
        plans: &[&K],
        banks: Option<&[usize]>,
        queries: &[&[u8]],
        sweep: WinnerSweep<'_>,
    ) -> Result<Vec<(usize, f64)>> {
        let bases: Vec<usize> = self
            .selected(banks)
            .map(|(b, _)| b * self.rows_per_bank)
            .collect();
        exec::banked_winner_batch_kernel(plans, &bases, queries, sweep, par::max_threads())
    }

    /// Validates what a [`SearchSpec`] asks of this memory: something is
    /// stored, and the mask (if any) is a valid one.
    fn check_spec(&self, spec: &SearchSpec<'_>) -> Result<()> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        match spec.banks {
            Some(mask) => self.check_bank_mask(mask),
            None => Ok(()),
        }
    }

    /// Each query's merged `(global_row, total_conductance)` winner, in
    /// query order — the one winner search of a banked memory, and the
    /// default serving path. A single query is a batch of one.
    ///
    /// `spec` sets the [`Precision`] and [`Metric`] (a bare
    /// [`Precision`] converts, with the default metric) and an optional
    /// bank mask:
    ///
    /// * **Full sweep** (`banks: None`). Contiguous query groups shard
    ///   across worker threads; each worker folds every bank's cached
    ///   compiled plan for its queries on one reusable scratch, merging
    ///   winners in ascending bank order, so the result (lowest global
    ///   row on exact ties) is bit-identical to a sequential
    ///   bank-by-bank scalar sweep at any thread count. No per-query
    ///   row vector is ever materialized. Cold `f64` plans compile only
    ///   once the batch amortizes them; until then the bit-identical
    ///   scalar sweep answers.
    /// * **Masked sweep** (`banks: Some(mask)`, strictly ascending bank
    ///   indices): the second (exact re-rank) stage of two-stage
    ///   retrieval (see [`crate::router`]). Per query, the winner is
    ///   exactly what a sequential scan of the masked banks would
    ///   report, and a mask covering every bank is bit-identical to the
    ///   full sweep — the
    ///   [bank-mask contract](crate::exec#bank-mask-contract).
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyArray`] if nothing is stored — even for an
    ///   empty batch (see the empty-batch contract on
    ///   [`McamArray::search_batch_with`]).
    /// * [`CoreError::InvalidParameter`] if the mask is empty, not
    ///   strictly ascending, or names a bank that does not exist.
    /// * The first failing query (in query order) fails the batch.
    pub fn search_batch_winners_with<'a>(
        &self,
        queries: &[&[u8]],
        spec: impl Into<SearchSpec<'a>>,
    ) -> Result<Vec<(usize, f64)>> {
        self.winners(queries, spec.into())
    }

    /// The non-generic body of
    /// [`search_batch_winners_with`](Self::search_batch_winners_with),
    /// compiled once here rather than once per caller's spec type.
    fn winners(&self, queries: &[&[u8]], spec: SearchSpec<'_>) -> Result<Vec<(usize, f64)>> {
        self.check_spec(&spec)?;
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let SearchSpec {
            precision,
            metric,
            banks,
        } = spec;
        if precision == Precision::F64 && !self.f64_plans_pay(queries.len(), metric, banks) {
            return queries
                .iter()
                .map(|q| self.search_scalar(q, metric, banks))
                .collect();
        }
        self.sweep_winners(queries, precision, metric, banks, WinnerSweep::Full)
    }

    /// [`search_batch_winners_with`](Self::search_batch_winners_with)
    /// over the `banks` mask at the default metric.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`search_batch_winners_with`](Self::search_batch_winners_with).
    pub fn search_batch_winners_masked(
        &self,
        queries: &[&[u8]],
        precision: Precision,
        banks: &[usize],
    ) -> Result<Vec<(usize, f64)>> {
        let spec = SearchSpec {
            precision,
            banks: Some(banks),
            ..SearchSpec::default()
        };
        self.search_batch_winners_with(queries, spec)
    }

    /// Each query's winner over only its own `routes[i]` banks, per
    /// query bit-identical to a masked
    /// [`search_batch_winners_with`](Self::search_batch_winners_with)
    /// over that route (ascending banks, strict `<`). One batched
    /// routed re-rank serves every route: each bank a route names
    /// compiles once, and each query carries one bound across its
    /// banks.
    ///
    /// Same errors as a masked search, for each route as its mask.
    pub(crate) fn search_batch_winners_routed(
        &self,
        queries: &[&[u8]],
        precision: Precision,
        metric: Metric,
        routes: &[Vec<usize>],
    ) -> Result<Vec<(usize, f64)>> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        for route in routes {
            self.check_bank_mask(route)?;
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let mut touched: Vec<usize> = routes.iter().flatten().copied().collect();
        touched.sort_unstable();
        touched.dedup();
        // Each route as positions among the touched banks' plans.
        let positions: Vec<Vec<usize>> = routes
            .iter()
            .map(|route| {
                route
                    .iter()
                    .map(|&b| touched.partition_point(|&t| t < b))
                    .collect()
            })
            .collect();
        let hints: Vec<&[usize]> = positions.iter().map(Vec::as_slice).collect();
        self.sweep_winners(
            queries,
            precision,
            metric,
            Some(&touched),
            WinnerSweep::Hinted(&hints),
        )
    }

    /// Each query's `k` nearest rows as `(global_row, total_conductance)`
    /// pairs, nearest first — the one top-k search of a banked memory,
    /// and what lets a serving front end coalesce k-NN traffic into
    /// micro-batches. A single query is a batch of one.
    ///
    /// Every selected bank (all of them, or `spec.banks`'s mask) runs
    /// one batched bounded-heap sweep over its cached plan at the
    /// spec's precision and metric (the same `BlockKernel` drivers as
    /// the flat [`McamArray::search_batch_top_k_with`]); per-bank
    /// candidates merge by ascending `(conductance, global_row)`, so
    /// exact ties resolve to the lowest global row, identically to the
    /// flat ordering. Bounded-heap semantics hold under every metric
    /// because every metric's scores obey "smaller = nearer".
    ///
    /// `k` is clamped to the rows the selected banks hold, never an
    /// error: `0` returns empty lists (the
    /// [`crate::engines::NnIndex::query_k`] contract).
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`search_batch_winners_with`](Self::search_batch_winners_with).
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
        self.check_spec(&spec)?;
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        for query in queries {
            self.check_query(query)?;
        }
        let selected_rows: usize = self
            .selected(spec.banks)
            .map(|(_, bank)| bank.n_rows())
            .sum();
        let k = k.min(selected_rows);
        if k == 0 {
            return Ok(vec![Vec::new(); queries.len()]);
        }
        let mut merged: Vec<Vec<(usize, f64)>> = vec![Vec::new(); queries.len()];
        let bank_spec = SearchSpec {
            banks: None,
            ..spec
        };
        for (bank_idx, bank) in self.selected(spec.banks) {
            let base = bank_idx * self.rows_per_bank;
            let per_bank = bank.search_batch_top_k_with(queries, k, bank_spec)?;
            for (slot, hits) in merged.iter_mut().zip(per_bank) {
                slot.extend(hits.into_iter().map(|(local, g)| (base + local, g)));
            }
        }
        for slot in &mut merged {
            slot.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            slot.truncate(k);
        }
        Ok(merged)
    }

    /// Validates a bank mask: strictly ascending, in-range bank
    /// indices, at least one of them (the
    /// [bank-mask contract](crate::exec#bank-mask-contract)).
    fn check_bank_mask(&self, banks: &[usize]) -> Result<()> {
        if banks.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "bank mask",
                value: 0.0,
            });
        }
        let mut prev = None;
        for &b in banks {
            if b >= self.banks.len() || prev.is_some_and(|p: usize| p >= b) {
                return Err(CoreError::InvalidParameter {
                    name: "bank mask",
                    value: b as f64,
                });
            }
            prev = Some(b);
        }
        Ok(())
    }

    /// Compiles every bank into a reusable multi-bank query plan (see
    /// [`crate::exec`]); an explicit snapshot for callers that want to
    /// pin the contents and the worker count — the cached entry points
    /// above are usually preferable.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyArray`] if nothing is stored.
    pub fn compile(&self) -> Result<CompiledBanked> {
        CompiledBanked::compile(&self.banks, self.rows_per_bank)
    }

    /// Like [`compile`](Self::compile) at `f32` precision (the opt-in
    /// fast mode; see [`crate::exec`]'s "Precision modes").
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyArray`] if nothing is stored.
    pub fn compile_f32(&self) -> Result<CompiledBanked<f32>> {
        CompiledBanked::<f32>::compile(&self.banks, self.rows_per_bank)
    }

    /// Like [`compile`](Self::compile) in the packed-code mode
    /// ([`Precision::Codes`]; see [`crate::exec`]'s "Codes mode") —
    /// bit-identical to [`compile_f32`](Self::compile_f32) results on
    /// shared-LUT banks at a fraction of the resident bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyArray`] if nothing is stored.
    pub fn compile_codes(&self) -> Result<CompiledBankedCodes> {
        CompiledBankedCodes::compile(&self.banks, self.rows_per_bank)
    }

    /// Resident bytes of every bank's cached compiled plans, summed per
    /// precision slot — the multi-bank face of
    /// [`McamArray::plan_memory_bytes`].
    #[must_use]
    pub fn plan_memory_bytes(&self) -> PlanMemoryBytes {
        let mut total = PlanMemoryBytes::default();
        for bank in &self.banks {
            total += bank.plan_memory_bytes();
        }
        total
    }

    /// Worker threads justified by the current total search workload.
    fn search_threads(&self) -> usize {
        par::threads_for(self.n_rows() * self.word_len)
    }

    /// The underlying banks, in global-row order (crate-internal: what
    /// the [`crate::router`] rebuild walks to index existing rows).
    pub(crate) fn banks(&self) -> &[McamArray] {
        &self.banks
    }

    /// The stored word at a global row, if that row exists — global
    /// rows are `bank_idx * rows_per_bank + local`, exactly what
    /// [`store`](Self::store) returned.
    #[must_use]
    pub fn row(&self, global_row: usize) -> Option<&[u8]> {
        let bank = self.banks.get(global_row / self.rows_per_bank)?;
        let local = global_row % self.rows_per_bank;
        (local < bank.n_rows()).then(|| bank.row(local))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use femcam_device::FefetModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(rows_per_bank: usize) -> BankedMcam {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        BankedMcam::new(ladder, lut, 8, rows_per_bank)
    }

    #[test]
    fn banks_allocate_on_demand() {
        let mut b = setup(3);
        assert_eq!(b.n_banks(), 0);
        for i in 0..7u8 {
            b.store(&[i; 8]).unwrap();
        }
        assert_eq!(b.n_banks(), 3);
        assert_eq!(b.n_rows(), 7);
    }

    #[test]
    fn global_indices_are_stable() {
        let mut b = setup(2);
        for i in 0..5u8 {
            let idx = b.store(&[i; 8]).unwrap();
            assert_eq!(idx, i as usize);
        }
    }

    #[test]
    fn banked_search_equals_flat_search() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut banked = BankedMcam::new(ladder, lut.clone(), 16, 5);
        let mut flat = McamArray::new(ladder, lut, 16);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..23 {
            let word: Vec<u8> = (0..16).map(|_| rng.gen_range(0..8)).collect();
            banked.store(&word).unwrap();
            flat.store(&word).unwrap();
        }
        for _ in 0..30 {
            let query: Vec<u8> = (0..16).map(|_| rng.gen_range(0..8)).collect();
            let (banked_row, banked_g) = banked
                .search_batch_winners_with(&[&query[..]], Precision::F64)
                .unwrap()[0];
            let outcome = flat.search(&query).unwrap();
            assert_eq!(banked_row, outcome.best_row());
            assert!((banked_g - outcome.conductance(outcome.best_row())).abs() < 1e-18);
        }
    }

    #[test]
    fn batched_search_equals_per_query_search() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut banked = BankedMcam::new(ladder, lut, 8, 4);
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..19 {
            let word: Vec<u8> = (0..8).map(|_| rng.gen_range(0..8)).collect();
            banked.store(&word).unwrap();
        }
        // 10 queries: above the compile threshold (n_levels = 8).
        let queries: Vec<Vec<u8>> = (0..10)
            .map(|_| (0..8).map(|_| rng.gen_range(0..8)).collect())
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let batched = banked
            .search_batch_winners_with(&refs, Precision::F64)
            .unwrap();
        for (q, &(row, g)) in refs.iter().zip(&batched) {
            let (row1, g1) = banked
                .search_batch_winners_with(&[*q], Precision::F64)
                .unwrap()[0];
            assert_eq!(row, row1);
            assert_eq!(g, g1, "batched conductance must be bit-identical");
        }
        assert!(banked
            .search_batch_winners_with(&[], Precision::F64)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn banked_top_k_matches_flat_top_k() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut banked = BankedMcam::new(ladder, lut.clone(), 6, 4);
        let mut flat = McamArray::new(ladder, lut, 6);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..17 {
            let word: Vec<u8> = (0..6).map(|_| rng.gen_range(0..8)).collect();
            banked.store(&word).unwrap();
            flat.store(&word).unwrap();
        }
        let query: Vec<u8> = (0..6).map(|_| rng.gen_range(0..8)).collect();
        for precision in [Precision::F64, Precision::F32, Precision::Codes] {
            for k in [0usize, 1, 5, 17, 100] {
                let banked_k = banked
                    .search_batch_top_k_with(&[&query[..]], k, precision)
                    .unwrap()
                    .remove(0);
                let flat_k = flat
                    .search_batch_top_k_with(&[&query], k, precision)
                    .unwrap()
                    .remove(0);
                assert_eq!(banked_k, flat_k, "k={k} {precision:?}");
            }
        }
    }

    #[test]
    fn compiled_banked_plan_is_reusable() {
        let ladder = LevelLadder::new(2).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut banked = BankedMcam::new(ladder, lut, 4, 2);
        for i in 0..5u8 {
            banked.store(&[i % 4; 4]).unwrap();
        }
        let plan = banked.compile().unwrap();
        assert_eq!(plan.n_banks(), 3);
        assert_eq!(plan.n_rows(), 5);
        for q in [[0u8, 0, 0, 0], [3, 3, 3, 3], [1, 2, 1, 2]] {
            assert_eq!(
                plan.search_batch(&[&q], 2).unwrap(),
                banked
                    .search_batch_winners_with(&[&q], Precision::F64)
                    .unwrap()
            );
        }
    }

    #[test]
    fn codes_mode_matches_f32_across_banked_entry_points() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut banked = BankedMcam::new(ladder, lut, 8, 16);
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..40 {
            let word: Vec<u8> = (0..8).map(|_| rng.gen_range(0..8)).collect();
            banked.store(&word).unwrap();
        }
        let queries: Vec<Vec<u8>> = (0..12)
            .map(|_| (0..8).map(|_| rng.gen_range(0..8)).collect())
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        // Cached front door: codes batch == f32 batch, bit-identical.
        let codes = banked
            .search_batch_winners_with(&refs, Precision::Codes)
            .unwrap();
        let f32s = banked
            .search_batch_winners_with(&refs, Precision::F32)
            .unwrap();
        assert_eq!(codes, f32s);
        // Single-query front door agrees too.
        for q in &refs {
            assert_eq!(
                banked
                    .search_batch_winners_with(&[*q], Precision::Codes)
                    .unwrap(),
                banked
                    .search_batch_winners_with(&[*q], Precision::F32)
                    .unwrap(),
            );
        }
        // Explicit snapshot plan: same winners, small resident bytes.
        let plan = banked.compile_codes().unwrap();
        assert_eq!(plan.n_banks(), banked.n_banks());
        assert_eq!(plan.n_rows(), banked.n_rows());
        assert_eq!(plan.precision(), Precision::Codes);
        assert_eq!(plan.search_batch(&refs, 2).unwrap(), codes);
        assert_eq!(plan.search_batch(&refs[..1], 2).unwrap()[0], codes[0]);
        let f64_plan = banked.compile().unwrap();
        assert!(f64_plan.plan_bytes() >= 16 * plan.plan_bytes());
        // Cached per-bank plan memory introspection sums across banks
        // (codes + f32 slots are warm after the searches above).
        let mem = banked.plan_memory_bytes();
        assert!(mem.codes > 0 && mem.f32_plane > 0);
        assert_eq!(mem.f64_plane, 0);
        assert_eq!(mem.total(), mem.codes + mem.f32_plane);
    }

    #[test]
    fn empty_banked_memory_refuses_search() {
        let b = setup(4);
        assert!(matches!(
            b.search_batch_winners_with(&[&[0; 8]], Precision::F64),
            Err(CoreError::EmptyArray)
        ));
        // The batch entry points share the contract — even for an
        // empty batch (see McamArray::search_batch_with's contract docs).
        assert!(matches!(
            b.search_batch_winners_with(&[], SearchSpec::default()),
            Err(CoreError::EmptyArray)
        ));
        assert!(matches!(
            b.search_batch_winners_with(&[], Precision::Codes),
            Err(CoreError::EmptyArray)
        ));
        assert!(matches!(
            b.search_batch_winners_with(&[], Precision::F32),
            Err(CoreError::EmptyArray)
        ));
    }

    #[test]
    fn query_validation_matches_search_errors() {
        let mut b = setup(2);
        b.store(&[1; 8]).unwrap();
        assert!(b.check_query(&[1; 8]).is_ok());
        assert!(matches!(
            b.check_query(&[1; 7]),
            Err(CoreError::WordLengthMismatch {
                expected: 8,
                actual: 7
            })
        ));
        assert!(matches!(
            b.check_query(&[9; 8]),
            Err(CoreError::LevelOutOfRange { level: 9, max: 7 })
        ));
        assert_eq!(b.word_len(), 8);
        assert_eq!(b.ladder().n_levels(), 8);
        assert_eq!(b.lut().n_levels(), 8);
    }

    #[test]
    fn batched_top_k_matches_solo_top_k() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut banked = BankedMcam::new(ladder, lut, 6, 4);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..15 {
            let word: Vec<u8> = (0..6).map(|_| rng.gen_range(0..8)).collect();
            banked.store(&word).unwrap();
        }
        let queries: Vec<Vec<u8>> = (0..5)
            .map(|_| (0..6).map(|_| rng.gen_range(0..8)).collect())
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        for precision in [Precision::F64, Precision::F32, Precision::Codes] {
            for k in [0usize, 1, 3, 15, 99] {
                let batched = banked.search_batch_top_k_with(&refs, k, precision).unwrap();
                assert_eq!(batched.len(), refs.len());
                for (q, hits) in refs.iter().zip(&batched) {
                    let solo = banked
                        .search_batch_top_k_with(&[*q], k, precision)
                        .unwrap()
                        .remove(0);
                    assert_eq!(hits, &solo, "k={k} {precision:?}");
                }
            }
            assert!(banked
                .search_batch_top_k_with(&[], 3, precision)
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn partition_concat_round_trips_global_rows() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut rng = StdRng::seed_from_u64(17);
        // 7 rows over 2-row banks: 4 banks, the last one partial.
        let words: Vec<Vec<u8>> = (0..7)
            .map(|_| (0..5).map(|_| rng.gen_range(0..8)).collect())
            .collect();
        for n_parts in [1usize, 2, 3, 4, 6] {
            let mut banked = BankedMcam::new(ladder, lut.clone(), 5, 2);
            for w in &words {
                banked.store(w).unwrap();
            }
            let parts = banked.partition(n_parts);
            assert_eq!(parts.len(), n_parts);
            // Contiguity: bases are cumulative, interior banks full.
            let total: usize = parts.iter().map(BankedMcam::n_rows).sum();
            assert_eq!(total, 7);
            for p in &parts {
                assert_eq!(p.rows_per_bank(), 2);
                assert_eq!(p.word_len(), 5);
            }
            let rejoined = BankedMcam::concat(parts).unwrap();
            assert_eq!(rejoined.n_rows(), 7);
            assert_eq!(rejoined.n_banks(), 4);
            // Every stored word is still found at its original global
            // row (exact match is the conductance minimum).
            for (row, w) in words.iter().enumerate() {
                // Duplicates resolve to the first occurrence.
                let expected = words.iter().position(|x| x == w).unwrap_or(row);
                let hit = rejoined
                    .search_batch_winners_with(&[w], Precision::F64)
                    .unwrap()[0];
                assert_eq!(hit.0, expected);
            }
        }
    }

    #[test]
    fn concat_rejects_mismatched_parts() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        assert!(matches!(
            BankedMcam::concat(vec![]),
            Err(CoreError::InvalidParameter { .. })
        ));
        let a = BankedMcam::new(ladder, lut.clone(), 4, 2);
        let b = BankedMcam::new(ladder, lut.clone(), 5, 2);
        assert!(matches!(
            BankedMcam::concat(vec![a, b]),
            Err(CoreError::WordLengthMismatch { .. })
        ));
        let a = BankedMcam::new(ladder, lut.clone(), 4, 2);
        let b = BankedMcam::new(ladder, lut.clone(), 4, 3);
        assert!(matches!(
            BankedMcam::concat(vec![a, b]),
            Err(CoreError::InvalidParameter { .. })
        ));
        // A partial interior bank breaks global-row arithmetic.
        let mut a = BankedMcam::new(ladder, lut.clone(), 4, 2);
        a.store(&[1, 1, 1, 1]).unwrap();
        let mut b = BankedMcam::new(ladder, lut.clone(), 4, 2);
        b.store(&[2, 2, 2, 2]).unwrap();
        assert!(matches!(
            BankedMcam::concat(vec![a, b]),
            Err(CoreError::InvalidParameter { .. })
        ));
        // Identical geometry but a different LUT: conductances would
        // mix scales across the seam — must be refused.
        let other_lut = {
            let params = femcam_device::FefetParams {
                i_on: 2e-4,
                ..Default::default()
            };
            let model = FefetModel::new(params).unwrap();
            ConductanceLut::from_device(&model, &ladder)
        };
        let a = BankedMcam::new(ladder, lut, 4, 2);
        let b = BankedMcam::new(ladder, other_lut, 4, 2);
        assert!(matches!(
            BankedMcam::concat(vec![a, b]),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_per_bank_panics() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let _ = BankedMcam::new(ladder, lut, 8, 0);
    }
}
