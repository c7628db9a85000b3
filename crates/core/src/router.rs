//! Two-stage retrieval: LSH bank routing in front of the exact MCAM
//! re-rank.
//!
//! A full-sweep search costs O(rows) per query no matter how large the
//! memory grows, so node capacity is capped by compute even though
//! packed-code plans ([`Precision::Codes`](crate::Precision::Codes))
//! keep tens of millions of rows resident. Two-stage retrieval restores
//! memory-bound capacity:
//!
//! 1. **Route** — an [`LshRouter`] hashes the query word through the
//!    SimHash machinery of `femcam-lsh` ([`RandomHyperplanes`]) and
//!    maps the signature bucket (plus its Hamming-ball neighbors,
//!    multi-probe style) to the set of banks that hold rows of those
//!    buckets.
//! 2. **Re-rank** — the compiled kernel sweeps *only the routed banks*,
//!    so the winner inside the candidate set is exact, with the same
//!    bit-identical `(conductance, global_row)` merge contract as a
//!    full sweep (the [bank-mask contract](crate::exec#bank-mask-contract)).
//!    A batch re-ranks in one pass (the kernel's routed re-rank, see
//!    [`crate::exec`]'s "Bounded winners"): each bank sweeps the
//!    queries routed to it together, and each query carries one
//!    bound across its routed banks, so banks after its nearest one
//!    abandon row blocks early. Per query the answer is a masked
//!    [`BankedMcam::search_batch_winners_with`]'s over its route.
//!
//! [`RoutedMcam`] binds the two together and keeps them consistent:
//! every [`store`](RoutedMcam::store) updates the router's buckets the
//! same way a store invalidates a [`crate::exec::PlanCache`], so an
//! interleaved store can never leave a row unreachable by routing
//! (`tests/routing_props.rs` pins this).
//!
//! # Accuracy model
//!
//! Routing is the only approximate step: if the true nearest row lives
//! in a bank the router did not probe, the routed winner is the nearest
//! row *among the probed banks*. Recall is governed by the SimHash
//! collision bound — a query at angle `θ` from a stored row disagrees
//! with it on each signature bit independently with probability `θ/π`
//! — so more probe radius (or fewer signature bits) buys recall, and
//! fewer probed banks buy throughput. When the routed mask covers every
//! bank (tiny memories, cold router fallback), results are
//! bit-identical to the full sweep.
//!
//! # Locality-aware placement
//!
//! [`BankedMcam`] fills banks in store order, so routing only
//! concentrates candidates when same-bucket rows are stored near each
//! other. [`RoutedMcam::build`] does exactly that: it orders the
//! initial rows by signature bucket before storing, so each bucket's
//! rows land in one (occasionally two) banks and the probed mask stays
//! small. Rows stored incrementally afterwards append to the tail bank
//! wherever they hash — always reachable, just less concentrated, like
//! an unsorted tail segment awaiting compaction.

use std::collections::{BTreeMap, HashMap};

use femcam_lsh::RandomHyperplanes;

use crate::banked::{BankedMcam, SearchSpec};
use crate::error::CoreError;
use crate::exec;
use crate::levels::LevelLadder;
use crate::lut::ConductanceLut;
use crate::par;
use crate::Result;

/// Tuning knobs for an [`LshRouter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// SimHash signature bits per word (the bucket key width),
    /// `1..=MAX_SIGNATURE_BITS`. More bits make buckets finer (smaller
    /// candidate sets) but more sensitive to query perturbation.
    pub signature_bits: usize,
    /// Multi-probe Hamming radius: buckets within this many bit flips
    /// of the query's bucket are probed, nearest first
    /// (`0..=MAX_PROBE_RADIUS`).
    pub probe_radius: usize,
    /// Optional cap on the number of distinct banks a route may
    /// return. Probing stops at the first whole bucket that meets the
    /// budget, so the routed set is still deterministic; `None` means
    /// the Hamming ball alone bounds the mask.
    pub max_banks: Option<usize>,
    /// Seed for the hyperplane draw — fixed by default so signatures
    /// (and therefore placements and routes) are reproducible.
    pub seed: u64,
}

/// Widest supported bucket key, bounded so the multi-probe Hamming
/// ball stays enumerable (`1 + B + B·(B−1)/2` probes at radius 2).
pub const MAX_SIGNATURE_BITS: usize = 32;

/// Largest supported multi-probe radius.
pub const MAX_PROBE_RADIUS: usize = 2;

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            signature_bits: 10,
            probe_radius: 1,
            max_banks: None,
            seed: 0xFE11_C0DE,
        }
    }
}

/// SimHash bucket → bank-set router: the candidate-selection stage of
/// two-stage retrieval (see the [module docs](self)).
///
/// The router is deliberately bank-granular: it never stores row
/// indices, only a per-bucket bitmask of the banks holding at least
/// one row of that bucket. That keeps it a few kilobytes next to a
/// multi-million-row memory, and makes the second stage a plain masked
/// bank sweep that reuses the compiled kernels unchanged.
#[derive(Debug, Clone)]
pub struct LshRouter {
    planes: RandomHyperplanes,
    probe_radius: usize,
    max_banks: Option<usize>,
    rows_per_bank: usize,
    n_levels: usize,
    word_len: usize,
    /// Bucket key → bitmask of banks holding rows of that bucket.
    buckets: HashMap<u64, Vec<u64>>,
    /// One past the highest bank ever noted.
    n_banks: usize,
    /// Reversible re-placement overlay for orphaned banks: routes that
    /// would land on a key bank return its value bank instead. The
    /// bucket bitmasks underneath are never touched, so removing an
    /// entry restores the original route exactly (see
    /// [`displace_banks`](Self::displace_banks)).
    displaced: BTreeMap<usize, usize>,
}

impl LshRouter {
    /// Creates an empty router for words of `word_len` cells on an
    /// `n_levels` ladder, banked at `rows_per_bank` rows.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if `signature_bits` is zero or
    /// above [`MAX_SIGNATURE_BITS`], `probe_radius` exceeds
    /// [`MAX_PROBE_RADIUS`], `max_banks` is `Some(0)`, or
    /// `word_len` / `n_levels` / `rows_per_bank` is zero.
    pub fn new(
        word_len: usize,
        n_levels: usize,
        rows_per_bank: usize,
        config: RouterConfig,
    ) -> Result<Self> {
        if config.signature_bits == 0 || config.signature_bits > MAX_SIGNATURE_BITS {
            return Err(CoreError::InvalidParameter {
                name: "router signature_bits",
                value: config.signature_bits as f64,
            });
        }
        if config.probe_radius > MAX_PROBE_RADIUS {
            return Err(CoreError::InvalidParameter {
                name: "router probe_radius",
                value: config.probe_radius as f64,
            });
        }
        if config.max_banks == Some(0) {
            return Err(CoreError::InvalidParameter {
                name: "router max_banks",
                value: 0.0,
            });
        }
        if n_levels == 0 || rows_per_bank == 0 {
            return Err(CoreError::InvalidParameter {
                name: "router geometry",
                value: 0.0,
            });
        }
        let planes = RandomHyperplanes::new(config.signature_bits, word_len, config.seed)?;
        Ok(LshRouter {
            planes,
            probe_radius: config.probe_radius,
            max_banks: config.max_banks,
            rows_per_bank,
            n_levels,
            word_len,
            buckets: HashMap::new(),
            n_banks: 0,
            displaced: BTreeMap::new(),
        })
    }

    /// Signature bits per bucket key.
    #[must_use]
    pub fn signature_bits(&self) -> usize {
        self.planes.bits()
    }

    /// Multi-probe Hamming radius.
    #[must_use]
    pub fn probe_radius(&self) -> usize {
        self.probe_radius
    }

    /// Number of nonempty buckets currently tracked.
    #[must_use]
    pub fn n_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// `true` until the first [`note_store`](Self::note_store).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Centers a level word around the ladder midpoint so SimHash sees
    /// sign structure instead of an all-positive vector (a raw level
    /// word lives in the positive orthant, where every hyperplane cut
    /// is wasted on the mean).
    fn centered(&self, word: &[u8]) -> Vec<f32> {
        let mid = (self.n_levels as f32 - 1.0) / 2.0;
        word.iter().map(|&l| f32::from(l) - mid).collect()
    }

    /// The bucket key of a word: its first `signature_bits` SimHash
    /// bits packed into a `u64` (bit `i` of the key is signature bit
    /// `i`).
    ///
    /// # Errors
    ///
    /// [`CoreError::WordLengthMismatch`] / [`CoreError::LevelOutOfRange`]
    /// for malformed words.
    pub fn bucket(&self, word: &[u8]) -> Result<u64> {
        exec::validate_query(self.word_len, self.n_levels, word)?;
        let sig = self.planes.signature(&self.centered(word))?;
        let mut key = 0u64;
        for i in 0..self.planes.bits() {
            key |= u64::from(sig.get(i)) << i;
        }
        Ok(key)
    }

    /// Records that `global_row` (holding `word`) exists: sets the
    /// row's bank in its bucket's bank mask. The routing analogue of a
    /// [`crate::exec::PlanCache`] store-invalidation — call it for
    /// every store, or the row may be unreachable by routed search.
    ///
    /// # Errors
    ///
    /// Same conditions as [`bucket`](Self::bucket).
    pub fn note_store(&mut self, word: &[u8], global_row: usize) -> Result<()> {
        let key = self.bucket(word)?;
        let bank = global_row / self.rows_per_bank;
        let mask = self.buckets.entry(key).or_default();
        let word_idx = bank / 64;
        if mask.len() <= word_idx {
            mask.resize(word_idx + 1, 0);
        }
        mask[word_idx] |= 1u64 << (bank % 64);
        self.n_banks = self.n_banks.max(bank + 1);
        Ok(())
    }

    /// Bucket keys probed for `key`, nearest first: radius 0, then
    /// single-bit flips in ascending bit order, then two-bit flips in
    /// ascending `(i, j)` order — a fixed enumeration, so routes are
    /// deterministic.
    fn probe_keys(&self, key: u64) -> Vec<u64> {
        let bits = self.planes.bits();
        let mut keys = Vec::with_capacity(1 + bits + bits * (bits - 1) / 2);
        keys.push(key);
        if self.probe_radius >= 1 {
            for i in 0..bits {
                keys.push(key ^ (1u64 << i));
            }
        }
        if self.probe_radius >= 2 {
            for i in 0..bits {
                for j in (i + 1)..bits {
                    keys.push(key ^ (1u64 << i) ^ (1u64 << j));
                }
            }
        }
        keys
    }

    /// Routes a query to the banks its probed buckets occupy, ascending
    /// bank order. Probes run nearest-bucket first and stop early once
    /// [`RouterConfig::max_banks`] distinct banks are reached (whole
    /// buckets only, so the cut is deterministic). An empty result
    /// means the router has no candidates for this query — callers
    /// should fall back to a full sweep, which [`RoutedMcam`] does.
    ///
    /// # Errors
    ///
    /// Same conditions as [`bucket`](Self::bucket).
    pub fn route(&self, query: &[u8]) -> Result<Vec<usize>> {
        let key = self.bucket(query)?;
        let mut acc: Vec<u64> = Vec::new();
        let mut n_found = 0usize;
        for probe in self.probe_keys(key) {
            let Some(mask) = self.buckets.get(&probe) else {
                continue;
            };
            if acc.len() < mask.len() {
                acc.resize(mask.len(), 0);
            }
            for (a, &m) in acc.iter_mut().zip(mask) {
                *a |= m;
            }
            n_found = acc.iter().map(|w| w.count_ones() as usize).sum();
            if self.max_banks.is_some_and(|cap| n_found >= cap) {
                break;
            }
        }
        let mut banks = Vec::with_capacity(n_found);
        for (word_idx, &w) in acc.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                banks.push(word_idx * 64 + b);
                bits &= bits - 1;
            }
        }
        if !self.displaced.is_empty() {
            for b in &mut banks {
                if let Some(&sub) = self.displaced.get(b) {
                    *b = sub;
                }
            }
            banks.sort_unstable();
            banks.dedup();
        }
        Ok(banks)
    }

    /// Reversibly re-places `orphaned` banks onto `substitutes`
    /// (round-robin): any route that would return an orphaned bank
    /// returns its substitute instead. The bucket bitmasks are left
    /// untouched, so [`restore_banks`](Self::restore_banks) undoes the
    /// re-placement exactly. This is the repair a sharded front end
    /// applies when a quarantined shard orphans its banks — routed
    /// traffic degrades to a *narrower* fan-out over live banks instead
    /// of falling back to the widest sweep — and reverts on re-admit.
    ///
    /// Substitutes should be live (non-orphaned) banks; the overlay is
    /// resolved in a single step, never chained. Returns the number of
    /// overlay entries recorded (zero when `substitutes` is empty).
    pub fn displace_banks(&mut self, orphaned: &[usize], substitutes: &[usize]) -> usize {
        if substitutes.is_empty() {
            return 0;
        }
        let mut placed = 0usize;
        for (i, &bank) in orphaned.iter().enumerate() {
            let sub = substitutes[i % substitutes.len()];
            if sub == bank {
                continue;
            }
            self.displaced.insert(bank, sub);
            placed += 1;
        }
        placed
    }

    /// Removes the re-placement overlay entries for `orphaned`,
    /// restoring their original routes — the undo of
    /// [`displace_banks`](Self::displace_banks) on shard re-admit.
    pub fn restore_banks(&mut self, orphaned: &[usize]) {
        for bank in orphaned {
            self.displaced.remove(bank);
        }
    }

    /// Number of banks currently re-placed by the overlay.
    #[must_use]
    pub fn displaced_banks(&self) -> usize {
        self.displaced.len()
    }
}

/// A [`BankedMcam`] paired with an [`LshRouter`] that stays in sync
/// with it — the two-stage retrieval index (see the [module
/// docs](self)). Its searches take the same [`SearchSpec`] as the
/// banked memory's, minus the banks the router picks:
/// [`search_batch_winners_with`](Self::search_batch_winners_with) and
/// [`search_batch_top_k_with`](Self::search_batch_top_k_with).
#[derive(Debug)]
pub struct RoutedMcam {
    memory: BankedMcam,
    router: LshRouter,
}

impl RoutedMcam {
    /// Wraps an existing memory, indexing every stored row into the
    /// router. Routing quality then depends on how the rows were laid
    /// out (see the module-level "Locality-aware placement") — for a
    /// bulk load, prefer [`build`](Self::build).
    ///
    /// # Errors
    ///
    /// Propagates [`LshRouter::new`] configuration failures.
    pub fn new(memory: BankedMcam, config: RouterConfig) -> Result<Self> {
        let mut router = LshRouter::new(
            memory.word_len(),
            memory.ladder().n_levels(),
            memory.rows_per_bank(),
            config,
        )?;
        for (bank_idx, bank) in memory.banks().iter().enumerate() {
            let base = bank_idx * memory.rows_per_bank();
            for local in 0..bank.n_rows() {
                router.note_store(bank.row(local), base + local)?;
            }
        }
        Ok(RoutedMcam { memory, router })
    }

    /// Builds a routed memory from a bulk row set with locality-aware
    /// placement: rows are stored grouped by signature bucket (stable
    /// within a bucket), so each bucket's rows concentrate in as few
    /// banks as possible and routed masks stay small. Returns the
    /// placement map: `placement[i]` is the global row where input row
    /// `i` landed.
    ///
    /// # Errors
    ///
    /// * Propagates [`LshRouter::new`] configuration failures.
    /// * The first malformed row (in input order) fails the build.
    pub fn build(
        ladder: LevelLadder,
        lut: ConductanceLut,
        word_len: usize,
        rows_per_bank: usize,
        config: RouterConfig,
        rows: &[Vec<u8>],
    ) -> Result<(Self, Vec<usize>)> {
        let mut routed = RoutedMcam::new(
            BankedMcam::new(ladder, lut, word_len, rows_per_bank),
            config,
        )?;
        let mut keyed: Vec<(u64, usize)> = rows
            .iter()
            .enumerate()
            .map(|(i, row)| Ok((routed.router.bucket(row)?, i)))
            .collect::<Result<_>>()?;
        keyed.sort();
        let mut placement = vec![0usize; rows.len()];
        for &(_, i) in &keyed {
            placement[i] = routed.store(&rows[i])?;
        }
        Ok((routed, placement))
    }

    /// Stores a word and updates the router's buckets in the same step
    /// — the store-invalidation wiring that keeps every row reachable
    /// by routed search (the [`crate::exec::PlanCache`] analogue for
    /// routing).
    ///
    /// # Errors
    ///
    /// Propagates [`BankedMcam::store`] failures.
    pub fn store(&mut self, word: &[u8]) -> Result<usize> {
        let global = self.memory.store(word)?;
        self.router.note_store(word, global)?;
        Ok(global)
    }

    /// The banks this query's search will sweep: the router's
    /// candidate banks, or every bank when the router has none (cold
    /// router, or a query hashing into empty space) — the fallback
    /// that keeps routed search total.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LshRouter::bucket`].
    pub fn route(&self, query: &[u8]) -> Result<Vec<usize>> {
        let banks = self.router.route(query)?;
        if banks.is_empty() {
            return Ok((0..self.memory.n_banks()).collect());
        }
        Ok(banks)
    }

    /// Routes every query, then re-ranks each one over its routed banks
    /// in one batched pass: per worker, bank-major in ascending bank
    /// order, each bank sweeping the queries routed to it as one block,
    /// and each query carrying one bound across its banks (the kernel's
    /// routed re-rank, `crate::exec`'s "Bounded winners"). A query's
    /// bound is as tight after its first near bank as a full sweep's
    /// would be there, so later banks abandon row blocks early. A
    /// single query is a batch of one.
    ///
    /// `spec` sets the precision and metric (a bare
    /// [`Precision`](crate::Precision) converts). The route is
    /// metric-agnostic (SimHash buckets depend only on the stored
    /// words), while the exact re-rank inside the routed banks honors
    /// the metric. The router picks the banks, so a spec may not set a
    /// mask.
    ///
    /// Results come back in query order. Per query, the winner is
    /// bit-identical to a masked
    /// [`BankedMcam::search_batch_winners_with`] over its routed banks:
    /// within a bank the same compiled plan produces the same
    /// conductances, and the fold is the masked sweep's own — ascending
    /// bank order, strict `<` on conductance, so exact ties keep the
    /// lowest global row.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] if `spec` sets `banks`.
    /// * Same conditions as a masked
    ///   [`BankedMcam::search_batch_winners_with`]; the lowest-indexed
    ///   failing query fails the batch.
    pub fn search_batch_winners_with<'a>(
        &self,
        queries: &[&[u8]],
        spec: impl Into<SearchSpec<'a>>,
    ) -> Result<Vec<(usize, f64)>> {
        let spec = routed_spec(spec.into())?;
        if self.memory.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        let routes: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| self.route(q))
            .collect::<Result<_>>()?;
        self.memory
            .search_batch_winners_routed(queries, spec.precision, spec.metric, &routes)
    }

    /// The top-k face of
    /// [`search_batch_winners_with`](Self::search_batch_winners_with):
    /// per query, the `k` nearest rows within its routed banks,
    /// nearest first, `k` clamped per the usual contract.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] if `spec` sets `banks`.
    /// * Same conditions as a masked
    ///   [`BankedMcam::search_batch_top_k_with`].
    pub fn search_batch_top_k_with<'a>(
        &self,
        queries: &[&[u8]],
        k: usize,
        spec: impl Into<SearchSpec<'a>>,
    ) -> Result<Vec<Vec<(usize, f64)>>> {
        let spec = routed_spec(spec.into())?;
        if self.memory.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        let groups = self.route_groups(queries)?;
        let per_group = par::try_par_map(&groups, par::max_threads(), |_, (banks, idxs)| {
            let group: Vec<&[u8]> = idxs.iter().map(|&i| queries[i]).collect();
            let masked = SearchSpec {
                banks: Some(banks),
                ..spec
            };
            self.memory.search_batch_top_k_with(&group, k, masked)
        })?;
        let mut out = vec![Vec::new(); queries.len()];
        for ((_, idxs), hits) in groups.iter().zip(per_group) {
            for (&i, h) in idxs.iter().zip(hits) {
                out[i] = h;
            }
        }
        Ok(out)
    }

    /// Groups query indices by routed bank mask, deterministically
    /// (masks in ascending lexicographic order, indices ascending
    /// within a group). Routing errors surface for the first failing
    /// query in input order.
    fn route_groups(&self, queries: &[&[u8]]) -> Result<Vec<(Vec<usize>, Vec<usize>)>> {
        let mut groups: BTreeMap<Vec<usize>, Vec<usize>> = BTreeMap::new();
        for (i, query) in queries.iter().enumerate() {
            groups.entry(self.route(query)?).or_default().push(i);
        }
        Ok(groups.into_iter().collect())
    }

    /// The routed memory.
    #[must_use]
    pub fn memory(&self) -> &BankedMcam {
        &self.memory
    }

    /// The router.
    #[must_use]
    pub fn router(&self) -> &LshRouter {
        &self.router
    }

    /// Unwraps into the underlying memory, dropping the router.
    #[must_use]
    pub fn into_memory(self) -> BankedMcam {
        self.memory
    }

    /// Unwraps into `(memory, router)` — what a sharded front end uses
    /// to partition the memory while keeping the global router.
    #[must_use]
    pub fn into_parts(self) -> (BankedMcam, LshRouter) {
        (self.memory, self.router)
    }
}

/// A routed search's spec: the router picks the banks, so a mask from
/// the caller is a usage error, reported rather than silently
/// overridden.
fn routed_spec(spec: SearchSpec<'_>) -> Result<SearchSpec<'_>> {
    if spec.banks.is_some() {
        return Err(CoreError::InvalidParameter {
            name: "routed search bank mask",
            value: 0.0,
        });
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Precision;
    use femcam_device::FefetModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn geometry() -> (LevelLadder, ConductanceLut) {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        (ladder, lut)
    }

    #[test]
    fn config_is_validated() {
        let cfg = |f: fn(&mut RouterConfig)| {
            let mut c = RouterConfig::default();
            f(&mut c);
            c
        };
        assert!(LshRouter::new(8, 8, 4, cfg(|c| c.signature_bits = 0)).is_err());
        assert!(LshRouter::new(8, 8, 4, cfg(|c| c.signature_bits = 33)).is_err());
        assert!(LshRouter::new(8, 8, 4, cfg(|c| c.probe_radius = 3)).is_err());
        assert!(LshRouter::new(8, 8, 4, cfg(|c| c.max_banks = Some(0))).is_err());
        assert!(LshRouter::new(8, 8, 0, RouterConfig::default()).is_err());
        assert!(LshRouter::new(8, 8, 4, RouterConfig::default()).is_ok());
    }

    #[test]
    fn buckets_are_deterministic_and_validated() {
        let router = LshRouter::new(8, 8, 4, RouterConfig::default()).unwrap();
        let word = [0u8, 7, 3, 4, 1, 6, 2, 5];
        assert_eq!(router.bucket(&word).unwrap(), router.bucket(&word).unwrap());
        assert!(matches!(
            router.bucket(&[0u8; 7]),
            Err(CoreError::WordLengthMismatch { .. })
        ));
        assert!(matches!(
            router.bucket(&[9u8; 8]),
            Err(CoreError::LevelOutOfRange { .. })
        ));
    }

    #[test]
    fn routes_cover_noted_banks() {
        let mut router = LshRouter::new(8, 8, 2, RouterConfig::default()).unwrap();
        assert!(router.is_empty());
        let mut rng = StdRng::seed_from_u64(7);
        for row in 0..40usize {
            let word: Vec<u8> = (0..8).map(|_| rng.gen_range(0..8)).collect();
            router.note_store(&word, row).unwrap();
            // The word's own bucket is always probed first, so a row's
            // bank is routable immediately after its store.
            let banks = router.route(&word).unwrap();
            assert!(banks.contains(&(row / 2)), "row {row} bank not routed");
            // Masks are ascending and deduplicated.
            assert!(banks.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(!router.is_empty());
        assert!(router.n_buckets() > 0);
    }

    #[test]
    fn max_banks_caps_the_route() {
        let config = RouterConfig {
            signature_bits: 2, // coarse buckets: lots of collisions
            probe_radius: 2,
            max_banks: Some(2),
            ..RouterConfig::default()
        };
        let mut router = LshRouter::new(8, 8, 1, config).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for row in 0..32usize {
            let word: Vec<u8> = (0..8).map(|_| rng.gen_range(0..8)).collect();
            router.note_store(&word, row).unwrap();
        }
        let query: Vec<u8> = (0..8).map(|_| rng.gen_range(0..8)).collect();
        // Whole-bucket granularity: the cap may be exceeded by the
        // bucket that crossed it, but never by a later bucket. With
        // 1-row banks a bucket's mask is its row count, so just check
        // the route stays near the cap rather than covering all banks.
        let banks = router.route(&query).unwrap();
        assert!(!banks.is_empty());
        assert!(banks.len() < 32, "cap did not bite: {}", banks.len());
    }

    #[test]
    fn displaced_banks_redirect_routes_and_restore_exactly() {
        let mut router = LshRouter::new(8, 8, 2, RouterConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let words: Vec<Vec<u8>> = (0..24)
            .map(|_| (0..8).map(|_| rng.gen_range(0..8)).collect())
            .collect();
        for (row, word) in words.iter().enumerate() {
            router.note_store(word, row).unwrap();
        }
        let before: Vec<Vec<usize>> = words.iter().map(|w| router.route(w).unwrap()).collect();
        // Orphan banks 0..6 (shard 0 of a 2-shard split), substitute
        // with the live banks 6..12 round-robin.
        let orphaned = [0, 1, 2, 3, 4, 5];
        let substitutes = [6, 7, 8, 9, 10, 11];
        assert_eq!(router.displace_banks(&orphaned, &substitutes), 6);
        assert_eq!(router.displaced_banks(), 6);
        for word in &words {
            let banks = router.route(word).unwrap();
            // No orphaned bank survives in any route...
            assert!(banks.iter().all(|b| !orphaned.contains(b)), "{banks:?}");
            // ...and routes stay ascending + deduplicated.
            assert!(banks.windows(2).all(|w| w[0] < w[1]));
        }
        // Empty substitutes record nothing; self-substitution is a
        // no-op entry.
        assert_eq!(router.displace_banks(&[7], &[]), 0);
        assert_eq!(router.displace_banks(&[7], &[7]), 0);
        // Restore undoes the overlay bit-exactly.
        router.restore_banks(&orphaned);
        assert_eq!(router.displaced_banks(), 0);
        let after: Vec<Vec<usize>> = words.iter().map(|w| router.route(w).unwrap()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn routed_store_keeps_rows_reachable() {
        let (ladder, lut) = geometry();
        let memory = BankedMcam::new(ladder, lut, 8, 4);
        let mut routed = RoutedMcam::new(memory, RouterConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let mut words: Vec<Vec<u8>> = Vec::new();
        for _ in 0..30 {
            let word: Vec<u8> = (0..8).map(|_| rng.gen_range(0..8)).collect();
            routed.store(&word).unwrap();
            words.push(word);
            // Every stored word remains exactly findable: routed search
            // agrees with the full sweep on exact-match queries.
            for w in &words {
                let routed_hit = routed
                    .search_batch_winners_with(&[w], Precision::Codes)
                    .unwrap();
                let full = routed
                    .memory()
                    .search_batch_winners_with(&[w], Precision::Codes)
                    .unwrap();
                assert_eq!(routed_hit, full);
            }
        }
    }

    #[test]
    fn build_places_rows_and_returns_placement() {
        let (ladder, lut) = geometry();
        let mut rng = StdRng::seed_from_u64(31);
        let rows: Vec<Vec<u8>> = (0..50)
            .map(|_| (0..8).map(|_| rng.gen_range(0..8)).collect())
            .collect();
        let (routed, placement) =
            RoutedMcam::build(ladder, lut, 8, 4, RouterConfig::default(), &rows).unwrap();
        assert_eq!(routed.memory().n_rows(), rows.len());
        assert_eq!(placement.len(), rows.len());
        // Placement is a permutation of global rows...
        let mut sorted = placement.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..rows.len()).collect::<Vec<_>>());
        // ...and each input row really lives at its placed global row.
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(routed.memory().row(placement[i]).unwrap(), &row[..]);
        }
    }

    #[test]
    fn empty_routed_memory_refuses_search() {
        let (ladder, lut) = geometry();
        let routed =
            RoutedMcam::new(BankedMcam::new(ladder, lut, 8, 4), RouterConfig::default()).unwrap();
        assert!(matches!(
            routed.search_batch_winners_with(&[&[0; 8]], Precision::Codes),
            Err(CoreError::EmptyArray)
        ));
        assert!(matches!(
            routed.search_batch_winners_with(&[], Precision::Codes),
            Err(CoreError::EmptyArray)
        ));
        assert!(matches!(
            routed.search_batch_top_k_with(&[], 3, Precision::Codes),
            Err(CoreError::EmptyArray)
        ));
    }

    #[test]
    fn batch_entry_points_match_solo_routed_search() {
        let (ladder, lut) = geometry();
        let mut rng = StdRng::seed_from_u64(41);
        let rows: Vec<Vec<u8>> = (0..40)
            .map(|_| (0..8).map(|_| rng.gen_range(0..8)).collect())
            .collect();
        let (routed, _) =
            RoutedMcam::build(ladder, lut, 8, 4, RouterConfig::default(), &rows).unwrap();
        let queries: Vec<Vec<u8>> = (0..12)
            .map(|_| (0..8).map(|_| rng.gen_range(0..8)).collect())
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        for precision in [Precision::F64, Precision::F32, Precision::Codes] {
            let batch = routed.search_batch_winners_with(&refs, precision).unwrap();
            for (q, &w) in refs.iter().zip(&batch) {
                let solo = routed.search_batch_winners_with(&[*q], precision).unwrap();
                assert_eq!(vec![w], solo);
            }
            let topk = routed.search_batch_top_k_with(&refs, 3, precision).unwrap();
            for (q, hits) in refs.iter().zip(&topk) {
                let banks = routed.route(q).unwrap();
                let masked = SearchSpec {
                    precision,
                    banks: Some(&banks),
                    ..SearchSpec::default()
                };
                let solo = routed
                    .memory()
                    .search_batch_top_k_with(&[q], 3, masked)
                    .unwrap()
                    .remove(0);
                assert_eq!(hits, &solo);
            }
        }
    }

    #[test]
    fn routed_spec_rejects_a_bank_mask() {
        let (ladder, lut) = geometry();
        let rows: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i % 8; 8]).collect();
        let (routed, _) =
            RoutedMcam::build(ladder, lut, 8, 4, RouterConfig::default(), &rows).unwrap();
        let query: &[u8] = &[3; 8];
        let spec = SearchSpec {
            banks: Some(&[0, 1]),
            ..SearchSpec::default()
        };
        assert!(matches!(
            routed.search_batch_winners_with(&[query], spec),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(matches!(
            routed.search_batch_top_k_with(&[query], 2, spec),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(routed
            .search_batch_winners_with(&[query], SearchSpec::default())
            .is_ok());
    }
}
