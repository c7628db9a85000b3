//! [`ServedNn`]: the served nearest-neighbor engine — a
//! [`NnIndex`] whose every query and store routes through a one-shard
//! [`ShardedServer`], so application code written against the engine
//! trait transparently gains micro-batched execution.

use femcam_core::sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use femcam_core::{BankedMcam, CoreError, NnIndex, Precision, Quantizer, QueryResult};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::health::Coverage;
use crate::{ServeConfig, ServeError, ServeStats, ShardTicket, ShardedHandle, ShardedServer};

/// How long `query_batch` waits out a queue saturated by traffic that
/// is not its own before propagating the overload to the caller —
/// time-based (many batching windows), so the patience always spans
/// several batch drains regardless of how fast the retry loop spins.
const OVERLOAD_PATIENCE: Duration = Duration::from_millis(50);

/// First retry sleep while waiting out foreign overload: a fraction of
/// the default batching window, so a freed admission slot is picked up
/// promptly. Subsequent retries back off exponentially (doubling up to
/// [`OVERLOAD_BACKOFF_MAX`]) instead of hammering a queue that stayed
/// saturated — a saturated dispatcher drains in batch-window units, so
/// constant-rate resubmission is pure contention.
const OVERLOAD_BACKOFF_START: Duration = Duration::from_micros(50);

/// Bounded-backoff ceiling: a few batching windows, so even maximal
/// backoff still probes the queue several times within
/// [`OVERLOAD_PATIENCE`].
const OVERLOAD_BACKOFF_MAX: Duration = Duration::from_millis(2);

/// Seeds for per-call-site backoff RNGs: a plain counter, so every
/// retry loop gets a distinct, reproducible stream without sharing
/// state.
static BACKOFF_SEED: AtomicU64 = AtomicU64::new(0x5eed);

/// Jittered exponential backoff for overload retries: each sleep is
/// drawn uniformly from `[base/2, base]`, then the base doubles
/// (capped at [`OVERLOAD_BACKOFF_MAX`]).
///
/// The jitter decorrelates retriers — with a deterministic schedule,
/// every client rejected by the same saturated queue re-probes at the
/// same instants and collides again on each freed slot. The total wait
/// stays bounded: bases sum geometrically, so the sleeps consumed
/// before a patience budget `P` is observed spent add up to at most
/// `P + OVERLOAD_BACKOFF_MAX` (the loop checks the budget before each
/// sleep, and one final capped sleep may follow the last check).
#[derive(Debug)]
struct Backoff {
    base: Duration,
    rng: StdRng,
}

impl Backoff {
    fn new() -> Self {
        Backoff {
            base: OVERLOAD_BACKOFF_START,
            // ORDERING: Relaxed — the RMW's atomicity alone guarantees
            // each retry loop a distinct seed; no ordering is needed.
            rng: StdRng::seed_from_u64(BACKOFF_SEED.fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// The next sleep: uniform in `[base/2, base]`; the base doubles
    /// for the draw after, bounded by [`OVERLOAD_BACKOFF_MAX`].
    fn next_delay(&mut self) -> Duration {
        let base = u64::try_from(self.base.as_nanos()).unwrap_or(u64::MAX);
        let jittered = self.rng.gen_range(base / 2..=base);
        self.base = (self.base * 2).min(OVERLOAD_BACKOFF_MAX);
        Duration::from_nanos(jittered)
    }

    /// Back to the starting delay (a slot was obtained; the next
    /// overload episode is a fresh one).
    fn reset(&mut self) {
        self.base = OVERLOAD_BACKOFF_START;
    }
}

/// A labelled NN engine serving through a one-shard [`ShardedServer`].
///
/// The quantize → search pipeline matches
/// `femcam_core::engines::McamNn`, but the array is a [`BankedMcam`]
/// owned by a dispatcher thread: queries submitted back-to-back (or by
/// concurrent clones of the [`handle`](Self::handle)) coalesce into
/// micro-batches, and results stay bit-identical to a direct
/// [`BankedMcam::search_with`] at the configured precision.
///
/// `k`-nearest queries follow the uniform [`NnIndex::query_k`] clamp
/// contract via the server's top-k endpoint.
#[derive(Debug)]
pub struct ServedNn {
    quantizer: Quantizer,
    server: ShardedServer,
    handle: ShardedHandle,
    labels: Vec<u32>,
    bits: u8,
    precision: Precision,
    /// [`Coverage`] of the most recent winner query answered through
    /// this engine — how callers coding against the plain [`NnIndex`]
    /// trait (whose `query` cannot return coverage) observe that a
    /// fail-open server answered from a partial topology.
    last_coverage: Mutex<Option<Coverage>>,
}

impl ServedNn {
    /// Starts a one-shard [`ShardedServer`] around `memory` and wraps
    /// it as an engine.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] if the quantizer's level
    ///   count differs from the memory ladder's.
    /// * [`CoreError::DimensionMismatch`] if the quantizer's
    ///   dimensionality differs from the memory's word length.
    pub fn new(
        quantizer: Quantizer,
        memory: BankedMcam,
        config: ServeConfig,
    ) -> femcam_core::Result<Self> {
        if quantizer.n_levels() as usize != memory.ladder().n_levels() {
            return Err(CoreError::InvalidParameter {
                name: "n_levels",
                value: f64::from(quantizer.n_levels()),
            });
        }
        if quantizer.dims() != memory.word_len() {
            return Err(CoreError::DimensionMismatch {
                expected: memory.word_len(),
                actual: quantizer.dims(),
            });
        }
        let bits = memory.ladder().bits();
        let precision = config.precision;
        let server = ShardedServer::start(memory, 1, config);
        let handle = server.handle();
        Ok(ServedNn {
            quantizer,
            server,
            handle,
            labels: Vec::new(),
            bits,
            precision,
            last_coverage: Mutex::new("serve.nn.last_coverage", None),
        })
    }

    /// A cloneable client handle to the underlying server (e.g. for
    /// concurrent submitters).
    ///
    /// Note: rows written through [`ShardedHandle::store`] bypass this
    /// engine's label bookkeeping. The engine stays safe — queries
    /// whose winner is an unlabeled row, and any later
    /// [`add`](NnIndex::add), report [`CoreError::Unavailable`]
    /// instead of mislabeling — but labelled serving should go through
    /// [`add`](NnIndex::add) exclusively.
    #[must_use]
    pub fn handle(&self) -> ShardedHandle {
        self.handle.clone()
    }

    /// Snapshot of the serving statistics (the
    /// [`crate::ShardedStats::merged`] aggregate).
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.server.stats().merged()
    }

    /// Shuts the server down and returns the live memory.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unavailable`] if the dispatcher thread died outside
    /// supervision, so the memory is unrecoverable.
    pub fn into_memory(self) -> femcam_core::Result<BankedMcam> {
        self.server.shutdown().map_err(CoreError::from)
    }

    /// Like [`NnIndex::query`], but also reports the [`Coverage`] the
    /// winner was merged over: full on a healthy server, partial when
    /// the dispatcher could not answer in time and the fail-open policy
    /// answered from what was left.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NnIndex::query`], plus
    /// [`CoreError::Degraded`] under the fail-closed policy when
    /// coverage is partial.
    pub fn query_with_coverage(
        &self,
        features: &[f32],
    ) -> femcam_core::Result<(QueryResult, Coverage)> {
        let levels = self.quantizer.quantize(features)?;
        let covered = self
            .handle
            .submit(&levels)
            .and_then(ShardTicket::wait_covered)
            .map_err(CoreError::from)?;
        self.record_coverage(&covered.coverage);
        let (index, score) = covered.value;
        Ok((self.result(index, score)?, covered.coverage))
    }

    /// [`Coverage`] of the most recent winner query ([`NnIndex::query`]
    /// or [`query_with_coverage`](Self::query_with_coverage)) answered
    /// through this engine, or `None` before the first one. A partial
    /// record here is how plain [`NnIndex`] callers — whose `query`
    /// signature cannot carry coverage — learn that the last answer
    /// was merged over a degraded topology.
    #[must_use]
    pub fn last_coverage(&self) -> Option<Coverage> {
        crate::lock(&self.last_coverage).clone()
    }

    fn record_coverage(&self, coverage: &Coverage) {
        *crate::lock(&self.last_coverage) = Some(coverage.clone());
    }

    fn result(&self, index: usize, score: f64) -> femcam_core::Result<QueryResult> {
        // Rows written through the raw handle (bypassing `add`)
        // carry no label; surface that as an error instead of
        // panicking on the winning row.
        match self.labels.get(index) {
            Some(&label) => Ok(QueryResult {
                index,
                label,
                score,
            }),
            None => Err(CoreError::Unavailable {
                reason: "winning row was stored outside the engine and has no label",
            }),
        }
    }
}

impl NnIndex for ServedNn {
    fn dims(&self) -> usize {
        self.quantizer.dims()
    }

    fn len(&self) -> usize {
        self.labels.len()
    }

    fn add(&mut self, features: &[f32], label: u32) -> femcam_core::Result<()> {
        let levels = self.quantizer.quantize(features)?;
        let row = self.handle.store(&levels).map_err(CoreError::from)?;
        // Stores assign sequential global rows; a gap means rows were
        // written through the raw handle and the label table can no
        // longer be trusted to line up. Refuse loudly rather than
        // mislabel every later result (the row itself is stored, but
        // unlabeled rows only ever surface as a clean error).
        if row != self.labels.len() {
            return Err(CoreError::Unavailable {
                reason: "memory was mutated outside the engine; label table out of sync",
            });
        }
        self.labels.push(label);
        Ok(())
    }

    fn query(&self, features: &[f32]) -> femcam_core::Result<QueryResult> {
        let levels = self.quantizer.quantize(features)?;
        let covered = self
            .handle
            .submit(&levels)
            .and_then(ShardTicket::wait_covered)
            .map_err(CoreError::from)?;
        self.record_coverage(&covered.coverage);
        let (index, score) = covered.value;
        self.result(index, score)
    }

    fn query_k(&self, features: &[f32], k: usize) -> femcam_core::Result<Vec<QueryResult>> {
        let levels = self.quantizer.quantize(features)?;
        // Top-k went under admission control when it joined the
        // batching window (it used to run as an admission-exempt
        // barrier), so transient saturation by foreign traffic can
        // reject it — wait it out with the same bounded backoff as
        // `query_batch` instead of failing a previously
        // always-answered call.
        let mut overloaded_since: Option<Instant> = None;
        let mut backoff = Backoff::new();
        let hits = loop {
            match self.handle.search_top_k(&levels, k) {
                Ok(hits) => break hits,
                Err(ServeError::Overloaded { .. }) => {
                    let since = *overloaded_since.get_or_insert_with(Instant::now);
                    let waited = since.elapsed();
                    if waited > OVERLOAD_PATIENCE {
                        return Err(CoreError::Overloaded {
                            waited_us: u64::try_from(waited.as_micros()).unwrap_or(u64::MAX),
                        });
                    }
                    std::thread::sleep(backoff.next_delay());
                }
                Err(e) => return Err(CoreError::from(e)),
            }
        };
        hits.into_iter()
            .map(|(index, score)| self.result(index, score))
            .collect()
    }

    fn query_batch(&self, queries: &[&[f32]]) -> femcam_core::Result<Vec<QueryResult>> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        let levels: Vec<Vec<u8>> = queries
            .iter()
            .map(|q| self.quantizer.quantize(q))
            .collect::<femcam_core::Result<_>>()?;
        let mut out = Vec::with_capacity(levels.len());
        // Adaptive pipelining: keep submitting (so the dispatcher can
        // coalesce micro-batches) and, whenever admission control
        // pushes back — because this batch filled the queue or foreign
        // traffic through other handles did — drain the oldest
        // in-flight ticket to free a slot instead of failing the whole
        // batch. Tickets drain in submission order, so `out` stays in
        // query order.
        let mut in_flight: VecDeque<ShardTicket> = VecDeque::new();
        let mut overloaded_since: Option<Instant> = None;
        let mut backoff = Backoff::new();
        let mut pending = levels.iter();
        let mut next = pending.next();
        while let Some(level) = next {
            match self.handle.submit(level) {
                Ok(ticket) => {
                    in_flight.push_back(ticket);
                    overloaded_since = None;
                    backoff.reset();
                    next = pending.next();
                }
                Err(ServeError::Overloaded { .. }) => {
                    if let Some(ticket) = in_flight.pop_front() {
                        // Our own work fills the queue: drain the
                        // oldest ticket to free a slot.
                        let (index, score) = ticket.wait().map_err(CoreError::from)?;
                        out.push(self.result(index, score)?);
                    } else {
                        // Foreign traffic saturates the queue with none
                        // of our own work outstanding: back off
                        // exponentially (bounded at a few batching
                        // windows) instead of hammering the saturated
                        // queue, and give up once the patience budget
                        // is spent — surfacing how long the queue
                        // stayed saturated.
                        let since = *overloaded_since.get_or_insert_with(Instant::now);
                        let waited = since.elapsed();
                        if waited > OVERLOAD_PATIENCE {
                            return Err(CoreError::Overloaded {
                                waited_us: u64::try_from(waited.as_micros()).unwrap_or(u64::MAX),
                            });
                        }
                        std::thread::sleep(backoff.next_delay());
                    }
                }
                Err(e) => return Err(CoreError::from(e)),
            }
        }
        for ticket in in_flight {
            let (index, score) = ticket.wait().map_err(CoreError::from)?;
            out.push(self.result(index, score)?);
        }
        Ok(out)
    }

    fn query_k_batch(
        &self,
        queries: &[&[f32]],
        k: usize,
    ) -> femcam_core::Result<Vec<Vec<QueryResult>>> {
        if self.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        queries.iter().map(|q| self.query_k(q, k)).collect()
    }

    fn name(&self) -> String {
        format!(
            "mcam-served-{}bit{}",
            self.bits,
            self.precision.name_suffix()
        )
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use femcam_core::{ConductanceLut, LevelLadder, McamNn, QuantizeStrategy};
    use femcam_device::FefetModel;

    fn clustered_data() -> (Vec<Vec<f32>>, Vec<u32>) {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..8 {
            let t = i as f32 * 0.01;
            features.push(vec![1.0 - t, 0.05 + t, 0.1]);
            labels.push(0);
            features.push(vec![0.05 + t, 1.0 - t, 0.9]);
            labels.push(1);
        }
        (features, labels)
    }

    fn build_served(precision: Precision, rows_per_bank: usize) -> (ServedNn, McamNn) {
        let (features, _) = clustered_data();
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let quantizer = Quantizer::fit(
            features.iter().map(|r| r.as_slice()),
            3,
            ladder.n_levels() as u16,
            QuantizeStrategy::PerFeatureMinMax,
        )
        .unwrap();
        let memory = BankedMcam::new(ladder, lut, 3, rows_per_bank);
        let served = ServedNn::new(
            quantizer.clone(),
            memory,
            ServeConfig {
                precision,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let reference = McamNn::fit(
            3,
            features.iter().map(|r| r.as_slice()),
            3,
            QuantizeStrategy::PerFeatureMinMax,
            &FefetModel::default(),
        )
        .unwrap()
        .with_precision(precision);
        (served, reference)
    }

    #[test]
    fn served_engine_matches_mcam_nn() {
        let (features, labels) = clustered_data();
        for precision in [Precision::F64, Precision::F32, Precision::Codes] {
            let (mut served, mut reference) = build_served(precision, 4);
            for (f, &l) in features.iter().zip(&labels) {
                served.add(f, l).unwrap();
                reference.add(f, l).unwrap();
            }
            assert_eq!(served.len(), reference.len());
            let refs: Vec<&[f32]> = features.iter().map(|f| f.as_slice()).collect();
            let got = served.query_batch(&refs).unwrap();
            let want = reference.query_batch(&refs).unwrap();
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.index, g.label), (w.index, w.label), "{precision:?}");
            }
            // Single queries agree with the batch (scores bitwise).
            for (q, w) in refs.iter().zip(&got) {
                let single = served.query(q).unwrap();
                assert_eq!(single.index, w.index);
                assert_eq!(single.score, w.score);
            }
            // Top-k follows the clamp contract.
            assert!(served.query_k(refs[0], 0).unwrap().is_empty());
            assert_eq!(served.query_k(refs[0], 1_000).unwrap().len(), served.len());
            let top3 = served.query_k(refs[0], 3).unwrap();
            assert_eq!(top3.len(), 3);
            assert_eq!(top3[0].index, served.query(refs[0]).unwrap().index);
            assert!(served.name().starts_with("mcam-served-3bit"));
        }
    }

    #[test]
    fn query_batch_survives_queue_smaller_than_batch() {
        let (features, labels) = clustered_data();
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let quantizer = Quantizer::fit(
            features.iter().map(|r| r.as_slice()),
            3,
            ladder.n_levels() as u16,
            QuantizeStrategy::PerFeatureMinMax,
        )
        .unwrap();
        let memory = BankedMcam::new(ladder, lut, 3, 4);
        let mut served = ServedNn::new(
            quantizer,
            memory,
            ServeConfig {
                // A 2-slot queue far below the 16-query batch: the
                // adaptive pipeline must drain instead of failing.
                queue_capacity: Some(2),
                max_batch: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        for (f, &l) in features.iter().zip(&labels) {
            served.add(f, l).unwrap();
        }
        let refs: Vec<&[f32]> = features.iter().map(|f| f.as_slice()).collect();
        let batched = served.query_batch(&refs).unwrap();
        assert_eq!(batched.len(), refs.len());
        for (q, b) in refs.iter().zip(&batched) {
            let single = served.query(q).unwrap();
            assert_eq!((b.index, b.score), (single.index, single.score));
        }
    }

    #[test]
    fn served_engine_validates_construction() {
        let (features, _) = clustered_data();
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let quantizer = Quantizer::fit(
            features.iter().map(|r| r.as_slice()),
            3,
            4, // 2-bit quantizer vs 3-bit memory
            QuantizeStrategy::PerFeatureMinMax,
        )
        .unwrap();
        let memory = BankedMcam::new(ladder, lut.clone(), 3, 4);
        assert!(ServedNn::new(quantizer, memory, ServeConfig::default()).is_err());
        // Dimensionality mismatch.
        let quantizer = Quantizer::fit(
            features.iter().map(|r| r.as_slice()),
            3,
            8,
            QuantizeStrategy::PerFeatureMinMax,
        )
        .unwrap();
        let memory = BankedMcam::new(ladder, lut, 5, 4);
        assert!(matches!(
            ServedNn::new(quantizer, memory, ServeConfig::default()),
            Err(CoreError::DimensionMismatch {
                expected: 5,
                actual: 3
            })
        ));
    }

    #[test]
    fn served_engine_honors_empty_contract() {
        let (served, _) = build_served(Precision::F64, 4);
        assert!(served.is_empty());
        assert!(matches!(
            served.query(&[0.0, 0.0, 0.0]),
            Err(CoreError::EmptyArray)
        ));
        assert!(matches!(
            served.query_batch(&[]),
            Err(CoreError::EmptyArray)
        ));
        assert!(matches!(
            served.query_k_batch(&[], 3),
            Err(CoreError::EmptyArray)
        ));
    }

    #[test]
    fn last_coverage_tracks_winner_queries() {
        let (features, labels) = clustered_data();
        let (mut served, _) = build_served(Precision::F64, 4);
        assert_eq!(served.last_coverage(), None, "no query answered yet");
        for (f, &l) in features.iter().zip(&labels) {
            served.add(f, l).unwrap();
        }
        served.query(&features[0]).unwrap();
        let coverage = served.last_coverage().expect("query records coverage");
        assert!(!coverage.degraded(), "a healthy server answers in full");
        assert_eq!(coverage.searched, coverage.banks.len());
        // The explicit coverage face records the same thing.
        let (_, explicit) = served.query_with_coverage(&features[1]).unwrap();
        assert_eq!(served.last_coverage(), Some(explicit));
    }

    #[test]
    fn backoff_jitter_stays_within_bounds_and_doubles() {
        let mut backoff = Backoff::new();
        let mut expected_base = OVERLOAD_BACKOFF_START;
        for _ in 0..16 {
            let delay = backoff.next_delay();
            assert!(
                delay >= expected_base / 2 && delay <= expected_base,
                "delay {delay:?} outside [{:?}, {expected_base:?}]",
                expected_base / 2,
            );
            expected_base = (expected_base * 2).min(OVERLOAD_BACKOFF_MAX);
        }
        // After enough doublings the ceiling binds: every further draw
        // lands in [MAX/2, MAX].
        let delay = backoff.next_delay();
        assert!(delay >= OVERLOAD_BACKOFF_MAX / 2 && delay <= OVERLOAD_BACKOFF_MAX);
        // And reset() restarts the schedule from the first delay.
        backoff.reset();
        let delay = backoff.next_delay();
        assert!(delay >= OVERLOAD_BACKOFF_START / 2 && delay <= OVERLOAD_BACKOFF_START);
    }

    #[test]
    fn backoff_total_wait_is_bounded() {
        // Bounded-total-wait contract: the retry loops check the
        // patience budget before each sleep, so the sleeps consumed
        // until the budget is observed spent sum to at most
        // PATIENCE + BACKOFF_MAX — jitter must not break this.
        for _ in 0..8 {
            let mut backoff = Backoff::new();
            let mut total = Duration::ZERO;
            while total <= OVERLOAD_PATIENCE {
                total += backoff.next_delay();
            }
            assert!(total <= OVERLOAD_PATIENCE + OVERLOAD_BACKOFF_MAX);
        }
    }

    #[test]
    fn distinct_backoffs_draw_distinct_schedules() {
        // Jitter exists to decorrelate concurrent retriers: two loops
        // started back to back must not sleep in lockstep.
        let mut a = Backoff::new();
        let mut b = Backoff::new();
        let schedule_a: Vec<Duration> = (0..8).map(|_| a.next_delay()).collect();
        let schedule_b: Vec<Duration> = (0..8).map(|_| b.next_delay()).collect();
        assert_ne!(schedule_a, schedule_b);
    }

    #[test]
    fn unlabeled_handle_stores_error_instead_of_panicking() {
        let (features, labels) = clustered_data();
        let (mut served, _) = build_served(Precision::F64, 4);
        for (f, &l) in features.iter().zip(&labels) {
            served.add(f, l).unwrap();
        }
        // A row written through the raw serving handle bypasses the
        // engine's label bookkeeping. Make it the best match for a
        // crafted query: the engine must report the desync cleanly.
        let handle = served.handle();
        handle.store(&[7u8, 0, 0]).unwrap();
        // A k spanning every row necessarily includes the unlabeled
        // one: the engine must surface the desync, not panic.
        let all = served.query_k(&features[0], served.len() + 1);
        assert!(
            matches!(all, Err(CoreError::Unavailable { .. })),
            "query_k spanning an unlabeled row must error, got {all:?}"
        );
        // And a later add() must refuse to misalign the label table
        // (the row index no longer matches the next label slot).
        let n_before = served.len();
        assert!(
            matches!(
                served.add(&features[0], 9),
                Err(CoreError::Unavailable { .. })
            ),
            "add after a raw-handle store must report the desync"
        );
        assert_eq!(served.len(), n_before);
    }
}
