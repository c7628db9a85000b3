//! The serving front end: one micro-batching dispatcher per bank
//! shard, fan-out searches, a fixed-order winner merge.
//!
//! [`ShardedServer`] partitions a [`BankedMcam`]'s banks across `N ≥ 1`
//! shards ([`BankedMcam::partition`]), each served by its own
//! dispatcher (the crate-private `McamServer`). Searches fan out to
//! every shard and merge by ascending `(conductance, global_row)` —
//! the same contractual order the banked winner merge already pins —
//! so results are **bit-identical** at every shard count to a direct
//! search over the unpartitioned memory. Stores route only to the
//! shard that owns the append tail, so a write is a batch barrier on
//! *one* shard's queue while every other shard keeps coalescing
//! searches. See the crate-level ["Serving"](crate#serving) section
//! for the full semantics.
//!
//! **Routed fan-out.** [`ShardedServer::start_routed`] puts the
//! [`LshRouter`] of a [`RoutedMcam`] in front of the fan-out: each
//! query is hashed once at the client, its routed banks are mapped to
//! the shards that own them (bank ranges are contiguous per shard),
//! and the request fans only to that shard subset. A contacted shard
//! still answers over *all* of its banks — a superset of the routed
//! banks it owns — so shard-level routing can only raise recall
//! relative to bank-level routing while skipping the dispatcher
//! round-trip, the admission slot, and the sweep on every shard the
//! router ruled out. At one shard the route can only name that shard,
//! so a 1-shard routed server answers over its whole memory. The route
//! only picks shards: a contacted shard runs the same full sweep as an
//! unrouted one, which at codes precision starts from its own
//! candidate row (`femcam_core::exec`'s "Self-seeded sweep"), and
//! winners and top-k fan out the same way. An empty route falls back
//! to the full fan-out, and stores keep the router's buckets
//! synchronized (tail store, then [`LshRouter::note_store`]) so a new
//! row is immediately routable.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};

use femcam_core::sync::{Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use femcam_core::exec::validate_query;
use femcam_core::{BankedMcam, CoreError, LshRouter, Metric, RoutedMcam};

#[cfg(feature = "chaos")]
use crate::fault;
use crate::health::{Coverage, Covered, DegradedPolicy, HealthBoard, ShardHealth};
use crate::{McamServer, MemoryReport, ServeConfig, ServeError, ServeHandle, ServeStats, Ticket};

/// Client-level counters a [`ShardedHandle`] keeps in addition to the
/// per-shard dispatcher stats (a fanned request executes once per
/// shard, so per-shard counters alone would overcount client traffic).
/// The health-transition counters are monotone and count *transitions*,
/// not observations: whichever client (or supervisor) moves the board
/// first increments once and logs once.
#[derive(Debug)]
struct ClientCounters {
    submitted: AtomicU64,
    topk_submitted: AtomicU64,
    rejected: AtomicU64,
    deadline_rejected: AtomicU64,
    degraded: AtomicU64,
    quarantined: AtomicU64,
    readmitted: AtomicU64,
    probe_failures: AtomicU64,
    started: Instant,
}

impl Default for ClientCounters {
    fn default() -> Self {
        ClientCounters {
            submitted: AtomicU64::new(0),
            topk_submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            deadline_rejected: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            readmitted: AtomicU64::new(0),
            probe_failures: AtomicU64::new(0),
            started: Instant::now(),
        }
    }
}

/// The shared, swap-capable view of the sharded topology: everything a
/// client clone or an in-flight ticket needs to observe failures,
/// repair routes, and see a resurrected shard. One `Arc<Topology>` is
/// shared by every [`ShardedHandle`] clone, every ticket, and the
/// probe supervisor, so a replacement dispatcher installed by re-admit
/// is immediately visible everywhere.
#[derive(Debug)]
struct Topology {
    /// Per-shard handles behind swap cells, in ascending global-row
    /// order: re-admit replaces a dead shard's handle in place. Reads
    /// are brief clone-and-release ([`Topology::shard`]); only the
    /// re-admit supervisor writes.
    shards: Box<[RwLock<ServeHandle>]>,
    /// Global row base of each shard (rows stored in earlier shards).
    bases: Box<[usize]>,
    /// Shards searches fan to (ascending; excludes permanently-empty
    /// shards, includes the tail).
    targets: Box<[usize]>,
    /// Bank index → owning shard (contiguous partition ranges); banks
    /// appended after start belong to the tail shard.
    bank_shard: Box<[usize]>,
    /// Global bank base of each shard (banks held by earlier shards).
    bank_bases: Box<[usize]>,
    /// LSH front-end router ([`ShardedServer::start_routed`]); `None`
    /// fans every search to all targets. Searches take the read lock
    /// (concurrent), stores the write lock (bucket update). A poisoned
    /// lock degrades routing to the full fan-out, never a panic.
    router: Option<RwLock<LshRouter>>,
    /// The shard that owns the append tail (receives every store).
    tail: usize,
    /// Shared per-shard health, escalated by whichever client observes
    /// a failure first, de-escalated only by the probe/re-admit path.
    health: HealthBoard,
    counters: ClientCounters,
}

impl Topology {
    /// A clone of shard `i`'s current handle (cheap: an `Arc` plus a
    /// channel sender). Callers hold the clone for the whole request so
    /// admission slots are always released on the same dispatcher that
    /// reserved them, even if re-admit swaps the cell mid-request.
    fn shard(&self, i: usize) -> ServeHandle {
        self.shards[i]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// First observation of a shard going degraded: escalate, count
    /// once, log once.
    fn mark_degraded(&self, shard: usize) {
        let prev = self.health.escalate(shard, ShardHealth::Degraded);
        if prev == ShardHealth::Healthy {
            // ORDERING: Relaxed — monotone client-stats counter;
            // exactly-once comes from `escalate`'s fetch_max return.
            self.counters.degraded.fetch_add(1, Ordering::Relaxed);
            eprintln!("femcam-serve: shard {shard} healthy -> degraded (missed shard deadline)");
        }
    }

    /// First observation of a shard's dispatcher being gone: escalate,
    /// count once, log once, and re-place its orphaned router banks
    /// onto live shards so routed fan-out narrows instead of widening.
    fn mark_quarantined(&self, shard: usize) {
        let prev = self.health.escalate(shard, ShardHealth::Quarantined);
        if !prev.excluded() {
            // ORDERING: Relaxed — monotone client-stats counter;
            // exactly-once comes from `escalate`'s fetch_max return.
            self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
            eprintln!("femcam-serve: shard {shard} {prev:?} -> quarantined (dispatcher gone)");
            self.displace_orphaned_routes(shard);
        }
    }

    /// The shard that owns global bank `bank`: its partition range's,
    /// or the tail's for banks appended after start.
    fn bank_owner(&self, bank: usize) -> usize {
        self.bank_shard.get(bank).copied().unwrap_or(self.tail)
    }

    /// The start-time bank indices owned by `shard` (banks appended by
    /// later stores belong to the tail but are not re-placed — they
    /// already fall back to the tail mapping).
    fn owned_banks(&self, shard: usize) -> Vec<usize> {
        (0..self.bank_shard.len())
            .filter(|&b| self.bank_shard[b] == shard)
            .collect()
    }

    /// Re-places the quarantined shard's banks onto the first bank of
    /// each surviving target (round-robin), reversibly — see
    /// [`LshRouter::displace_banks`]. Routed queries whose banks all
    /// lived on the dead shard then fan to *one* substitute shard
    /// instead of falling back to the widest surviving sweep.
    fn displace_orphaned_routes(&self, shard: usize) {
        let Some(router) = &self.router else { return };
        let orphaned = self.owned_banks(shard);
        if orphaned.is_empty() {
            return;
        }
        let substitutes: Vec<usize> = self
            .targets
            .iter()
            .copied()
            .filter(|&t| {
                t != shard && !self.health.get(t).excluded() && self.bank_shard.contains(&t)
            })
            .map(|t| self.bank_bases[t])
            .collect();
        // A poisoned router already degrades every search to the full
        // fan-out, so skipping the repair costs nothing.
        if let Ok(mut guard) = router.write() {
            let placed = guard.displace_banks(&orphaned, &substitutes);
            if placed > 0 {
                eprintln!(
                    "femcam-serve: shard {shard} re-placed {placed} orphaned router bank(s) \
                     onto live shards"
                );
            }
        }
    }

    /// Undoes [`displace_orphaned_routes`](Self::displace_orphaned_routes)
    /// on re-admit: the shard's banks route to it again.
    fn restore_orphaned_routes(&self, shard: usize) {
        let Some(router) = &self.router else { return };
        let orphaned = self.owned_banks(shard);
        if orphaned.is_empty() {
            return;
        }
        if let Ok(mut guard) = router.write() {
            guard.restore_banks(&orphaned);
        }
    }
}

/// The micro-batching server: `N ≥ 1` dispatcher shards over a
/// partitioned [`BankedMcam`], plus the fan-out/merge front end and
/// the probe/re-admit supervisor that resurrects quarantined shards.
/// See the [crate docs](crate#serving).
#[derive(Debug)]
pub struct ShardedServer {
    /// Per-shard dispatcher servers behind slots the re-admit path can
    /// swap. A slot is `None` only when the shard's memory was lost
    /// (its dispatcher died outside supervision) — permanently dead.
    shards: Arc<Vec<Mutex<Option<McamServer>>>>,
    handle: ShardedHandle,
    config: ServeConfig,
    prober: Option<Prober>,
}

/// The background probe thread ([`ServeConfig::probe_interval`]).
#[derive(Debug)]
struct Prober {
    stop: Arc<AtomicBool>,
    thread: thread::JoinHandle<()>,
}

impl ShardedServer {
    /// Partitions `memory` into `shards` contiguous bank ranges and
    /// starts one dispatcher per shard, each configured with `config`
    /// (a configured [`ServeConfig::queue_capacity`] applies *per
    /// shard*; the default derives each shard's capacity from its own
    /// geometry).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, `config.max_batch` is zero, or a
    /// dispatcher thread cannot be spawned.
    #[must_use]
    pub fn start(memory: BankedMcam, shards: usize, config: ServeConfig) -> Self {
        Self::start_inner(memory, None, shards, config)
    }

    /// Like [`start`](Self::start), but keeps the [`LshRouter`] of
    /// `routed` at the front end: searches fan only to the shards
    /// owning the query's routed banks (see the [crate-level "Routed
    /// serving"](crate#serving)). Results follow the routed-memory
    /// contract — exact over the probed shard subset, approximate
    /// overall; a 1-shard server sweeps its whole memory — and
    /// [`shutdown`](Self::shutdown) returns the reassembled
    /// [`BankedMcam`] (the router is dropped; rebuild one with
    /// [`RoutedMcam::new`] to keep routing).
    ///
    /// # Panics
    ///
    /// Same conditions as [`start`](Self::start).
    #[must_use]
    pub fn start_routed(routed: RoutedMcam, shards: usize, config: ServeConfig) -> Self {
        let (memory, router) = routed.into_parts();
        Self::start_inner(memory, Some(router), shards, config)
    }

    fn start_inner(
        memory: BankedMcam,
        router: Option<LshRouter>,
        shards: usize,
        config: ServeConfig,
    ) -> Self {
        assert!(shards > 0, "a sharded server needs at least one shard");
        let word_len = memory.word_len();
        let n_levels = memory.ladder().n_levels();
        let parts = memory.partition(shards);
        // Bank → owning shard, from the contiguous partition ranges.
        // Banks appended after start (stores growing the tail) map to
        // the tail shard via `bank_shard.get(..).unwrap_or(tail)`.
        let mut bank_shard = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            bank_shard.resize(bank_shard.len() + part.n_banks(), i);
        }
        // Global bank base of each shard: banks held by earlier shards.
        // Stores only ever grow the tail, and every shard after the
        // tail is permanently empty, so these bases stay exact for the
        // server's whole life.
        let bank_bases: Vec<usize> = parts
            .iter()
            .scan(0usize, |banks, part| {
                let base = *banks;
                *banks += part.n_banks();
                Some(base)
            })
            .collect();
        let bases: Vec<usize> = parts
            .iter()
            .scan(0usize, |rows, part| {
                let base = *rows;
                *rows += part.n_rows();
                Some(base)
            })
            .collect();
        // The append tail: the shard holding the globally last
        // (possibly partial) bank. Every later shard is empty and
        // stays empty — stores route here so global rows keep the
        // dense, single-memory assignment.
        let tail = parts.iter().rposition(|part| !part.is_empty()).unwrap_or(0);
        // Searches only fan to shards that can ever hold rows: the
        // nonempty ones plus the tail (empty only while the whole
        // memory is). Permanently-empty shards (more shards than
        // banks) would cost an admission slot and a dispatcher
        // round-trip per query just to answer EmptyArray.
        let targets: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter_map(|(i, part)| (!part.is_empty() || i == tail).then_some(i))
            .collect();
        let servers: Vec<McamServer> = parts
            .into_iter()
            .map(|part| McamServer::start(part, config.clone()))
            .collect();
        let topo = Arc::new(Topology {
            shards: servers
                .iter()
                .map(|s| RwLock::new("shard.cell", s.handle()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            bases: bases.into(),
            targets: targets.into(),
            bank_shard: bank_shard.into(),
            bank_bases: bank_bases.into(),
            router: router.map(|r| RwLock::new("shard.router", r)),
            tail,
            health: HealthBoard::new(shards),
            counters: ClientCounters::default(),
        });
        let handle = ShardedHandle {
            topo,
            word_len,
            n_levels,
            policy: config.degraded_policy,
            shard_timeout: config.shard_timeout,
            #[cfg(feature = "chaos")]
            faults: config.faults.clone(),
        };
        let slots: Arc<Vec<Mutex<Option<McamServer>>>> = Arc::new(
            servers
                .into_iter()
                .map(|s| Mutex::new("shard.slot", Some(s)))
                .collect(),
        );
        let prober = config.probe_interval.and_then(|interval| {
            let stop = Arc::new(AtomicBool::new(false));
            let spawned = {
                let stop = Arc::clone(&stop);
                let slots = Arc::clone(&slots);
                let handle = handle.clone();
                let config = config.clone();
                thread::Builder::new()
                    .name("femcam-probe".into())
                    .spawn(move || probe_loop(&stop, interval, &slots, &handle, &config))
            };
            match spawned {
                Ok(thread) => Some(Prober { stop, thread }),
                // No supervisor thread is a degraded mode, not a fatal
                // one: quarantined shards can still come back through
                // explicit try_readmit/readmit_quarantined calls.
                Err(e) => {
                    eprintln!("femcam-serve: probe supervisor failed to spawn: {e}");
                    None
                }
            }
        });
        ShardedServer {
            shards: slots,
            handle,
            config,
            prober,
        }
    }

    /// A cloneable client handle.
    #[must_use]
    pub fn handle(&self) -> ShardedHandle {
        self.handle.clone()
    }

    /// Number of shards (dispatcher threads).
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard and client-level serving statistics.
    #[must_use]
    pub fn stats(&self) -> ShardedStats {
        self.handle.stats()
    }

    /// Merged live plan-memory report across every shard.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] when a shard dispatcher has exited.
    pub fn memory_report(&self) -> Result<MemoryReport, ServeError> {
        self.handle.memory_report()
    }

    /// Attempts to resurrect one quarantined shard: reclaim its memory
    /// from the dead dispatcher (`McamServer::shutdown` returns the
    /// banks even from a terminally-failed server), spawn a replacement
    /// dispatcher over them, and re-admit it behind the canary gate —
    /// the replacement's served answers must be **bit-identical** to a
    /// direct sweep of the recovered memory before the health board
    /// flips `Quarantined → Probing → Healthy` and the shard rejoins
    /// merges (with its router banks restored). Returns `Ok(true)` when
    /// the shard was re-admitted, `Ok(false)` when there was nothing to
    /// do (shard healthy, already probing, or the probe failed and the
    /// shard stays quarantined for a later retry).
    ///
    /// # Errors
    ///
    /// [`ServeError::DispatcherFailed`] when the shard's dispatcher
    /// died outside supervision: its memory is unrecoverable and the
    /// shard is permanently lost.
    pub fn try_readmit(&self, shard: usize) -> Result<bool, ServeError> {
        try_readmit_shard(&self.shards, &self.handle, &self.config, shard)
            .map(|outcome| outcome == ProbeOutcome::Readmitted)
    }

    /// Sweeps every shard through [`try_readmit`](Self::try_readmit);
    /// returns how many shards were re-admitted. The manual face of the
    /// probe supervisor ([`ServeConfig::probe_interval`] runs the same
    /// sweep on a timer).
    pub fn readmit_quarantined(&self) -> usize {
        (0..self.handle.n_shards())
            .filter(|&shard| self.try_readmit(shard).unwrap_or(false))
            .count()
    }

    fn stop_prober(&mut self) {
        if let Some(prober) = self.prober.take() {
            // ORDERING: Release pairs with the prober loop's Acquire
            // loads — a plain stop flag; the join below is the real
            // synchronization point for everything the prober did.
            prober.stop.store(true, Ordering::Release);
            let _ = prober.thread.join();
        }
    }

    /// Stops every shard dispatcher and reassembles the partitioned
    /// memory into one [`BankedMcam`] ([`BankedMcam::concat`]), with
    /// global rows exactly where an unsharded server left them. Shards
    /// whose restart breaker tripped still shut down cleanly and
    /// contribute their recovered memory.
    ///
    /// # Errors
    ///
    /// [`ServeError::DispatcherFailed`] if some shard's dispatcher
    /// thread died outside its supervised region (that shard's banks
    /// are lost, so the memory cannot be reassembled), or
    /// [`ServeError::Core`] if the surviving parts no longer share a
    /// geometry (cannot happen for parts of one partition).
    pub fn shutdown(mut self) -> Result<BankedMcam, ServeError> {
        self.stop_prober();
        let mut parts = Vec::with_capacity(self.shards.len());
        let mut dead: Vec<usize> = Vec::new();
        for (i, slot) in self.shards.iter().enumerate() {
            let server = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
            match server.map(McamServer::shutdown) {
                Some(Ok(part)) => parts.push(part),
                Some(Err(_)) | None => dead.push(i),
            }
        }
        if !dead.is_empty() {
            return Err(ServeError::DispatcherFailed {
                detail: format!("shard dispatcher(s) {dead:?} died; their banks are unrecoverable"),
            });
        }
        BankedMcam::concat(parts).map_err(ServeError::Core)
    }
}

impl Drop for ShardedServer {
    /// Stops the probe supervisor so a dropped (not shut down) server
    /// never leaks a thread holding the shard slots alive.
    fn drop(&mut self) {
        self.stop_prober();
    }
}

/// What one probe/re-admit attempt amounted to, as the supervisor's
/// retry backoff needs to see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeOutcome {
    /// Nothing to do: the shard is healthy, or another caller holds
    /// its probe.
    Idle,
    /// The shard passed the canary gate and rejoined merges.
    Readmitted,
    /// A probe ran and failed; the shard stays quarantined.
    Failed,
}

/// Ceiling on the per-shard probe backoff multiplier: a shard that
/// keeps failing its probe is retried at most this many base intervals
/// apart, so a recovered-but-slow shard is never written off entirely.
const PROBE_BACKOFF_CAP: u32 = 16;

/// Per-shard exponential backoff for quarantine probe retries. A
/// probe sweep burns a dispatcher shutdown/respawn plus a canary
/// sweep per attempt, so hammering a shard that keeps failing its
/// canary every interval steals dispatcher time from healthy traffic.
/// Each failed probe doubles that shard's wait (base interval × 1, 2,
/// 4, … up to [`PROBE_BACKOFF_CAP`]); a successful re-admit — or the
/// shard turning out healthy — resets it to the base, so a fresh
/// quarantine is always probed promptly.
#[derive(Debug)]
struct ProbeBackoff {
    /// Multiplier on the base interval for each shard's *next* retry.
    factor: Vec<u32>,
    /// Earliest instant each shard may be probed again.
    next: Vec<Instant>,
}

impl ProbeBackoff {
    fn new(shards: usize, now: Instant) -> Self {
        ProbeBackoff {
            factor: vec![1; shards],
            next: vec![now; shards],
        }
    }

    fn due(&self, shard: usize, now: Instant) -> bool {
        now >= self.next[shard]
    }

    /// Records one attempt's outcome: failure schedules the next retry
    /// a doubled multiple of `base` out; anything else resets the
    /// shard to prompt probing.
    fn record(&mut self, shard: usize, outcome: ProbeOutcome, base: Duration, now: Instant) {
        match outcome {
            ProbeOutcome::Failed => {
                self.next[shard] = now + base.saturating_mul(self.factor[shard]);
                self.factor[shard] = (self.factor[shard] * 2).min(PROBE_BACKOFF_CAP);
            }
            ProbeOutcome::Idle | ProbeOutcome::Readmitted => {
                self.factor[shard] = 1;
                self.next[shard] = now;
            }
        }
    }
}

/// The probe supervisor loop: every `interval`, sweep the shards and
/// try to resurrect whatever is quarantined and due under its
/// [`ProbeBackoff`]. Sleeps in short chunks so shutdown never waits a
/// full interval to join the thread.
fn probe_loop(
    stop: &AtomicBool,
    interval: Duration,
    slots: &[Mutex<Option<McamServer>>],
    handle: &ShardedHandle,
    config: &ServeConfig,
) {
    let mut backoff = ProbeBackoff::new(handle.n_shards(), Instant::now());
    // ORDERING: Acquire (all three loads) pairs with `stop_prober`'s
    // Release store; the flag carries no payload — it only ends the
    // loop, and the subsequent join orders everything else.
    while !stop.load(Ordering::Acquire) {
        let mut waited = Duration::ZERO;
        while waited < interval && !stop.load(Ordering::Acquire) {
            let step = (interval - waited).min(Duration::from_millis(20));
            thread::sleep(step);
            waited += step;
        }
        if stop.load(Ordering::Acquire) {
            return;
        }
        for shard in 0..handle.n_shards() {
            if !backoff.due(shard, Instant::now()) {
                continue;
            }
            // A permanently-lost shard (its memory died with the
            // dispatcher) also backs off: the failure is final, but
            // retrying at the capped cadence keeps the log honest
            // without burning a lock sweep every interval.
            let outcome =
                try_readmit_shard(slots, handle, config, shard).unwrap_or(ProbeOutcome::Failed);
            backoff.record(shard, outcome, interval, Instant::now());
        }
    }
}

/// One canary probe replayed against a resurrected shard: a query and
/// the top-k depth to replay it at (`k == 1` is the single-winner
/// path; deeper replays exercise the cross-bank merge).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Canary {
    query: Vec<u8>,
    k: usize,
}

/// Builds the canary suite for a recovered part: exact-match resident
/// rows spread across the part, plus **near-miss** perturbations of
/// the same rows — one cell's level bumped so the query sits *between*
/// stored rows instead of on one — replayed at a top-k depth that
/// straddles the bank boundary. A merge that concatenates per-bank
/// hits (or breaks goodness ties in the wrong row order) reproduces
/// the exact-match canaries fine and only trips the near-miss ones,
/// which is precisely the regression class the probe must fail closed
/// on. Empty parts yield an empty suite (nothing to validate).
fn canary_suite(memory: &BankedMcam) -> Vec<Canary> {
    let n = memory.n_rows();
    let bases: Vec<Vec<u8>> = [0usize, n / 3, 2 * n / 3, n.saturating_sub(1)]
        .iter()
        .filter(|&&row| row < n)
        .filter_map(|&row| memory.row(row).map(<[u8]>::to_vec))
        .collect();
    let n_levels = memory.ladder().n_levels() as u8;
    // One past a full bank: whenever the part spans banks, the replay
    // must interleave hits from at least two of them.
    let straddle = (memory.rows_per_bank() + 1).min(n);
    let mut suite: Vec<Canary> = bases
        .iter()
        .map(|query| Canary {
            query: query.clone(),
            k: 1,
        })
        .collect();
    for base in &bases {
        let mut near = base.clone();
        near[0] = (near[0] + 1) % n_levels;
        suite.push(Canary {
            query: near.clone(),
            k: 1,
        });
        if straddle > 1 {
            suite.push(Canary {
                query: near,
                k: straddle,
            });
        }
    }
    suite
}

/// Bitwise comparison of a canary suite's served answers against the
/// direct-sweep oracle. **Fail closed**: any shape mismatch (missing
/// answer, wrong hit count) is a failure, not a skip — a merge bug
/// that drops or duplicates hits must read as a failed canary, never
/// as a vacuous pass.
fn canaries_pass(oracle: &[Vec<(usize, f64)>], served: &[Vec<(usize, f64)>]) -> bool {
    oracle.len() == served.len()
        && oracle.iter().zip(served).all(|(want, got)| {
            want.len() == got.len()
                && want
                    .iter()
                    .zip(got)
                    .all(|(&(wr, wg), &(gr, gg))| wr == gr && wg.to_bits() == gg.to_bits())
        })
}

/// The probe/re-admit state machine for one shard — see
/// [`ShardedServer::try_readmit`] for the contract. Exactly one caller
/// can hold a shard's probe at a time (`HealthBoard::begin_probe` is a
/// guarded CAS), so the manual path and the probe thread never race
/// each other into a double resurrection.
fn try_readmit_shard(
    slots: &[Mutex<Option<McamServer>>],
    handle: &ShardedHandle,
    config: &ServeConfig,
    shard: usize,
) -> Result<ProbeOutcome, ServeError> {
    let topo = &handle.topo;
    // Observe (and escalate) first: a tripped breaker nobody searched
    // through yet is still a quarantine candidate.
    if !handle.quarantined(shard) || !topo.health.begin_probe(shard) {
        return Ok(ProbeOutcome::Idle);
    }
    eprintln!("femcam-serve: shard {shard} quarantined -> probing");
    let fail = |detail: &str| {
        // ORDERING: Relaxed — monotone probe-stats counter.
        topo.counters.probe_failures.fetch_add(1, Ordering::Relaxed);
        topo.health.fail_probe(shard);
        eprintln!("femcam-serve: shard {shard} probing -> quarantined ({detail})");
    };
    #[cfg(feature = "chaos")]
    if let Some(plan) = &handle.faults {
        match plan.sample(fault::FaultSite::Probe) {
            Some(fault::FaultKind::Panic | fault::FaultKind::Overload) => {
                fail("injected probe fault");
                return Ok(ProbeOutcome::Failed);
            }
            Some(fault::FaultKind::Delay(d)) => thread::sleep(d),
            None => {}
        }
    }
    let mut slot = slots[shard].lock().unwrap_or_else(PoisonError::into_inner);
    let Some(server) = slot.take() else {
        // A previous probe already found the memory unrecoverable.
        fail("memory lost");
        return Err(ServeError::DispatcherFailed {
            detail: format!("shard {shard} memory was lost; cannot resurrect"),
        });
    };
    // Reclaim the banks. A terminally-failed server still returns its
    // memory; only a dispatcher that died *outside* supervision loses
    // it, and then the shard is permanently gone (slot stays empty).
    let memory = match server.shutdown() {
        Ok(memory) => memory,
        Err(e) => {
            fail("memory unrecoverable");
            return Err(e);
        }
    };
    // Canary oracle before the respawn: direct sweeps of the recovered
    // part are the ground truth its served answers must match bit for
    // bit — exact-match residents plus near-miss/straddling replays
    // (see `canary_suite`).
    let suite = canary_suite(&memory);
    let oracle: Vec<Vec<(usize, f64)>> = match suite
        .iter()
        .map(|c| {
            let hits = memory.search_batch_top_k_with(&[&c.query], c.k, config.precision)?;
            Ok(hits.into_iter().next().unwrap_or_default())
        })
        .collect()
    {
        Ok(oracle) => oracle,
        Err(e) => {
            // Cannot happen for resident-derived queries, but never
            // lose the memory over it: put a fresh server back and
            // bail.
            *slot = Some(McamServer::start(memory, config.clone()));
            fail("canary oracle failed");
            return Err(ServeError::Core(e));
        }
    };
    let server = McamServer::start(memory, config.clone());
    let replacement = server.handle();
    let served: Result<Vec<Vec<(usize, f64)>>, ServeError> = suite
        .iter()
        .map(|c| {
            replacement.admit()?;
            replacement
                .enqueue_top_k(&c.query, c.k, None, Metric::default())?
                .wait()
        })
        .collect();
    let canary_ok = served.is_ok_and(|served| canaries_pass(&oracle, &served));
    // The replacement holds the memory either way; a canary mismatch
    // leaves it installed but quarantined so the next probe retries.
    *slot = Some(server);
    *topo.shards[shard]
        .write()
        .unwrap_or_else(PoisonError::into_inner) = replacement;
    drop(slot);
    if !canary_ok {
        fail("canary mismatch");
        return Ok(ProbeOutcome::Failed);
    }
    #[cfg(feature = "chaos")]
    if let Some(plan) = &handle.faults {
        match plan.sample(fault::FaultSite::Readmit) {
            Some(fault::FaultKind::Panic | fault::FaultKind::Overload) => {
                fail("injected readmit fault");
                return Ok(ProbeOutcome::Failed);
            }
            Some(fault::FaultKind::Delay(d)) => thread::sleep(d),
            None => {}
        }
    }
    topo.restore_orphaned_routes(shard);
    if topo.health.admit(shard) {
        // ORDERING: Relaxed — monotone probe-stats counter; the
        // replacement handle was published by the cell RwLock swap.
        topo.counters.readmitted.fetch_add(1, Ordering::Relaxed);
        eprintln!("femcam-serve: shard {shard} probing -> healthy (canary bit-identical)");
        Ok(ProbeOutcome::Readmitted)
    } else {
        // Unreachable while probes are exclusive; count it rather than
        // trust an impossible board state.
        fail("lost probe ownership");
        Ok(ProbeOutcome::Failed)
    }
}

/// Cloneable client handle to a running [`ShardedServer`].
///
/// Searches go through three non-blocking entry points:
/// [`submit`](Self::submit) (the default winner search),
/// [`submit_with`](Self::submit_with) (any [`Metric`], optional
/// deadline) and [`submit_top_k`](Self::submit_top_k) (the `k`
/// nearest, any metric, optional deadline). A blocking search is
/// `submit…()?.wait()`.
#[derive(Debug, Clone)]
pub struct ShardedHandle {
    /// The shared topology: per-shard handle cells, geometry, router,
    /// health board, and client counters — one instance across every
    /// clone, ticket, and the probe supervisor.
    topo: Arc<Topology>,
    word_len: usize,
    n_levels: usize,
    /// What to do with a merge that lost coverage.
    policy: DegradedPolicy,
    /// Per-shard answer deadline; a shard that misses it is marked
    /// [`ShardHealth::Degraded`] and its banks drop out of the merge.
    shard_timeout: Option<Duration>,
    #[cfg(feature = "chaos")]
    faults: Option<fault::FaultPlan>,
}

/// One contacted shard's stake in a fanned request: its ticket, the
/// shard handle it was admitted on (pinned for the request's life),
/// plus the global row/bank geometry the merge and coverage accounting
/// need.
#[derive(Debug)]
struct Part<T> {
    shard: usize,
    row_base: usize,
    bank_base: usize,
    handle: ServeHandle,
    ticket: Ticket<T>,
}

/// The shards (and their banks) a request lost, with the causes
/// tallied so a request that lost *every* shard reports the one cause
/// they all share.
#[derive(Debug, Default)]
struct Losses {
    shards: usize,
    banks: usize,
    /// Losses to an orderly shutdown.
    shutdowns: usize,
    /// Losses to a `DispatcherFailed` answer, and the first such error.
    failures: usize,
    failure: Option<ServeError>,
}

impl Losses {
    fn lose(&mut self, banks: usize) {
        self.shards += 1;
        self.banks += banks;
    }

    /// The error of a request that nothing answered: `ShuttingDown`
    /// when every loss was an orderly shutdown, the `DispatcherFailed`
    /// (with its panic payload) when every loss was a failed
    /// dispatcher answer, else `Degraded` with nothing searched.
    fn verdict(self) -> ServeError {
        if self.shutdowns == self.shards {
            return ServeError::ShuttingDown;
        }
        match self.failure {
            Some(failure) if self.failures == self.shards => failure,
            _ => ServeError::Degraded {
                searched: 0,
                total: self.banks,
            },
        }
    }
}

/// What both ticket kinds hold: one part per contacted shard, in
/// ascending shard (and so global-row) order, plus the losses the
/// fan-out already took and the merge policy.
#[derive(Debug)]
struct Fanned<T> {
    parts: Vec<Part<T>>,
    losses: Losses,
    /// Per-shard answer deadline ([`ServeConfig::shard_timeout`]).
    shard_deadline: Option<Instant>,
    policy: DegradedPolicy,
    topo: Arc<Topology>,
}

impl<T> Fanned<T> {
    /// Waits on every part in shard order and hands each answer to
    /// `on_answer` with its shard's global row base; returns the
    /// [`Coverage`] of the merge.
    ///
    /// A shard that is gone ([`ServeError::ShuttingDown`], or a
    /// [`ServeError::DispatcherFailed`] from a dispatcher whose breaker
    /// tripped) is quarantined; one that missed the per-shard deadline
    /// is marked degraded. A `DispatcherFailed` from a dispatcher that
    /// healed in place costs no health: the shard only drops out of
    /// this merge. Every lost shard's banks count as lost coverage.
    fn collect(self, mut on_answer: impl FnMut(usize, T)) -> Result<Coverage, ServeError> {
        let mut banks: Vec<usize> = Vec::new();
        let mut losses = self.losses;
        let mut answered = false;
        let mut dead: Option<ServeError> = None;
        for part in self.parts {
            let n_banks = part.ticket.banks_count();
            let answer = match self.shard_deadline {
                Some(deadline) => match part.ticket.wait_deadline(deadline) {
                    Some(answer) => answer,
                    None => {
                        // Missed the per-shard deadline: the shard is
                        // slow, not gone — degraded, banks lost from
                        // this merge only.
                        self.topo.mark_degraded(part.shard);
                        losses.lose(n_banks);
                        continue;
                    }
                },
                None => part.ticket.wait(),
            };
            match answer {
                Ok(value) => {
                    answered = true;
                    banks.extend(part.bank_base..part.bank_base + n_banks);
                    on_answer(part.row_base, value);
                }
                // An empty shard covered its (zero or more) banks; it
                // just has no rows to contribute.
                Err(ServeError::Core(CoreError::EmptyArray)) => {
                    answered = true;
                    banks.extend(part.bank_base..part.bank_base + n_banks);
                }
                // Expiry on any shard kills the merged request, but
                // counts once at the client level, however many
                // shards rejected their copy.
                Err(e @ ServeError::DeadlineExceeded { .. }) => {
                    dead.get_or_insert(e);
                }
                Err(ServeError::ShuttingDown) => {
                    self.topo.mark_quarantined(part.shard);
                    losses.lose(n_banks);
                    losses.shutdowns += 1;
                }
                Err(e @ ServeError::DispatcherFailed { .. }) => {
                    if part.handle.is_failed() {
                        self.topo.mark_quarantined(part.shard);
                    }
                    losses.lose(n_banks);
                    losses.failures += 1;
                    losses.failure.get_or_insert(e);
                }
                Err(e) => return Err(e),
            }
        }
        if let Some(e) = dead {
            // ORDERING: Relaxed — monotone client-stats counter.
            self.topo
                .counters
                .deadline_rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        if !answered && losses.shards > 0 {
            return Err(losses.verdict());
        }
        let coverage = Coverage {
            searched: banks.len(),
            total: banks.len() + losses.banks,
            banks,
        };
        if coverage.degraded()
            && (self.policy == DegradedPolicy::FailClosed || coverage.searched == 0)
        {
            return Err(ServeError::Degraded {
                searched: coverage.searched,
                total: coverage.total,
            });
        }
        Ok(coverage)
    }
}

impl ShardedHandle {
    /// Submits one query to every shard without blocking; the returned
    /// [`ShardTicket`] merges the per-shard winners. Queries are
    /// validated here, at admission time, so a malformed request is
    /// rejected synchronously and can never fail a micro-batch it
    /// would have shared with well-formed neighbors.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Core`] with [`CoreError::WordLengthMismatch`] /
    ///   [`CoreError::LevelOutOfRange`] for malformed queries (exactly
    ///   as a direct search would report them).
    /// * [`ServeError::Overloaded`] when a contacted shard's queue is
    ///   at capacity. Admission is all-or-nothing — a slot is reserved
    ///   on *every* contacted shard before anything is enqueued, so a
    ///   rejection by one shard never leaves the others executing work
    ///   nobody waits for.
    /// * [`ServeError::ShuttingDown`] when the server has exited, and
    ///   [`ServeError::Degraded`] when no contacted shard is live.
    pub fn submit(&self, query: &[u8]) -> Result<ShardTicket, ServeError> {
        self.submit_with(query, Metric::default(), None)
    }

    /// [`submit`](Self::submit) at a chosen per-request [`Metric`] and,
    /// optionally, with a deadline `budget`. Every contacted shard
    /// answers under `metric` semantics, and the merge order (ascending
    /// distance, exact ties to the lowest global row) is
    /// metric-independent, so the merged winner is bit-identical to
    /// [`BankedMcam::search_batch_winners_with`] over the unpartitioned
    /// memory at the shards' precision and `metric`. Routing (when
    /// present) stays metric-agnostic — only the shard sweeps honor the
    /// metric. With a budget, the same deadline instant fans to every
    /// shard, and the merged request reports
    /// [`ServeError::DeadlineExceeded`] if any shard could not execute
    /// it in time (a partial merge is never returned).
    ///
    /// # Errors
    ///
    /// * The query's validation error first, then
    ///   [`ServeError::DeadlineExceeded`] immediately when `budget` is
    ///   zero.
    /// * Otherwise the same conditions as [`submit`](Self::submit).
    pub fn submit_with(
        &self,
        query: &[u8],
        metric: Metric,
        budget: Option<Duration>,
    ) -> Result<ShardTicket, ServeError> {
        let deadline = self.admit_request(query, budget)?;
        let targets = self.route_targets(query)?;
        let enqueue_deadline = deadline.map(|(instant, _)| instant);
        let fanned = self.fan_out(&targets, |shard| {
            shard.enqueue_search(query, enqueue_deadline, metric)
        });
        self.deadline_outranks(fanned, deadline).map(ShardTicket)
    }

    /// Admission checks every request runs once, in this order: the
    /// query's validation, then the budget's conversion into a
    /// deadline (so a malformed request always reports its validation
    /// error, never `DeadlineExceeded`); topology errors come later,
    /// from the fan-out.
    fn admit_request(
        &self,
        query: &[u8],
        budget: Option<Duration>,
    ) -> Result<Option<(Instant, Duration)>, ServeError> {
        validate_query(self.word_len, self.n_levels, query)?;
        budget
            .map(|budget| Ok((self.deadline_for(budget)?, budget)))
            .transpose()
    }

    /// Converts a request budget into an absolute deadline; a zero
    /// budget is dead on arrival ([`admit_request`](Self::admit_request)
    /// runs it after validation).
    fn deadline_for(&self, budget: Duration) -> Result<Instant, ServeError> {
        if budget.is_zero() {
            // ORDERING: Relaxed — monotone client-stats counter.
            self.topo
                .counters
                .deadline_rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::DeadlineExceeded {
                budget,
                waited: Duration::ZERO,
            });
        }
        Ok(Instant::now() + budget)
    }

    /// Error precedence at the fan-out boundary: a request whose
    /// deadline has *already expired* reports `DeadlineExceeded` even
    /// when the topology is simultaneously quarantined — request-
    /// validity errors outrank topology errors (the same rule that
    /// makes validation outrank the zero-budget check).
    fn deadline_outranks<T>(
        &self,
        result: Result<T, ServeError>,
        deadline: Option<(Instant, Duration)>,
    ) -> Result<T, ServeError> {
        match (result, deadline) {
            (Err(ServeError::Degraded { .. }), Some((instant, budget)))
                if Instant::now() >= instant =>
            {
                // ORDERING: Relaxed — monotone client-stats counter.
                self.topo
                    .counters
                    .deadline_rejected
                    .fetch_add(1, Ordering::Relaxed);
                Err(ServeError::DeadlineExceeded {
                    budget,
                    waited: budget + Instant::now().saturating_duration_since(instant),
                })
            }
            (result, _) => result,
        }
    }

    /// Whether fan-out must skip this shard: already off the board
    /// (quarantined or mid-probe), or its dispatcher's restart breaker
    /// tripped (which this check is the first to observe — it
    /// escalates the board and repairs the routes).
    fn quarantined(&self, shard: usize) -> bool {
        if self.topo.health.get(shard).excluded() {
            return true;
        }
        if self.topo.shard(shard).is_failed() {
            self.topo.mark_quarantined(shard);
            return true;
        }
        false
    }

    /// Banks currently charged to `shard` for coverage accounting.
    fn shard_banks(&self, shard: usize) -> usize {
        self.topo.shard(shard).banks_snapshot()
    }

    /// Two-phase fan-out over the intended target shards: reserve an
    /// admission slot on every **live** target, then enqueue
    /// everywhere via `enqueue`. A partial fan-out (enqueue as you
    /// admit, bail on the first rejection) would leave the
    /// already-reached shards executing a query nobody waits for —
    /// overload on one shard would then burn capacity on every healthy
    /// shard; backpressure therefore stays all-or-nothing (a rejection
    /// rolls the reserved slots back and fails the request). A *dead*
    /// shard is different: it is quarantined and skipped, its banks
    /// recorded as lost coverage, and the request proceeds over the
    /// survivors. Intended targets that are all quarantined fall back
    /// to a full sweep of the surviving target set (routed searches
    /// keep answering, degraded, when their routed shards die).
    fn fan_out<T>(
        &self,
        intended: &[usize],
        enqueue: impl Fn(&ServeHandle) -> Result<Ticket<T>, ServeError>,
    ) -> Result<Fanned<T>, ServeError> {
        let mut losses = Losses::default();
        let mut live: Vec<usize> = Vec::with_capacity(intended.len());
        for &i in intended {
            if self.quarantined(i) {
                losses.lose(self.shard_banks(i));
            } else {
                live.push(i);
            }
        }
        if live.is_empty() {
            // Every intended shard is gone: surviving-shard full sweep.
            live = self
                .topo
                .targets
                .iter()
                .copied()
                .filter(|i| !intended.contains(i) && !self.quarantined(*i))
                .collect();
        }
        // The request pins each shard's *current* handle for its whole
        // lifetime: if re-admit swaps a cell mid-request, admission
        // slots are still released on the dispatcher that reserved
        // them, never on the replacement.
        let mut admitted: Vec<(usize, ServeHandle)> = Vec::with_capacity(live.len());
        for &i in &live {
            let shard = self.topo.shard(i);
            match shard.admit() {
                Ok(()) => admitted.push((i, shard)),
                Err(e @ ServeError::Overloaded { .. }) => {
                    for (_, reserved) in &admitted {
                        reserved.release_slot();
                    }
                    // ORDERING: Relaxed — monotone client-stats counter.
                    self.topo.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
                // Losses from an *orderly* shutdown are not faults.
                Err(ServeError::ShuttingDown) => {
                    losses.lose(shard.banks_snapshot());
                    losses.shutdowns += 1;
                }
                // A terminally-failed shard rejects admission: skip it
                // and keep the request alive on the survivors.
                Err(_) => {
                    self.topo.mark_quarantined(i);
                    losses.lose(shard.banks_snapshot());
                }
            }
        }
        let mut parts: Vec<Part<T>> = Vec::with_capacity(admitted.len());
        let mut admitted = admitted.into_iter();
        while let Some((i, shard)) = admitted.next() {
            match enqueue(&shard) {
                Ok(ticket) => parts.push(Part {
                    shard: i,
                    row_base: self.topo.bases[i],
                    bank_base: self.topo.bank_bases[i],
                    handle: shard,
                    ticket,
                }),
                // The shard shut down between admit and enqueue (the
                // enqueue released its own slot): a clean loss, not a
                // fault worth quarantining over.
                Err(ServeError::ShuttingDown) => {
                    losses.lose(shard.banks_snapshot());
                    losses.shutdowns += 1;
                }
                // The shard's dispatcher died between admit and
                // enqueue: quarantine it, count its banks as lost
                // coverage, and keep the request alive on survivors.
                Err(ServeError::DispatcherFailed { .. }) => {
                    self.topo.mark_quarantined(i);
                    losses.lose(shard.banks_snapshot());
                }
                // Any other enqueue failure aborts the fan-out; roll
                // back the slots the loop has not reached yet.
                Err(e) => {
                    for (_, unreached) in admitted {
                        unreached.release_slot();
                    }
                    return Err(e);
                }
            }
        }
        if parts.is_empty() {
            // Nothing live at all — not even a fallback survivor.
            return Err(losses.verdict());
        }
        // ORDERING: Relaxed — monotone client-stats counter.
        self.topo.counters.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(Fanned {
            parts,
            losses,
            shard_deadline: self.shard_timeout.map(|t| Instant::now() + t),
            policy: self.policy,
            topo: Arc::clone(&self.topo),
        })
    }

    /// The shard subset a (validated) query fans to: the full target
    /// set without a router, else the shards owning the query's routed
    /// banks. A contacted shard still answers over all of its banks.
    /// An empty route (unseen bucket region) or a poisoned router falls
    /// back to every target. The shard list is ascending, deduplicated,
    /// and always a subset of `self.targets`.
    fn route_targets(&self, query: &[u8]) -> Result<Vec<usize>, ServeError> {
        let everywhere = || Ok(self.topo.targets.to_vec());
        let Some(router) = &self.topo.router else {
            return everywhere();
        };
        #[cfg(feature = "chaos")]
        self.inject_router_fault();
        let Ok(guard) = router.read() else {
            // Poisoned router lock: a writer panicked mid-update, so
            // the buckets may be stale. Degrade to the full fan-out —
            // a recall-safe superset of any route — instead of
            // panicking the client thread.
            return everywhere();
        };
        let banks = guard.route(query).map_err(ServeError::Core)?;
        drop(guard);
        let mut targets: Vec<usize> = banks
            .iter()
            .map(|&b| self.topo.bank_owner(b))
            .filter(|s| self.topo.targets.binary_search(s).is_ok())
            .collect();
        targets.dedup();
        if targets.is_empty() {
            return everywhere();
        }
        Ok(targets)
    }

    /// Submits one top-k query without blocking, at a chosen
    /// per-request [`Metric`] and optional deadline `budget` (the same
    /// semantics as [`submit_with`](Self::submit_with)). The returned
    /// [`ShardTopKTicket`] merges the per-shard candidate lists by
    /// ascending `(conductance, global_row)` and truncates to `k` —
    /// bit-identical to [`BankedMcam::search_batch_top_k_with`] over
    /// the unpartitioned memory. `k` is clamped, never an error.
    ///
    /// # Errors
    ///
    /// Same conditions as [`submit_with`](Self::submit_with).
    pub fn submit_top_k(
        &self,
        query: &[u8],
        k: usize,
        metric: Metric,
        budget: Option<Duration>,
    ) -> Result<ShardTopKTicket, ServeError> {
        let deadline = self.admit_request(query, budget)?;
        let targets = self.route_targets(query)?;
        let enqueue_deadline = deadline.map(|(instant, _)| instant);
        let fanned = self.fan_out(&targets, |shard| {
            shard.enqueue_top_k(query, k, enqueue_deadline, metric)
        });
        let fanned = self.deadline_outranks(fanned, deadline)?;
        // ORDERING: Relaxed — monotone client-stats counter.
        self.topo
            .counters
            .topk_submitted
            .fetch_add(1, Ordering::Relaxed);
        Ok(ShardTopKTicket { fanned, k })
    }

    /// Stores one word through the tail shard's dispatcher and blocks
    /// until applied; returns the new **global** row index — the same
    /// index an unsharded server (or a direct
    /// [`BankedMcam::store`]) would have assigned. Only the tail
    /// shard's plan cache is dirtied; every other shard keeps batching
    /// undisturbed.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Core`] for malformed words (validated like
    ///   queries).
    /// * [`ServeError::ShuttingDown`] when the server has exited, or
    ///   [`ServeError::DispatcherFailed`] when the tail shard failed
    ///   terminally or panicked while applying this store (a store
    ///   panic is caught *before* the word is applied — a failed store
    ///   never half-mutates the memory).
    pub fn store(&self, word: &[u8]) -> Result<usize, ServeError> {
        let local = self.topo.shard(self.topo.tail).store(word)?;
        let global = self.topo.bases[self.topo.tail] + local;
        if let Some(router) = &self.topo.router {
            // Bucket update after the store is applied: the row is
            // routable the moment any client can observe it. A
            // poisoned lock skips the update — with the router
            // poisoned, every search already degrades to the full
            // fan-out, so stale buckets cannot cost recall — and the
            // store still reports success (the word *is* stored).
            if let Ok(mut guard) = router.write() {
                guard.note_store(word, global).map_err(ServeError::Core)?;
            }
        }
        Ok(global)
    }

    /// Samples the [`fault::FaultSite::RouterRead`] chaos site: a
    /// `Panic` poisons the router lock from a sacrificial thread (the
    /// documented poisoned-router degrade path — a client thread never
    /// unwinds), a `Delay` sleeps in place.
    #[cfg(feature = "chaos")]
    fn inject_router_fault(&self) {
        let Some(plan) = &self.faults else { return };
        match plan.sample(fault::FaultSite::RouterRead) {
            Some(fault::FaultKind::Panic) => {
                let topo = Arc::clone(&self.topo);
                let _ = std::thread::spawn(move || {
                    let Some(router) = &topo.router else { return };
                    let _guard = router.write();
                    // femcam::allow(no_panic): chaos-only sacrificial
                    // thread — the panic deliberately poisons the router
                    // lock.
                    panic!("{}", fault::CHAOS_PANIC);
                })
                .join();
            }
            Some(fault::FaultKind::Delay(d)) => std::thread::sleep(d),
            Some(fault::FaultKind::Overload) | None => {}
        }
    }

    /// Merged live plan-memory report: rows, banks, and resident plan
    /// bytes summed across every shard.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] when a shard dispatcher has exited.
    pub fn memory_report(&self) -> Result<MemoryReport, ServeError> {
        let mut merged: Option<MemoryReport> = None;
        for i in 0..self.topo.n_shards() {
            let report = self.topo.shard(i).memory_report()?;
            merged = Some(match merged {
                None => report,
                Some(mut m) => {
                    m.rows += report.rows;
                    m.banks += report.banks;
                    m.plan += report.plan;
                    m
                }
            });
        }
        merged.ok_or(ServeError::ShuttingDown)
    }

    /// Per-shard and client-level serving statistics.
    #[must_use]
    pub fn stats(&self) -> ShardedStats {
        let counters = &self.topo.counters;
        // ORDERING: Relaxed (all loads) — a stats snapshot tolerates
        // counters read at slightly different instants.
        ShardedStats {
            submitted: counters.submitted.load(Ordering::Relaxed),
            topk_submitted: counters.topk_submitted.load(Ordering::Relaxed),
            rejected: counters.rejected.load(Ordering::Relaxed),
            deadline_rejected: counters.deadline_rejected.load(Ordering::Relaxed),
            degraded: counters.degraded.load(Ordering::Relaxed),
            quarantined: counters.quarantined.load(Ordering::Relaxed),
            readmitted: counters.readmitted.load(Ordering::Relaxed),
            probe_failures: counters.probe_failures.load(Ordering::Relaxed),
            elapsed: counters.started.elapsed(),
            health: self.topo.health.snapshot(),
            per_shard: (0..self.topo.n_shards())
                .map(|i| self.topo.shard(i).stats())
                .collect(),
        }
    }

    /// Current per-shard health, in shard order.
    #[must_use]
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        self.topo.health.snapshot()
    }

    /// Number of shards this handle fans out to.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.topo.n_shards()
    }
}

/// An in-flight fanned winner search: wait on it to receive the
/// merged `(global_row, total_conductance)` winner.
#[derive(Debug)]
pub struct ShardTicket(Fanned<(usize, f64)>);

impl ShardTicket {
    /// Blocks for the merged winner, discarding the coverage record —
    /// see [`wait_covered`](Self::wait_covered).
    ///
    /// # Errors
    ///
    /// Same conditions as [`wait_covered`](Self::wait_covered).
    pub fn wait(self) -> Result<(usize, f64), ServeError> {
        self.wait_covered().map(|c| c.value)
    }

    /// Blocks until every live shard answered (or missed its per-shard
    /// deadline), then merges: ascending conductance, exact ties to
    /// the lowest global row (the contractual banked-merge order).
    /// Shards that are empty contribute no candidates; if every
    /// covered shard is empty the merged request reports
    /// [`CoreError::EmptyArray`].
    ///
    /// A shard that cannot answer drops out of the merge, its banks
    /// recorded as lost in the result's [`Coverage`] (see the
    /// [crate-level "Failure model"](crate#failure-model) for which
    /// losses change its health). Under [`DegradedPolicy::FailOpen`]
    /// the merge over the surviving banks is returned with
    /// `coverage.degraded() == true` — exactly the bank-mask merge
    /// over `coverage.banks`; under [`DegradedPolicy::FailClosed`] the
    /// request fails with [`ServeError::Degraded`].
    ///
    /// # Errors
    ///
    /// * [`ServeError::Core`] if the search failed (e.g. the memory is
    ///   empty).
    /// * [`ServeError::DeadlineExceeded`] if any shard rejected its
    ///   copy of the request as expired.
    /// * When no shard answered: [`ServeError::ShuttingDown`] if every
    ///   loss was an orderly shutdown, [`ServeError::DispatcherFailed`]
    ///   (with the panic payload) if every loss was a dispatcher
    ///   failure, else [`ServeError::Degraded`].
    /// * [`ServeError::Degraded`] for partial coverage under the
    ///   fail-closed policy.
    pub fn wait_covered(self) -> Result<Covered<(usize, f64)>, ServeError> {
        let mut best: Option<(usize, f64)> = None;
        let coverage = self.0.collect(|row_base, (local, g)| {
            // Shards fold in ascending global-row order with a strict
            // `<`, so exact cross-shard ties keep the earlier (lower
            // global row) winner — identical to the in-memory banked
            // merge.
            if best.is_none_or(|(_, bg)| g < bg) {
                best = Some((row_base + local, g));
            }
        })?;
        match best {
            Some(value) => Ok(Covered { value, coverage }),
            None => Err(ServeError::Core(CoreError::EmptyArray)),
        }
    }
}

/// An in-flight fanned top-k search: wait on it to receive the merged
/// hits, nearest first.
#[derive(Debug)]
pub struct ShardTopKTicket {
    fanned: Fanned<Vec<(usize, f64)>>,
    k: usize,
}

impl ShardTopKTicket {
    /// Blocks for the merged hits, discarding the coverage record —
    /// see [`wait_covered`](Self::wait_covered).
    ///
    /// # Errors
    ///
    /// Same conditions as [`wait_covered`](Self::wait_covered).
    pub fn wait(self) -> Result<Vec<(usize, f64)>, ServeError> {
        self.wait_covered().map(|c| c.value)
    }

    /// Blocks until every live shard answered, then merges the
    /// candidate lists by ascending `(conductance, global_row)` and
    /// truncates to `k`. Every global top-`k` row is within its own
    /// shard's top-`k`, so the merge loses nothing over the covered
    /// banks. Failed and timed-out shards degrade coverage exactly as
    /// in [`ShardTicket::wait_covered`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ShardTicket::wait_covered`].
    pub fn wait_covered(self) -> Result<Covered<Vec<(usize, f64)>>, ServeError> {
        let mut candidates: Vec<(usize, f64)> = Vec::new();
        let mut any = false;
        let coverage = self.fanned.collect(|row_base, hits| {
            any = true;
            candidates.extend(hits.into_iter().map(|(local, g)| (row_base + local, g)));
        })?;
        if !any {
            return Err(ServeError::Core(CoreError::EmptyArray));
        }
        candidates.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        candidates.truncate(self.k);
        Ok(Covered {
            value: candidates,
            coverage,
        })
    }
}
/// Serving statistics of a [`ShardedServer`]: client-level counters
/// plus each shard's own [`ServeStats`].
#[derive(Debug, Clone)]
pub struct ShardedStats {
    /// Client-level submissions accepted by every shard (one per
    /// fanned request, not one per shard).
    pub submitted: u64,
    /// The subset of `submitted` that were top-k requests.
    pub topk_submitted: u64,
    /// Client-level requests rejected by admission control on some
    /// shard.
    pub rejected: u64,
    /// Client-level requests whose deadline killed them: zero-budget
    /// submissions plus merged requests that expired on some shard —
    /// each counted **once**, however many shards rejected their
    /// fanned copy (the per-shard `deadline_rejected` counters count
    /// copies and therefore over-state client traffic N-fold).
    pub deadline_rejected: u64,
    /// Shards observed entering `Degraded` (monotone transition count,
    /// not an observation count — each `Healthy → Degraded` move
    /// increments once, whichever client saw it first).
    pub degraded: u64,
    /// Shards observed entering `Quarantined` (monotone; counts
    /// transitions, including a re-quarantine after a re-admit).
    pub quarantined: u64,
    /// Shards re-admitted by a successful probe (`Quarantined →
    /// Probing → Healthy`, behind the canary bit-identity gate).
    pub readmitted: u64,
    /// Probes that failed and returned their shard to `Quarantined`.
    pub probe_failures: u64,
    /// Wall-clock time since the sharded front end started.
    pub elapsed: Duration,
    /// Per-shard health at snapshot time, in shard order.
    pub health: Vec<ShardHealth>,
    /// Each shard dispatcher's own statistics, in shard order.
    pub per_shard: Vec<ServeStats>,
}

impl ShardedStats {
    /// Aggregates into one [`ServeStats`] with **client-level traffic
    /// counters**: `queries`, `topk_queries`, `rejected`,
    /// `deadline_rejected`, and `queries_per_s` count each fanned
    /// request once — not once per shard — so the numbers stay
    /// comparable across shard counts under the same client load. Execution-cost fields keep per-shard semantics:
    /// `batches`/`mean_batch`/`max_batch` aggregate the dispatchers'
    /// windows (weighted by batches), `mean_exec_us_per_query` is the
    /// mean over per-shard *executions* (each fanned request executes
    /// once per shard), `woken` sums the dispatchers' wake-ups (a
    /// fanned request can cost one per shard), and the wait
    /// percentiles are the **worst shard's** (conservative — the
    /// merged answer is gated by its slowest shard anyway).
    #[must_use]
    pub fn merged(&self) -> ServeStats {
        let executed: u64 = self.per_shard.iter().map(|s| s.queries).sum();
        let batches: u64 = self.per_shard.iter().map(|s| s.batches).sum();
        let batch_size_sum: f64 = self
            .per_shard
            .iter()
            .map(|s| s.mean_batch * s.batches as f64)
            .sum();
        let exec_us_sum: f64 = self
            .per_shard
            .iter()
            .map(|s| s.mean_exec_us_per_query * s.queries as f64)
            .sum();
        ServeStats {
            queries: self.submitted,
            topk_queries: self.topk_submitted,
            stores: self.per_shard.iter().map(|s| s.stores).sum(),
            batches,
            rejected: self.rejected,
            deadline_rejected: self.deadline_rejected,
            woken: self.per_shard.iter().map(|s| s.woken).sum(),
            mean_batch: if batches == 0 {
                0.0
            } else {
                batch_size_sum / batches as f64
            },
            max_batch: self
                .per_shard
                .iter()
                .map(|s| s.max_batch)
                .max()
                .unwrap_or(0),
            p50_wait_us: self
                .per_shard
                .iter()
                .map(|s| s.p50_wait_us)
                .fold(0.0, f64::max),
            p99_wait_us: self
                .per_shard
                .iter()
                .map(|s| s.p99_wait_us)
                .fold(0.0, f64::max),
            mean_exec_us_per_query: if executed == 0 {
                0.0
            } else {
                exec_us_sum / executed as f64
            },
            queries_per_s: if self.elapsed.as_secs_f64() > 0.0 {
                self.submitted as f64 / self.elapsed.as_secs_f64()
            } else {
                0.0
            },
            queue_depth: self.per_shard.iter().map(|s| s.queue_depth).sum(),
            queue_capacity: self.per_shard.iter().map(|s| s.queue_capacity).sum(),
            restarts: self.per_shard.iter().map(|s| s.restarts).sum(),
            // The front end keeps answering (degraded) while any shard
            // lives; only a full wipe-out is a failed server.
            failed: !self.per_shard.is_empty() && self.per_shard.iter().all(|s| s.failed),
            degraded: self.degraded,
            quarantined: self.quarantined,
            readmitted: self.readmitted,
            probe_failures: self.probe_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::ServeConfig;
    use femcam_core::{ConductanceLut, LevelLadder, Precision};
    use femcam_device::FefetModel;

    fn memory_with_rows(rows: &[[u8; 4]], rows_per_bank: usize) -> BankedMcam {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut memory = BankedMcam::new(ladder, lut, 4, rows_per_bank);
        for row in rows {
            memory.store(row).unwrap();
        }
        memory
    }

    #[test]
    fn sharded_results_match_direct_search() {
        let rows = [
            [0u8, 1, 2, 3],
            [7, 7, 7, 7],
            [1, 1, 2, 3],
            [4, 4, 4, 4],
            [2, 2, 2, 2],
        ];
        let direct = memory_with_rows(&rows, 2);
        for shards in [1usize, 2, 3, 5] {
            let server =
                ShardedServer::start(memory_with_rows(&rows, 2), shards, ServeConfig::default());
            assert_eq!(server.n_shards(), shards);
            let handle = server.handle();
            for q in [[0u8, 1, 2, 3], [4, 4, 4, 5], [1, 1, 2, 2], [7, 7, 7, 6]] {
                let (row, g) = handle.submit(&q).and_then(ShardTicket::wait).unwrap();
                let (drow, dg) = direct
                    .search_batch_winners_with(&[&q[..]], Precision::F64)
                    .map(|w| w[0])
                    .unwrap();
                assert_eq!(row, drow, "{shards} shards");
                assert_eq!(g.to_bits(), dg.to_bits(), "{shards} shards");
                let top = handle
                    .submit_top_k(&q, 3, Metric::default(), None)
                    .and_then(ShardTopKTicket::wait)
                    .unwrap();
                let dtop = direct
                    .search_batch_top_k_with(&[&q[..]], 3, Precision::F64)
                    .map(|mut h| h.remove(0))
                    .unwrap();
                assert_eq!(top, dtop, "{shards} shards top-k");
            }
            let stats = server.stats();
            assert_eq!(stats.submitted, 8);
            assert_eq!(stats.per_shard.len(), shards);
            let memory = server.shutdown().unwrap();
            assert_eq!(memory.n_rows(), rows.len());
        }
    }

    #[test]
    fn canary_suite_covers_near_misses_and_bank_straddles() {
        let rows = [
            [0u8, 1, 2, 3],
            [7, 7, 7, 7],
            [1, 1, 2, 3],
            [4, 4, 4, 4],
            [2, 2, 2, 2],
        ];
        let memory = memory_with_rows(&rows, 2);
        let suite = canary_suite(&memory);
        // Near-miss canaries: queries that match no resident row.
        let resident: Vec<&[u8]> = rows.iter().map(|r| &r[..]).collect();
        assert!(
            suite
                .iter()
                .any(|c| !resident.contains(&c.query.as_slice())),
            "suite has no near-miss queries: {suite:?}"
        );
        // Straddling depths: a replay deeper than one bank.
        assert!(
            suite.iter().any(|c| c.k > memory.rows_per_bank()),
            "suite has no bank-straddling top-k depth: {suite:?}"
        );
        // Every canary must be answerable by the direct sweep.
        for c in &suite {
            memory
                .search_batch_top_k_with(&[&c.query[..]], c.k, Precision::F64)
                .map(|mut h| h.remove(0))
                .unwrap();
        }
    }

    /// Forces the regression class the near-miss canaries exist for: a
    /// merge that concatenates per-bank hits (bank-major row order)
    /// instead of interleaving by goodness must fail the canary check
    /// — and so must dropped hits (fail closed on shape).
    #[test]
    fn canary_check_fails_closed_on_merge_order_bug() {
        let rows = [
            [0u8, 1, 2, 3],
            [7, 7, 7, 7],
            [1, 1, 2, 3],
            [4, 4, 4, 4],
            [2, 2, 2, 2],
        ];
        let memory = memory_with_rows(&rows, 2);
        let suite = canary_suite(&memory);
        let oracle: Vec<Vec<(usize, f64)>> = suite
            .iter()
            .map(|c| {
                memory
                    .search_batch_top_k_with(&[&c.query[..]], c.k, Precision::F64)
                    .map(|mut h| h.remove(0))
                    .unwrap()
            })
            .collect();
        // The honest replay passes.
        assert!(canaries_pass(&oracle, &oracle.clone()));
        // A mis-merged replay: per-bank concatenation yields hits in
        // ascending global-row order, not ascending goodness. Build it
        // from the oracle itself so every hit is individually correct
        // and only the merge order is wrong.
        let mut mis_merged = oracle.clone();
        let mut any_reordered = false;
        for answer in &mut mis_merged {
            let before = answer.clone();
            answer.sort_by_key(|&(row, _)| row);
            any_reordered |= *answer != before;
        }
        assert!(
            any_reordered,
            "no canary answer distinguishes row order from goodness order: {oracle:?}"
        );
        assert!(
            !canaries_pass(&oracle, &mis_merged),
            "merge-order bug passed the canary gate"
        );
        // Dropped hits fail closed, as does a vanished answer.
        let mut truncated = oracle.clone();
        let deep = truncated
            .iter_mut()
            .find(|a| a.len() > 1)
            .expect("suite has a deep replay");
        deep.pop();
        assert!(!canaries_pass(&oracle, &truncated));
        assert!(!canaries_pass(&oracle, &oracle[..oracle.len() - 1]));
    }

    #[test]
    fn sharded_stores_route_to_tail_and_assign_global_rows() {
        let rows = [[0u8, 0, 0, 0], [1, 1, 1, 1], [2, 2, 2, 2]];
        let server = ShardedServer::start(memory_with_rows(&rows, 2), 2, ServeConfig::default());
        let handle = server.handle();
        // A shadow tracks what a single memory would assign.
        let mut shadow = memory_with_rows(&rows, 2);
        for word in [[5u8, 5, 5, 5], [6, 6, 6, 6], [3, 3, 3, 3]] {
            let got = handle.store(&word).unwrap();
            let want = shadow.store(&word).unwrap();
            assert_eq!(got, want);
            // The store is visible to the very next merged search.
            let (row, g) = handle.submit(&word).and_then(ShardTicket::wait).unwrap();
            let (drow, dg) = shadow
                .search_batch_winners_with(&[&word[..]], Precision::F64)
                .map(|w| w[0])
                .unwrap();
            assert_eq!(row, drow);
            assert_eq!(g.to_bits(), dg.to_bits());
        }
        let report = handle.memory_report().unwrap();
        assert_eq!(report.rows, 6);
        let memory = server.shutdown().unwrap();
        assert_eq!(memory.n_rows(), shadow.n_rows());
    }

    #[test]
    fn empty_sharded_memory_errors_and_recovers_after_store() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let memory = BankedMcam::new(ladder, lut, 4, 2);
        let server = ShardedServer::start(memory, 3, ServeConfig::default());
        let handle = server.handle();
        assert!(matches!(
            handle.submit(&[0, 0, 0, 0]).and_then(ShardTicket::wait),
            Err(ServeError::Core(CoreError::EmptyArray))
        ));
        assert!(matches!(
            handle
                .submit_top_k(&[0, 0, 0, 0], 2, Metric::default(), None)
                .and_then(ShardTopKTicket::wait),
            Err(ServeError::Core(CoreError::EmptyArray))
        ));
        assert_eq!(handle.store(&[3, 3, 3, 3]).unwrap(), 0);
        assert_eq!(
            handle
                .submit(&[3, 3, 3, 3])
                .and_then(ShardTicket::wait)
                .unwrap()
                .0,
            0
        );
        let memory = server.shutdown().unwrap();
        assert_eq!(memory.n_rows(), 1);
    }

    #[test]
    fn zero_budget_is_rejected_synchronously() {
        let server = ShardedServer::start(
            memory_with_rows(&[[0u8, 0, 0, 0]], 2),
            2,
            ServeConfig::default(),
        );
        let handle = server.handle();
        assert!(matches!(
            handle
                .submit_with(&[0, 0, 0, 0], Metric::default(), Some(Duration::ZERO))
                .and_then(ShardTicket::wait),
            Err(ServeError::DeadlineExceeded { .. })
        ));
        assert!(matches!(
            handle.submit_top_k(&[0, 0, 0, 0], 2, Metric::default(), Some(Duration::ZERO)),
            Err(ServeError::DeadlineExceeded { .. })
        ));
        // Validation outranks the zero-budget check.
        assert!(matches!(
            handle.submit_with(&[0, 0, 0], Metric::default(), Some(Duration::ZERO)),
            Err(ServeError::Core(CoreError::WordLengthMismatch { .. }))
        ));
        // A generous budget answers normally.
        assert!(handle
            .submit_with(
                &[0, 0, 0, 0],
                Metric::default(),
                Some(Duration::from_secs(10))
            )
            .and_then(ShardTicket::wait)
            .is_ok());
        assert!(handle
            .submit_top_k(
                &[0, 0, 0, 0],
                1,
                Metric::default(),
                Some(Duration::from_secs(10))
            )
            .unwrap()
            .wait()
            .is_ok());
        assert_eq!(server.stats().deadline_rejected, 2);
    }

    #[test]
    fn routed_sharded_serving_finds_exact_matches_and_tracks_stores() {
        use femcam_core::{RoutedMcam, RouterConfig};
        let rows = [
            [0u8, 1, 2, 3],
            [7, 7, 7, 7],
            [1, 1, 2, 3],
            [4, 4, 4, 4],
            [2, 2, 2, 2],
            [6, 0, 6, 0],
        ];
        for shards in [1usize, 2, 3] {
            let routed = RoutedMcam::new(memory_with_rows(&rows, 2), RouterConfig::default())
                .expect("router over served geometry");
            let server = ShardedServer::start_routed(routed, shards, ServeConfig::default());
            let handle = server.handle();
            let mut shadow = memory_with_rows(&rows, 2);
            // An exact-match query's winner is globally minimal and its
            // duplicates share its bucket, so routed results equal the
            // full sweep for every stored word.
            for (row, word) in rows.iter().enumerate() {
                let (got, g) = handle.submit(word).and_then(ShardTicket::wait).unwrap();
                let (want, wg) = shadow
                    .search_batch_winners_with(&[&word[..]], Precision::F64)
                    .map(|w| w[0])
                    .unwrap();
                assert_eq!((got, g.to_bits()), (want, wg.to_bits()), "{shards} shards");
                assert_eq!(got, row);
            }
            // Stores stay routable: tail store + router bucket update.
            for word in [[5u8, 5, 0, 5], [0, 7, 0, 7]] {
                let got = handle.store(&word).unwrap();
                let want = shadow.store(&word).unwrap();
                assert_eq!(got, want, "{shards} shards global row");
                assert_eq!(
                    handle.submit(&word).and_then(ShardTicket::wait).unwrap().0,
                    got,
                    "{shards} shards"
                );
                let top = handle
                    .submit_top_k(&word, 1, Metric::default(), None)
                    .and_then(ShardTopKTicket::wait)
                    .unwrap();
                assert_eq!(top[0].0, got, "{shards} shards top-k");
            }
            let memory = server.shutdown().unwrap();
            assert_eq!(memory.n_rows(), shadow.n_rows());
        }
    }

    #[test]
    fn malformed_queries_rejected_before_fanout() {
        let server = ShardedServer::start(
            memory_with_rows(&[[0u8, 0, 0, 0]], 2),
            2,
            ServeConfig::default(),
        );
        let handle = server.handle();
        assert!(matches!(
            handle.submit(&[0, 0, 0]).and_then(ShardTicket::wait),
            Err(ServeError::Core(CoreError::WordLengthMismatch { .. }))
        ));
        assert!(matches!(
            handle
                .submit_top_k(&[9, 9, 9, 9], 2, Metric::default(), None)
                .and_then(ShardTopKTicket::wait),
            Err(ServeError::Core(CoreError::LevelOutOfRange { .. }))
        ));
    }
}
