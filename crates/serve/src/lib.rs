//! Async micro-batching serving layer for the banked MCAM executor.
//!
//! The paper's pitch is throughput: one MCAM search step amortizes
//! across every row at once, and the compiled batch executor
//! (`femcam_core::exec`) amortizes plan traffic across every query in
//! a batch. An online front end, however, receives queries **one at a
//! time**. This crate closes that gap with one serving front end,
//! [`ShardedServer`]. It partitions a [`BankedMcam`]'s banks across
//! `N ≥ 1` shards ([`BankedMcam::partition`]) — the paper's Fig. 9
//! organization of fixed-height banks searched in parallel with the
//! winners merged digitally — and gives every shard its own dispatcher
//! thread, queue, batching window and plan cache. A dispatcher
//! collects single submissions into bounded micro-batches, executes
//! one [`BankedMcam::search_batch_winners_with`] call per batch, and
//! fans the winners back to the per-request waiters; the front end
//! merges the shards' answers. Clients talk to it through a cloneable
//! [`ShardedHandle`]. One shard is the plain single-memory server.
//!
//! # Serving
//!
//! **Micro-batching window.** A shard's dispatcher sleeps until a
//! request arrives. The first search (winner or top-k) opens a batch
//! window; the dispatcher then keeps collecting until the window holds
//! [`ServeConfig::max_batch`] queries, the window must close (see
//! "Deadlines" below), or a barrier request (a store, a report,
//! shutdown) arrives — whichever comes first. The window closes, the
//! collected winner queries execute as one
//! [`BankedMcam::search_batch_winners_with`] sweep and the collected
//! top-k queries as one [`BankedMcam::search_batch_top_k_with`] sweep
//! (executed at the largest requested `k` and truncated per request —
//! bit-identical to each request's solo answer, because a top-`k`
//! list is a prefix of the top-`k_max` list), and every waiter is
//! answered. Under closed-loop load the achieved batch size
//! approaches the number of concurrent clients; an isolated request
//! pays at most [`ServeConfig::max_wait`] of extra latency.
//!
//! The window is answered in two steps: every answer is published
//! first, then the waiters that are asleep are woken, once each. A
//! waiter marks itself asleep under its slot mutex just before it
//! blocks, so an answer that lands while its waiter is still awake
//! costs no notify at all. Waking each waiter as its answer lands
//! would undo the batching: on a shared CPU every wake preempts the
//! dispatcher mid-window, and a pipelined client holding many tickets
//! of one window would sleep and wake once per answer. The order is
//! fixed: stats, admission-slot release, publish, wake. A waiter that
//! is awake sees its answer the moment it is published, so its batch
//! is already counted and its slot already free; a client resubmitting
//! at capacity is never refused by its own finished batch.
//!
//! **Deadlines.** The window's default close time is `max_wait` after
//! it opened — the *global* patience of a batching window. A request
//! submitted through [`ShardedHandle::submit_with`] carries
//! its own budget, and the window instead closes at the *earliest*
//! deadline among the requests it holds — a tight-budget request never
//! idles out a window on behalf of patient neighbors. A deadline
//! bounds how long a request may sit *unexecuted*: when a dispatcher
//! pops a request whose deadline already passed (it was queued behind
//! stores or full windows), the request is rejected with
//! [`ServeError::DeadlineExceeded`] instead of executing dead work; a
//! zero budget is rejected at submission. Once a request makes it into
//! the batch that its own deadline closes, it executes. The same
//! deadline instant fans to every contacted shard, and if any shard
//! cannot execute it in time the merged request reports
//! `DeadlineExceeded` rather than a partial merge. The dispatcher
//! never re-arms its wait with a zero timeout — a due window closes
//! immediately, so an expired window can never busy-spin.
//!
//! **Backpressure policy.** Admission control is a per-shard
//! queue-depth bound checked at [`ShardedHandle::submit`]: the depth
//! counts searches that are queued or executing, and the default
//! capacity is `workers × max_batch × 2`, where `workers` is the
//! work-proportional thread count `femcam_core::par::batch_threads`
//! resolves for one full batch of the shard. Because that worker count
//! is exactly what the executor will fork, queue depth maps 1:1 to
//! utilization: at capacity, every worker already has two full batches
//! of backlog, and admitting more work only grows latency without
//! adding throughput — so the request is rejected with
//! [`ServeError::Overloaded`] instead. Admission is all-or-nothing: a
//! slot is reserved on every contacted shard before anything is
//! enqueued, so one full shard never leaves the others executing work
//! nobody waits for. Stores and reports bypass admission control
//! (writes must not be silently dropped); they are rare and cheap
//! relative to a batch.
//!
//! **Fan-out, merge and stores.** Searches (winner and top-k) fan out
//! to every shard and merge by ascending `(conductance, global_row)` —
//! the exact order the banked merge already pins. Stores route *only*
//! to the shard that owns the append tail (global rows are assigned
//! densely, so exactly one shard ever grows). Writes travel through
//! that shard's dispatcher queue, so its dispatcher thread is the
//! *only* code that ever touches its memory — plan-cache invalidation
//! (a `store` dirties one bank's cached plans) can never race a
//! search. A store acts as a batch barrier on the tail shard's queue
//! alone: searches queued before it execute first (against the
//! pre-store contents), the store applies, and searches queued after
//! it see the new row, while every other shard keeps coalescing
//! searches. From any single client's point of view the memory is
//! sequentially consistent: a search submitted after a store completed
//! observes that store.
//!
//! **Routed serving.** [`ShardedServer::start_routed`] keeps the
//! [`LshRouter`](femcam_core::LshRouter) of a
//! [`RoutedMcam`](femcam_core::RoutedMcam) at the front end: each
//! query is hashed once at the client, its routed banks map to the
//! shards that own them, and the request fans only to that shard
//! subset. The route only picks shards: a contacted shard runs the
//! same full sweep over *all* of its banks as an unrouted one (at
//! [`Precision::Codes`] it starts from its own candidate row, the
//! "Self-seeded sweep" of `femcam_core::exec`), so routing skips whole
//! shards (their round-trip, admission slot and sweep), never banks
//! within a shard — and a 1-shard routed server answers exactly like
//! the full sweep. Winners and top-k fan out the same way. Stores keep
//! the router's buckets in sync (the tail store, then
//! [`LshRouter::note_store`](femcam_core::LshRouter::note_store)), so
//! a new row is routable the moment its store returns.
//!
//! **Determinism contract.** Per-request results are **bit-identical**
//! to calling [`BankedMcam::search_batch_winners_with`] (or
//! [`BankedMcam::search_batch_top_k_with`]) directly at the same
//! precision and metric against the same contents — regardless of the
//! shard count, which micro-batch a request lands in, how large that batch
//! is, or how many worker threads execute it. This is inherited from
//! the executor's fixed-order folds (`femcam_core::exec`'s
//! "Determinism guarantee") and the fixed merge order, and pinned
//! end-to-end, including under interleaved stores, by this crate's
//! `tests/determinism.rs` and `tests/sharded.rs` property tests.
//!
//! **Memory budget.** [`ShardedHandle::memory_report`] round-trips
//! through every shard's dispatcher and returns the live
//! [`BankedMcam::plan_memory_bytes`] breakdown, summed over shards,
//! against the configured [`ServeConfig::plan_budget_bytes`] — the
//! number a deployment watches to decide when a node is full
//! (codes-mode plans keep millions of rows resident where `f64` planes
//! could not).
//!
//! # Failure model
//!
//! The serving stack assumes parts of it **will** misbehave — the
//! paper's own pitch is accuracy *under device-level faults*
//! (variation-tolerant sensing, the §IV-D write-and-verify loop) —
//! and extends that stance to the software above the array. The
//! guarantees below are all exercised by the `chaos`-feature
//! fault-injection harness (`tests/chaos_props.rs`):
//!
//! * **No stranded waiter, ever.** Every submitted ticket resolves
//!   with a result or an error. A dispatcher wraps batch execution and
//!   store application in `catch_unwind`: a panic mid-batch answers
//!   every in-flight waiter with [`ServeError::DispatcherFailed`]
//!   (never a hang), keeps the owned memory, and restarts the loop in
//!   place. Dispatcher exit paths drain the queue; abandoned responders
//!   wake their waiters with [`ServeError::ShuttingDown`]. A published
//!   answer's wake-up lives in a `Wake` guard whose `Drop` notifies,
//!   so an unwind between a window's publish and its wake still wakes
//!   every sleeper.
//! * **Self-healing, with a circuit breaker.** Each recovery
//!   increments that shard's [`ServeStats::restarts`] (in
//!   [`ShardedStats::per_shard`]). More than
//!   [`ServeConfig::restart_budget`] restarts within any
//!   [`ServeConfig::restart_window`] trips the breaker: the shard's
//!   dispatcher transitions to a **terminal failed state**
//!   ([`ServeStats::failed`]) instead of crash-looping — every later
//!   request to it is rejected with `DispatcherFailed`, and
//!   [`ShardedServer::shutdown`] still recovers the memory. Results
//!   after a successful self-heal are bit-identical to direct search
//!   (the memory was never shared with the panicking batch).
//! * **A healed panic is not a dead shard.** A shard that answered
//!   `DispatcherFailed` but healed in place loses its contribution to
//!   that one merge (its banks count as lost coverage) and keeps its
//!   health: the next request reaches it again. When no shard answered
//!   and every loss was a `DispatcherFailed` answer, the request
//!   reports that error with its panic payload — just as a request
//!   that lost every shard to an orderly shutdown reports
//!   `ShuttingDown`.
//! * **Degraded coverage beats no answer.** The front end tracks
//!   per-shard health ([`ShardHealth`]): a shard whose dispatcher
//!   failed terminally (or whose channel closed) is **quarantined** —
//!   fan-out skips it — and a shard that misses the per-shard deadline
//!   ([`ServeConfig::shard_timeout`]) is marked degraded and loses its
//!   contribution to that merge. Merges complete over the surviving
//!   shards and carry a [`Coverage`] record (banks searched / banks
//!   intended, the exact contributing bank set) through
//!   [`ShardTicket::wait_covered`] and
//!   [`ServedNn::query_with_coverage`]. A degraded answer is the
//!   *exact* merge over `Coverage::banks` (checkable against a
//!   [`BankedMcam::search_batch_winners_with`] masked to them). The
//!   policy knob [`ServeConfig::degraded_policy`] picks fail-open (default:
//!   return the partial answer with its coverage) or fail-closed
//!   (reject with [`ServeError::Degraded`]). Routed searches whose
//!   banks all live on quarantined shards fall back to a full sweep
//!   of the surviving shards. A poisoned router lock degrades to full
//!   fan-out (a recall-safe superset) instead of panicking clients.
//! * **Quarantine is not a grave.** Shard health is a five-edge state
//!   machine:
//!
//!   ```text
//!   Healthy ──missed shard deadline──▶ Degraded
//!   Healthy | Degraded ──dispatcher gone──▶ Quarantined
//!   Quarantined ──probe supervisor wins CAS──▶ Probing
//!   Probing ──canary bit-identical──▶ Healthy
//!   Probing ──probe failed──▶ Quarantined
//!   ```
//!
//!   The first three edges are monotone escalations any client thread
//!   may publish (lock-free `fetch_max`; `Probing` is encoded above
//!   `Quarantined`, so a racing client can never stomp a resurrection
//!   in flight). The last three are guarded compare-and-swap
//!   transitions owned by exactly one prober at a time: the supervisor
//!   ([`ServeConfig::probe_interval`], or an explicit
//!   [`ShardedServer::try_readmit`]) reclaims the quarantined shard's
//!   banks from the dead dispatcher, spawns a replacement dispatcher,
//!   and re-admits it **only** behind the canary rule: the
//!   replacement's answers to the probe suite — resident rows,
//!   near-miss perturbations of them, and top-k replays deep enough to
//!   straddle a bank boundary — must be bit-identical (`f64::to_bits`
//!   on every returned conductance) to a direct-sweep oracle computed
//!   on the reclaimed memory itself, failing closed on any shape
//!   mismatch. Any probe failure — injected fault, unrecoverable
//!   memory, canary mismatch, lost ownership — returns the shard to
//!   `Quarantined` for a later retry and counts in
//!   [`ShardedStats::probe_failures`]. While a shard is quarantined
//!   its routed bank subsets are **re-placed** onto live shards (an
//!   overlay on the router, never a bucket rewrite), so routed traffic
//!   keeps its narrow fan-out instead of widening to a full sweep; a
//!   successful re-admit undoes the overlay exactly. Transition counts
//!   are monotone and observable: [`ShardedStats`] `degraded` /
//!   `quarantined` / `readmitted` / `probe_failures`.
//!
//! Error precedence: a request whose own deadline has already expired
//! reports [`ServeError::DeadlineExceeded`] even when the topology is
//! simultaneously degraded — request-validity errors outrank topology
//! errors, so callers can tell "your budget was too small" from "the
//! fleet is sick".
//!
//! Error taxonomy: [`ServeError::Overloaded`] (admission),
//! [`ServeError::DeadlineExceeded`] (the request's own budget),
//! [`ServeError::ShuttingDown`] (orderly exit),
//! [`ServeError::DispatcherFailed`] (a crash was absorbed on the
//! request's behalf), [`ServeError::Degraded`] (partial coverage
//! under fail-closed policy, or no live shard at all), and
//! [`ServeError::Core`] (the search itself failed). Everything maps
//! onto `femcam_core::CoreError` for engine-trait callers.
//!
//! # Concurrency model
//!
//! Every lock in the serving stack is a [`femcam_core::sync`] wrapper
//! constructed with a **site name**; debug builds (and release builds
//! with the `lockorder` feature) record the acquisition-order graph
//! across sites and panic on the first cycle, naming both sites. The
//! lock hierarchy is deliberately flat:
//!
//! - `shard.slot` (a shard's dispatcher slot, held across
//!   shutdown/respawn during a probe) may nest `shard.cell` (the
//!   topology's per-shard handle `RwLock`, written to publish the
//!   replacement) and `serve.oneshot` (canary replays wait on their
//!   tickets while the slot is held).
//! - Every other site — `serve.stats`, `serve.fault.rng`,
//!   `shard.router`, `core.plan_cache.*`, `serve.nn.last_coverage` —
//!   is a **leaf**: nothing else is acquired while it is held.
//!
//! Anything outside that order is a regression; the chaos and storm
//! suites assert zero cycle reports
//! ([`femcam_core::sync::cycle_report_count`]) after every scenario.
//!
//! Atomics carry narrow roles, each justified by an `// ORDERING:`
//! comment at the use site (enforced by the `femcam-lint` workspace
//! gate): a dispatcher's failed flag is the only acquire/release pair
//! a client decision rides on; restart, admission-depth, and stats
//! counters are relaxed, ordered — where a test or caller needs
//! ordering — by the one-shot ticket mutex they are read behind or by
//! a thread join. The restart counter is bumped **before** the failed
//! window's answers are published, so any client observing
//! [`ServeError::DispatcherFailed`] already sees its restart counted
//! (and a tripped breaker's failed flag). The dispatcher's hot loop
//! (`fn dispatch` in this file) never reads the clock directly: window
//! timing goes through the `Window` helpers, and the `femcam-lint`
//! rule `instant_in_dispatch` keeps it that way.
//!
//! # Example
//!
//! ```
//! use femcam_core::{BankedMcam, ConductanceLut, LevelLadder, Precision};
//! use femcam_device::FefetModel;
//! use femcam_serve::{ServeConfig, ShardedServer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ladder = LevelLadder::new(3)?;
//! let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
//! let mut memory = BankedMcam::new(ladder, lut, 4, 2);
//! for row in [[0u8, 1, 2, 3], [7, 7, 7, 7], [1, 1, 2, 3]] {
//!     memory.store(&row)?;
//! }
//! // Two banks, one per shard: searches fan out to both and merge.
//! let server = ShardedServer::start(memory, 2, ServeConfig::default());
//! let handle = server.handle();
//! let (row, _conductance) = handle.submit(&[1, 1, 2, 3])?.wait()?;
//! assert_eq!(row, 2);
//! // Writes go through the tail shard's dispatcher; later searches
//! // see them.
//! let new_row = handle.store(&[4, 4, 4, 4])?;
//! assert_eq!(handle.submit(&[4, 4, 4, 4])?.wait()?.0, new_row);
//! let memory = server.shutdown()?; // reassembles the live memory
//! assert_eq!(memory.n_rows(), 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The serving stack's failure model forbids panicking on client or
// dispatcher threads: every `unwrap`/`expect` in library code needs an
// explicit, justified allow (CI runs clippy with `-D warnings`).
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

#[cfg(feature = "chaos")]
pub mod fault;
mod health;
mod nn;
mod shard;
mod stats;

pub use health::{Coverage, Covered, DegradedPolicy, ShardHealth};
pub use nn::ServedNn;
pub use shard::{ShardTicket, ShardTopKTicket, ShardedHandle, ShardedServer, ShardedStats};
pub use stats::ServeStats;

use std::error::Error;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, PoisonError};

use femcam_core::sync::{Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use femcam_core::exec::validate_query;
use femcam_core::{
    par, BankedMcam, CoreError, Metric, PlanMemoryBytes, Precision, SearchSpec, N_METRICS,
};

use health::RestartBreaker;
use stats::StatsInner;

/// Configuration of a [`ShardedServer`]. Dispatcher settings apply to
/// every shard's dispatcher; the merge settings (`shard_timeout`,
/// `degraded_policy`, `probe_interval`) to the front end.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Upper bound on queries per executed micro-batch (default 64 —
    /// the regime where the compiled executor's batch amortization has
    /// saturated on the benchmark geometry).
    pub max_batch: usize,
    /// Upper bound on how long a dispatcher holds an open batch
    /// window waiting for more queries (default 200 µs). Smaller
    /// trades achieved batch size for tail latency.
    pub max_wait: Duration,
    /// Execution precision of every served search (default
    /// [`Precision::F64`], bit-identical to the scalar physics path).
    pub precision: Precision,
    /// Admission-control capacity of each shard: the maximum number of
    /// searches queued or executing on it before
    /// [`ShardedHandle::submit`] rejects. `None` (the default) derives
    /// it from the work-proportional worker count — see the
    /// [module-level "Backpressure policy"](self#serving).
    pub queue_capacity: Option<usize>,
    /// Optional resident-plan-memory budget in bytes; reported against
    /// the live [`BankedMcam::plan_memory_bytes`] by
    /// [`ShardedHandle::memory_report`].
    pub plan_budget_bytes: Option<usize>,
    /// How many dispatcher self-heals (panic → recover → restart) are
    /// tolerated within [`restart_window`](Self::restart_window)
    /// before the circuit breaker trips the shard into its terminal
    /// failed state (default 8). See the
    /// [module-level "Failure model"](self#failure-model).
    pub restart_budget: usize,
    /// Sliding window the restart budget applies over (default 1 s).
    pub restart_window: Duration,
    /// Per-shard merge deadline: a shard that has not answered a
    /// fanned request within this budget loses its contribution (the
    /// merge completes over the survivors, with the loss recorded in
    /// the result's [`Coverage`]). `None` (default) waits indefinitely.
    pub shard_timeout: Option<Duration>,
    /// What a merge does when coverage is incomplete: return the
    /// partial answer with its [`Coverage`] (fail-open, default) or
    /// reject with [`ServeError::Degraded`] (fail-closed).
    pub degraded_policy: DegradedPolicy,
    /// How often the probe supervisor sweeps for quarantined shards to
    /// resurrect (reclaim the dead dispatcher's memory, canary-validate
    /// a replacement, re-admit — see the
    /// [module-level "Failure model"](self#failure-model)). `None`
    /// (the default) spawns no supervisor thread; quarantined shards
    /// then return only through explicit
    /// [`ShardedServer::try_readmit`] /
    /// [`ShardedServer::readmit_quarantined`] calls.
    pub probe_interval: Option<Duration>,
    /// Fault-injection schedule installed on server start (chaos
    /// testing only — see [`fault`]). `None` injects nothing.
    #[cfg(feature = "chaos")]
    pub faults: Option<fault::FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 64,
            max_wait: Duration::from_micros(200),
            precision: Precision::F64,
            queue_capacity: None,
            plan_budget_bytes: None,
            restart_budget: 8,
            restart_window: Duration::from_secs(1),
            shard_timeout: None,
            degraded_policy: DegradedPolicy::FailOpen,
            probe_interval: None,
            #[cfg(feature = "chaos")]
            faults: None,
        }
    }
}

/// Queued-or-executing backlog (in full batches per worker) at which
/// admission control rejects: beyond this, added queue depth only adds
/// wait time, never throughput.
const QUEUE_SLACK_BATCHES: usize = 2;

/// Errors surfaced to serving clients.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// Admission control rejected the request: the queue already holds
    /// as much work as the executor can usefully absorb.
    Overloaded {
        /// Searches queued or executing at rejection time.
        depth: usize,
        /// The admission capacity in effect.
        capacity: usize,
    },
    /// The server is shutting down (or its dispatcher has exited); the
    /// request was not executed.
    ShuttingDown,
    /// The request's deadline passed before the dispatcher could
    /// execute it (it was dead on arrival at the dispatcher, or its
    /// budget was zero at submission); no search was run on its
    /// behalf.
    DeadlineExceeded {
        /// The budget the request was submitted with.
        budget: Duration,
        /// How long the request actually sat queued before rejection.
        waited: Duration,
    },
    /// The dispatcher panicked while this request was in flight (the
    /// panic was caught; the request was answered instead of
    /// stranded), or the restart circuit breaker has tripped and the
    /// server is in its terminal failed state. See the
    /// [module-level "Failure model"](self#failure-model).
    DispatcherFailed {
        /// The panic payload message, or the breaker-trip reason.
        detail: String,
    },
    /// A sharded merge completed with incomplete coverage (a shard was
    /// quarantined or timed out) and the server's
    /// [`DegradedPolicy::FailClosed`] policy refused the partial
    /// answer. Under the default fail-open policy this error is only
    /// produced when **no** shard answered at all.
    Degraded {
        /// Banks that contributed to the merge.
        searched: usize,
        /// Banks the request intended to search.
        total: usize,
    },
    /// The underlying search or store failed.
    Core(CoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth, capacity } => write!(
                f,
                "serving queue at capacity ({depth} in flight, capacity {capacity})"
            ),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::DeadlineExceeded { budget, waited } => write!(
                f,
                "deadline exceeded before execution (budget {budget:?}, waited {waited:?})"
            ),
            ServeError::DispatcherFailed { detail } => {
                write!(f, "serving dispatcher failed: {detail}")
            }
            ServeError::Degraded { searched, total } => {
                write!(f, "degraded coverage: searched {searched} of {total} banks")
            }
            ServeError::Core(e) => write!(f, "search failed: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<ServeError> for CoreError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Core(e) => e,
            ServeError::Overloaded { .. } => CoreError::Unavailable {
                reason: "serving queue at capacity",
            },
            ServeError::ShuttingDown => CoreError::Unavailable {
                reason: "server shutting down",
            },
            ServeError::DeadlineExceeded { .. } => CoreError::Unavailable {
                reason: "request deadline exceeded before execution",
            },
            ServeError::DispatcherFailed { .. } => CoreError::Unavailable {
                reason: "serving dispatcher failed",
            },
            ServeError::Degraded { searched, total } => CoreError::Degraded { searched, total },
        }
    }
}

/// Live snapshot of the served memory's resident compiled-plan bytes,
/// taken on the dispatcher thread (so it can never race a store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryReport {
    /// Rows currently stored.
    pub rows: usize,
    /// Banks currently allocated.
    pub banks: usize,
    /// Cells per stored word.
    pub word_len: usize,
    /// Resident bytes of the cached compiled plans, per precision slot.
    pub plan: PlanMemoryBytes,
    /// The configured budget ([`ServeConfig::plan_budget_bytes`]).
    pub budget_bytes: Option<usize>,
}

impl MemoryReport {
    /// Total resident plan bytes across all precision slots.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.plan.total()
    }

    /// `true` when a budget is configured and the resident plans
    /// exceed it — the node should stop absorbing rows (or switch to a
    /// cheaper precision mode).
    #[must_use]
    pub fn over_budget(&self) -> bool {
        self.budget_bytes
            .is_some_and(|budget| self.plan.total() > budget)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One-shot result slot a waiter blocks on. `asleep` is set by the
/// waiter, under the slot mutex, just before it blocks on the condvar
/// (and cleared whenever it re-checks the slot): a publisher that finds
/// it unset knows the waiter will read the answer before it ever
/// sleeps, and skips the notify.
#[derive(Debug)]
enum SlotState<T> {
    Pending { asleep: bool },
    Done(Result<T, ServeError>),
    Abandoned,
}

#[derive(Debug)]
struct OneShot<T> {
    state: Mutex<SlotState<T>>,
    cv: Condvar,
}

impl<T> OneShot<T> {
    fn wait(&self) -> Result<T, ServeError> {
        let mut st = lock(&self.state);
        loop {
            match std::mem::replace(&mut *st, SlotState::Pending { asleep: false }) {
                SlotState::Done(r) => return r,
                SlotState::Abandoned => return Err(ServeError::ShuttingDown),
                SlotState::Pending { .. } => {
                    *st = SlotState::Pending { asleep: true };
                    st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// [`wait`](Self::wait) with an absolute give-up instant: `None`
    /// means the slot was still pending at `deadline` (the waiter
    /// abandons it — a later fulfillment lands in a slot nobody reads,
    /// which is harmless).
    fn wait_deadline(&self, deadline: Instant) -> Option<Result<T, ServeError>> {
        let mut st = lock(&self.state);
        loop {
            match std::mem::replace(&mut *st, SlotState::Pending { asleep: false }) {
                SlotState::Done(r) => return Some(r),
                SlotState::Abandoned => return Some(Err(ServeError::ShuttingDown)),
                SlotState::Pending { .. } => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    *st = SlotState::Pending { asleep: true };
                    let (guard, _timed_out) = self
                        .cv
                        .wait_timeout(st, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    st = guard;
                }
            }
        }
    }

    /// Settles the slot (its one write) and reports whether the waiter
    /// was asleep on it — the only case that needs a notify.
    fn settle(&self, state: SlotState<T>) -> bool {
        let prior = std::mem::replace(&mut *lock(&self.state), state);
        matches!(prior, SlotState::Pending { asleep: true })
    }
}

/// A slot whose waiter is asleep, type-erased so one window's winner
/// and top-k answers share a single [`Wake`] list.
trait Sleeper {
    fn wake(&self);
}

impl<T> Sleeper for OneShot<T> {
    fn wake(&self) {
        self.cv.notify_all();
    }
}

/// The wake half of a [`Responder::publish`]: dropping it notifies the
/// waiter — after the slot mutex is released, and only if the waiter
/// was asleep when the answer landed. Because the notify lives in
/// `Drop`, an unwind between publish and wake still wakes everyone.
#[must_use = "dropping a Wake is what wakes its waiter"]
struct Wake {
    sleeper: Option<Arc<dyn Sleeper>>,
}

impl Wake {
    /// `true` when this answer's waiter is asleep and the drop will
    /// notify it.
    fn wakes_sleeper(&self) -> bool {
        self.sleeper.is_some()
    }
}

impl Drop for Wake {
    fn drop(&mut self) {
        if let Some(sleeper) = self.sleeper.take() {
            sleeper.wake();
        }
    }
}

/// The dispatcher-side half of a one-shot: publishing into it answers
/// the waiter (the returned [`Wake`] wakes it if it sleeps); dropping
/// it unpublished (dispatcher exit) wakes the waiter with
/// [`ServeError::ShuttingDown`] — a request can never strand its
/// client.
#[derive(Debug)]
struct Responder<T> {
    slot: Arc<OneShot<T>>,
    done: bool,
}

impl<T: 'static> Responder<T> {
    fn new() -> (Responder<T>, Arc<OneShot<T>>) {
        let slot = Arc::new(OneShot {
            state: Mutex::new("serve.oneshot", SlotState::Pending { asleep: false }),
            cv: Condvar::new(),
        });
        (
            Responder {
                slot: Arc::clone(&slot),
                done: false,
            },
            slot,
        )
    }

    /// Writes the answer under the slot mutex and hands back the wake:
    /// a window publishes every answer first and wakes the sleepers
    /// once, after it has published the last one.
    fn publish(mut self, result: Result<T, ServeError>) -> Wake {
        self.done = true;
        let asleep = self.slot.settle(SlotState::Done(result));
        Wake {
            sleeper: asleep.then(|| Arc::clone(&self.slot) as Arc<dyn Sleeper>),
        }
    }

    /// Publishes and wakes at once: the single-request paths (store
    /// ack, report, dead-on-arrival reject, exit drain).
    fn fulfill(self, result: Result<T, ServeError>) {
        drop(self.publish(result));
    }
}

impl<T> Drop for Responder<T> {
    fn drop(&mut self) {
        if !self.done && self.slot.settle(SlotState::Abandoned) {
            self.slot.wake();
        }
    }
}

/// A shard's in-flight search: waits on the dispatcher's answer — a
/// `(local_row, total_conductance)` winner or a top-k hit list.
#[derive(Debug)]
pub(crate) struct Ticket<T> {
    slot: Arc<OneShot<T>>,
    /// Banks the shard held at submission — what its answer covers.
    banks: usize,
}

impl<T> Ticket<T> {
    /// Blocks until the dispatcher answers this request.
    pub(crate) fn wait(self) -> Result<T, ServeError> {
        self.slot.wait()
    }

    /// [`wait`](Self::wait) with an absolute give-up instant; `None`
    /// abandons the ticket still unanswered.
    pub(crate) fn wait_deadline(self, deadline: Instant) -> Option<Result<T, ServeError>> {
        self.slot.wait_deadline(deadline)
    }

    /// Banks the shard held at submission.
    pub(crate) fn banks_count(&self) -> usize {
        self.banks
    }
}

/// A queued winner search (one entry of a batching window).
struct PendingSearch {
    query: Vec<u8>,
    metric: Metric,
    submitted: Instant,
    deadline: Option<Instant>,
    responder: Responder<(usize, f64)>,
}

/// A queued top-k search (one entry of a batching window).
struct PendingTopK {
    query: Vec<u8>,
    k: usize,
    metric: Metric,
    submitted: Instant,
    deadline: Option<Instant>,
    responder: Responder<Vec<(usize, f64)>>,
}

enum Request {
    Search(PendingSearch),
    TopK(PendingTopK),
    Store {
        word: Vec<u8>,
        responder: Responder<usize>,
    },
    Report {
        responder: Responder<MemoryReport>,
    },
    Shutdown,
}

#[derive(Debug)]
struct Shared {
    /// Searches queued or executing (admission-control state).
    depth: AtomicUsize,
    capacity: usize,
    word_len: usize,
    n_levels: usize,
    /// Submissions rejected by admission control. Atomic (not under
    /// `stats`) so a rejection storm — the moment the dispatcher is
    /// busiest — never contends the mutex its hot loop takes.
    rejected: AtomicU64,
    /// Requests rejected because their deadline passed unexecuted.
    deadline_rejected: AtomicU64,
    /// Batch answers whose waiter was asleep when published, so the
    /// dispatcher had to wake it (atomic for the same reason as
    /// `rejected`).
    woken: AtomicU64,
    stats: Mutex<StatsInner>,
    started: Instant,
    /// Banks the served memory currently holds (maintained by the
    /// dispatcher after each store) — the denominator of full
    /// [`Coverage`] records.
    n_banks: AtomicUsize,
    /// Dispatcher self-heals so far (caught panic → restart).
    restarts: AtomicU64,
    /// Terminal failed state: the restart circuit breaker tripped.
    failed: AtomicBool,
    /// Installed fault-injection schedule (chaos testing).
    #[cfg(feature = "chaos")]
    faults: Option<fault::FaultPlan>,
}

/// Cloneable client handle to one shard's running [`McamServer`]. The
/// front end ([`ShardedHandle`]) validates queries, reserves admission
/// slots across every contacted shard, then enqueues.
#[derive(Debug, Clone)]
pub(crate) struct ServeHandle {
    tx: Sender<Request>,
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Enqueues a (validated) winner search whose admission slot the
    /// caller already holds (a failed send releases it).
    pub(crate) fn enqueue_search(
        &self,
        query: &[u8],
        deadline: Option<Instant>,
        metric: Metric,
    ) -> Result<Ticket<(usize, f64)>, ServeError> {
        self.enqueue(|responder| {
            Request::Search(PendingSearch {
                query: query.to_vec(),
                metric,
                submitted: Instant::now(),
                deadline,
                responder,
            })
        })
    }

    /// Top-k face of [`enqueue_search`](Self::enqueue_search).
    pub(crate) fn enqueue_top_k(
        &self,
        query: &[u8],
        k: usize,
        deadline: Option<Instant>,
        metric: Metric,
    ) -> Result<Ticket<Vec<(usize, f64)>>, ServeError> {
        self.enqueue(|responder| {
            Request::TopK(PendingTopK {
                query: query.to_vec(),
                k,
                metric,
                submitted: Instant::now(),
                deadline,
                responder,
            })
        })
    }

    fn enqueue<T: 'static>(
        &self,
        request: impl FnOnce(Responder<T>) -> Request,
    ) -> Result<Ticket<T>, ServeError> {
        let (responder, slot) = Responder::new();
        // ORDERING: Relaxed — advisory bank count for the ticket's
        // coverage record; the dispatcher's answer (ordered by the
        // channel + one-shot mutex) is authoritative.
        let banks = self.shared.n_banks.load(Ordering::Relaxed);
        if self.tx.send(request(responder)).is_err() {
            self.release_slot();
            return Err(exit_error(&self.shared));
        }
        Ok(Ticket { slot, banks })
    }

    /// Releases one admission slot reserved by
    /// [`admit`](Self::admit) without enqueueing a request (the
    /// front end reserves across every shard before sending anywhere,
    /// and must roll back on a partial reservation).
    pub(crate) fn release_slot(&self) {
        // ORDERING: Relaxed — the admission gate is the `fetch_update`
        // in `admit`; the counter's atomicity alone bounds the queue,
        // no memory is published under a slot release.
        self.shared.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Admit-or-reject atomically: a check-then-increment would let
    /// concurrent submitters race past the capacity bound together.
    /// A terminally-failed shard rejects everything with
    /// [`ServeError::DispatcherFailed`].
    pub(crate) fn admit(&self) -> Result<(), ServeError> {
        // ORDERING: Acquire pairs with the Release store in
        // `note_restart`: a client that observes the terminal flag
        // also observes the restart count that tripped it.
        if self.shared.failed.load(Ordering::Acquire) {
            return Err(exit_error(&self.shared));
        }
        #[cfg(feature = "chaos")]
        if let Some(plan) = &self.shared.faults {
            // Forced overload at admission; other kinds are harmless
            // here (a client thread must never panic on injection).
            match plan.sample(fault::FaultSite::Admission) {
                Some(fault::FaultKind::Overload) => {
                    // ORDERING: Relaxed — stats counter + advisory
                    // depth snapshot for the error message.
                    self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Overloaded {
                        depth: self.shared.depth.load(Ordering::Relaxed),
                        capacity: self.shared.capacity,
                    });
                }
                Some(fault::FaultKind::Delay(d)) => std::thread::sleep(d),
                Some(fault::FaultKind::Panic) | None => {}
            }
        }
        // ORDERING: Relaxed — the capacity bound needs only the RMW's
        // atomicity (concurrent admits serialize on the CAS loop); no
        // payload is published through `depth`.
        let admitted =
            self.shared
                .depth
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |depth| {
                    (depth < self.shared.capacity).then_some(depth + 1)
                });
        if let Err(depth) = admitted {
            // ORDERING: Relaxed — monotone stats counter.
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                depth,
                capacity: self.shared.capacity,
            });
        }
        Ok(())
    }

    /// Stores one word through the dispatcher and blocks until it is
    /// applied; returns the new shard-local row index. Stores bypass
    /// admission control (a write must not be silently dropped) but
    /// share the dispatcher queue, which is what keeps plan-cache
    /// invalidation race-free and gives the barrier ordering described
    /// in the [module docs](self#serving). An injected or real store
    /// panic is caught *before* the word is applied — a failed store
    /// never half-mutates the memory.
    pub(crate) fn store(&self, word: &[u8]) -> Result<usize, ServeError> {
        validate_query(self.shared.word_len, self.shared.n_levels, word)?;
        let (responder, slot) = Responder::new();
        self.tx
            .send(Request::Store {
                word: word.to_vec(),
                responder,
            })
            .map_err(|_| exit_error(&self.shared))?;
        slot.wait()
    }

    /// Live plan-memory report, taken on the dispatcher thread.
    pub(crate) fn memory_report(&self) -> Result<MemoryReport, ServeError> {
        let (responder, slot) = Responder::new();
        self.tx
            .send(Request::Report { responder })
            .map_err(|_| exit_error(&self.shared))?;
        slot.wait()
    }

    /// Snapshot of the dispatcher's serving statistics (wait
    /// percentiles, achieved batch size, throughput) since it started.
    pub(crate) fn stats(&self) -> ServeStats {
        // Copy the raw counters under the lock, then compute the
        // percentile sort after releasing it — never stall the
        // dispatcher's per-batch stats update on a snapshot.
        let inner = lock(&self.shared.stats).clone();
        // ORDERING: Relaxed — a stats snapshot tolerates counters read
        // at slightly different instants; each is individually recent.
        // `restarts` needs no edge of its own: `note_restart` counts a
        // batch's restart before any of its answers is published, and the
        // waiter's one-shot mutex hand-off orders that count before
        // this load.
        stats::snapshot(
            &inner,
            self.shared.rejected.load(Ordering::Relaxed),
            self.shared.deadline_rejected.load(Ordering::Relaxed),
            self.shared.woken.load(Ordering::Relaxed),
            self.shared.started.elapsed(),
            self.shared.depth.load(Ordering::Relaxed),
            self.shared.capacity,
            self.shared.restarts.load(Ordering::Relaxed),
            self.is_failed(),
        )
    }

    /// Banks the served memory holds right now (maintained by the
    /// dispatcher after every store) — what the front end charges as
    /// lost coverage when this shard cannot answer.
    pub(crate) fn banks_snapshot(&self) -> usize {
        // ORDERING: Relaxed — see `enqueue`'s coverage note.
        self.shared.n_banks.load(Ordering::Relaxed)
    }

    /// `true` once the restart circuit breaker tripped: the dispatcher
    /// is terminally failed and rejects every request with
    /// [`ServeError::DispatcherFailed`] (the memory is still
    /// recoverable through [`McamServer::shutdown`]).
    pub(crate) fn is_failed(&self) -> bool {
        // ORDERING: Acquire pairs with `note_restart`'s Release store
        // — observing the trip also observes the final restart count.
        self.shared.failed.load(Ordering::Acquire)
    }
}

/// One shard's micro-batching server: owns the dispatcher thread,
/// which owns the shard's [`BankedMcam`]. See the [module
/// docs](self#serving) for the serving model.
#[derive(Debug)]
pub(crate) struct McamServer {
    handle: ServeHandle,
    dispatcher: Option<JoinHandle<BankedMcam>>,
}

impl McamServer {
    /// Starts the dispatcher thread around `memory`.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch` is zero or the dispatcher thread
    /// cannot be spawned.
    pub(crate) fn start(memory: BankedMcam, config: ServeConfig) -> Self {
        assert!(config.max_batch > 0, "max_batch must be at least 1");
        let capacity = config
            .queue_capacity
            .unwrap_or_else(|| auto_capacity(&memory, &config));
        let shared = Arc::new(Shared {
            depth: AtomicUsize::new(0),
            capacity: capacity.max(1),
            word_len: memory.word_len(),
            n_levels: memory.ladder().n_levels(),
            rejected: AtomicU64::new(0),
            deadline_rejected: AtomicU64::new(0),
            woken: AtomicU64::new(0),
            stats: Mutex::new("serve.stats", StatsInner::default()),
            started: Instant::now(),
            n_banks: AtomicUsize::new(memory.n_banks()),
            restarts: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            #[cfg(feature = "chaos")]
            faults: config.faults.clone(),
        });
        let (tx, rx) = mpsc::channel();
        let dispatcher_shared = Arc::clone(&shared);
        // femcam::allow(no_panic): a documented startup panic, not a
        // runtime panic path — the server cannot exist without its
        // dispatcher thread.
        #[allow(clippy::expect_used)]
        let dispatcher = std::thread::Builder::new()
            .name("femcam-serve".into())
            .spawn(move || dispatch(memory, &rx, &dispatcher_shared, &config))
            .expect("spawn serving dispatcher");
        McamServer {
            handle: ServeHandle { tx, shared },
            dispatcher: Some(dispatcher),
        }
    }

    /// A cloneable client handle.
    pub(crate) fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Stops the dispatcher (already-queued requests are answered with
    /// [`ServeError::ShuttingDown`]) and returns the live memory. A
    /// dispatcher whose restart breaker tripped (terminal `Failed`
    /// state) still exits cleanly here and hands back its recovered
    /// memory.
    ///
    /// # Errors
    ///
    /// [`ServeError::DispatcherFailed`] if the dispatcher thread died
    /// outside its supervised region (the memory is lost with it).
    pub(crate) fn shutdown(mut self) -> Result<BankedMcam, ServeError> {
        let _ = self.handle.tx.send(Request::Shutdown);
        let Some(dispatcher) = self.dispatcher.take() else {
            return Err(ServeError::ShuttingDown);
        };
        dispatcher.join().map_err(|_| ServeError::DispatcherFailed {
            detail: "dispatcher thread died outside supervision".into(),
        })
    }
}

impl Drop for McamServer {
    fn drop(&mut self) {
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = self.handle.tx.send(Request::Shutdown);
            let _ = dispatcher.join();
        }
    }
}

/// The default admission capacity: enough queue depth to keep every
/// earned worker [`QUEUE_SLACK_BATCHES`] full batches deep, and never
/// below one full batch. `par::batch_threads` is work-proportional, so
/// this is the depth at which the executor is saturated — see the
/// [module-level "Backpressure policy"](self#serving).
fn auto_capacity(memory: &BankedMcam, config: &ServeConfig) -> usize {
    let per_query_work = memory
        .n_rows()
        .max(memory.rows_per_bank())
        .saturating_mul(memory.word_len())
        .max(1);
    let workers = par::batch_threads(config.max_batch, per_query_work, par::max_threads());
    workers
        .saturating_mul(config.max_batch)
        .saturating_mul(QUEUE_SLACK_BATCHES)
        .max(config.max_batch)
}

/// One open batching window: the winner and top-k searches collected
/// so far, the latest instant the window may stay open, and the
/// earliest per-request deadline among the collected searches.
///
/// The window helpers below are the only clock reads the dispatcher's
/// wait loop is allowed (the `femcam-lint` `instant-in-dispatch` rule
/// pins this): batching-delay policy lives here, not inline in
/// [`dispatch`].
struct Window {
    searches: Vec<PendingSearch>,
    topks: Vec<PendingTopK>,
    /// `max_wait` past the instant the window opened: the window
    /// closes by then even if no request carries a deadline.
    closes_by: Instant,
    earliest_deadline: Option<Instant>,
}

impl Window {
    /// Opens a window: it admits at most `max_batch` requests and
    /// closes no later than `max_wait` from now.
    fn open(max_batch: usize, max_wait: Duration) -> Self {
        Window {
            searches: Vec::with_capacity(max_batch),
            topks: Vec::new(),
            closes_by: Instant::now() + max_wait,
            earliest_deadline: None,
        }
    }

    fn len(&self) -> usize {
        self.searches.len() + self.topks.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn note_deadline(&mut self, deadline: Option<Instant>) {
        if let Some(d) = deadline {
            self.earliest_deadline = Some(match self.earliest_deadline {
                Some(e) => e.min(d),
                None => d,
            });
        }
    }

    /// The instant this window must close: `max_wait` after it opened,
    /// or the earliest pending per-request deadline, whichever is
    /// sooner.
    fn close_at(&self) -> Instant {
        match self.earliest_deadline {
            Some(d) => d.min(self.closes_by),
            None => self.closes_by,
        }
    }

    /// Time the dispatcher may still wait for this window to fill —
    /// [`window_timeout`] against the current clock. `None` means the
    /// window is due: execute the batch, never re-arm the wait.
    fn timeout(&self) -> Option<Duration> {
        window_timeout(self.close_at(), Instant::now())
    }
}

/// Deadline gate for a popped request: hands the responder back when
/// the request is still live, or rejects it (dead on arrival at the
/// dispatcher — its deadline passed while it sat queued) and returns
/// `None`.
fn live_or_reject<T: 'static>(
    deadline: Option<Instant>,
    submitted: Instant,
    now: Instant,
    responder: Responder<T>,
    shared: &Shared,
) -> Option<Responder<T>> {
    match deadline {
        Some(d) if d <= now => {
            // ORDERING: Relaxed — slot release (atomicity only, see
            // `release_slot`) plus a monotone stats counter.
            shared.depth.fetch_sub(1, Ordering::Relaxed);
            shared.deadline_rejected.fetch_add(1, Ordering::Relaxed);
            responder.fulfill(Err(ServeError::DeadlineExceeded {
                budget: d.saturating_duration_since(submitted),
                waited: now.saturating_duration_since(submitted),
            }));
            None
        }
        _ => Some(responder),
    }
}

/// Adds a popped search to the window, unless it is dead on arrival.
fn push_search(window: &mut Window, search: PendingSearch, shared: &Shared) {
    let PendingSearch {
        query,
        metric,
        submitted,
        deadline,
        responder,
    } = search;
    if let Some(responder) = live_or_reject(deadline, submitted, Instant::now(), responder, shared)
    {
        window.note_deadline(deadline);
        window.searches.push(PendingSearch {
            query,
            metric,
            submitted,
            deadline,
            responder,
        });
    }
}

/// Adds a popped top-k request to the window, unless it is dead on
/// arrival.
fn push_topk(window: &mut Window, topk: PendingTopK, shared: &Shared) {
    let PendingTopK {
        query,
        k,
        metric,
        submitted,
        deadline,
        responder,
    } = topk;
    if let Some(responder) = live_or_reject(deadline, submitted, Instant::now(), responder, shared)
    {
        window.note_deadline(deadline);
        window.topks.push(PendingTopK {
            query,
            k,
            metric,
            submitted,
            deadline,
            responder,
        });
    }
}

/// Time remaining until the batch window must close, or `None` when
/// the close instant has already arrived. The dispatcher breaks out of
/// its wait loop on `None` and executes the batch — it must **never**
/// re-arm `recv_timeout` with a zero timeout, which would spin the
/// wait loop at full CPU until some request happened to land.
fn window_timeout(close_at: Instant, now: Instant) -> Option<Duration> {
    let remaining = close_at.saturating_duration_since(now);
    (!remaining.is_zero()).then_some(remaining)
}

/// The dispatcher loop: the only code that touches `memory` while the
/// server runs. Returns the memory on shutdown.
///
/// Batch execution and the store path run under `catch_unwind`
/// supervision: a panic mid-batch is converted into
/// [`ServeError::DispatcherFailed`] for every in-flight waiter and the
/// loop restarts in place with the memory it still owns. Restarts are
/// rate-limited by a [`RestartBreaker`]; exhausting the budget
/// transitions the server to a terminal `Failed` state (new and queued
/// requests are answered with the failure) instead of crash-looping.
fn dispatch(
    mut memory: BankedMcam,
    rx: &Receiver<Request>,
    shared: &Shared,
    config: &ServeConfig,
) -> BankedMcam {
    let mut breaker = RestartBreaker::new(config.restart_budget, config.restart_window);
    let mut leftover: Option<Request> = None;
    'serve: loop {
        let Ok(first) = rx.recv() else {
            break 'serve; // every handle dropped
        };
        // A window may close because a non-search request arrived; that
        // request is handled right after the batch it interrupted.
        let mut pending = Some(first);
        while let Some(request) = pending.take() {
            match request {
                Request::Shutdown => break 'serve,
                Request::Report { responder } => {
                    responder.fulfill(Ok(report(&memory, config)));
                }
                Request::Store { word, responder } => {
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        #[cfg(feature = "chaos")]
                        inject(shared, fault::FaultSite::Store);
                        memory.store(&word).map_err(ServeError::Core)
                    }));
                    match outcome {
                        Ok(result) => {
                            // ORDERING: Relaxed — advisory coverage
                            // denominator (see `ServeHandle::enqueue`); the
                            // store's result itself travels through
                            // the one-shot.
                            shared.n_banks.store(memory.n_banks(), Ordering::Relaxed);
                            responder.fulfill(result);
                            lock(&shared.stats).stores += 1;
                        }
                        Err(payload) => {
                            // Count the restart (and possibly trip the
                            // breaker) before waking the waiter: a
                            // client observing the failure must find
                            // the restart already on the books.
                            let tripped = note_restart(shared, &mut breaker);
                            responder.fulfill(Err(ServeError::DispatcherFailed {
                                detail: panic_detail(payload.as_ref()),
                            }));
                            if tripped {
                                break 'serve;
                            }
                        }
                    }
                }
                opener @ (Request::Search(_) | Request::TopK(_)) => {
                    let mut window = Window::open(config.max_batch, config.max_wait);
                    match opener {
                        Request::Search(s) => push_search(&mut window, s, shared),
                        Request::TopK(t) => push_topk(&mut window, t, shared),
                        _ => unreachable!("opener is a search"),
                    }
                    while !window.is_empty() && window.len() < config.max_batch {
                        let Some(timeout) = window.timeout() else {
                            break; // window due: execute, never spin
                        };
                        match rx.recv_timeout(timeout) {
                            Ok(Request::Search(s)) => push_search(&mut window, s, shared),
                            Ok(Request::TopK(t)) => push_topk(&mut window, t, shared),
                            // A store/report/shutdown closes the window
                            // (barrier ordering) and runs after this
                            // batch.
                            Ok(other) => {
                                pending = Some(other);
                                break;
                            }
                            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                                break
                            }
                        }
                    }
                    if let Err(BatchPanic { tripped }) =
                        execute_window(&memory, window, shared, config.precision, &mut breaker)
                    {
                        if tripped {
                            // Carry the interrupting request into the
                            // drain, so the breaker trip answers it
                            // too.
                            leftover = pending.take();
                            break 'serve;
                        }
                    }
                }
            }
        }
    }
    // Drain: answer anything still queued so no client blocks forever.
    // An orderly exit answers with `ShuttingDown`, a breaker-tripped
    // (terminal `Failed`) one with `DispatcherFailed`.
    if let Some(request) = leftover {
        answer_exit(request, shared);
    }
    while let Ok(request) = rx.try_recv() {
        answer_exit(request, shared);
    }
    memory
}

/// The error a dispatcher that is no longer serving hands out:
/// [`ServeError::DispatcherFailed`] in the terminal `Failed` state,
/// [`ServeError::ShuttingDown`] on an orderly exit.
fn exit_error(shared: &Shared) -> ServeError {
    // ORDERING: Acquire — same pairing as `is_failed`.
    if shared.failed.load(Ordering::Acquire) {
        ServeError::DispatcherFailed {
            detail: "restart budget exhausted; server is in terminal failed state".into(),
        }
    } else {
        ServeError::ShuttingDown
    }
}

/// Answers one drained request with the dispatcher's exit error.
fn answer_exit(request: Request, shared: &Shared) {
    match request {
        // ORDERING: Relaxed — slot releases; see `release_slot`.
        Request::Search(PendingSearch { responder, .. }) => {
            shared.depth.fetch_sub(1, Ordering::Relaxed);
            responder.fulfill(Err(exit_error(shared)));
        }
        Request::TopK(PendingTopK { responder, .. }) => {
            shared.depth.fetch_sub(1, Ordering::Relaxed);
            responder.fulfill(Err(exit_error(shared)));
        }
        Request::Store { responder, .. } => responder.fulfill(Err(exit_error(shared))),
        Request::Report { responder } => responder.fulfill(Err(exit_error(shared))),
        Request::Shutdown => {}
    }
}

/// Records one supervised dispatcher restart; returns `true` when the
/// restart-rate budget is exhausted and the server must transition to
/// its terminal `Failed` state instead of restarting again.
fn note_restart(shared: &Shared, breaker: &mut RestartBreaker) -> bool {
    // ORDERING: Relaxed — the count is published to waiters by the
    // one-shot mutex hand-off that answers them (publish happens after
    // this call), not by the counter itself.
    shared.restarts.fetch_add(1, Ordering::Relaxed);
    if breaker.record(Instant::now()) {
        // ORDERING: Release pairs with the Acquire loads in `admit`,
        // `is_failed`, and `exit_error`: observing the terminal flag
        // also observes the restart count incremented above.
        shared.failed.store(true, Ordering::Release);
        true
    } else {
        false
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "dispatcher panicked with a non-string payload".to_string()
    }
}

/// Samples the installed [`fault::FaultPlan`] at `site` and executes
/// whatever fault it injects (panic/delay) on the calling thread.
#[cfg(feature = "chaos")]
fn inject(shared: &Shared, site: fault::FaultSite) {
    if let Some(plan) = &shared.faults {
        if let Some(kind) = plan.sample(site) {
            fault::trigger_dispatcher_fault(kind);
        }
    }
}

/// Executes one collected micro-batch and fans the results out. The
/// window is grouped by per-request [`Metric`] — a window is almost
/// always uniform, so the grouping degenerates to one group. Each
/// group's winner queries run as one batched-winners sweep and its
/// top-k queries as one batched top-k sweep at the group's largest
/// requested `k` (each request's answer truncated to its own `k`, a
/// prefix of the `k_max` list, so results stay bit-identical to solo
/// execution).
///
/// Outcome of a batch that panicked under `catch_unwind` supervision:
/// whether the restart it counted tripped the breaker into the
/// terminal `Failed` state.
struct BatchPanic {
    tripped: bool,
}

/// The sweeps run under `catch_unwind`: a panic counts the restart
/// against `breaker` (so the restart — and a tripped breaker's
/// terminal `failed` flag — is visible before any answer is
/// published), then answers every request in the window with
/// [`ServeError::DispatcherFailed`] (slots released, nobody stranded)
/// and returns the [`BatchPanic`]. The metric groups stay owned out
/// here — an unwind can never drop a live responder.
fn execute_window(
    memory: &BankedMcam,
    mut window: Window,
    shared: &Shared,
    precision: Precision,
    breaker: &mut RestartBreaker,
) -> Result<(), BatchPanic> {
    if window.is_empty() {
        return Ok(());
    }
    let exec_start = Instant::now();
    let size = window.len();
    let n_topk = window.topks.len();
    let waits: Vec<Duration> = window
        .searches
        .iter()
        .map(|s| s.submitted)
        .chain(window.topks.iter().map(|t| t.submitted))
        .map(|submitted| exec_start.saturating_duration_since(submitted))
        .collect();
    // Group by request metric; arrival order is preserved within each
    // group, and a uniform window fills exactly one slot.
    let mut search_groups: [Vec<PendingSearch>; N_METRICS] = Default::default();
    for s in window.searches.drain(..) {
        search_groups[s.metric.index()].push(s);
    }
    let mut topk_groups: [Vec<PendingTopK>; N_METRICS] = Default::default();
    for t in window.topks.drain(..) {
        topk_groups[t.metric.index()].push(t);
    }
    type Sweep<T> = Option<femcam_core::Result<T>>;
    type TopKSweeps = [Sweep<Vec<Vec<(usize, f64)>>>; N_METRICS];
    let sweeps = std::panic::catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "chaos")]
        inject(shared, fault::FaultSite::PreBatch);
        let mut winners: [Sweep<Vec<(usize, f64)>>; N_METRICS] = Default::default();
        for metric in Metric::ALL {
            let group = &search_groups[metric.index()];
            if group.is_empty() {
                continue;
            }
            let queries: Vec<&[u8]> = group.iter().map(|s| s.query.as_slice()).collect();
            let spec = SearchSpec {
                precision,
                metric,
                ..SearchSpec::default()
            };
            winners[metric.index()] = Some(memory.search_batch_winners_with(&queries, spec));
        }
        let mut topk_hits: TopKSweeps = Default::default();
        for metric in Metric::ALL {
            let group = &topk_groups[metric.index()];
            if group.is_empty() {
                continue;
            }
            let k_max = group.iter().map(|t| t.k).max().unwrap_or(0);
            let queries: Vec<&[u8]> = group.iter().map(|t| t.query.as_slice()).collect();
            let spec = SearchSpec {
                precision,
                metric,
                ..SearchSpec::default()
            };
            topk_hits[metric.index()] = Some(memory.search_batch_top_k_with(&queries, k_max, spec));
        }
        #[cfg(feature = "chaos")]
        inject(shared, fault::FaultSite::PostBatch);
        (winners, topk_hits)
    }));
    let (winners, topk_hits) = match sweeps {
        Ok(pair) => pair,
        Err(payload) => {
            let detail = panic_detail(payload.as_ref());
            // Restart accounting and slot release before the first
            // publish: a waiter that finds its `DispatcherFailed`
            // without sleeping and immediately reads `restarts()` or
            // `is_failed()` must see this batch already counted.
            let tripped = note_restart(shared, breaker);
            // ORDERING: Relaxed — batch slot release; see `release_slot`.
            shared.depth.fetch_sub(size, Ordering::Relaxed);
            let failed = || ServeError::DispatcherFailed {
                detail: detail.clone(),
            };
            let mut wakes = Vec::with_capacity(size);
            for s in search_groups.iter_mut().flat_map(|g| g.drain(..)) {
                wakes.push(s.responder.publish(Err(failed())));
            }
            for t in topk_groups.iter_mut().flat_map(|g| g.drain(..)) {
                wakes.push(t.responder.publish(Err(failed())));
            }
            wake_window(shared, wakes);
            return Err(BatchPanic { tripped });
        }
    };
    let exec_ns = exec_start.elapsed().as_nanos();
    // Stats, then slot release, then publish, then wake. A waiter that
    // is not asleep sees its answer the moment it is published, so
    // everything it may observe next must already be in place: its
    // batch counted, and its admission slot free (a client resubmitting
    // the instant its result arrives must not be spuriously rejected
    // against a queue that is actually drained).
    {
        let mut stats = lock(&shared.stats);
        stats.record_batch(waits.into_iter(), size, n_topk, exec_ns);
    }
    // ORDERING: Relaxed — batch slot release; see `release_slot`.
    shared.depth.fetch_sub(size, Ordering::Relaxed);
    let mut wakes = Vec::with_capacity(size);
    for (group, sweep) in search_groups.iter_mut().zip(winners) {
        match sweep {
            Some(Ok(hits)) => {
                for (s, winner) in group.drain(..).zip(hits) {
                    wakes.push(s.responder.publish(Ok(winner)));
                }
            }
            // Queries were validated at admission, so a sweep-level
            // failure (an empty memory) applies to every request in
            // the group equally.
            Some(Err(e)) => {
                for s in group.drain(..) {
                    wakes.push(s.responder.publish(Err(ServeError::Core(e.clone()))));
                }
            }
            None => {}
        }
    }
    for (group, sweep) in topk_groups.iter_mut().zip(topk_hits) {
        match sweep {
            Some(Ok(per_query)) => {
                for (t, mut hits) in group.drain(..).zip(per_query) {
                    hits.truncate(t.k);
                    wakes.push(t.responder.publish(Ok(hits)));
                }
            }
            Some(Err(e)) => {
                for t in group.drain(..) {
                    wakes.push(t.responder.publish(Err(ServeError::Core(e.clone()))));
                }
            }
            None => {}
        }
    }
    wake_window(shared, wakes);
    Ok(())
}

/// Wakes the sleepers among a window's published answers — once,
/// after the last publish — and counts them in [`ServeStats::woken`].
fn wake_window(shared: &Shared, wakes: Vec<Wake>) {
    let sleepers = wakes.iter().filter(|w| w.wakes_sleeper()).count();
    // ORDERING: Relaxed — monotone stats counter; it orders nothing
    // (a waiter may read stats before this lands, which only
    // under-counts the batch it was woken by).
    shared.woken.fetch_add(sleepers as u64, Ordering::Relaxed);
    drop(wakes);
}

fn report(memory: &BankedMcam, config: &ServeConfig) -> MemoryReport {
    MemoryReport {
        rows: memory.n_rows(),
        banks: memory.n_banks(),
        word_len: memory.word_len(),
        plan: memory.plan_memory_bytes(),
        budget_bytes: config.plan_budget_bytes,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use femcam_core::{ConductanceLut, LevelLadder};
    use femcam_device::FefetModel;

    fn memory_with_rows(rows: &[[u8; 4]]) -> BankedMcam {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut memory = BankedMcam::new(ladder, lut, 4, 2);
        for row in rows {
            memory.store(row).unwrap();
        }
        memory
    }

    #[test]
    fn served_search_matches_direct_search() {
        let rows = [[0u8, 1, 2, 3], [7, 7, 7, 7], [1, 1, 2, 3], [4, 4, 4, 4]];
        let memory = memory_with_rows(&rows);
        let direct = memory_with_rows(&rows);
        let server = ShardedServer::start(memory, 1, ServeConfig::default());
        let handle = server.handle();
        for q in [[0u8, 1, 2, 3], [4, 4, 4, 5], [1, 1, 2, 2]] {
            assert_eq!(
                handle.submit(&q).and_then(ShardTicket::wait).unwrap(),
                direct
                    .search_batch_winners_with(&[&q[..]], Precision::F64)
                    .map(|w| w[0])
                    .unwrap()
            );
        }
        let stats = server.stats().merged();
        assert_eq!(stats.queries, 3);
        assert!(stats.batches >= 1);
        let _ = server.shutdown();
    }

    #[test]
    fn malformed_queries_rejected_at_admission() {
        let server = ShardedServer::start(
            memory_with_rows(&[[0u8, 0, 0, 0]]),
            1,
            ServeConfig::default(),
        );
        let handle = server.handle();
        assert!(matches!(
            handle.submit(&[0, 0, 0]).and_then(ShardTicket::wait),
            Err(ServeError::Core(CoreError::WordLengthMismatch { .. }))
        ));
        assert!(matches!(
            handle.submit(&[0, 0, 0, 9]).and_then(ShardTicket::wait),
            Err(ServeError::Core(CoreError::LevelOutOfRange { .. }))
        ));
        // A well-formed neighbor is unaffected.
        assert!(handle
            .submit(&[0, 0, 0, 1])
            .and_then(ShardTicket::wait)
            .is_ok());
    }

    #[test]
    fn empty_memory_serves_empty_array_errors() {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let memory = BankedMcam::new(ladder, lut, 4, 2);
        let server = ShardedServer::start(memory, 1, ServeConfig::default());
        assert!(matches!(
            server
                .handle()
                .submit(&[0, 0, 0, 0])
                .and_then(ShardTicket::wait),
            Err(ServeError::Core(CoreError::EmptyArray))
        ));
    }

    #[test]
    fn stores_are_visible_to_later_searches() {
        let memory = memory_with_rows(&[[0u8, 0, 0, 0]]);
        let server = ShardedServer::start(memory, 1, ServeConfig::default());
        let handle = server.handle();
        let row = handle.store(&[5, 5, 5, 5]).unwrap();
        assert_eq!(row, 1);
        assert_eq!(
            handle
                .submit(&[5, 5, 5, 5])
                .and_then(ShardTicket::wait)
                .unwrap()
                .0,
            row
        );
        let report = handle.memory_report().unwrap();
        assert_eq!(report.rows, 2);
        assert_eq!(report.word_len, 4);
        let memory = server.shutdown().unwrap();
        assert_eq!(memory.n_rows(), 2);
    }

    #[test]
    fn top_k_endpoint_clamps_k() {
        let memory = memory_with_rows(&[[0u8, 1, 2, 3], [7, 7, 7, 7], [1, 1, 2, 3]]);
        let server = ShardedServer::start(memory, 1, ServeConfig::default());
        let handle = server.handle();
        assert!(handle
            .submit_top_k(&[1, 1, 2, 3], 0, Metric::default(), None)
            .and_then(ShardTopKTicket::wait)
            .unwrap()
            .is_empty());
        assert_eq!(
            handle
                .submit_top_k(&[1, 1, 2, 3], 2, Metric::default(), None)
                .and_then(ShardTopKTicket::wait)
                .unwrap()
                .len(),
            2
        );
        let all = handle
            .submit_top_k(&[1, 1, 2, 3], 100, Metric::default(), None)
            .and_then(ShardTopKTicket::wait)
            .unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].0, 2);
    }

    #[test]
    fn admission_control_rejects_at_capacity() {
        let memory = memory_with_rows(&[[0u8, 0, 0, 0], [1, 1, 1, 1]]);
        let config = ServeConfig {
            max_batch: 2,
            // A long window so submissions stay queued while we fill
            // the admission budget from this single thread.
            max_wait: Duration::from_millis(200),
            queue_capacity: Some(2),
            ..ServeConfig::default()
        };
        let server = ShardedServer::start(memory, 1, config);
        let handle = server.handle();
        // Submit without waiting until the queue refuses.
        let mut tickets = Vec::new();
        let mut rejected = None;
        for _ in 0..16 {
            match handle.submit(&[1, 1, 1, 0]) {
                Ok(t) => tickets.push(t),
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        match rejected {
            Some(ServeError::Overloaded { capacity, .. }) => assert_eq!(capacity, 2),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        for t in tickets {
            t.wait().unwrap();
        }
        assert!(server.stats().rejected >= 1);
    }

    #[test]
    fn shutdown_answers_queued_requests() {
        let memory = memory_with_rows(&[[0u8, 0, 0, 0]]);
        let server = ShardedServer::start(
            memory,
            1,
            ServeConfig {
                max_wait: Duration::from_millis(100),
                ..ServeConfig::default()
            },
        );
        let handle = server.handle();
        let ticket = handle.submit(&[0, 0, 0, 1]).unwrap();
        let _ = server.shutdown();
        // The ticket either executed before shutdown or was drained.
        match ticket.wait() {
            Ok((row, _)) => assert_eq!(row, 0),
            Err(ServeError::ShuttingDown) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
        // Requests after shutdown fail cleanly.
        assert!(matches!(
            handle.submit(&[0, 0, 0, 1]).and_then(ShardTicket::wait),
            Err(ServeError::ShuttingDown)
        ));
        assert!(matches!(
            handle.store(&[0, 0, 0, 1]),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn window_timeout_never_rearms_with_zero() {
        let now = Instant::now();
        // Window still open: the remaining time is returned.
        let t = window_timeout(now + Duration::from_millis(5), now).expect("open window");
        assert!(t <= Duration::from_millis(5) && !t.is_zero());
        // Window exactly due or overdue: close, never a zero re-wait
        // (a zero recv_timeout would spin the dispatcher at full CPU).
        assert_eq!(window_timeout(now, now), None);
        assert_eq!(window_timeout(now, now + Duration::from_millis(1)), None);
    }

    #[test]
    fn zero_budget_rejected_at_submission() {
        let server = ShardedServer::start(
            memory_with_rows(&[[0u8, 0, 0, 0]]),
            1,
            ServeConfig::default(),
        );
        let handle = server.handle();
        match handle
            .submit_with(&[0, 0, 0, 0], Metric::default(), Some(Duration::ZERO))
            .and_then(ShardTicket::wait)
        {
            Err(ServeError::DeadlineExceeded { budget, waited }) => {
                assert_eq!(budget, Duration::ZERO);
                assert_eq!(waited, Duration::ZERO);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The top-k path shares the deadline contract.
        assert!(matches!(
            handle.submit_top_k(&[0, 0, 0, 0], 2, Metric::default(), Some(Duration::ZERO)),
            Err(ServeError::DeadlineExceeded { .. })
        ));
        assert_eq!(server.stats().deadline_rejected, 2);
        // A malformed query reports its validation error even with a
        // zero budget — validation outranks the deadline check, and
        // the deadline counter must not move.
        assert!(matches!(
            handle.submit_with(&[0, 0, 0], Metric::default(), Some(Duration::ZERO)),
            Err(ServeError::Core(CoreError::WordLengthMismatch { .. }))
        ));
        assert!(matches!(
            handle.submit_top_k(&[0, 0, 0, 9], 2, Metric::default(), Some(Duration::ZERO)),
            Err(ServeError::Core(CoreError::LevelOutOfRange { .. }))
        ));
        assert_eq!(server.stats().deadline_rejected, 2);
        // A generous budget answers normally and matches the
        // deadline-free path bitwise.
        let with = handle
            .submit_with(
                &[0, 0, 0, 1],
                Metric::default(),
                Some(Duration::from_secs(10)),
            )
            .and_then(ShardTicket::wait)
            .unwrap();
        let without = handle
            .submit(&[0, 0, 0, 1])
            .and_then(ShardTicket::wait)
            .unwrap();
        assert_eq!(with.0, without.0);
        assert_eq!(with.1.to_bits(), without.1.to_bits());
        assert_eq!(
            handle
                .submit_top_k(
                    &[0, 0, 0, 1],
                    1,
                    Metric::default(),
                    Some(Duration::from_secs(10))
                )
                .unwrap()
                .wait()
                .unwrap(),
            handle
                .submit_top_k(&[0, 0, 0, 1], 1, Metric::default(), None)
                .and_then(ShardTopKTicket::wait)
                .unwrap()
        );
    }

    #[test]
    fn tight_deadline_closes_window_before_max_wait() {
        // A pathological 10 s window: without deadline-aware closing,
        // a solo request would idle the full window out.
        let server = ShardedServer::start(
            memory_with_rows(&[[0u8, 0, 0, 0], [1, 1, 1, 1]]),
            1,
            ServeConfig {
                max_wait: Duration::from_secs(10),
                ..ServeConfig::default()
            },
        );
        let handle = server.handle();
        let started = Instant::now();
        let (row, _) = handle
            .submit_with(
                &[1, 1, 1, 1],
                Metric::default(),
                Some(Duration::from_millis(50)),
            )
            .and_then(ShardTicket::wait)
            .unwrap();
        assert_eq!(row, 1);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "deadline did not close the batching window early"
        );
    }

    #[test]
    fn dead_on_arrival_requests_are_rejected_not_executed() {
        // A 1 ns budget: by the time the dispatcher pops the search
        // off its queue (thread wakeups are microseconds), the
        // deadline has passed — the request must be rejected as dead
        // on arrival, not executed.
        let server = ShardedServer::start(
            memory_with_rows(&[[0u8, 0, 0, 0]]),
            1,
            ServeConfig::default(),
        );
        let handle = server.handle();
        let ticket = handle
            .submit_with(
                &[0, 0, 0, 1],
                Metric::default(),
                Some(Duration::from_nanos(1)),
            )
            .unwrap();
        match ticket.wait() {
            Err(ServeError::DeadlineExceeded { waited, .. }) => {
                assert!(waited >= Duration::from_nanos(1));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(server.stats().deadline_rejected, 1);
        // The admission slot was released: the queue is drained.
        assert_eq!(server.stats().merged().queue_depth, 0);
    }

    #[test]
    fn top_k_traffic_coalesces_into_batches() {
        let memory = memory_with_rows(&[[0u8, 1, 2, 3], [7, 7, 7, 7], [1, 1, 2, 3], [4, 4, 4, 4]]);
        let direct = memory_with_rows(&[[0u8, 1, 2, 3], [7, 7, 7, 7], [1, 1, 2, 3], [4, 4, 4, 4]]);
        let server = ShardedServer::start(
            memory,
            1,
            ServeConfig {
                max_wait: Duration::from_millis(50),
                ..ServeConfig::default()
            },
        );
        let handle = server.handle();
        // A burst of mixed winner + top-k submissions with different
        // k, all in flight before any wait: the dispatcher coalesces
        // them into shared windows, and each answer is bit-identical
        // to the solo result.
        let queries = [[0u8, 1, 2, 3], [4, 4, 4, 5], [7, 7, 6, 7]];
        let winner_tickets: Vec<_> = queries.iter().map(|q| handle.submit(q).unwrap()).collect();
        let topk_tickets: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                handle
                    .submit_top_k(q, i + 1, Metric::default(), None)
                    .unwrap()
            })
            .collect();
        for (q, t) in queries.iter().zip(winner_tickets) {
            let direct_hit = direct
                .search_batch_winners_with(&[&q[..]], Precision::F64)
                .map(|w| w[0])
                .unwrap();
            let got = t.wait().unwrap();
            assert_eq!(got.0, direct_hit.0);
            assert_eq!(got.1.to_bits(), direct_hit.1.to_bits());
        }
        for (i, (q, t)) in queries.iter().zip(topk_tickets).enumerate() {
            let want = direct
                .search_batch_top_k_with(&[&q[..]], i + 1, Precision::F64)
                .map(|mut h| h.remove(0))
                .unwrap();
            assert_eq!(t.wait().unwrap(), want);
        }
        let stats = server.stats().merged();
        assert_eq!(stats.queries, 6);
        assert_eq!(stats.topk_queries, 3);
        // Coalescing happened: fewer windows than requests.
        assert!(
            stats.batches < 6,
            "expected coalesced windows, got {} batches",
            stats.batches
        );
    }

    #[test]
    fn memory_report_tracks_budget() {
        let memory = memory_with_rows(&[[0u8, 1, 2, 3], [7, 7, 7, 7]]);
        let config = ServeConfig {
            precision: Precision::Codes,
            plan_budget_bytes: Some(1),
            ..ServeConfig::default()
        };
        let server = ShardedServer::start(memory, 1, config);
        let handle = server.handle();
        handle
            .submit(&[0, 1, 2, 3])
            .and_then(ShardTicket::wait)
            .unwrap(); // warms the codes slot
        let report = handle.memory_report().unwrap();
        assert!(report.plan.codes > 0);
        assert!(report.resident_bytes() >= report.plan.codes);
        assert!(report.over_budget(), "1-byte budget must be exceeded");
    }

    /// Wake protocol: a window publishes every answer before it wakes
    /// anyone, so the waiter woken by the first answer finds all the
    /// others already in their slots.
    #[test]
    fn wake_protocol_publishes_the_whole_window_before_any_wake() {
        const N: usize = 32;
        let rows: Vec<[u8; 4]> = (0..12u8)
            .map(|i| [i % 8, (i * 3) % 8, (i * 5 + 1) % 8, (i / 2) % 8])
            .collect();
        let direct = memory_with_rows(&rows);
        let server = McamServer::start(
            memory_with_rows(&rows),
            ServeConfig {
                max_batch: N,
                // Only a full window closes it: all N land in one batch.
                max_wait: Duration::from_secs(30),
                queue_capacity: Some(N),
                ..ServeConfig::default()
            },
        );
        let handle = server.handle();
        let queries: Vec<[u8; 4]> = (0..N as u8)
            .map(|i| [(i * 7) % 8, i % 8, (i / 8) % 8, (i * 3 + 2) % 8])
            .collect();
        let mut tickets: Vec<_> = queries
            .iter()
            .map(|q| {
                handle.admit().unwrap();
                handle.enqueue_search(q, None, Metric::default()).unwrap()
            })
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let want = direct
            .search_batch_winners_with(&refs, Precision::F64)
            .unwrap();
        let rest = tickets.split_off(1);
        let first = tickets.pop().unwrap().wait().unwrap();
        let mut got = vec![first];
        for (i, ticket) in rest.into_iter().enumerate() {
            let answer = ticket
                .wait_deadline(Instant::now())
                .unwrap_or_else(|| panic!("ticket {} unpublished after the first woke", i + 1));
            got.push(answer.unwrap());
        }
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.0, w.0);
            assert_eq!(g.1.to_bits(), w.1.to_bits());
        }
        let stats = handle.stats();
        assert_eq!((stats.batches, stats.queries), (1, N as u64));
        assert!(stats.woken <= 1, "one sleeper, {} wakes", stats.woken);
        let _ = server.shutdown();
    }

    /// Wake protocol, with every waiter asleep: each sleeper wakes to
    /// a window whose last answer is already published (a per-answer
    /// wake would let the first sleepers run before the dispatcher
    /// reached it).
    #[test]
    fn wake_protocol_sleepers_wake_to_a_fully_published_window() {
        const N: usize = 16;
        let rows = [[0u8, 1, 2, 3], [7, 7, 7, 7], [1, 1, 2, 3], [4, 4, 4, 4]];
        let server = McamServer::start(
            memory_with_rows(&rows),
            ServeConfig {
                max_batch: N,
                max_wait: Duration::from_secs(30),
                queue_capacity: Some(N),
                ..ServeConfig::default()
            },
        );
        let handle = server.handle();
        let submit = |i: usize| {
            handle.admit().unwrap();
            let q = [(i % 8) as u8, 1, 2, 3];
            handle.enqueue_search(&q, None, Metric::default()).unwrap()
        };
        let last_slot = Arc::new(std::sync::OnceLock::<Arc<OneShot<(usize, f64)>>>::new());
        let (seen, collected) = mpsc::channel();
        let (mut sleepers, mut waiters) = (Vec::new(), Vec::new());
        for i in 0..N - 1 {
            let ticket = submit(i);
            sleepers.push(Arc::clone(&ticket.slot));
            let (seen, last_slot) = (seen.clone(), Arc::clone(&last_slot));
            waiters.push(std::thread::spawn(move || {
                let answer = ticket.wait();
                // Checked on the woken thread itself, the moment it runs
                // (the submitter records the last slot right after its
                // send, possibly after the window already ran).
                let last = loop {
                    match last_slot.get() {
                        Some(slot) => break slot,
                        None => std::thread::yield_now(),
                    }
                };
                let last_published = matches!(*lock(&last.state), SlotState::Done(_));
                seen.send((answer, last_published)).unwrap();
            }));
        }
        for slot in &sleepers {
            while !matches!(*lock(&slot.state), SlotState::Pending { asleep: true }) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // The last submission fills the window; its answer is the
        // last one the dispatcher publishes.
        let last = submit(N - 1);
        last_slot.set(Arc::clone(&last.slot)).unwrap();
        for _ in 0..N - 1 {
            let (answer, last_published) = collected.recv_timeout(Duration::from_secs(10)).unwrap();
            answer.unwrap();
            assert!(
                last_published,
                "a sleeper woke before the window's last answer was published"
            );
        }
        last.wait().unwrap();
        for waiter in waiters {
            waiter.join().unwrap();
        }
        assert_eq!(handle.stats().woken, (N - 1) as u64);
        let _ = server.shutdown();
    }

    /// Wake protocol: the wake-up lives in the `Wake` guard, so an
    /// unwind after a window is published but before it is woken still
    /// wakes every sleeper with its published answer.
    #[test]
    fn wake_protocol_unwind_between_publish_and_wake_strands_no_one() {
        const WAITERS: usize = 4;
        let (answers, collected) = mpsc::channel();
        let (mut responders, mut waiters) = (Vec::new(), Vec::new());
        let mut slots = Vec::new();
        for i in 0..WAITERS {
            let (responder, slot) = Responder::<usize>::new();
            responders.push(responder);
            slots.push(Arc::clone(&slot));
            let answers = answers.clone();
            waiters.push(std::thread::spawn(move || {
                answers.send((i, slot.wait())).unwrap();
            }));
        }
        // Publish only once every waiter is asleep on its slot, so each
        // answer needs a wake the unwind must not lose.
        for slot in &slots {
            while !matches!(*lock(&slot.state), SlotState::Pending { asleep: true }) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let wakes: Vec<Wake> = responders
                .into_iter()
                .enumerate()
                .map(|(i, r)| r.publish(Ok(100 + i)))
                .collect();
            assert!(wakes.iter().all(Wake::wakes_sleeper));
            // Never dropped explicitly: only the unwind drops the guards.
            std::panic::resume_unwind(Box::new(wakes.len()));
        }));
        assert!(unwound.is_err());
        let mut seen = [false; WAITERS];
        for _ in 0..WAITERS {
            let (i, answer) = collected
                .recv_timeout(Duration::from_secs(10))
                .expect("a published waiter was stranded by the unwind");
            assert_eq!(answer, Ok(100 + i));
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for waiter in waiters {
            waiter.join().unwrap();
        }
    }

    /// Wake protocol: one pipelined client holds at most one sleeping
    /// ticket at a time, so it costs at most one wake per batch.
    #[test]
    fn wake_protocol_wakes_a_pipelined_client_at_most_once_per_batch() {
        let rows = [[0u8, 1, 2, 3], [7, 7, 7, 7], [1, 1, 2, 3], [4, 4, 4, 4]];
        let server = ShardedServer::start(memory_with_rows(&rows), 2, ServeConfig::default());
        let handle = server.handle();
        for round in 0..20u8 {
            let tickets: Vec<_> = (0..16u8)
                .map(|i| handle.submit(&[i % 8, round % 8, 3, 4]).unwrap())
                .collect();
            for t in tickets {
                t.wait().unwrap();
            }
        }
        let stats = server.stats();
        for shard in &stats.per_shard {
            assert_eq!(shard.queries, 320);
            assert!(
                shard.woken <= shard.batches,
                "{} wakes over {} batches",
                shard.woken,
                shard.batches
            );
        }
        let merged = stats.merged();
        assert_eq!(
            merged.woken,
            stats.per_shard.iter().map(|s| s.woken).sum::<u64>()
        );
        let _ = server.shutdown();
    }
}
