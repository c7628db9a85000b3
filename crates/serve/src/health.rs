//! Failure-model primitives: per-shard health, degraded-coverage
//! records, the degraded-result policy knob, and the dispatcher
//! restart-rate circuit breaker.
//!
//! See the crate-level ["Failure model"](crate#failure-model) section
//! for how these compose.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Health of one shard of a [`crate::ShardedServer`], as observed by
/// the fan-out front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// The shard is answering normally.
    Healthy,
    /// The shard missed at least one per-shard deadline
    /// ([`crate::ServeConfig::shard_timeout`]) — it still receives
    /// traffic, but recent merges completed without it.
    Degraded,
    /// The shard's dispatcher is gone (circuit breaker tripped, or its
    /// channel closed): fan-out skips it entirely until a probe
    /// re-admits it or the server shuts down.
    Quarantined,
    /// A supervisor is resurrecting the shard: its banks were reclaimed
    /// from the dead dispatcher and a replacement is being canary-
    /// validated. Fan-out still skips it (like `Quarantined`) until the
    /// canary answer is bit-identical to the masked-sweep oracle.
    Probing,
}

impl ShardHealth {
    pub(crate) fn from_u8(v: u8) -> Self {
        match v {
            0 => ShardHealth::Healthy,
            1 => ShardHealth::Degraded,
            3 => ShardHealth::Probing,
            _ => ShardHealth::Quarantined,
        }
    }

    pub(crate) fn as_u8(self) -> u8 {
        match self {
            ShardHealth::Healthy => 0,
            ShardHealth::Degraded => 1,
            ShardHealth::Quarantined => 2,
            ShardHealth::Probing => 3,
        }
    }

    /// `true` when fan-out must not send traffic to the shard: its
    /// dispatcher is gone (`Quarantined`) or mid-resurrection
    /// (`Probing`).
    #[must_use]
    pub fn excluded(self) -> bool {
        matches!(self, ShardHealth::Quarantined | ShardHealth::Probing)
    }
}

/// The shared per-shard health board: lock-free, written by whichever
/// client thread observes a shard failure first.
#[derive(Debug)]
pub(crate) struct HealthBoard {
    states: Box<[AtomicU8]>,
}

impl HealthBoard {
    pub(crate) fn new(n: usize) -> Self {
        HealthBoard {
            states: (0..n).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    pub(crate) fn get(&self, shard: usize) -> ShardHealth {
        // ORDERING: Relaxed — the board is advisory control-plane
        // state; a stale read only routes one more request at a shard
        // that is about to be excluded (or skips one that just
        // healed), both of which the merge path already tolerates.
        // Data publication (the replacement handle) happens through
        // the topology cell's RwLock, never through this byte.
        ShardHealth::from_u8(self.states[shard].load(Ordering::Relaxed))
    }

    /// Monotone escalation: observed failures only ever worsen health
    /// (`Healthy → Degraded → Quarantined`). Returns the state the
    /// board held *before* the call, so the first observer of a
    /// transition can count and log it exactly once. De-escalation is
    /// never done here — a quarantined shard returns only through the
    /// guarded probe transitions below, which require a supervisor to
    /// have replaced the dead dispatcher first.
    ///
    /// `Probing` (encoded above `Quarantined`) is deliberately
    /// unreachable through this path: clients cannot race a shard into
    /// or out of its resurrection window.
    pub(crate) fn escalate(&self, shard: usize, to: ShardHealth) -> ShardHealth {
        debug_assert!(!matches!(to, ShardHealth::Probing));
        // ORDERING: Relaxed — monotonicity comes from fetch_max's
        // atomicity, not from inter-thread ordering; no other memory
        // is published under this write (see `get`), so first-observer
        // accounting stays exact while racing observers stay unordered.
        ShardHealth::from_u8(self.states[shard].fetch_max(to.as_u8(), Ordering::Relaxed))
    }

    /// Guarded `Quarantined → Probing` transition; `true` when this
    /// caller won the probe (exactly one supervisor resurrects a shard
    /// at a time).
    pub(crate) fn begin_probe(&self, shard: usize) -> bool {
        // ORDERING: Relaxed — exclusivity (one supervisor wins) is the
        // CAS's atomicity; the winner publishes nothing under this
        // transition (it builds the replacement first and installs it
        // through the topology cell's RwLock).
        self.states[shard]
            .compare_exchange(
                ShardHealth::Quarantined.as_u8(),
                ShardHealth::Probing.as_u8(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Guarded `Probing → Healthy` transition: the canary answered
    /// bit-identically, the replacement dispatcher rejoins merges.
    pub(crate) fn admit(&self, shard: usize) -> bool {
        // ORDERING: Relaxed — the replacement handle was already
        // published through the topology cell's RwLock write before
        // this transition; the CAS only re-opens routing.
        self.states[shard]
            .compare_exchange(
                ShardHealth::Probing.as_u8(),
                ShardHealth::Healthy.as_u8(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Guarded `Probing → Quarantined` transition: the probe failed
    /// (injected fault, unrecoverable memory, or canary mismatch); the
    /// shard stays out of merges until the next probe.
    pub(crate) fn fail_probe(&self, shard: usize) -> bool {
        // ORDERING: Relaxed — failure path of the probe CAS pair; see
        // `begin_probe` (nothing is published under the transition).
        self.states[shard]
            .compare_exchange(
                ShardHealth::Probing.as_u8(),
                ShardHealth::Quarantined.as_u8(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    pub(crate) fn snapshot(&self) -> Vec<ShardHealth> {
        (0..self.states.len()).map(|i| self.get(i)).collect()
    }
}

/// What a sharded front end does with a result whose coverage is
/// incomplete (a shard was quarantined or timed out mid-merge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedPolicy {
    /// Return the best answer over the surviving shards, with its
    /// [`Coverage`] record saying exactly which banks contributed
    /// (the default — availability first, like the paper's
    /// variation-tolerant sensing keeps answering under device
    /// faults).
    #[default]
    FailOpen,
    /// Refuse the partial merge with [`crate::ServeError::Degraded`]:
    /// callers that would rather retry elsewhere than act on a
    /// partial answer.
    FailClosed,
}

/// How much of the memory a merged result actually searched, in banks.
///
/// `searched == total` is a full-coverage (exact-contract) answer;
/// anything less means some intended shard did not contribute and the
/// result is the exact merge over `banks` only — checkable against
/// `BankedMcam::search_masked_with` over the same bank subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    /// Banks that contributed to the merge.
    pub searched: usize,
    /// Banks the request intended to search (the routed subset, or
    /// every bank), including the ones lost to failed shards.
    pub total: usize,
    /// The contributing bank indices, ascending — the mask to replay
    /// the merge against a direct [`femcam_core::BankedMcam`]. Banks
    /// appended by stores after the server started belong to the tail
    /// shard's range.
    pub banks: Vec<usize>,
}

impl Coverage {
    /// `true` when some intended bank did not contribute.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.searched < self.total
    }
}

/// A value plus the [`Coverage`] it was computed over.
#[derive(Debug, Clone, PartialEq)]
pub struct Covered<T> {
    /// The merged result.
    pub value: T,
    /// How much of the memory contributed.
    pub coverage: Coverage,
}

/// Sliding-window restart-rate circuit breaker: a dispatcher may
/// self-heal at most `budget` times within any `window`; one more trip
/// transitions the server to its terminal `Failed` state instead of
/// crash-looping (a deterministic fault would otherwise burn a core
/// re-panicking forever).
#[derive(Debug)]
pub(crate) struct RestartBreaker {
    budget: usize,
    window: Duration,
    restarts: VecDeque<Instant>,
}

impl RestartBreaker {
    pub(crate) fn new(budget: usize, window: Duration) -> Self {
        RestartBreaker {
            budget,
            window,
            restarts: VecDeque::new(),
        }
    }

    /// Records one restart at `now`; returns `true` when the budget is
    /// exhausted and the server must fail terminally instead of
    /// restarting.
    pub(crate) fn record(&mut self, now: Instant) -> bool {
        while let Some(&front) = self.restarts.front() {
            if now.saturating_duration_since(front) > self.window {
                self.restarts.pop_front();
            } else {
                break;
            }
        }
        self.restarts.push_back(now);
        self.restarts.len() > self.budget
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn breaker_trips_only_past_budget_within_window() {
        let mut b = RestartBreaker::new(3, Duration::from_secs(1));
        let t0 = Instant::now();
        assert!(!b.record(t0));
        assert!(!b.record(t0 + Duration::from_millis(10)));
        assert!(!b.record(t0 + Duration::from_millis(20)));
        // Fourth restart inside the window: trip.
        assert!(b.record(t0 + Duration::from_millis(30)));
    }

    #[test]
    fn breaker_forgets_restarts_outside_window() {
        let mut b = RestartBreaker::new(2, Duration::from_millis(100));
        let t0 = Instant::now();
        assert!(!b.record(t0));
        assert!(!b.record(t0 + Duration::from_millis(10)));
        // Both earlier restarts have aged out: the budget is fresh.
        assert!(!b.record(t0 + Duration::from_millis(500)));
        assert!(!b.record(t0 + Duration::from_millis(510)));
        assert!(b.record(t0 + Duration::from_millis(520)));
    }

    #[test]
    fn zero_budget_fails_on_first_restart() {
        let mut b = RestartBreaker::new(0, Duration::from_secs(1));
        assert!(b.record(Instant::now()));
    }

    #[test]
    fn health_board_escalates_monotonically() {
        let board = HealthBoard::new(2);
        assert_eq!(board.get(0), ShardHealth::Healthy);
        assert_eq!(
            board.escalate(0, ShardHealth::Degraded),
            ShardHealth::Healthy
        );
        assert_eq!(board.get(0), ShardHealth::Degraded);
        // The returned previous state identifies the first observer.
        assert_eq!(
            board.escalate(0, ShardHealth::Quarantined),
            ShardHealth::Degraded
        );
        assert_eq!(
            board.escalate(0, ShardHealth::Quarantined),
            ShardHealth::Quarantined
        );
        // Escalation never reverses.
        board.escalate(0, ShardHealth::Healthy);
        assert_eq!(board.get(0), ShardHealth::Quarantined);
        assert_eq!(
            board.snapshot(),
            vec![ShardHealth::Quarantined, ShardHealth::Healthy]
        );
    }

    #[test]
    fn probe_transitions_are_guarded() {
        let board = HealthBoard::new(1);
        // Only a quarantined shard can enter probing.
        assert!(!board.begin_probe(0));
        board.escalate(0, ShardHealth::Quarantined);
        assert!(board.begin_probe(0));
        assert_eq!(board.get(0), ShardHealth::Probing);
        // Exactly one supervisor wins the probe.
        assert!(!board.begin_probe(0));
        // Client escalation cannot stomp a probe in flight.
        board.escalate(0, ShardHealth::Quarantined);
        assert_eq!(board.get(0), ShardHealth::Probing);
        // Failed probe returns to quarantine; a later probe may retry.
        assert!(board.fail_probe(0));
        assert_eq!(board.get(0), ShardHealth::Quarantined);
        assert!(!board.admit(0));
        assert!(board.begin_probe(0));
        assert!(board.admit(0));
        assert_eq!(board.get(0), ShardHealth::Healthy);
    }

    #[test]
    fn excluded_covers_quarantined_and_probing() {
        assert!(!ShardHealth::Healthy.excluded());
        assert!(!ShardHealth::Degraded.excluded());
        assert!(ShardHealth::Quarantined.excluded());
        assert!(ShardHealth::Probing.excluded());
    }

    #[test]
    fn coverage_degraded_flag_tracks_counts() {
        let full = Coverage {
            searched: 3,
            total: 3,
            banks: vec![0, 1, 2],
        };
        assert!(!full.degraded());
        let partial = Coverage {
            searched: 2,
            total: 3,
            banks: vec![0, 2],
        };
        assert!(partial.degraded());
    }
}
