//! Serving statistics: wait-time percentiles, achieved batch size,
//! throughput.
//!
//! The dispatcher records one entry per executed micro-batch; wait
//! times (submission → batch execution start) are kept in a fixed-size
//! ring of the most recent [`WAIT_SAMPLES`] requests, so percentile
//! queries reflect current behavior without unbounded memory.

use std::time::Duration;

/// Wait-time samples retained for percentile estimation.
const WAIT_SAMPLES: usize = 4096;

/// Mutable counters owned by the server (behind its stats mutex).
/// `Clone` so snapshots copy the raw ring under the lock (a plain
/// memcpy) and do the percentile sort after releasing it — the
/// dispatcher takes the same mutex once per micro-batch.
#[derive(Debug, Default, Clone)]
pub(crate) struct StatsInner {
    pub queries: u64,
    pub topk_queries: u64,
    pub stores: u64,
    pub batches: u64,
    pub batch_size_sum: u64,
    pub max_batch: usize,
    pub exec_ns_sum: u128,
    /// Ring buffer of recent per-request waits in microseconds.
    wait_us: Vec<u32>,
    wait_next: usize,
}

impl StatsInner {
    /// Records one executed micro-batch of `size` requests, of which
    /// `topk` were top-k searches (the rest winner searches).
    pub fn record_batch(
        &mut self,
        waits: impl Iterator<Item = Duration>,
        size: usize,
        topk: usize,
        exec_ns: u128,
    ) {
        self.queries += size as u64;
        self.topk_queries += topk as u64;
        self.batches += 1;
        self.batch_size_sum += size as u64;
        self.max_batch = self.max_batch.max(size);
        self.exec_ns_sum += exec_ns;
        for wait in waits {
            let us = u32::try_from(wait.as_micros()).unwrap_or(u32::MAX);
            if self.wait_us.len() < WAIT_SAMPLES {
                self.wait_us.push(us);
            } else {
                self.wait_us[self.wait_next] = us;
            }
            self.wait_next = (self.wait_next + 1) % WAIT_SAMPLES;
        }
    }
}

/// Immutable snapshot of a server's serving statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeStats {
    /// Searches executed (answered) so far — winner and top-k alike.
    pub queries: u64,
    /// The subset of `queries` that were top-k searches.
    pub topk_queries: u64,
    /// Stores applied so far.
    pub stores: u64,
    /// Micro-batches executed so far.
    pub batches: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Requests rejected because their deadline passed before the
    /// dispatcher could execute them.
    pub deadline_rejected: u64,
    /// Searches whose waiter was asleep when the dispatcher published
    /// the answer, so it had to be woken. A window publishes every
    /// answer before it wakes anyone, so a client holding several
    /// tickets of one window is woken once for all of them: `woken /
    /// queries` is the share of answers that cost a wake-up.
    pub woken: u64,
    /// Mean achieved micro-batch size (`queries / batches`).
    pub mean_batch: f64,
    /// Largest micro-batch executed.
    pub max_batch: usize,
    /// Median per-request wait (submission → execution start) over the
    /// most recent requests, in microseconds.
    pub p50_wait_us: f64,
    /// 99th-percentile per-request wait, in microseconds.
    pub p99_wait_us: f64,
    /// Mean executor time per query, in microseconds (batch execution
    /// wall clock divided by queries served).
    pub mean_exec_us_per_query: f64,
    /// Served throughput since the server started, in queries per
    /// second of wall-clock time.
    pub queries_per_s: f64,
    /// Searches queued or executing at snapshot time.
    pub queue_depth: usize,
    /// The admission-control capacity in effect.
    pub queue_capacity: usize,
    /// Supervised dispatcher restarts (panics converted to
    /// [`crate::ServeError::DispatcherFailed`] and healed in place).
    pub restarts: u64,
    /// `true` once the restart-rate circuit breaker tripped: the server
    /// is in its terminal `Failed` state and rejects all requests.
    pub failed: bool,
    /// Health transitions observed on the sharded front end, monotone
    /// over the server's lifetime: shards seen entering `Degraded`.
    /// Always zero in a per-shard entry of
    /// [`crate::ShardedStats::per_shard`] (the health board lives at
    /// the front end; see [`crate::ShardedStats::merged`]).
    pub degraded: u64,
    /// Shards seen entering `Quarantined` (sharded front end only).
    pub quarantined: u64,
    /// Shards re-admitted by a successful probe (`Quarantined →
    /// Probing → Healthy`; sharded front end only).
    pub readmitted: u64,
    /// Probes that failed (injected fault, unrecoverable memory, or
    /// canary mismatch) and returned the shard to `Quarantined`
    /// (sharded front end only).
    pub probe_failures: u64,
}

/// Nearest-rank percentile (`q` in 0..=1) of a sample set: the
/// `ceil(q·n)`-th smallest sample (1-based), so p50 of `1..=100` is
/// 50 — not 51, which the previous `round(q·(n−1))` index produced.
fn percentile(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn snapshot(
    inner: &StatsInner,
    rejected: u64,
    deadline_rejected: u64,
    woken: u64,
    elapsed: Duration,
    queue_depth: usize,
    queue_capacity: usize,
    restarts: u64,
    failed: bool,
) -> ServeStats {
    let mut sorted = inner.wait_us.clone();
    sorted.sort_unstable();
    let queries = inner.queries;
    ServeStats {
        queries,
        topk_queries: inner.topk_queries,
        stores: inner.stores,
        batches: inner.batches,
        rejected,
        deadline_rejected,
        woken,
        mean_batch: if inner.batches == 0 {
            0.0
        } else {
            inner.batch_size_sum as f64 / inner.batches as f64
        },
        max_batch: inner.max_batch,
        p50_wait_us: percentile(&sorted, 0.50),
        p99_wait_us: percentile(&sorted, 0.99),
        mean_exec_us_per_query: if queries == 0 {
            0.0
        } else {
            inner.exec_ns_sum as f64 / 1e3 / queries as f64
        },
        queries_per_s: if elapsed.as_secs_f64() > 0.0 {
            queries as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        queue_depth,
        queue_capacity,
        restarts,
        failed,
        // Health-transition counters live on the sharded front end
        // (see `ShardedStats::merged`); a lone dispatcher has no
        // health board.
        degraded: 0,
        quarantined: 0,
        readmitted: 0,
        probe_failures: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let sorted: Vec<u32> = (1..=100).collect();
        // Nearest-rank: p50 of 1..=100 is the 50th smallest sample —
        // exactly 50, not the 51 the old round(q·(n−1)) index gave.
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        // Odd sample count: the median is the middle sample.
        let odd: Vec<u32> = (1..=5).collect();
        assert_eq!(percentile(&odd, 0.5), 3.0);
        // Degenerate sets.
        assert_eq!(percentile(&[7], 0.0), 7.0);
        assert_eq!(percentile(&[7], 0.5), 7.0);
        assert_eq!(percentile(&[7], 1.0), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn record_batch_accumulates_and_rings() {
        let mut inner = StatsInner::default();
        for _ in 0..3 {
            inner.record_batch(
                (0..4).map(|i| Duration::from_micros(100 + i)),
                4,
                1,      // one of the four was a top-k request
                40_000, // 10 µs per query
            );
        }
        assert_eq!(inner.queries, 12);
        assert_eq!(inner.topk_queries, 3);
        assert_eq!(inner.batches, 3);
        let stats = snapshot(&inner, 0, 0, 0, Duration::from_secs(1), 0, 64, 0, false);
        assert_eq!(stats.mean_batch, 4.0);
        assert_eq!(stats.max_batch, 4);
        assert!((stats.mean_exec_us_per_query - 10.0).abs() < 1e-9);
        assert!((stats.queries_per_s - 12.0).abs() < 1e-9);
        // 12 samples of {100,101,102,103}: nearest-rank p50 is the 6th
        // smallest (101), p99 the 12th (103) — exact, not approximate.
        assert_eq!(stats.p50_wait_us, 101.0);
        assert_eq!(stats.p99_wait_us, 103.0);
        // The ring never grows past its sample budget.
        let mut big = StatsInner::default();
        big.record_batch(
            (0..2 * WAIT_SAMPLES).map(|_| Duration::from_micros(1)),
            2 * WAIT_SAMPLES,
            0,
            0,
        );
        assert_eq!(big.wait_us.len(), WAIT_SAMPLES);
    }
}
