//! Deterministic fork–join parallelism for the search executor.
//!
//! The real `rayon` crate cannot be vendored into this offline build, so
//! this module provides the narrow slice of it the search pipeline
//! needs: a chunked parallel map over a slice using
//! [`std::thread::scope`], with results reassembled **in input order**
//! so every reduction downstream is a fixed-order fold and the parallel
//! paths stay bit-identical to their sequential counterparts.
//!
//! Thread count resolution: [`max_threads`] honors the
//! `FEMCAM_THREADS` environment variable when set to a positive
//! integer (whitespace-trimmed), otherwise
//! [`std::thread::available_parallelism`]; a set-but-unusable value
//! falls back with a one-time stderr warning. Work below
//! [`PAR_WORK_THRESHOLD`] scalar operations is not worth a thread
//! spawn; callers gate on [`worth_parallelizing`].

use std::num::NonZeroUsize;

/// Scalar-operation count below which forking threads costs more than
/// it saves (thread spawn plus join is on the order of tens of
/// microseconds; this many LUT adds take roughly as long).
pub const PAR_WORK_THRESHOLD: usize = 1 << 15;

/// Target scalar-operation count per forked worker. Thread selection is
/// work-proportional: a workload only earns its second thread once it
/// can hand each worker at least this much, so small batches never pay
/// fork–join overhead they cannot amortize (the PR 1 regression where
/// `threads=4` was slower than `threads=1` at moderate batch sizes).
pub const PAR_CHUNK_WORK: usize = 1 << 17;

/// Relative cost discount of the packed-code execution mode
/// ([`crate::exec`]'s `Precision::Codes`): one gather-accumulate step
/// streams a 1-byte code instead of a 4- or 8-byte plane scalar, so a
/// cell of codes work finishes roughly this many times faster than a
/// cell of plane work. Work estimates fed to the thread-gating helpers
/// are divided by this factor first — a cheaper kernel needs *more*
/// cells per worker to amortize the same fork–join overhead.
pub const CODES_WORK_DIVISOR: usize = 2;

/// The thread-gating work equivalent of `cells` packed-code
/// gather-accumulate steps, in plane-step units (the currency of
/// [`PAR_CHUNK_WORK`] and [`PAR_WORK_THRESHOLD`]).
#[must_use]
pub fn codes_work(cells: usize) -> usize {
    (cells / CODES_WORK_DIVISOR).max(1)
}

/// How a `FEMCAM_THREADS` value resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadOverride {
    /// Variable not set: use machine parallelism (the quiet default).
    Unset,
    /// A usable positive thread count.
    Threads(usize),
    /// Set but unusable (`0`, empty, or unparsable after trimming):
    /// fall back to machine parallelism *loudly* — a shell typo must
    /// not be indistinguishable from "unset".
    Invalid,
}

/// Parses an optional `FEMCAM_THREADS` value. Surrounding whitespace is
/// trimmed first: shell pipelines routinely hand over `" 4"` or `"4\n"`
/// (e.g. from `$(nproc)` under some shells), and an untrimmed parse
/// would silently discard the operator's explicit thread cap.
fn parse_thread_override(value: Option<&str>) -> ThreadOverride {
    let Some(raw) = value else {
        return ThreadOverride::Unset;
    };
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => ThreadOverride::Threads(n),
        _ => ThreadOverride::Invalid,
    }
}

/// The machine's available parallelism (1 when undeterminable).
fn machine_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// The number of worker threads parallel searches may use:
/// `FEMCAM_THREADS` when set to a positive integer (surrounding
/// whitespace tolerated), otherwise the machine's available
/// parallelism.
///
/// A `FEMCAM_THREADS` that is set but unusable — `0`, empty, or
/// unparsable — also falls back to machine parallelism, but logs a
/// one-time warning to stderr so the misconfiguration is visible
/// instead of silently behaving like "unset".
#[must_use]
pub fn max_threads() -> usize {
    match parse_thread_override(std::env::var("FEMCAM_THREADS").ok().as_deref()) {
        ThreadOverride::Threads(n) => n,
        ThreadOverride::Unset => machine_parallelism(),
        ThreadOverride::Invalid => {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "femcam: FEMCAM_THREADS={:?} is not a positive integer; \
                     falling back to machine parallelism ({})",
                    std::env::var("FEMCAM_THREADS").unwrap_or_default(),
                    machine_parallelism()
                );
            });
            machine_parallelism()
        }
    }
}

/// Returns `true` when `work` scalar operations justify forking onto
/// `threads` workers.
#[must_use]
pub fn worth_parallelizing(work: usize, threads: usize) -> bool {
    threads > 1 && work >= PAR_WORK_THRESHOLD
}

/// The number of worker threads a workload of `work` scalar operations
/// actually earns, given that the caller is willing to use up to
/// `n_threads`.
///
/// Three caps compose, and the result is never larger than any of them:
///
/// 1. the caller's `n_threads` (an upper bound, not a demand);
/// 2. [`max_threads`] — oversubscribing a CPU-bound kernel past the
///    machine's parallelism (or the `FEMCAM_THREADS` override) only adds
///    scheduler churn;
/// 3. `work / `[`PAR_CHUNK_WORK`] — each forked worker must receive
///    enough work to amortize its spawn/join cost.
///
/// Work below [`PAR_WORK_THRESHOLD`] always runs inline. Because every
/// parallel path in this crate is bit-identical at any thread count,
/// downgrading the requested count changes timing only — never results.
#[must_use]
pub fn effective_threads(work: usize, n_threads: usize) -> usize {
    if n_threads <= 1 || work < PAR_WORK_THRESHOLD {
        return 1;
    }
    n_threads
        .min(max_threads())
        .min((work / PAR_CHUNK_WORK).max(1))
}

/// Worker threads for a batch of `n_queries` queries of
/// `per_query_work` scalar operations each: [`effective_threads`] on
/// the total workload, additionally capped by the query count (the
/// batch paths shard whole queries, never one query's fold).
#[must_use]
pub fn batch_threads(n_queries: usize, per_query_work: usize, n_threads: usize) -> usize {
    effective_threads(n_queries.saturating_mul(per_query_work), n_threads).min(n_queries.max(1))
}

/// The worker-thread count a workload of `work` scalar operations
/// justifies on its own: [`effective_threads`] with the machine's
/// [`max_threads`] as the cap. The thread-selection policy for
/// auto-gated parallel paths in this crate.
#[must_use]
pub fn threads_for(work: usize) -> usize {
    effective_threads(work, max_threads())
}

/// Maps `f` over `items` on up to `n_threads` scoped worker threads and
/// returns the results **in input order**.
///
/// `f` receives `(index, &item)`. The slice is split into contiguous
/// chunks, one per worker; with `n_threads <= 1` (or one item) the map
/// runs inline on the caller's thread. Because results are reassembled
/// chunk-by-chunk in order, output is independent of scheduling —
/// callers folding over it get a deterministic, fixed-order reduction.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn par_map<T, R, F>(items: &[T], n_threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = n_threads.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(chunk_idx, slice)| {
                scope.spawn(move || {
                    slice
                        .iter()
                        .enumerate()
                        .map(|(j, t)| f(chunk_idx * chunk + j, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for handle in handles {
            // femcam::allow(no_panic): deliberate panic propagation —
            // a worker panic must resurface on the calling thread, not
            // vanish into a dropped JoinHandle.
            out.extend(handle.join().expect("parallel worker panicked"));
        }
        out
    })
}

/// Like [`par_map`] with a fallible mapper: returns the first error in
/// **input order** (not completion order), or all results.
///
/// # Errors
///
/// The error of the lowest-indexed failing item.
pub fn try_par_map<T, R, E, F>(items: &[T], n_threads: usize, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    par_map(items, n_threads, f).into_iter().collect()
}

/// Runs `f(i, chunk)` over the `chunk_len`-element chunks of `data`
/// (the last may be shorter) on up to `n_threads` scoped workers, each
/// filling a contiguous run of chunks in place; inline with one thread.
/// Every chunk sees the same `f`, so the result is independent of the
/// thread count.
pub(crate) fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, n_threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let n = data.len().div_ceil(chunk_len);
    let threads = n_threads.clamp(1, n.max(1));
    let per = n.div_ceil(threads);
    if threads <= 1 {
        data.chunks_mut(chunk_len)
            .enumerate()
            .for_each(|(i, chunk)| f(i, chunk));
        return;
    }
    std::thread::scope(|scope| {
        let f = &f;
        for (g, group) in data.chunks_mut(chunk_len * per).enumerate() {
            scope.spawn(move || {
                for (j, chunk) in group.chunks_mut(chunk_len).enumerate() {
                    f(g * per + j, chunk);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_mut_fills_every_chunk_at_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let mut data = vec![0usize; 23];
            par_chunks_mut(&mut data, 4, threads, |i, chunk| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x = i * 4 + j;
                }
            });
            assert_eq!(data, (0..23).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..101).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_handles_edge_sizes() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], 4, |_, &x| x + 1), vec![8]);
        // More threads than items.
        let out = par_map(&[1u32, 2, 3], 64, |_, &x| x);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn try_par_map_returns_first_error_in_input_order() {
        let items: Vec<usize> = (0..64).collect();
        let r: Result<Vec<usize>, usize> =
            try_par_map(
                &items,
                4,
                |_, &x| {
                    if x == 9 || x == 40 {
                        Err(x)
                    } else {
                        Ok(x)
                    }
                },
            );
        assert_eq!(r, Err(9));
        let ok: Result<Vec<usize>, usize> = try_par_map(&items, 4, |_, &x| Ok(x));
        assert_eq!(ok.unwrap(), items);
    }

    #[test]
    fn thread_override_trims_whitespace() {
        // The pure parser is tested directly: mutating the process
        // environment from a test races with concurrently running
        // tests, and `max_threads` is a thin dispatch over this.
        for ok in ["4", " 4", "4\n", "\t4 ", "4\r\n"] {
            assert_eq!(
                parse_thread_override(Some(ok)),
                ThreadOverride::Threads(4),
                "{ok:?} must parse as 4 threads"
            );
        }
        assert_eq!(parse_thread_override(Some("1")), ThreadOverride::Threads(1));
    }

    #[test]
    fn thread_override_distinguishes_unset_from_invalid() {
        assert_eq!(parse_thread_override(None), ThreadOverride::Unset);
        for bad in ["0", " 0 ", "", "  ", "abc", "4x", "-1", "1.5"] {
            assert_eq!(
                parse_thread_override(Some(bad)),
                ThreadOverride::Invalid,
                "{bad:?} must be an explicit (logged) fallback, not unset"
            );
        }
    }

    #[test]
    fn thresholds_and_thread_counts_are_sane() {
        assert!(max_threads() >= 1);
        assert!(!worth_parallelizing(10, 8));
        assert!(!worth_parallelizing(1 << 20, 1));
        assert!(worth_parallelizing(1 << 20, 2));
    }

    #[test]
    fn effective_threads_is_work_proportional_and_capped() {
        // Tiny workloads always run inline, whatever is requested.
        assert_eq!(effective_threads(100, 64), 1);
        assert_eq!(effective_threads(PAR_WORK_THRESHOLD - 1, 8), 1);
        // A single caller cap of one means inline.
        assert_eq!(effective_threads(1 << 30, 1), 1);
        // Large workloads respect the caller cap and the machine cap.
        let huge = effective_threads(1 << 30, 2);
        assert!(huge <= 2 && huge <= max_threads().max(1));
        // Moderate workloads earn at most work / PAR_CHUNK_WORK workers.
        assert!(effective_threads(PAR_CHUNK_WORK, 64) <= 1);
        assert!(effective_threads(3 * PAR_CHUNK_WORK, 64) <= 3);
    }

    #[test]
    fn batch_threads_never_exceeds_query_count() {
        assert_eq!(batch_threads(1, 1 << 30, 64), 1);
        assert!(batch_threads(2, 1 << 30, 64) <= 2);
        assert_eq!(batch_threads(0, 1 << 30, 64), 1);
    }
}
