//! The sharded serving layer's determinism contract, pinned as
//! properties:
//!
//! 1. **Three-way bit-identity** — every winner served by an
//!    N-shard [`ShardedServer`] equals both a one-shard server's
//!    answer and a direct [`BankedMcam::search_batch_winners_with`]
//!    against an identically mutated shadow memory: same winning
//!    global row, same `f64` conductance, bitwise — at every
//!    precision, every metric, with or without a deadline, every
//!    shard count, and under interleaved stores (which route to the
//!    tail shard only). A zero budget is dead on arrival under every
//!    metric, but only after the query passed validation.
//! 2. **Top-k merge identity** — the fanned, per-shard-truncated
//!    top-k merge equals [`BankedMcam::search_batch_top_k_with`]
//!    exactly (order, rows, and conductance bits), at every metric,
//!    with or without a deadline.
//! 3. **Ties straddling shard boundaries** — duplicated rows placed in
//!    different shards tie bit-for-bit, and the merged winner is the
//!    lowest global row, exactly as the in-memory banked merge
//!    resolves it.
//! 4. **Routed serving** — a routed server's shards score the routed
//!    banks first, yet every winner equals a sweep of all the banks of
//!    the shards the route contacts: the whole memory at one shard.

use std::time::Duration;

use proptest::prelude::*;

use femcam_core::{
    BankedMcam, ConductanceLut, CoreError, LevelLadder, Metric, Precision, RoutedMcam,
    RouterConfig, SearchSpec,
};
use femcam_device::FefetModel;
use femcam_serve::{ServeConfig, ServeError, ShardTicket, ShardTopKTicket, ShardedServer};

fn precision_from(tag: u8) -> Precision {
    match tag % 3 {
        0 => Precision::F64,
        1 => Precision::F32,
        _ => Precision::Codes,
    }
}

/// A request's metric and optional deadline budget, drawn from two
/// tags. The budget, when set, is generous: it never expires.
fn request_from(metric_tag: u8, deadline: bool) -> (Metric, Option<Duration>) {
    let metric = Metric::ALL[usize::from(metric_tag) % Metric::ALL.len()];
    (metric, deadline.then_some(Duration::from_secs(60)))
}

fn empty_memory(bits: u8, word_len: usize, rows_per_bank: usize) -> BankedMcam {
    let ladder = LevelLadder::new(bits).expect("ladder");
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    BankedMcam::new(ladder, lut, word_len, rows_per_bank)
}

/// Deterministic pseudo-random word over `n_levels`.
fn gen_word(word_len: usize, n_levels: usize, seed: u64, salt: usize) -> Vec<u8> {
    (0..word_len)
        .map(|c| (((seed as usize).wrapping_mul(37) + salt * 23 + c * 11) % n_levels) as u8)
        .collect()
}

fn serve_config(precision: Precision) -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_micros(50),
        precision,
        ..ServeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// An interleaved store/search sequence through the N-shard
    /// server is bit-identical, step by step, to the same sequence
    /// through a one-shard server AND applied directly to a shadow
    /// memory, under any request metric and deadline.
    #[test]
    fn sharded_bit_identical_to_single_and_direct_under_stores(
        bits in 2u8..=3,
        word_len in 1usize..5,
        rows_per_bank in 1usize..5,
        n_shards in 1usize..5,
        precision_tag in 0u8..3,
        metric_tag in 0u8..4,
        deadline in any::<bool>(),
        seed in 0u64..500,
        ops in proptest::collection::vec(any::<bool>(), 4..20),
    ) {
        let precision = precision_from(precision_tag);
        let (metric, budget) = request_from(metric_tag, deadline);
        let spec = SearchSpec { precision, metric, ..SearchSpec::default() };
        let n_levels = 1usize << bits;
        // Pre-populate so the partition actually spreads banks.
        let mut initial = empty_memory(bits, word_len, rows_per_bank);
        let mut single = empty_memory(bits, word_len, rows_per_bank);
        let mut shadow = empty_memory(bits, word_len, rows_per_bank);
        for i in 0..(n_shards * rows_per_bank) {
            let word = gen_word(word_len, n_levels, seed, i);
            initial.store(&word).expect("store");
            single.store(&word).expect("store");
            shadow.store(&word).expect("store");
        }
        let sharded = ShardedServer::start(initial, n_shards, serve_config(precision));
        let single = ShardedServer::start(single, 1, serve_config(precision));
        let sh = sharded.handle();
        let sg = single.handle();
        for (i, is_store) in ops.iter().enumerate() {
            let word = gen_word(word_len, n_levels, seed ^ 0xBEEF, i);
            if *is_store {
                let sharded_row = sh.store(&word).expect("sharded store");
                let single_row = sg.store(&word).expect("single store");
                let shadow_row = shadow.store(&word).expect("shadow store");
                prop_assert_eq!(sharded_row, shadow_row, "sharded store row");
                prop_assert_eq!(single_row, shadow_row, "single store row");
            } else {
                let a = sh
                    .submit_with(&word, metric, budget)
                    .and_then(ShardTicket::wait)
                    .expect("sharded search");
                let b = sg
                    .submit_with(&word, metric, budget)
                    .and_then(ShardTicket::wait)
                    .expect("single search");
                let c = shadow
                    .search_batch_winners_with(&[&word[..]], spec)
                    .expect("direct search")[0];
                prop_assert_eq!(a.0, c.0, "sharded winner row");
                prop_assert_eq!(b.0, c.0, "single winner row");
                prop_assert_eq!(a.1.to_bits(), c.1.to_bits(), "sharded conductance");
                prop_assert_eq!(b.1.to_bits(), c.1.to_bits(), "single conductance");
            }
        }
        // A zero budget is dead on arrival under this metric too, and
        // counts once; a malformed query reports its validation error
        // first and counts nothing.
        let word = gen_word(word_len, n_levels, seed, 0);
        let rejected = sharded.stats().deadline_rejected;
        prop_assert!(matches!(
            sh.submit_with(&word, metric, Some(Duration::ZERO)),
            Err(ServeError::DeadlineExceeded { .. })
        ));
        prop_assert!(matches!(
            sh.submit_top_k(&word, 1, metric, Some(Duration::ZERO)),
            Err(ServeError::DeadlineExceeded { .. })
        ));
        prop_assert_eq!(sharded.stats().deadline_rejected, rejected + 2);
        let malformed = vec![0u8; word_len + 1];
        prop_assert!(matches!(
            sh.submit_with(&malformed, metric, Some(Duration::ZERO)),
            Err(ServeError::Core(CoreError::WordLengthMismatch { .. }))
        ));
        prop_assert!(matches!(
            sh.submit_top_k(&malformed, 1, metric, Some(Duration::ZERO)),
            Err(ServeError::Core(CoreError::WordLengthMismatch { .. }))
        ));
        prop_assert_eq!(sharded.stats().deadline_rejected, rejected + 2);
        let merged_stats = sharded.stats().merged();
        prop_assert!(merged_stats.queries + merged_stats.stores > 0);
        let reassembled = sharded.shutdown().expect("clean shutdown");
        prop_assert_eq!(reassembled.n_rows(), shadow.n_rows());
        prop_assert_eq!(reassembled.n_banks(), shadow.n_banks());
        let _ = single.shutdown();
    }

    /// The fanned top-k merge is bit-identical to the direct banked
    /// top-k at every `k`, precision, metric, deadline and shard
    /// count.
    #[test]
    fn sharded_top_k_bit_identical_to_direct(
        bits in 2u8..=3,
        word_len in 1usize..5,
        n_rows in 1usize..16,
        rows_per_bank in 1usize..4,
        n_shards in 1usize..5,
        precision_tag in 0u8..3,
        metric_tag in 0u8..4,
        deadline in any::<bool>(),
        k in 0usize..20,
        seed in 0u64..500,
    ) {
        let precision = precision_from(precision_tag);
        let (metric, budget) = request_from(metric_tag, deadline);
        let spec = SearchSpec { precision, metric, ..SearchSpec::default() };
        let n_levels = 1usize << bits;
        let mut memory = empty_memory(bits, word_len, rows_per_bank);
        let mut shadow = empty_memory(bits, word_len, rows_per_bank);
        for i in 0..n_rows {
            let word = gen_word(word_len, n_levels, seed, i);
            memory.store(&word).expect("store");
            shadow.store(&word).expect("store");
        }
        let sharded = ShardedServer::start(memory, n_shards, serve_config(precision));
        let handle = sharded.handle();
        for salt in 0..3usize {
            let query = gen_word(word_len, n_levels, seed ^ 0x7777, salt);
            let served = handle
                .submit_top_k(&query, k, metric, budget)
                .and_then(ShardTopKTicket::wait)
                .expect("sharded top-k");
            let direct = shadow
                .search_batch_top_k_with(&[&query[..]], k, spec)
                .expect("direct top-k")
                .remove(0);
            prop_assert_eq!(served.len(), direct.len());
            for (s, d) in served.iter().zip(&direct) {
                prop_assert_eq!(s.0, d.0, "top-k row order");
                prop_assert_eq!(s.1.to_bits(), d.1.to_bits(), "top-k conductance");
            }
        }
    }

    /// Exact-tie rows deliberately straddling shard boundaries: the
    /// merged winner is the lowest global row, and the top-k order
    /// lists the tied duplicates in ascending global-row order —
    /// identical to the unpartitioned memory.
    #[test]
    fn cross_shard_ties_resolve_to_lowest_global_row(
        bits in 2u8..=3,
        word_len in 1usize..5,
        filler in 0usize..4,
        n_shards in 2usize..5,
        precision_tag in 0u8..3,
        seed in 0u64..500,
    ) {
        let precision = precision_from(precision_tag);
        let n_levels = 1usize << bits;
        // One row per bank, one bank per shard (plus filler rows):
        // storing the duplicated word first and last puts the copies
        // in the first and last shard — the tie straddles every shard
        // boundary.
        let dup = gen_word(word_len, n_levels, seed, 0);
        let mut rows = vec![dup.clone()];
        rows.extend((0..filler).map(|i| gen_word(word_len, n_levels, seed, i + 1)));
        rows.push(dup.clone());
        while rows.len() < n_shards {
            rows.push(dup.clone());
        }
        let mut memory = empty_memory(bits, word_len, 1);
        let mut shadow = empty_memory(bits, word_len, 1);
        for row in &rows {
            memory.store(row).expect("store");
            shadow.store(row).expect("store");
        }
        let expected = rows.iter().position(|r| *r == dup).expect("present");
        let sharded = ShardedServer::start(memory, n_shards, serve_config(precision));
        let handle = sharded.handle();
        let (row, g) = handle.submit(&dup).and_then(ShardTicket::wait).expect("sharded search");
        let (drow, dg) = shadow
            .search_batch_winners_with(&[&dup[..]], precision)
            .expect("direct")[0];
        prop_assert_eq!(row, expected, "tie must resolve to the lowest global row");
        prop_assert_eq!(drow, expected);
        prop_assert_eq!(g.to_bits(), dg.to_bits());
        // Top-k across the tie: ascending global row among equal
        // conductances, bit-identical to the direct merge.
        let served = handle
            .submit_top_k(&dup, rows.len(), Metric::default(), None)
            .and_then(ShardTopKTicket::wait)
            .expect("top-k");
        let direct = shadow
            .search_batch_top_k_with(&[&dup[..]], rows.len(), precision)
            .expect("direct top-k")
            .remove(0);
        prop_assert_eq!(&served, &direct);
        for w in served.windows(2) {
            if w[0].1.to_bits() == w[1].1.to_bits() {
                prop_assert!(w[0].0 < w[1].0, "tied hits out of global-row order");
            }
        }
    }
}

/// `word` with `cells` random cells (repeats allowed) one level up.
fn jitter(word: &[u8], cells: usize, next: &mut impl FnMut() -> usize) -> Vec<u8> {
    let mut w = word.to_vec();
    for _ in 0..cells {
        let c = next() % w.len();
        w[c] = (w[c] + 1) % 8;
    }
    w
}

/// The shard owning each of `n_banks` start-time banks after
/// `BankedMcam::partition(n_shards)`, and the append-tail shard that
/// owns every bank added later.
fn bank_owners(n_banks: usize, n_shards: usize) -> (Vec<usize>, usize) {
    let takes: Vec<usize> = (0..n_shards)
        .map(|i| n_banks / n_shards + usize::from(i < n_banks % n_shards))
        .collect();
    let owners: Vec<usize> = takes
        .iter()
        .enumerate()
        .flat_map(|(i, &take)| std::iter::repeat_n(i, take))
        .collect();
    let tail = takes.iter().rposition(|&t| t > 0).unwrap_or(0);
    (owners, tail)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Routed serving with interleaved stores, at `Codes` and `F32` and
    /// under any request metric: every winner is bitwise the full
    /// sweep's at one shard, and at two and three shards the masked
    /// sweep over every bank of the shards the route contacts — the
    /// route picks shards, never banks within one. A word stored in the
    /// first bank and again in a later one answers with its first copy.
    #[test]
    fn routed_serving_matches_the_contacted_shards_sweep(
        seed in 0u64..10_000,
        codes in any::<bool>(),
        metric_tag in 0u8..4,
        ops in proptest::collection::vec(0u8..4, 6..14),
    ) {
        const WORD: usize = 8;
        const PER_BANK: usize = 4;
        let precision = if codes { Precision::Codes } else { Precision::F32 };
        let (metric, _) = request_from(metric_tag, false);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as usize
        };
        let centres: Vec<Vec<u8>> = (0..4)
            .map(|_| (0..WORD).map(|_| (next() % 8) as u8).collect())
            .collect();
        let mut rows: Vec<Vec<u8>> = (0..26).map(|i| jitter(&centres[i % 4], i % 3, &mut next)).collect();
        let dup = rows[1].clone();
        rows[PER_BANK * 4 + 2] = dup.clone();
        let stores: Vec<Vec<u8>> = (0..8).map(|i| jitter(&centres[i % 4], 1, &mut next)).collect();
        for shards in [1usize, 2, 3] {
            let mut memory = empty_memory(3, WORD, PER_BANK);
            for r in &rows {
                memory.store(r).expect("store");
            }
            let start_banks = memory.n_banks();
            let routed = RoutedMcam::new(memory, RouterConfig::default()).expect("router");
            let config = ServeConfig { max_batch: 8, ..serve_config(precision) };
            let server = ShardedServer::start_routed(routed, shards, config);
            let handle = server.handle();
            let mut shadow = empty_memory(3, WORD, PER_BANK);
            for r in &rows {
                shadow.store(r).expect("store");
            }
            let mut shadow = RoutedMcam::new(shadow, RouterConfig::default()).expect("router");
            let (owners, tail) = bank_owners(start_banks, shards);
            let owner = |b: usize| owners.get(b).copied().unwrap_or(tail);
            let mut n_stores = 0;
            for (step, &op) in ops.iter().enumerate() {
                if op == 0 {
                    let word = &stores[n_stores % stores.len()];
                    n_stores += 1;
                    let got = handle.store(word).expect("served store");
                    prop_assert_eq!(got, shadow.store(word).expect("shadow store"));
                    continue;
                }
                // A batch of in-flight searches: the duplicated word,
                // stored rows, near-duplicates and an arbitrary word.
                let mut queries = vec![dup.clone()];
                for i in 0..6 {
                    let r = rows[next() % rows.len()].clone();
                    queries.push(if i % 2 == 0 { r } else { jitter(&r, 1 + i % 3, &mut next) });
                }
                queries.push((0..WORD).map(|_| (next() % 8) as u8).collect());
                let tickets: Vec<_> = queries
                    .iter()
                    .map(|q| handle.submit_with(q, metric, None).expect("submit"))
                    .collect();
                let all: Vec<usize> = (0..shadow.memory().n_banks()).collect();
                for (q, ticket) in queries.iter().zip(tickets) {
                    let (row, g) = ticket.wait().expect("served search");
                    let contacted: Vec<usize> =
                        shadow.route(q).expect("route").iter().map(|&b| owner(b)).collect();
                    let banks: Vec<usize> =
                        all.iter().copied().filter(|&b| contacted.contains(&owner(b))).collect();
                    let banks = (shards > 1).then_some(banks.as_slice());
                    let spec = SearchSpec { precision, metric, banks };
                    let want =
                        shadow.memory().search_batch_winners_with(&[q], spec).expect("oracle")[0];
                    let ctx = format!(
                        "{shards} shards, step {step}, {precision:?}, {metric:?}, query {q:?}"
                    );
                    prop_assert_eq!(row, want.0, "{}", ctx);
                    prop_assert_eq!(g.to_bits(), want.1.to_bits(), "{}", ctx);
                    if *q == dup {
                        prop_assert_eq!(row, 1, "{}: a duplicate resolves to its first copy", ctx);
                    }
                }
            }
            drop(handle);
            let _ = server.shutdown();
        }
    }
}

/// The error half of the sharded contract: overload and shutdown fail
/// cleanly, and a deadline fanned across shards rejects dead work.
#[test]
fn sharded_rejections_fail_cleanly() {
    let mut memory = empty_memory(3, 4, 2);
    for i in 0..4u8 {
        memory.store(&[i, i, i, i]).expect("store");
    }
    let sharded = ShardedServer::start(
        memory,
        2,
        ServeConfig {
            max_batch: 1,
            max_wait: Duration::from_millis(20),
            queue_capacity: Some(1),
            ..ServeConfig::default()
        },
    );
    let handle = sharded.handle();
    // Overflow the 1-slot per-shard queues from this single thread.
    let mut tickets = Vec::new();
    let mut saw_overload = false;
    for _ in 0..64 {
        match handle.submit(&[1, 2, 3, 0]) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded { capacity, .. }) => {
                assert_eq!(capacity, 1);
                saw_overload = true;
                break;
            }
            Err(e) => panic!("unexpected admission error: {e:?}"),
        }
    }
    assert!(saw_overload, "capacity-1 shards never rejected");
    for t in tickets {
        t.wait().expect("admitted requests are answered");
    }
    let stats = sharded.stats();
    assert!(stats.rejected >= 1, "client-level rejection not counted");
    // Rejected fan-outs must roll their reservations back: with every
    // admitted ticket drained, the capacity-1 shards must admit fresh
    // work again (a leaked slot would reject forever here).
    sharded
        .handle()
        .submit(&[1, 2, 3, 0])
        .and_then(ShardTicket::wait)
        .expect("slots released after rejected fan-out");
    // Dead-on-arrival across the fan-out: a 1 ns budget expires before
    // any shard dispatcher pops the request.
    let ticket = handle
        .submit_with(
            &[1, 2, 3, 0],
            Metric::default(),
            Some(Duration::from_nanos(1)),
        )
        .expect("admitted");
    assert!(matches!(
        ticket.wait(),
        Err(ServeError::DeadlineExceeded { .. })
    ));
    let _ = sharded.shutdown();
    assert!(matches!(
        handle.submit(&[1, 2, 3, 0]).and_then(ShardTicket::wait),
        Err(ServeError::ShuttingDown)
    ));
}
