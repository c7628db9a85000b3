//! The serving layer's determinism contract, pinned as properties:
//!
//! 1. **Bit-identity** — every served result equals a direct
//!    [`BankedMcam::search_with`] at the same precision against an
//!    identically mutated shadow memory: same winning global row, same
//!    `f64` conductance, bitwise. This holds regardless of which
//!    micro-batch a request lands in (batch composition is timing
//!    dependent; results must not be).
//! 2. **Interleaved stores** — a store acknowledged by the server is
//!    visible to every later search (the dispatcher-queue barrier
//!    ordering), and the served row indices equal the shadow's.
//! 3. **Concurrent burst coalescing** — a burst of tickets submitted
//!    before any waits still answers each request bit-identically, in
//!    submission order.

use std::time::Duration;

use proptest::prelude::*;

use femcam_core::{BankedMcam, ConductanceLut, LevelLadder, Precision};
use femcam_device::FefetModel;
use femcam_serve::{ServeConfig, ServeError, ShardedServer};

fn precision_from(tag: u8) -> Precision {
    match tag % 3 {
        0 => Precision::F64,
        1 => Precision::F32,
        _ => Precision::Codes,
    }
}

fn empty_memory(bits: u8, word_len: usize, rows_per_bank: usize) -> BankedMcam {
    let ladder = LevelLadder::new(bits).expect("ladder");
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    BankedMcam::new(ladder, lut, word_len, rows_per_bank)
}

/// Deterministic pseudo-random word over `n_levels`.
fn gen_word(word_len: usize, n_levels: usize, seed: u64, salt: usize) -> Vec<u8> {
    (0..word_len)
        .map(|c| (((seed as usize).wrapping_mul(41) + salt * 17 + c * 7) % n_levels) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An interleaved store/search sequence through the server is
    /// bit-identical, step by step, to the same sequence applied
    /// directly to a shadow memory.
    #[test]
    fn served_results_bit_identical_under_interleaved_stores(
        bits in 2u8..=3,
        word_len in 1usize..6,
        rows_per_bank in 1usize..6,
        precision_tag in 0u8..3,
        seed in 0u64..500,
        ops in proptest::collection::vec(any::<bool>(), 4..24),
    ) {
        let precision = precision_from(precision_tag);
        let n_levels = 1usize << bits;
        let memory = empty_memory(bits, word_len, rows_per_bank);
        let mut shadow = empty_memory(bits, word_len, rows_per_bank);
        let server = ShardedServer::start(memory, 1, ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_micros(50),
            precision,
            ..ServeConfig::default()
        });
        let handle = server.handle();
        // Seed one row so searches are well-defined from the start.
        let first = gen_word(word_len, n_levels, seed, 0);
        prop_assert_eq!(handle.store(&first).expect("store"), 0);
        shadow.store(&first).expect("shadow store");
        for (i, is_store) in ops.iter().enumerate() {
            let word = gen_word(word_len, n_levels, seed, i + 1);
            if *is_store {
                // The acknowledged store must land at the same global
                // row as the shadow's, and is visible to the very next
                // search.
                let served_row = handle.store(&word).expect("served store");
                let shadow_row = shadow.store(&word).expect("shadow store");
                prop_assert_eq!(served_row, shadow_row);
            } else {
                let served = handle.search(&word).expect("served search");
                let direct = shadow.search_with(&word, precision).expect("direct search");
                prop_assert_eq!(served.0, direct.0, "winning row diverged");
                prop_assert_eq!(
                    served.1.to_bits(),
                    direct.1.to_bits(),
                    "conductance not bit-identical"
                );
            }
        }
        let memory = server.shutdown().unwrap();
        prop_assert_eq!(memory.n_rows(), shadow.n_rows());
    }

    /// A burst of in-flight submissions — the composition the
    /// dispatcher actually coalesces into micro-batches — answers each
    /// ticket bit-identically to a direct search, in submission order.
    #[test]
    fn concurrent_burst_is_bit_identical_per_request(
        bits in 2u8..=3,
        word_len in 1usize..6,
        n_rows in 1usize..20,
        rows_per_bank in 1usize..6,
        precision_tag in 0u8..3,
        burst in 1usize..24,
        seed in 0u64..500,
    ) {
        let precision = precision_from(precision_tag);
        let n_levels = 1usize << bits;
        let mut memory = empty_memory(bits, word_len, rows_per_bank);
        let mut shadow = empty_memory(bits, word_len, rows_per_bank);
        for i in 0..n_rows {
            let word = gen_word(word_len, n_levels, seed, i);
            memory.store(&word).expect("store");
            shadow.store(&word).expect("shadow store");
        }
        let server = ShardedServer::start(memory, 1, ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(100),
            precision,
            // The whole burst must be admissible at once; the default
            // capacity is sized for this box's worker count, which can
            // be below the largest generated burst.
            queue_capacity: Some(64),
            ..ServeConfig::default()
        });
        let handle = server.handle();
        let queries: Vec<Vec<u8>> = (0..burst)
            .map(|i| gen_word(word_len, n_levels, seed ^ 0xA5A5, i))
            .collect();
        // Submit everything before waiting on anything: the dispatcher
        // is free to slice this into any batch composition.
        let tickets: Vec<_> = queries
            .iter()
            .map(|q| handle.submit(q).expect("admitted"))
            .collect();
        for (query, ticket) in queries.iter().zip(tickets) {
            let served = ticket.wait().expect("answered");
            let direct = shadow.search_with(query, precision).expect("direct");
            prop_assert_eq!(served.0, direct.0);
            prop_assert_eq!(served.1.to_bits(), direct.1.to_bits());
        }
        let stats = server.stats().merged();
        prop_assert_eq!(stats.queries, burst as u64);
    }
}

/// Admission-rejected and post-shutdown requests fail cleanly and
/// never hang — the error half of the serving contract.
#[test]
fn rejected_requests_fail_cleanly() {
    let mut memory = empty_memory(3, 4, 4);
    memory.store(&[1, 2, 3, 4]).expect("store");
    let server = ShardedServer::start(
        memory,
        1,
        ServeConfig {
            max_batch: 1,
            max_wait: Duration::from_millis(50),
            queue_capacity: Some(1),
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    // Fill the single admission slot, then overflow it.
    let mut tickets = Vec::new();
    let mut saw_overload = false;
    for _ in 0..64 {
        match handle.submit(&[1, 2, 3, 4]) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded { capacity, .. }) => {
                assert_eq!(capacity, 1);
                saw_overload = true;
                break;
            }
            Err(e) => panic!("unexpected admission error: {e:?}"),
        }
    }
    assert!(saw_overload, "capacity-1 queue never rejected");
    for t in tickets {
        t.wait().expect("admitted requests are answered");
    }
    let _ = server.shutdown();
    assert!(matches!(
        handle.search(&[1, 2, 3, 4]),
        Err(ServeError::ShuttingDown)
    ));
}
