//! Chaos harness (feature `chaos`): drives the serving stack through
//! deterministic injected faults and pins the failure-model contract:
//!
//! 1. **No hangs** — every ticket resolves (with an answer or a clean
//!    error) under interleaved stores, injected dispatcher panics,
//!    and forced admission overload, across precisions and shard
//!    counts, including tickets queued behind the failing batch.
//! 2. **Post-heal bit-identity** — once a fault schedule's budget is
//!    spent, a supervised dispatcher's answers are bitwise identical
//!    to a direct [`BankedMcam`] search, and shutdown still recovers
//!    the memory.
//! 3. **Degraded answers are exact over their coverage** — a merge
//!    that lost a shard reports exactly which banks contributed, and
//!    the answer equals [`BankedMcam::search_batch_winners_with`]
//!    masked to that subset, bitwise.
//! 4. **Terminal failure is clean** — a tripped restart breaker stops
//!    the crash-loop, quarantines the shard (new searches find no live
//!    shard, stores get `DispatcherFailed`), and still hands the
//!    memory back on shutdown. A panic the dispatcher heals from, by
//!    contrast, costs the shard nothing beyond the one merge.
//! 5. **Quarantine is survivable and reversible** — killing N−1 of N
//!    shards under closed-loop load loses no ticket, every degraded
//!    answer stays exact over its reported coverage, the probe/
//!    re-admit supervisor resurrects every shard behind the canary
//!    bit-identity gate, and post-resurrection answers are bitwise
//!    identical to the full-sweep oracle. Store traffic racing the
//!    re-admit lifecycle loses no row from merges or router buckets.
//!
//! Proptest case counts are tunable via the `FEMCAM_CHAOS_CASES` env
//! knob (CI smoke runs use a small value; soak runs can raise it).

#![cfg(feature = "chaos")]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Once};
use std::thread;
use std::time::Duration;

use proptest::prelude::*;

use femcam_core::{
    BankedMcam, ConductanceLut, LevelLadder, Metric, Precision, RoutedMcam, RouterConfig,
    SearchSpec,
};
use femcam_device::FefetModel;
use femcam_serve::fault::{FaultKind, FaultPlan, FaultRule, FaultSite, CHAOS_PANIC};
use femcam_serve::{
    DegradedPolicy, ServeConfig, ServeError, ShardHealth, ShardTicket, ShardedServer,
};

/// Injected panics unwind dispatcher threads by design; silence their
/// default-hook backtraces (real panics still print).
fn quiet_chaos_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if msg.is_some_and(|m| m.starts_with(CHAOS_PANIC)) {
                return;
            }
            default(info);
        }));
    });
}

/// Every chaos schedule runs with the lock-order tracker live (debug
/// builds and `--features lockorder`): no schedule the injector
/// explores may record a potential-deadlock cycle.
fn assert_no_lock_order_cycles() {
    let reports = femcam_core::sync::take_cycle_reports();
    assert!(
        reports.is_empty() && femcam_core::sync::cycle_report_count() == 0,
        "lock-order cycles reported under chaos: {reports:#?}"
    );
}

const BITS: u8 = 3;
const WORD_LEN: usize = 4;
const ROWS_PER_BANK: usize = 2;
const N_LEVELS: usize = 8;

/// Closed-loop clients the quarantine storm drives.
const STORM_CLIENTS: usize = 32;
/// Shards in the quarantine storm (N−1 of them are killed).
const STORM_SHARDS: usize = 4;
/// Rows seeded for the storm: 8 banks, 2 per shard.
const STORM_ROWS: usize = 16;

/// Proptest case count, overridable via the `FEMCAM_CHAOS_CASES` env
/// knob so CI smoke stays fast while soak runs can crank it up.
fn chaos_cases(default: u32) -> u32 {
    std::env::var("FEMCAM_CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(1)
}

fn empty_memory() -> BankedMcam {
    let ladder = LevelLadder::new(BITS).expect("ladder");
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    BankedMcam::new(ladder, lut, WORD_LEN, ROWS_PER_BANK)
}

/// Deterministic pseudo-random word over the level alphabet.
fn gen_word(seed: u64, salt: usize) -> Vec<u8> {
    (0..WORD_LEN)
        .map(|c| (((seed as usize).wrapping_mul(37) + salt * 23 + c * 11) % N_LEVELS) as u8)
        .collect()
}

/// A served memory and its identically-populated shadow (the direct
/// oracle) — `rows` rows each, deterministic contents.
fn seeded_pair(rows: usize, seed: u64) -> (BankedMcam, BankedMcam) {
    let mut memory = empty_memory();
    let mut shadow = empty_memory();
    for salt in 0..rows {
        let word = gen_word(seed, salt);
        memory.store(&word).expect("store");
        shadow.store(&word).expect("store");
    }
    (memory, shadow)
}

fn chaos_config(faults: FaultPlan) -> ServeConfig {
    ServeConfig {
        max_batch: 2,
        max_wait: Duration::from_micros(50),
        faults: Some(faults),
        ..ServeConfig::default()
    }
}

/// Contract 2: three sure pre-batch panics kill three consecutive
/// batches (each waiter gets `DispatcherFailed`, never a hang), the
/// supervisor restarts in place each time, and once the budget is
/// spent every answer is bitwise identical to the direct search.
#[test]
fn dispatcher_heals_and_post_heal_results_are_bit_identical() {
    quiet_chaos_panics();
    let (memory, shadow) = seeded_pair(8, 41);
    let plan = FaultPlan::new(
        7,
        vec![FaultRule::sure(FaultSite::PreBatch, FaultKind::Panic, 3)],
    );
    let server = ShardedServer::start(memory, 1, chaos_config(plan.clone()));
    let handle = server.handle();
    let probe = gen_word(41, 2);
    // Healthy warm-up: the plan is still disarmed.
    let healthy = handle
        .submit(&probe)
        .and_then(ShardTicket::wait)
        .expect("warm-up search");
    plan.set_armed(true);
    for _ in 0..3 {
        match handle.submit(&probe).and_then(ShardTicket::wait) {
            Err(ServeError::DispatcherFailed { detail }) => {
                assert!(
                    detail.contains(CHAOS_PANIC),
                    "panic payload lost in supervision: {detail}"
                );
            }
            other => panic!("batch under a sure panic must fail cleanly, got {other:?}"),
        }
    }
    assert_eq!(plan.injected(FaultSite::PreBatch), 3);
    assert_eq!(server.stats().per_shard[0].restarts, 3);
    assert!(
        !server.stats().per_shard[0].failed,
        "3 restarts are within the default budget"
    );
    // Healed: every post-heal answer is bit-identical to the oracle.
    for salt in 0..8 {
        let query = gen_word(41, salt);
        let (row, score) = handle
            .submit(&query)
            .and_then(ShardTicket::wait)
            .expect("post-heal search");
        let (want_row, want_score) = shadow
            .search_batch_winners_with(&[&query[..]], Precision::F64)
            .map(|w| w[0])
            .expect("oracle");
        assert_eq!(row, want_row);
        assert_eq!(score.to_bits(), want_score.to_bits(), "salt {salt}");
    }
    assert_eq!(
        handle
            .submit(&probe)
            .and_then(ShardTicket::wait)
            .expect("healed"),
        healthy
    );
    let recovered = server.shutdown().expect("clean shutdown after healing");
    assert_eq!(recovered.n_rows(), 8);
    assert_no_lock_order_cycles();
}

/// Contract 4: an unlimited panic schedule against a tiny restart
/// budget trips the breaker into the terminal `Failed` state — new
/// work is rejected (`Degraded` with nothing searched for a search,
/// `DispatcherFailed` for a store) instead of crash-looping, and
/// shutdown still recovers the memory.
#[test]
fn restart_breaker_trips_to_terminal_failed_state() {
    quiet_chaos_panics();
    let (memory, _) = seeded_pair(8, 43);
    let plan = FaultPlan::armed(
        11,
        vec![FaultRule {
            site: FaultSite::PreBatch,
            kind: FaultKind::Panic,
            probability: 1.0,
            budget: None,
        }],
    );
    let server = ShardedServer::start(
        memory,
        1,
        ServeConfig {
            restart_budget: 2,
            restart_window: Duration::from_secs(60),
            ..chaos_config(plan)
        },
    );
    let handle = server.handle();
    let probe = gen_word(43, 0);
    // Every batch panics; the third restart exceeds the budget of 2.
    for _ in 0..3 {
        assert!(
            matches!(
                handle.submit(&probe).and_then(ShardTicket::wait),
                Err(ServeError::DispatcherFailed { .. })
            ),
            "every batch under an unlimited sure panic fails cleanly"
        );
    }
    // The waiter is answered just before the dispatcher records the
    // tripping restart: give the flag a moment to become visible.
    for _ in 0..200 {
        if server.stats().per_shard[0].failed {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        server.stats().per_shard[0].failed,
        "breaker past budget is terminal"
    );
    assert!(server.stats().per_shard[0].restarts >= 3);
    // Terminal state rejects rather than hangs or crash-loops: the
    // front end quarantined its only shard, so no shard is live.
    assert!(matches!(
        handle.submit(&probe).and_then(ShardTicket::wait),
        Err(ServeError::Degraded { searched: 0, .. })
    ));
    assert!(matches!(
        handle.store(&probe),
        Err(ServeError::DispatcherFailed { .. })
    ));
    // The supervised exit still hands the memory back.
    let recovered = server
        .shutdown()
        .expect("terminal server recovers its memory");
    assert_eq!(recovered.n_rows(), 8);
}

/// A dispatcher that panics once and heals in place is not a dead
/// shard: the panicked request loses that shard's banks from its merge
/// only, the shard stays `Healthy`, and the very next request reaches
/// it again with full coverage and bit-identical answers. At one shard
/// the lone loss reports the caught `DispatcherFailed` with its panic
/// payload; at two the survivor answers a degraded merge that is exact
/// over its coverage.
#[test]
fn healed_panic_keeps_the_shard_in_service() {
    quiet_chaos_panics();
    for shards in [1usize, 2] {
        let (memory, shadow) = seeded_pair(8, 73);
        let plan = FaultPlan::armed(
            31,
            vec![FaultRule::sure(FaultSite::PreBatch, FaultKind::Panic, 1)],
        );
        let server = ShardedServer::start(memory, shards, chaos_config(plan.clone()));
        let handle = server.handle();
        let query = gen_word(73, 3);
        match handle.submit(&query).expect("fan-out").wait_covered() {
            Err(ServeError::DispatcherFailed { detail }) if shards == 1 => {
                assert!(
                    detail.contains(CHAOS_PANIC),
                    "panic payload lost in the merge: {detail}"
                );
            }
            Ok(covered) if shards == 2 => {
                assert!(covered.coverage.degraded(), "one shard panicked");
                let (want_row, want_g) = shadow
                    .search_batch_winners_with(
                        &[&query[..]],
                        SearchSpec {
                            precision: Precision::F64,
                            banks: Some(&covered.coverage.banks),
                            ..SearchSpec::default()
                        },
                    )
                    .map(|w| w[0])
                    .expect("masked oracle");
                assert_eq!(covered.value.0, want_row);
                assert_eq!(covered.value.1.to_bits(), want_g.to_bits());
            }
            other => panic!("{shards} shard(s): unexpected answer under the panic: {other:?}"),
        }
        assert_eq!(plan.injected(FaultSite::PreBatch), 1);
        // The next requests reach every shard again, bit-identically.
        for salt in 0..8 {
            let query = gen_word(73, salt);
            let covered = handle
                .submit(&query)
                .expect("submit after heal")
                .wait_covered()
                .expect("merge after heal");
            assert!(
                !covered.coverage.degraded(),
                "{shards} shard(s), salt {salt}: coverage {:?}",
                covered.coverage
            );
            let (want_row, want_g) = shadow
                .search_batch_winners_with(&[&query[..]], Precision::F64)
                .map(|w| w[0])
                .expect("oracle");
            assert_eq!(covered.value.0, want_row, "{shards} shard(s), salt {salt}");
            assert_eq!(
                covered.value.1.to_bits(),
                want_g.to_bits(),
                "{shards} shard(s), salt {salt}"
            );
        }
        let stats = server.stats();
        assert!(
            stats.health.iter().all(|h| *h == ShardHealth::Healthy),
            "{shards} shard(s): a healed panic escalated health to {:?}",
            stats.health
        );
        assert_eq!(stats.quarantined, 0, "{shards} shard(s)");
        assert_eq!(
            stats.per_shard.iter().map(|s| s.restarts).sum::<u64>(),
            1,
            "{shards} shard(s)"
        );
        let recovered = server.shutdown().expect("clean shutdown");
        assert_eq!(recovered.n_rows(), 8);
    }
    assert_no_lock_order_cycles();
}

/// Builds a two-shard server over 8 seeded rows (4 banks, 2 per
/// shard), kills the tail shard via store panics against a
/// zero-restart budget, and returns the handle plus shadow memory.
fn killed_tail_fixture(policy: DegradedPolicy) -> (ShardedServer, BankedMcam) {
    let (memory, shadow) = seeded_pair(8, 47);
    let plan = FaultPlan::armed(
        13,
        vec![FaultRule {
            site: FaultSite::Store,
            kind: FaultKind::Panic,
            probability: 1.0,
            budget: None,
        }],
    );
    let server = ShardedServer::start(
        memory,
        2,
        ServeConfig {
            restart_budget: 0,
            degraded_policy: policy,
            ..chaos_config(plan)
        },
    );
    // Stores route to the tail shard only: the injected panic trips
    // its zero budget immediately (and, by the Store-site contract,
    // never mutates the memory — the shadow stays identical).
    let handle = server.handle();
    assert!(matches!(
        handle.store(&gen_word(47, 99)),
        Err(ServeError::DispatcherFailed { .. })
    ));
    (server, shadow)
}

/// Contract 3 (fail-open): with the tail shard quarantined, searches
/// complete over the surviving shard, report exactly which banks
/// contributed, and the answer equals the masked direct search over
/// that subset, bitwise.
#[test]
fn quarantined_shard_yields_exact_masked_coverage() {
    quiet_chaos_panics();
    let (server, shadow) = killed_tail_fixture(DegradedPolicy::FailOpen);
    let handle = server.handle();
    for salt in 0..8 {
        let query = gen_word(47, salt);
        let covered = handle
            .submit(&query)
            .expect("fan-out to survivors")
            .wait_covered()
            .expect("fail-open merge completes");
        assert!(covered.coverage.degraded());
        assert_eq!(covered.coverage.searched, 2, "surviving shard owns 2 banks");
        assert_eq!(covered.coverage.total, 4);
        assert_eq!(covered.coverage.banks, vec![0, 1]);
        let (want_row, want_score) = shadow
            .search_batch_winners_with(
                &[&query[..]],
                SearchSpec {
                    precision: Precision::F64,
                    banks: Some(&covered.coverage.banks),
                    ..SearchSpec::default()
                },
            )
            .map(|w| w[0])
            .expect("masked oracle");
        let (row, score) = covered.value;
        assert_eq!(row, want_row, "salt {salt}");
        assert_eq!(score.to_bits(), want_score.to_bits(), "salt {salt}");
    }
    assert_eq!(
        handle.shard_health(),
        vec![ShardHealth::Healthy, ShardHealth::Quarantined]
    );
    // Even the tripped shard exits its terminal drain cleanly: the
    // supervised dispatcher still owns its memory, so shutdown
    // reassembles the full partition (and the injected store panics
    // never mutated it).
    let recovered = server
        .shutdown()
        .expect("terminal shard recovers its banks");
    assert_eq!(recovered.n_rows(), 8);
}

/// Contract 3 (fail-closed): the same quarantine scenario refuses the
/// partial merge with `ServeError::Degraded` carrying the exact
/// coverage counts.
#[test]
fn fail_closed_policy_refuses_degraded_merges() {
    quiet_chaos_panics();
    let (server, _) = killed_tail_fixture(DegradedPolicy::FailClosed);
    let handle = server.handle();
    match handle.submit(&gen_word(47, 0)).and_then(ShardTicket::wait) {
        Err(ServeError::Degraded { searched, total }) => {
            assert_eq!((searched, total), (2, 4));
        }
        other => panic!("fail-closed must refuse the partial merge, got {other:?}"),
    }
    drop(server);
}

/// A shard stalled past the per-shard timeout loses its contribution:
/// the merge completes over the fast shard, coverage shrinks
/// accordingly, the answer is exact over the covered banks, and the
/// slow shard is marked `Degraded` (it keeps receiving traffic).
#[test]
fn delayed_shard_times_out_into_degraded_coverage() {
    quiet_chaos_panics();
    let (memory, shadow) = seeded_pair(8, 53);
    let plan = FaultPlan::armed(
        17,
        vec![FaultRule::sure(
            FaultSite::PreBatch,
            FaultKind::Delay(Duration::from_millis(600)),
            1,
        )],
    );
    let server = ShardedServer::start(
        memory,
        2,
        ServeConfig {
            shard_timeout: Some(Duration::from_millis(120)),
            ..chaos_config(plan)
        },
    );
    let handle = server.handle();
    let query = gen_word(53, 3);
    // Whichever dispatcher samples the site first absorbs the single
    // delay — the schedule decides which, the budget guarantees one.
    let covered = handle
        .submit(&query)
        .expect("fan-out")
        .wait_covered()
        .expect("fail-open merge completes over the fast shard");
    assert!(covered.coverage.degraded());
    assert_eq!(covered.coverage.searched, 2);
    assert_eq!(covered.coverage.total, 4);
    let (want_row, want_score) = shadow
        .search_batch_winners_with(
            &[&query[..]],
            SearchSpec {
                precision: Precision::F64,
                banks: Some(&covered.coverage.banks),
                ..SearchSpec::default()
            },
        )
        .map(|w| w[0])
        .expect("masked oracle");
    assert_eq!(covered.value.0, want_row);
    assert_eq!(covered.value.1.to_bits(), want_score.to_bits());
    let health = handle.shard_health();
    assert_eq!(
        health
            .iter()
            .filter(|h| **h == ShardHealth::Degraded)
            .count(),
        1,
        "exactly one shard missed the deadline: {health:?}"
    );
    // The stall was transient: once the sleep drains, full coverage
    // returns (a Degraded shard is not fenced off). Probe until the
    // stalled dispatcher catches up with its queue.
    let mut healed = false;
    for _ in 0..60 {
        std::thread::sleep(Duration::from_millis(50));
        let covered = handle
            .submit(&query)
            .expect("fan-out")
            .wait_covered()
            .expect("merge");
        if !covered.coverage.degraded() {
            healed = true;
            break;
        }
    }
    assert!(healed, "stalled shard never returned to full coverage");
    let recovered = server.shutdown().expect("both dispatchers alive");
    assert_eq!(recovered.n_rows(), 8);
}

/// A poisoned router lock (injected via the RouterRead panic, which
/// unwinds a sacrificial thread holding the write guard) degrades
/// routing to the full fan-out: every answer stays exact, and stores
/// keep succeeding without the router's bucket update.
#[test]
fn poisoned_router_degrades_to_full_fan_out() {
    quiet_chaos_panics();
    let (memory, mut shadow) = seeded_pair(8, 59);
    let routed = RoutedMcam::new(memory, RouterConfig::default()).expect("router");
    let plan = FaultPlan::armed(
        19,
        vec![FaultRule::sure(FaultSite::RouterRead, FaultKind::Panic, 1)],
    );
    let server = ShardedServer::start_routed(routed, 2, chaos_config(plan.clone()));
    let handle = server.handle();
    // The first search consumes the poison budget and, with the lock
    // poisoned, falls back to the full fan-out — which is exactly the
    // unrouted winner.
    for salt in 0..8 {
        let query = gen_word(59, salt);
        let (row, score) = handle
            .submit(&query)
            .and_then(ShardTicket::wait)
            .expect("poisoned route degrades");
        let (want_row, want_score) = shadow
            .search_batch_winners_with(&[&query[..]], Precision::F64)
            .map(|w| w[0])
            .expect("oracle");
        assert_eq!(row, want_row, "salt {salt}");
        assert_eq!(score.to_bits(), want_score.to_bits(), "salt {salt}");
    }
    assert_eq!(plan.injected(FaultSite::RouterRead), 1);
    // Stores survive the poisoned lock (the bucket update is skipped;
    // full fan-out keeps the new row reachable).
    let word = gen_word(59, 100);
    assert_eq!(handle.store(&word).expect("store past poison"), 8);
    shadow.store(&word).expect("shadow store");
    let (row, _) = handle
        .submit(&word)
        .and_then(ShardTicket::wait)
        .expect("new row reachable");
    let (want_row, _) = shadow
        .search_batch_winners_with(&[&word[..]], Precision::F64)
        .map(|w| w[0])
        .expect("oracle");
    assert_eq!(row, want_row);
    let recovered = server.shutdown().expect("clean shutdown");
    assert_eq!(recovered.n_rows(), 9);
    assert_no_lock_order_cycles();
}

/// Satellite pin (error precedence): a request whose deadline has
/// already expired reports `DeadlineExceeded`, never `Degraded`, even
/// when the topology is simultaneously quarantined — at both layers
/// where the two errors can collide (the merge and the fan-out).
#[test]
fn expired_deadline_outranks_quarantined_topology() {
    quiet_chaos_panics();
    // Merge layer: fail-closed + killed tail reports Degraded for a
    // plain search, but the request's own expired deadline wins.
    let (server, _) = killed_tail_fixture(DegradedPolicy::FailClosed);
    let handle = server.handle();
    let query = gen_word(47, 0);
    assert!(matches!(
        handle.submit(&query).and_then(ShardTicket::wait),
        Err(ServeError::Degraded { .. })
    ));
    match handle
        .submit_with(&query, Metric::default(), Some(Duration::from_nanos(1)))
        .and_then(ShardTicket::wait)
    {
        Err(ServeError::DeadlineExceeded { .. }) => {}
        other => panic!("expired deadline must outrank Degraded, got {other:?}"),
    }
    drop(server);
    // Fan-out layer: with EVERY shard quarantined the fan-out itself
    // errors Degraded — unless the deadline already expired.
    let (memory, _) = seeded_pair(8, 71);
    let plan = FaultPlan::armed(
        23,
        vec![FaultRule::sure(FaultSite::PreBatch, FaultKind::Panic, 2)],
    );
    let server = ShardedServer::start(
        memory,
        2,
        ServeConfig {
            restart_budget: 0,
            ..chaos_config(plan)
        },
    );
    let handle = server.handle();
    let query = gen_word(71, 0);
    for _ in 0..200 {
        let _ = handle.submit(&query).and_then(ShardTicket::wait);
        if handle
            .shard_health()
            .iter()
            .all(|h| *h == ShardHealth::Quarantined)
        {
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }
    assert!(
        handle
            .shard_health()
            .iter()
            .all(|h| *h == ShardHealth::Quarantined),
        "both dispatchers should trip their zero restart budget"
    );
    assert!(matches!(
        handle.submit(&query).and_then(ShardTicket::wait),
        Err(ServeError::Degraded { searched: 0, .. })
    ));
    match handle
        .submit_with(&query, Metric::default(), Some(Duration::from_nanos(1)))
        .and_then(ShardTicket::wait)
    {
        Err(ServeError::DeadlineExceeded { .. }) => {}
        other => panic!("expired deadline must outrank a dead topology, got {other:?}"),
    }
    drop(server);
}

/// Probe and Readmit fault sites: an injected fault at either stage of
/// the re-admit lifecycle fails the probe (counted, shard back to
/// `Quarantined`, memory never lost) and a later retry completes the
/// resurrection with bit-identical answers.
#[test]
fn probe_and_readmit_faults_fail_closed_then_retry_succeeds() {
    quiet_chaos_panics();
    let (memory, mut shadow) = seeded_pair(8, 61);
    let plan = FaultPlan::armed(
        29,
        vec![
            FaultRule::sure(FaultSite::Store, FaultKind::Panic, 1),
            FaultRule::sure(FaultSite::Probe, FaultKind::Panic, 1),
            FaultRule::sure(FaultSite::Readmit, FaultKind::Overload, 1),
        ],
    );
    let server = ShardedServer::start(
        memory,
        2,
        ServeConfig {
            restart_budget: 0,
            ..chaos_config(plan)
        },
    );
    let handle = server.handle();
    // A healthy shard is a probe no-op.
    assert!(!server.try_readmit(0).expect("healthy no-op"));
    // The sure store panic trips the tail's zero restart budget.
    assert!(matches!(
        handle.store(&gen_word(61, 99)),
        Err(ServeError::DispatcherFailed { .. })
    ));
    // The waiter is answered just before the breaker records the
    // tripping restart: drive searches until a client observes the
    // dead dispatcher and quarantines the shard (otherwise the first
    // probe below could see a still-Healthy board and no-op without
    // consuming its injected fault).
    for _ in 0..200 {
        let _ = handle.submit(&gen_word(61, 0)).and_then(ShardTicket::wait);
        if handle.shard_health()[1] == ShardHealth::Quarantined {
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(handle.shard_health()[1], ShardHealth::Quarantined);
    // Probe 1 absorbs the injected Probe fault: fail-closed, counted.
    assert!(!server.try_readmit(1).expect("probe survives"));
    assert_eq!(handle.shard_health()[1], ShardHealth::Quarantined);
    // Probe 2 passes the canary but absorbs the Readmit fault — the
    // replacement stays installed (the memory is live again) yet the
    // shard remains quarantined for the next retry.
    assert!(!server.try_readmit(1).expect("readmit survives"));
    assert_eq!(handle.shard_health()[1], ShardHealth::Quarantined);
    // Probe 3: budgets spent, the shard rejoins the board.
    assert!(server.try_readmit(1).expect("resurrection"));
    assert_eq!(
        handle.shard_health(),
        vec![ShardHealth::Healthy, ShardHealth::Healthy]
    );
    let stats = server.stats();
    assert_eq!(stats.probe_failures, 2);
    assert_eq!(stats.readmitted, 1);
    assert!(stats.quarantined >= 1);
    // Stores work again (they route to the resurrected tail), and
    // every answer is full-coverage bit-identical to the oracle.
    let word = gen_word(61, 100);
    assert_eq!(handle.store(&word).expect("store after re-admit"), 8);
    shadow.store(&word).expect("shadow store");
    for row in 0..shadow.n_rows() {
        let query = shadow.row(row).expect("resident row").to_vec();
        let covered = handle
            .submit(&query)
            .expect("submit")
            .wait_covered()
            .expect("full merge");
        assert!(!covered.coverage.degraded(), "row {row}");
        let (want_row, want_g) = shadow
            .search_batch_winners_with(&[&query[..]], Precision::F64)
            .map(|w| w[0])
            .expect("oracle");
        assert_eq!(covered.value.0, want_row, "row {row}");
        assert_eq!(covered.value.1.to_bits(), want_g.to_bits(), "row {row}");
    }
    let recovered = server.shutdown().expect("clean shutdown");
    assert_eq!(recovered.n_rows(), 9);
    assert_no_lock_order_cycles();
}

/// Tentpole (contract 5): the quarantine storm. Kill N−1 of N shards
/// under closed-loop load from [`STORM_CLIENTS`] clients and require:
/// every ticket resolves (joining the clients proves it), every
/// degraded answer is exact over its reported coverage (bitwise vs the
/// masked oracle), the probe supervisor re-admits every killed shard,
/// and post-resurrection answers are full-coverage bit-identical to
/// the full-sweep oracle.
fn quarantine_storm_scenario(seed: u64) {
    let (memory, _) = seeded_pair(STORM_ROWS, seed);
    let kills = (STORM_SHARDS - 1) as u64;
    let plan = FaultPlan::new(
        seed,
        vec![FaultRule::sure(
            FaultSite::PreBatch,
            FaultKind::Panic,
            kills,
        )],
    );
    let server = ShardedServer::start(
        memory,
        STORM_SHARDS,
        ServeConfig {
            restart_budget: 0,
            probe_interval: Some(Duration::from_millis(25)),
            ..chaos_config(plan.clone())
        },
    );
    let handle = server.handle();
    // Healthy warm-up: full coverage while the plan is disarmed.
    let warm = handle
        .submit(&gen_word(seed, 0))
        .expect("warm-up submit")
        .wait_covered()
        .expect("warm-up merge");
    assert!(!warm.coverage.degraded(), "warm-up must be full coverage");
    plan.set_armed(true);
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..STORM_CLIENTS)
        .map(|c| {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                // Each client carries its own oracle copy (the storm
                // injects no store faults, so the served memory never
                // diverges from the seeded contents).
                let (oracle, _) = seeded_pair(STORM_ROWS, seed);
                let mut resolved = 0u64;
                let mut salt = c;
                while !stop.load(Ordering::Relaxed) {
                    let query = gen_word(seed, salt % STORM_ROWS);
                    salt += 1;
                    let ticket = match handle.submit(&query) {
                        Ok(ticket) => ticket,
                        Err(
                            ServeError::Overloaded { .. }
                            | ServeError::Degraded { .. }
                            | ServeError::DispatcherFailed { .. }
                            | ServeError::ShuttingDown,
                        ) => continue,
                        Err(e) => panic!("client {c}: unexpected admission error: {e:?}"),
                    };
                    // The closed loop: every ticket must RESOLVE. A
                    // hang here leaves the client unjoinable and fails
                    // the test's wall clock.
                    match ticket.wait_covered() {
                        Ok(covered) => {
                            assert_eq!(
                                covered.coverage.searched,
                                covered.coverage.banks.len(),
                                "client {c}: coverage counts must match its bank list"
                            );
                            let (want_row, want_g) = oracle
                                .search_batch_winners_with(
                                    &[&query[..]],
                                    SearchSpec {
                                        precision: Precision::F64,
                                        banks: Some(&covered.coverage.banks),
                                        ..SearchSpec::default()
                                    },
                                )
                                .map(|w| w[0])
                                .expect("masked oracle");
                            assert_eq!(covered.value.0, want_row, "client {c}");
                            assert_eq!(
                                covered.value.1.to_bits(),
                                want_g.to_bits(),
                                "client {c}: degraded answers must stay exact over coverage"
                            );
                        }
                        Err(
                            ServeError::Degraded { .. }
                            | ServeError::DispatcherFailed { .. }
                            | ServeError::ShuttingDown,
                        ) => {}
                        Err(e) => panic!("client {c}: unexpected merge error: {e:?}"),
                    }
                    resolved += 1;
                }
                resolved
            })
        })
        .collect();
    // Storm convergence: the monotone counters must record all N−1
    // kills AND their resurrections, and the board must settle fully
    // healthy. (A replacement that absorbs leftover panic budget gets
    // re-killed and re-admitted — the counters only move forward, and
    // the finite budget guarantees convergence.)
    let mut converged = false;
    for _ in 0..1200 {
        let stats = server.stats();
        if stats.quarantined >= kills
            && stats.readmitted >= kills
            && stats.health.iter().all(|h| *h == ShardHealth::Healthy)
        {
            converged = true;
            break;
        }
        thread::sleep(Duration::from_millis(25));
    }
    stop.store(true, Ordering::Relaxed);
    let mut resolved = 0u64;
    for client in clients {
        // Joining proves zero hung tickets.
        resolved += client.join().expect("storm client panicked");
    }
    let stats = server.stats();
    assert!(
        converged,
        "storm never converged: health {:?}, quarantined {}, readmitted {}, probe failures {}",
        stats.health, stats.quarantined, stats.readmitted, stats.probe_failures
    );
    assert!(resolved > 0, "closed-loop clients made no progress");
    assert_eq!(plan.injected(FaultSite::PreBatch), kills);
    // Post-resurrection bit-identity: every seeded word answers with
    // full coverage, bitwise equal to the full-sweep oracle.
    let (oracle, _) = seeded_pair(STORM_ROWS, seed);
    for salt in 0..STORM_ROWS {
        let query = gen_word(seed, salt);
        let covered = handle
            .submit(&query)
            .expect("post-storm submit")
            .wait_covered()
            .expect("post-storm merge");
        assert!(!covered.coverage.degraded(), "salt {salt}");
        let (want_row, want_g) = oracle
            .search_batch_winners_with(&[&query[..]], Precision::F64)
            .map(|w| w[0])
            .expect("oracle");
        assert_eq!(covered.value.0, want_row, "salt {salt}");
        assert_eq!(covered.value.1.to_bits(), want_g.to_bits(), "salt {salt}");
    }
    // Every resurrected shard still owns its banks: shutdown
    // reassembles the full partition.
    let recovered = server.shutdown().expect("all shards reassemble");
    assert_eq!(recovered.n_rows(), STORM_ROWS);
    assert_no_lock_order_cycles();
}

#[test]
fn quarantine_storm_survives_n_minus_1_kills() {
    quiet_chaos_panics();
    let (tx, rx) = mpsc::channel();
    let scenario = thread::spawn(move || {
        quarantine_storm_scenario(67);
        let _ = tx.send(());
    });
    assert!(
        rx.recv_timeout(Duration::from_secs(60)).is_ok(),
        "quarantine storm hung"
    );
    assert!(scenario.join().is_ok(), "quarantine storm panicked");
}

/// One store/re-admit race scenario (contract 5, durability half): a
/// routed two-shard server loses its tail (the store shard), store
/// traffic keeps hammering while probes race the re-admit lifecycle,
/// and afterwards no acknowledged row is lost from merges or router
/// buckets — rows are dense, in order, and every resident word answers
/// full-coverage bit-identical to the oracle through the router.
fn store_readmit_race_scenario(seed: u64) {
    let (memory, _) = seeded_pair(8, seed);
    let routed = RoutedMcam::new(memory, RouterConfig::default()).expect("router");
    let plan = FaultPlan::armed(
        seed,
        vec![FaultRule::sure(FaultSite::Store, FaultKind::Panic, 1)],
    );
    let server = ShardedServer::start_routed(
        routed,
        2,
        ServeConfig {
            restart_budget: 0,
            ..chaos_config(plan)
        },
    );
    let handle = server.handle();
    // The sure store panic trips the tail's zero restart budget; by
    // the Store-site contract the word was never applied.
    assert!(matches!(
        handle.store(&gen_word(seed, 100)),
        Err(ServeError::DispatcherFailed { .. })
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let storer = {
        let handle = handle.clone();
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut stored: Vec<(usize, Vec<u8>)> = Vec::new();
            let mut salt = 200usize;
            while !stop.load(Ordering::Relaxed) {
                let word = gen_word(seed, salt);
                salt += 1;
                // Stores on the dead dispatcher error cleanly; once
                // the probe swaps the handle cell they start landing
                // on the replacement — both interleavings race the
                // re-admit lifecycle below.
                if let Ok(row) = handle.store(&word) {
                    stored.push((row, word));
                }
                thread::sleep(Duration::from_micros(500));
            }
            stored
        })
    };
    let mut readmitted = false;
    for _ in 0..400 {
        match server.try_readmit(1) {
            Ok(true) => {
                readmitted = true;
                break;
            }
            Ok(false) => thread::sleep(Duration::from_millis(2)),
            Err(e) => panic!("probe lost the shard memory: {e:?}"),
        }
    }
    assert!(readmitted, "tail shard never re-admitted");
    stop.store(true, Ordering::Relaxed);
    let mut stored = storer.join().expect("store thread panicked");
    // Post-re-admit stores must succeed unconditionally.
    let word = gen_word(seed, 150);
    let post_row = handle.store(&word).expect("store after re-admit");
    stored.push((post_row, word));
    // No acknowledged row was lost and none duplicated: global rows
    // are dense from the seeded tail, in acknowledgement order.
    let mut shadow = seeded_pair(8, seed).1;
    for (i, (row, word)) in stored.iter().enumerate() {
        assert_eq!(*row, 8 + i, "stores assign dense global rows");
        shadow.store(word).expect("shadow store");
    }
    // Every resident word — seeded and stored — answers through the
    // routed front end with full coverage, bitwise equal to the
    // direct full-sweep oracle (so the restored router buckets and
    // the re-admitted shard's banks are all reachable).
    for row in 0..shadow.n_rows() {
        let query = shadow.row(row).expect("resident row").to_vec();
        let covered = handle
            .submit(&query)
            .expect("submit")
            .wait_covered()
            .expect("full merge after re-admit");
        assert!(!covered.coverage.degraded(), "row {row}");
        let (want_row, want_g) = shadow
            .search_batch_winners_with(&[&query[..]], Precision::F64)
            .map(|w| w[0])
            .expect("oracle");
        assert_eq!(covered.value.0, want_row, "row {row}");
        assert_eq!(covered.value.1.to_bits(), want_g.to_bits(), "row {row}");
    }
    let stats = server.stats();
    assert!(stats.quarantined >= 1, "the kill must be observed");
    assert!(stats.readmitted >= 1, "the resurrection must be counted");
    let recovered = server.shutdown().expect("clean shutdown");
    assert_eq!(recovered.n_rows(), shadow.n_rows());
    assert_no_lock_order_cycles();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases(6)))]

    /// Contract 5 (durability half): store traffic racing the
    /// probe/re-admit lifecycle never loses an acknowledged row, for
    /// arbitrary seeds (which vary fault schedules, contents, and
    /// thread interleavings).
    #[test]
    fn stores_racing_readmit_lose_no_rows(seed in 0u64..=u64::from(u32::MAX)) {
        quiet_chaos_panics();
        let (tx, rx) = mpsc::channel();
        let scenario = thread::spawn(move || {
            store_readmit_race_scenario(seed);
            let _ = tx.send(());
        });
        prop_assert!(
            rx.recv_timeout(Duration::from_secs(30)).is_ok(),
            "store/re-admit race hung (seed {seed})"
        );
        prop_assert!(scenario.join().is_ok(), "race scenario panicked (seed {seed})");
    }
}

/// One chaos scenario for the no-hang property: a burst of searches
/// (queued behind whichever batches the schedule kills) interleaved
/// with stores, then a full drain. Returns only when every ticket
/// resolved; the caller bounds the wall clock.
fn no_hang_scenario(seed: u64, precision: Precision, shards: usize, panic_budget: u64) {
    let (memory, _) = seeded_pair(8, seed);
    let plan = FaultPlan::armed(
        seed,
        vec![
            FaultRule {
                site: FaultSite::PreBatch,
                kind: FaultKind::Panic,
                probability: 0.5,
                budget: Some(panic_budget),
            },
            FaultRule::sure(FaultSite::Store, FaultKind::Panic, 1),
            FaultRule {
                site: FaultSite::Admission,
                kind: FaultKind::Overload,
                probability: 0.2,
                budget: None,
            },
        ],
    );
    let config = ServeConfig {
        precision,
        // Generous budget: this property is about resolution, not the
        // terminal state (pinned separately).
        restart_budget: 64,
        ..chaos_config(plan)
    };
    let server = ShardedServer::start(memory, shards, config);
    let handle = server.handle();
    let mut tickets = Vec::new();
    for i in 0..24 {
        let word = gen_word(seed, i);
        if i % 5 == 4 {
            // Stores interleave with the in-flight searches; the first
            // one absorbs the sure store panic.
            let _ = handle.store(&word);
        } else {
            // Submit without waiting: tickets pile up behind batches
            // the panic schedule may kill.
            match handle.submit(&word) {
                Ok(ticket) => tickets.push(ticket),
                Err(
                    ServeError::Overloaded { .. }
                    | ServeError::ShuttingDown
                    | ServeError::DispatcherFailed { .. }
                    | ServeError::Degraded { .. },
                ) => {}
                Err(e) => panic!("unexpected admission error: {e:?}"),
            }
        }
    }
    for ticket in tickets {
        // The invariant is that this RETURNS — an answer or a clean
        // error, never a hang (the caller enforces the wall clock).
        let _ = ticket.wait();
    }
    // Dropping the server joins the dispatchers: reaching the end of
    // this scenario also proves shutdown completes under the fault
    // schedule.
    let _ = server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases(12)))]

    /// Contract 1: every ticket resolves under interleaved stores,
    /// injected dispatcher panics, and forced overload — across
    /// precisions and shard counts — within a hard wall-clock bound.
    #[test]
    fn every_ticket_resolves_under_chaos(
        seed in 0u64..=u64::from(u32::MAX),
        tag in 0u8..3,
        shards in 1usize..=3,
        panic_budget in 0u64..6,
    ) {
        quiet_chaos_panics();
        let precision = match tag {
            0 => Precision::F64,
            1 => Precision::F32,
            _ => Precision::Codes,
        };
        let (tx, rx) = mpsc::channel();
        let scenario = std::thread::spawn(move || {
            no_hang_scenario(seed, precision, shards, panic_budget);
            let _ = tx.send(());
        });
        prop_assert!(
            rx.recv_timeout(Duration::from_secs(10)).is_ok(),
            "serving stack hung under chaos (seed {seed}, {precision:?}, {shards} shard(s))"
        );
        prop_assert!(scenario.join().is_ok(), "chaos scenario thread panicked");
    }
}
