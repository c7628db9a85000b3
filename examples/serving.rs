//! Serving: run the async micro-batching front end over a banked MCAM
//! and watch single-query traffic coalesce into batched executions —
//! first at one shard, then sharded across four dispatchers.
//!
//! ```sh
//! cargo run --release -p femcam-harness --example serving
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use femcam_harness::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORD_LEN: usize = 16;
const ROWS: usize = 512;
const CLIENTS: usize = 8;

fn random_word(rng: &mut StdRng) -> Vec<u8> {
    (0..WORD_LEN).map(|_| rng.gen_range(0..8)).collect()
}

fn main() -> femcam_core::Result<()> {
    // 1. A banked MCAM filled with random 3-bit words, plus an
    //    identical shadow copy used to check the determinism contract.
    let ladder = LevelLadder::new(3)?;
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    let mut memory = BankedMcam::new(ladder, lut.clone(), WORD_LEN, 128);
    let mut shadow = BankedMcam::new(ladder, lut, WORD_LEN, 128);
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..ROWS {
        let word = random_word(&mut rng);
        memory.store(&word)?;
        shadow.store(&word)?;
    }

    // 2. Start a one-shard server: codes-mode execution, a 200 µs
    //    batching window, and a plan-memory budget to report against.
    let config = ServeConfig {
        max_batch: 64,
        max_wait: Duration::from_micros(200),
        precision: Precision::Codes,
        plan_budget_bytes: Some(64 * 1024 * 1024),
        ..ServeConfig::default()
    };
    let server = ShardedServer::start(memory, 1, config);
    println!(
        "server up: {} rows x {} cells, queue capacity {}",
        ROWS,
        WORD_LEN,
        server.stats().merged().queue_capacity
    );

    // 3. Closed-loop clients: each submits one query at a time and
    //    immediately resubmits on completion — the arrival pattern an
    //    online deployment sees. The dispatcher coalesces them.
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let handle = server.handle();
            let stop = Arc::clone(&stop);
            let mut rng = StdRng::seed_from_u64(100 + c as u64);
            std::thread::spawn(move || {
                let mut done = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let query = random_word(&mut rng);
                    handle
                        .submit(&query)
                        .and_then(ShardTicket::wait)
                        .expect("served search");
                    done += 1;
                }
                done
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200));

    // 4. A live store, mid-traffic: it rides the same dispatcher queue
    //    (a batch barrier), so no search ever races the plan-cache
    //    invalidation.
    let client = server.handle();
    let hot_word = random_word(&mut rng);
    let new_row = client.store(&hot_word).expect("served store");
    shadow.store(&hot_word)?;
    assert_eq!(
        client
            .submit(&hot_word)
            .and_then(ShardTicket::wait)
            .expect("served search")
            .0,
        new_row
    );
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);
    let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    let elapsed = started.elapsed();

    // 5. Serving stats: achieved batch size is what turns the batch
    //    kernel's amortization into single-query throughput.
    let stats = server.stats().merged();
    println!(
        "\n{} clients, {} queries in {:.0} ms -> {:.0} queries/s ({:.1} us/query)",
        CLIENTS,
        total,
        elapsed.as_secs_f64() * 1e3,
        total as f64 / elapsed.as_secs_f64(),
        elapsed.as_secs_f64() * 1e6 / total as f64,
    );
    println!(
        "micro-batches: {} executed, mean batch {:.1}, max {}; {} waiters woken ({:.2} per query)",
        stats.batches,
        stats.mean_batch,
        stats.max_batch,
        stats.woken,
        stats.woken as f64 / stats.queries.max(1) as f64
    );
    println!(
        "wait (submit -> execute): p50 {:.0} us, p99 {:.0} us; executor {:.1} us/query",
        stats.p50_wait_us, stats.p99_wait_us, stats.mean_exec_us_per_query
    );

    // 6. The plan-memory budget report a deployment watches.
    let report = server.memory_report().expect("report");
    println!(
        "plan memory: {} B resident (codes {} B, f32 {} B, f64 {} B), budget {:?} -> over: {}",
        report.resident_bytes(),
        report.plan.codes,
        report.plan.f32_plane,
        report.plan.f64_plane,
        report.budget_bytes,
        report.over_budget()
    );

    // 7. Determinism: served results are bit-identical to direct
    //    searches against an identically mutated memory.
    let handle = server.handle();
    for _ in 0..32 {
        let query = random_word(&mut rng);
        let served = handle
            .submit(&query)
            .and_then(ShardTicket::wait)
            .expect("served search");
        let direct = shadow
            .search_batch_winners_with(&[&query[..]], Precision::Codes)
            .map(|w| w[0])?;
        assert_eq!(served, direct, "serving broke bit-identity");
    }
    println!("\ndeterminism check: 32 served results bit-identical to direct search");

    let memory = server.shutdown()?;
    println!("server drained; memory back with {} rows", memory.n_rows());

    // 8. Shard the same memory across 4 dispatchers: searches fan out
    //    and merge by (conductance, global_row), so results stay
    //    bit-identical to the one-shard server — while a store
    //    barriers only the tail shard's queue.
    let sharded = ShardedServer::start(
        memory,
        4,
        ServeConfig {
            max_batch: 64,
            max_wait: Duration::from_micros(200),
            precision: Precision::Codes,
            ..ServeConfig::default()
        },
    );
    let shandle = sharded.handle();
    println!("\nsharded front end: {} shards", sharded.n_shards());
    for _ in 0..32 {
        let query = random_word(&mut rng);
        let served = shandle
            .submit(&query)
            .and_then(ShardTicket::wait)
            .expect("sharded search");
        let direct = shadow
            .search_batch_winners_with(&[&query[..]], Precision::Codes)
            .map(|w| w[0])?;
        assert_eq!(served, direct, "sharding broke bit-identity");
    }
    let hot_word = random_word(&mut rng);
    let new_row = shandle.store(&hot_word).expect("sharded store");
    assert_eq!(new_row, shadow.store(&hot_word)?);
    assert_eq!(
        shandle
            .submit(&hot_word)
            .and_then(ShardTicket::wait)
            .expect("search")
            .0,
        new_row
    );
    println!("32 sharded results + a tail-shard store: bit-identical to direct search");

    // 9. Per-request deadlines: a generous budget answers normally; a
    //    zero budget is dead on arrival and rejected without running.
    let query = random_word(&mut rng);
    let within = shandle
        .submit_with(&query, Metric::default(), Some(Duration::from_millis(50)))
        .and_then(ShardTicket::wait)
        .expect("within budget");
    assert_eq!(
        within,
        shadow
            .search_batch_winners_with(&[&query[..]], Precision::Codes)
            .map(|w| w[0])?
    );
    let doa = shandle
        .submit_with(&query, Metric::default(), Some(Duration::ZERO))
        .and_then(ShardTicket::wait);
    assert!(matches!(doa, Err(ServeError::DeadlineExceeded { .. })));
    let merged = sharded.stats().merged();
    println!(
        "deadlines: in-budget answer identical; zero-budget rejected \
         ({} deadline rejections recorded)",
        merged.deadline_rejected
    );

    let memory = sharded.shutdown()?;
    println!(
        "shards drained; memory reassembled with {} rows",
        memory.n_rows()
    );
    Ok(())
}
