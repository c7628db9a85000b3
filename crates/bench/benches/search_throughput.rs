//! Simulator search throughput: MCAM array search vs software FP32 NN
//! vs TCAM Hamming search, across array sizes — plus batch-size,
//! thread-count, and execution-mode (f64 / f32 / codes) sweeps over the
//! compiled multi-bank executor, recording a machine-readable baseline
//! to `results/BENCH_search.json` (including per-mode `plan_bytes` and
//! `compile_ns`).
//!
//! Sweep configs are deduplicated by *effective* worker count before
//! timing: requested thread counts that the work-proportional gate
//! resolves to the same worker count execute byte-identical code, so
//! they are timed once and emitted once.
//!
//! The recorder also runs a **closed-loop serving sweep**: 32 client
//! threads submit single queries through the `femcam-serve`
//! micro-batching front end (a one-shard `ShardedServer`) over the
//! same memory geometry, recording achieved batch size, wall-clock
//! µs/query, and wait percentiles under the `serving` key — and a
//! **sharded closed-loop sweep** (`serving_sharded` key): the same
//! clients through a `ShardedServer` at 1/2/4 shards, recording
//! per-shard-count achieved batch and µs/query.
//!
//! A **metric-mode sweep** (`metric_modes` key) measures the
//! runtime-reconfigurable distance semantics at the packed-code
//! precision: batch-64 µs/query and resident codes plan bytes per
//! [`Metric`] on the sweep geometry, with a strict-mode contract that
//! no synthesized metric costs more than 1.5× the default conductance
//! metric.
//!
//! A **two-stage routing sweep** (`routing` key) measures the LSH
//! bank router over a clustered workload on the same geometry:
//! probed banks per query, top-1 recall against a `SoftwareNn`
//! ground truth (the MCAM distance evaluated in software), and
//! routed vs full-sweep µs/query.
//!
//! With `--features chaos` the recorder also measures fault-injected
//! serving (`serving_faults` key: p99 through a permanent shard kill
//! plus recovery time) and a **quarantine storm** (`quarantine_storm`
//! key): N−1 of N shards killed under closed-loop load, recording the
//! wall-clock time until the probe/re-admit supervisor has returned
//! the board to full health.
//!
//! `FEMCAM_BENCH_MS` shortens the per-config sampling window (CI smoke
//! mode); with the default full window the recorder *asserts* the
//! performance contracts of the executor — multi-thread throughput
//! never below single-thread at batch ≥ 64 (`speedup_threads >= 1`),
//! the opt-in f32 kernel at least 1.5× over f64, the packed-code
//! kernel at least 1.5× over f32, codes plan memory at least 16×
//! below the f64 planes on the sweep geometry, for the serving
//! sweep an achieved batch of at least 8 with µs/query within 2× of
//! the offline batch-64 number at the same precision, and for the
//! routing sweep at least 2× routed throughput over the full sweep at
//! ≥ 0.95 top-1 recall.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use femcam_core::{
    par, BankedMcam, CodesDispatch, ConductanceLut, Euclidean, LevelLadder, McamArray,
    McamSoftware, Metric, NnIndex, Precision, QuantizeStrategy, Quantizer, RoutedMcam,
    RouterConfig, SoftwareNn, TcamArray,
};
use femcam_device::FefetModel;
use femcam_lsh::RandomHyperplanes;
use femcam_serve::{ServeConfig, ShardedServer};

const WORD_LEN: usize = 64;

/// Multi-bank sweep geometry: 16 banks of 256 rows.
const SWEEP_ROWS: usize = 4096;
const SWEEP_ROWS_PER_BANK: usize = 256;
const BATCH_SIZES: [usize; 3] = [1, 64, 1024];

fn random_levels(rng: &mut StdRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.gen_range(0..8u8)).collect()
}

/// Thread counts for the sweeps: 1, 4, and whatever the machine offers.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 4, par::max_threads()];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn sweep_memory(seed: u64) -> (BankedMcam, Vec<Vec<u8>>) {
    let ladder = LevelLadder::new(3).unwrap();
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut banked = BankedMcam::new(ladder, lut, WORD_LEN, SWEEP_ROWS_PER_BANK);
    for _ in 0..SWEEP_ROWS {
        banked.store(&random_levels(&mut rng, WORD_LEN)).unwrap();
    }
    let queries: Vec<Vec<u8>> = (0..*BATCH_SIZES.iter().max().unwrap())
        .map(|_| random_levels(&mut rng, WORD_LEN))
        .collect();
    (banked, queries)
}

fn bench_mcam_search(c: &mut Criterion) {
    let ladder = LevelLadder::new(3).unwrap();
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    let mut group = c.benchmark_group("mcam_search");
    for &rows in &[32usize, 256, 2048] {
        let mut rng = StdRng::seed_from_u64(1);
        let mut array = McamArray::new(ladder, lut.clone(), WORD_LEN);
        for _ in 0..rows {
            array.store(&random_levels(&mut rng, WORD_LEN)).unwrap();
        }
        let query = random_levels(&mut rng, WORD_LEN);
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| array.search(&query).unwrap().best_row());
        });
    }
    group.finish();
}

fn bench_software_nn(c: &mut Criterion) {
    let mut group = c.benchmark_group("fp32_euclidean_search");
    for &rows in &[32usize, 256, 2048] {
        let mut rng = StdRng::seed_from_u64(2);
        let mut index = SoftwareNn::new(Euclidean, WORD_LEN);
        for i in 0..rows {
            let v: Vec<f32> = (0..WORD_LEN).map(|_| rng.gen()).collect();
            index.add(&v, i as u32).unwrap();
        }
        let query: Vec<f32> = (0..WORD_LEN).map(|_| rng.gen()).collect();
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| index.query(&query).unwrap().index);
        });
    }
    group.finish();
}

fn bench_tcam_hamming(c: &mut Criterion) {
    let mut group = c.benchmark_group("tcam_hamming_search");
    let lsh = RandomHyperplanes::new(WORD_LEN, WORD_LEN, 3).unwrap();
    for &rows in &[32usize, 256, 2048] {
        let mut rng = StdRng::seed_from_u64(3);
        let mut tcam = TcamArray::new(WORD_LEN);
        for _ in 0..rows {
            let v: Vec<f32> = (0..WORD_LEN).map(|_| rng.gen::<f32>() - 0.5).collect();
            tcam.store_signature(&lsh.signature(&v).unwrap()).unwrap();
        }
        let q: Vec<f32> = (0..WORD_LEN).map(|_| rng.gen::<f32>() - 0.5).collect();
        let sig = lsh.signature(&q).unwrap();
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| tcam.hamming_search(&sig).unwrap().best_row());
        });
    }
    group.finish();
}

fn bench_variation_array(c: &mut Criterion) {
    use femcam_core::{McamArrayBuilder, VariationSpec};
    let ladder = LevelLadder::new(3).unwrap();
    let model = FefetModel::default();
    let lut = ConductanceLut::from_device(&model, &ladder);
    let mut rng = StdRng::seed_from_u64(4);
    let mut array = McamArrayBuilder::new(ladder, lut)
        .word_len(WORD_LEN)
        .variation(
            VariationSpec {
                sigma_v: 0.08,
                seed: 7,
            },
            model,
        )
        .build();
    for _ in 0..256 {
        array.store(&random_levels(&mut rng, WORD_LEN)).unwrap();
    }
    let query = random_levels(&mut rng, WORD_LEN);
    c.bench_function("mcam_search_with_variation_256", |b| {
        b.iter(|| array.search(&query).unwrap().best_row());
    });
}

fn bench_batch_size_sweep(c: &mut Criterion) {
    let (banked, queries) = sweep_memory(7);
    let plan = banked.compile().unwrap();
    let threads = par::max_threads();
    let mut group = c.benchmark_group("banked_batch_sweep_maxthreads");
    for &batch in &BATCH_SIZES {
        let refs: Vec<&[u8]> = queries[..batch].iter().map(|q| q.as_slice()).collect();
        group.throughput(Throughput::Elements((batch * SWEEP_ROWS) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(batch), &refs, |b, refs| {
            b.iter(|| plan.search_batch(refs, threads).unwrap());
        });
    }
    group.finish();
}

fn bench_thread_sweep(c: &mut Criterion) {
    let (banked, queries) = sweep_memory(8);
    let plan = banked.compile().unwrap();
    let batch = *BATCH_SIZES.last().unwrap();
    let refs: Vec<&[u8]> = queries[..batch].iter().map(|q| q.as_slice()).collect();
    let mut group = c.benchmark_group("banked_thread_sweep_batch1024");
    for threads in thread_counts() {
        group.throughput(Throughput::Elements((batch * SWEEP_ROWS) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(threads), &refs, |b, refs| {
            b.iter(|| plan.search_batch(refs, threads).unwrap());
        });
    }
    group.finish();
}

/// Per-config sampling window in milliseconds: `FEMCAM_BENCH_MS` when
/// set (CI smoke mode), otherwise 300 ms (full mode, which also arms
/// the performance-contract asserts).
fn bench_window_ms() -> u128 {
    std::env::var("FEMCAM_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

/// Times `f` (which processes `queries_per_call` queries per call) and
/// returns mean nanoseconds per query.
fn ns_per_query<F: FnMut()>(queries_per_call: usize, min_calls: usize, mut f: F) -> f64 {
    let window = bench_window_ms();
    // Warmup.
    f();
    let start = Instant::now();
    let mut calls = 0usize;
    while calls < min_calls || start.elapsed().as_millis() < window {
        f();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / (calls * queries_per_call) as f64
}

/// Closed-loop clients for the serving measurement: each keeps exactly
/// one request in flight, the arrival pattern an online deployment
/// sees from independent callers.
const SERVE_CLIENTS: usize = 32;

/// Result of one closed-loop serving measurement.
struct ServingMeasurement {
    precision: Precision,
    /// Dispatcher shard count.
    shards: usize,
    queries: u64,
    us_per_query: f64,
    achieved_batch_mean: f64,
    achieved_batch_max: usize,
    p50_wait_us: f64,
    p99_wait_us: f64,
    exec_us_per_query: f64,
}

/// Drives `SERVE_CLIENTS` closed-loop client threads against the
/// micro-batching front end at `shards` shards over the sweep memory
/// for one sampling window and reports achieved batch size and
/// per-query wall time.
fn measure_serving(precision: Precision, shards: usize) -> ServingMeasurement {
    let (banked, _) = sweep_memory(11);
    // max_batch == client count: the window closes as soon as every
    // client has resubmitted, so a full complement of closed-loop
    // clients never idles out the batching window.
    let config = ServeConfig {
        max_batch: SERVE_CLIENTS,
        max_wait: Duration::from_micros(300),
        precision,
        ..ServeConfig::default()
    };
    let server = ShardedServer::start(banked, shards, config);
    let handle = server.handle();
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let clients: Vec<_> = (0..SERVE_CLIENTS)
        .map(|c| {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let mut rng = StdRng::seed_from_u64(0x5E21 + c as u64);
            std::thread::spawn(move || {
                let mut done = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let query = random_levels(&mut rng, WORD_LEN);
                    handle.search(&query).expect("served search");
                    done += 1;
                }
                done
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(
        u64::try_from(bench_window_ms()).unwrap_or(300),
    ));
    stop.store(true, Ordering::Relaxed);
    let queries: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    let elapsed = started.elapsed();
    let stats = server.stats().merged();
    drop(server);
    ServingMeasurement {
        precision,
        shards,
        queries,
        us_per_query: elapsed.as_secs_f64() * 1e6 / queries.max(1) as f64,
        achieved_batch_mean: stats.mean_batch,
        achieved_batch_max: stats.max_batch,
        p50_wait_us: stats.p50_wait_us,
        p99_wait_us: stats.p99_wait_us,
        exec_us_per_query: stats.mean_exec_us_per_query,
    }
}

/// Result of the fault-injected serving measurement (`--features
/// chaos`): closed-loop p99 before and after a shard kill, plus the
/// time the front end took to start answering again.
#[cfg(feature = "chaos")]
struct FaultMeasurement {
    queries_healthy: u64,
    p99_healthy_us: f64,
    queries_degraded: u64,
    p99_degraded_us: f64,
    failed_requests: u64,
    recovery_us: f64,
}

/// Nearest-rank p99 of raw microsecond samples.
#[cfg(feature = "chaos")]
fn p99_us(samples: &mut [u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    samples[((samples.len() * 99) / 100).min(samples.len() - 1)] as f64
}

/// Drives the closed-loop clients against a two-shard server, kills
/// the tail shard mid-run via an injected store panic against a
/// zero-restart budget, and measures the latency cost of degraded
/// operation: p99 while healthy, p99 over the surviving shard, how
/// many in-flight requests failed during the kill, and how long until
/// the front end answered again.
#[cfg(feature = "chaos")]
fn measure_serving_faults() -> FaultMeasurement {
    use femcam_serve::fault::{FaultKind, FaultPlan, FaultRule, FaultSite, CHAOS_PANIC};
    // The injected panic unwinds a dispatcher by design: silence its
    // default-hook backtrace in the bench output.
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str));
        if !msg.is_some_and(|m| m.starts_with(CHAOS_PANIC)) {
            default(info);
        }
    }));
    let (banked, _) = sweep_memory(13);
    let plan = FaultPlan::new(
        29,
        vec![FaultRule {
            site: FaultSite::Store,
            kind: FaultKind::Panic,
            probability: 1.0,
            budget: None,
        }],
    );
    let config = ServeConfig {
        max_batch: SERVE_CLIENTS,
        max_wait: Duration::from_micros(300),
        precision: Precision::Codes,
        // First injected panic trips the breaker: a deterministic,
        // permanent single-shard kill.
        restart_budget: 0,
        faults: Some(plan.clone()),
        ..ServeConfig::default()
    };
    let server = ShardedServer::start(banked, 2, config);
    let handle = server.handle();
    let stop = Arc::new(AtomicBool::new(false));
    let degraded = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..SERVE_CLIENTS)
        .map(|c| {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let degraded = Arc::clone(&degraded);
            let mut rng = StdRng::seed_from_u64(0xFA17 + c as u64);
            std::thread::spawn(move || {
                let mut healthy: Vec<u64> = Vec::new();
                let mut after: Vec<u64> = Vec::new();
                let mut failed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let query = random_levels(&mut rng, WORD_LEN);
                    let start = Instant::now();
                    match handle.search(&query) {
                        Ok(_) => {
                            let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                            if degraded.load(Ordering::Relaxed) {
                                after.push(us);
                            } else {
                                healthy.push(us);
                            }
                        }
                        // In-flight work on the killed shard fails
                        // cleanly; the next iteration re-probes.
                        Err(_) => failed += 1,
                    }
                }
                (healthy, after, failed)
            })
        })
        .collect();
    let window = u64::try_from(bench_window_ms()).unwrap_or(300);
    std::thread::sleep(Duration::from_millis(window));
    // Kill: stores route to the tail shard only, so arming the plan
    // and issuing one store panics exactly that dispatcher, and the
    // zero restart budget makes the kill permanent (quarantine).
    plan.set_armed(true);
    let killed = Instant::now();
    let probe = random_levels(&mut StdRng::seed_from_u64(99), WORD_LEN);
    let _ = handle.store(&probe);
    // Recovery: how long until the front end answers a fresh search
    // again (over the surviving shard, with degraded coverage).
    let recovery_us = loop {
        if handle.search(&probe).is_ok() {
            break killed.elapsed().as_micros() as f64;
        }
    };
    degraded.store(true, Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(window));
    stop.store(true, Ordering::Relaxed);
    let mut healthy: Vec<u64> = Vec::new();
    let mut after: Vec<u64> = Vec::new();
    let mut failed = 0u64;
    for client in clients {
        let (h, a, f) = client.join().expect("fault client");
        healthy.extend(h);
        after.extend(a);
        failed += f;
    }
    drop(server);
    FaultMeasurement {
        queries_healthy: healthy.len() as u64,
        p99_healthy_us: p99_us(&mut healthy),
        queries_degraded: after.len() as u64,
        p99_degraded_us: p99_us(&mut after),
        failed_requests: failed,
        recovery_us,
    }
}

/// Result of the quarantine-storm measurement (`--features chaos`):
/// kill N−1 of N shards under closed-loop load and time how long the
/// probe/re-admit supervisor takes to return the board to full
/// health.
#[cfg(feature = "chaos")]
struct StormMeasurement {
    shards: usize,
    kills: u64,
    readmitted: u64,
    probe_failures: u64,
    queries: u64,
    failed_requests: u64,
    /// Wall clock from arming the kill schedule to every shard back
    /// `Healthy` with all kills re-admitted (time to full recovery).
    recovery_us: f64,
}

/// Drives the closed-loop clients against a four-shard server with a
/// probe supervisor, kills three of the four dispatchers via injected
/// batch panics against a zero restart budget, and measures the time
/// until every shard has been resurrected (canary-gated re-admit) and
/// the board is fully healthy again.
#[cfg(feature = "chaos")]
fn measure_quarantine_storm() -> StormMeasurement {
    use femcam_serve::fault::{FaultKind, FaultPlan, FaultRule, FaultSite};
    use femcam_serve::ShardHealth;
    const STORM_SHARDS: usize = 4;
    let kills = (STORM_SHARDS - 1) as u64;
    let (banked, _) = sweep_memory(17);
    let plan = FaultPlan::new(
        31,
        vec![FaultRule::sure(
            FaultSite::PreBatch,
            FaultKind::Panic,
            kills,
        )],
    );
    let config = ServeConfig {
        max_batch: SERVE_CLIENTS,
        max_wait: Duration::from_micros(300),
        precision: Precision::Codes,
        // Each injected panic trips a breaker permanently; only the
        // probe supervisor can bring the shard back.
        restart_budget: 0,
        probe_interval: Some(Duration::from_millis(10)),
        faults: Some(plan.clone()),
        ..ServeConfig::default()
    };
    let server = ShardedServer::start(banked, STORM_SHARDS, config);
    let handle = server.handle();
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..SERVE_CLIENTS)
        .map(|c| {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let mut rng = StdRng::seed_from_u64(0x570A + c as u64);
            std::thread::spawn(move || {
                let mut done = 0u64;
                let mut failed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let query = random_levels(&mut rng, WORD_LEN);
                    match handle.search(&query) {
                        Ok(_) => done += 1,
                        // In-flight work on a killed shard fails
                        // cleanly; the next iteration re-probes.
                        Err(_) => failed += 1,
                    }
                }
                (done, failed)
            })
        })
        .collect();
    // Healthy warm-up, then unleash the storm.
    std::thread::sleep(Duration::from_millis(
        u64::try_from(bench_window_ms()).unwrap_or(300),
    ));
    plan.set_armed(true);
    let storm = Instant::now();
    let mut recovery_us = f64::NAN;
    for _ in 0..3000 {
        let stats = server.stats();
        if stats.quarantined >= kills
            && stats.readmitted >= kills
            && stats.health.iter().all(|h| *h == ShardHealth::Healthy)
        {
            recovery_us = storm.elapsed().as_micros() as f64;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    let mut queries = 0u64;
    let mut failed = 0u64;
    for client in clients {
        let (d, f) = client.join().expect("storm client");
        queries += d;
        failed += f;
    }
    let stats = server.stats();
    // Self-healing sanity: the storm must actually converge — every
    // killed shard re-admitted, the whole board healthy again.
    assert!(
        recovery_us.is_finite(),
        "quarantine storm never recovered: health {:?}, quarantined {}, \
         readmitted {}, probe failures {}",
        stats.health,
        stats.quarantined,
        stats.readmitted,
        stats.probe_failures
    );
    drop(server);
    StormMeasurement {
        shards: STORM_SHARDS,
        kills: stats.quarantined,
        readmitted: stats.readmitted,
        probe_failures: stats.probe_failures,
        queries,
        failed_requests: failed,
        recovery_us,
    }
}

/// Clusters and queries for the two-stage routing sweep.
const ROUTE_CLUSTERS: usize = 64;
const ROUTE_QUERIES: usize = 256;

fn jitter_level(l: u8, up: bool) -> u8 {
    if up {
        (l + 1).min(7)
    } else {
        l.saturating_sub(1)
    }
}

/// Clustered rows on the sweep geometry: `ROUTE_CLUSTERS` random
/// centers, each row a center with ±1 jitter on ~25% of dims — the
/// locality two-stage retrieval exploits (same-cluster rows share
/// signature buckets; uniform random rows have no bucket structure to
/// route on).
fn clustered_rows(rng: &mut StdRng) -> Vec<Vec<u8>> {
    let centers: Vec<Vec<u8>> = (0..ROUTE_CLUSTERS)
        .map(|_| random_levels(rng, WORD_LEN))
        .collect();
    (0..SWEEP_ROWS)
        .map(|i| {
            centers[i % ROUTE_CLUSTERS]
                .iter()
                .map(|&l| {
                    if rng.gen_range(0..4u8) == 0 {
                        jitter_level(l, rng.gen::<bool>())
                    } else {
                        l
                    }
                })
                .collect()
        })
        .collect()
}

/// Result of one two-stage routing measurement.
struct RoutingMeasurement {
    precision: Precision,
    n_banks: usize,
    probed_banks_mean: f64,
    recall_top1: f64,
    us_per_query_routed: f64,
    us_per_query_full: f64,
    speedup_vs_full: f64,
}

/// Measures the LSH router over a clustered workload: builds a
/// `RoutedMcam` with locality-aware placement, scores routed top-1
/// recall against a `SoftwareNn` ground truth (the MCAM distance
/// evaluated in software), and times routed vs full-sweep batched
/// winners at `precision`.
fn measure_routing(precision: Precision) -> RoutingMeasurement {
    let ladder = LevelLadder::new(3).unwrap();
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    let mut rng = StdRng::seed_from_u64(21);
    let rows = clustered_rows(&mut rng);
    let (routed, placement) = RoutedMcam::build(
        ladder,
        lut.clone(),
        WORD_LEN,
        SWEEP_ROWS_PER_BANK,
        RouterConfig::default(),
        &rows,
    )
    .unwrap();
    let mut input_of = vec![0usize; SWEEP_ROWS];
    for (input, &global) in placement.iter().enumerate() {
        input_of[global] = input;
    }
    // Queries: stored rows with 3 of 64 dims jittered ±1.
    let queries: Vec<Vec<u8>> = (0..ROUTE_QUERIES)
        .map(|j| {
            let mut q = rows[(j * 31) % SWEEP_ROWS].clone();
            for _ in 0..3 {
                let d = rng.gen_range(0..WORD_LEN);
                q[d] = jitter_level(q[d], rng.gen::<bool>());
            }
            q
        })
        .collect();
    let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();

    // Ground truth: SoftwareNn over the software MCAM distance, with a
    // quantizer fitted so levels-as-f32 round-trip exactly.
    let calibration = [vec![0.0f32; WORD_LEN], vec![7.0f32; WORD_LEN]];
    let quantizer = Quantizer::fit(
        calibration.iter().map(|r| r.as_slice()),
        WORD_LEN,
        8,
        QuantizeStrategy::PerFeatureMinMax,
    )
    .unwrap();
    let mut truth = SoftwareNn::new(McamSoftware::new(lut, quantizer), WORD_LEN);
    for (i, row) in rows.iter().enumerate() {
        let features: Vec<f32> = row.iter().map(|&l| f32::from(l)).collect();
        truth.add(&features, i as u32).unwrap();
    }

    let n_banks = routed.memory().n_banks();
    let probed: usize = refs.iter().map(|q| routed.route(q).unwrap().len()).sum();
    let routed_winners = routed.search_batch_winners_with(&refs, precision).unwrap();
    let mut top1_hits = 0usize;
    for (q, &(global, _)) in queries.iter().zip(&routed_winners) {
        let features: Vec<f32> = q.iter().map(|&l| f32::from(l)).collect();
        let want = truth.query(&features).unwrap().index;
        if input_of[global] == want {
            top1_hits += 1;
        }
    }
    let routed_ns = ns_per_query(ROUTE_QUERIES, 2, || {
        std::hint::black_box(routed.search_batch_winners_with(&refs, precision).unwrap());
    });
    let full_ns = ns_per_query(ROUTE_QUERIES, 2, || {
        std::hint::black_box(
            routed
                .memory()
                .search_batch_winners_with(&refs, precision)
                .unwrap(),
        );
    });
    RoutingMeasurement {
        precision,
        n_banks,
        probed_banks_mean: probed as f64 / ROUTE_QUERIES as f64,
        recall_top1: top1_hits as f64 / ROUTE_QUERIES as f64,
        us_per_query_routed: routed_ns / 1e3,
        us_per_query_full: full_ns / 1e3,
        speedup_vs_full: full_ns / routed_ns,
    }
}

/// The entries recorded under `key` in an earlier `BENCH_search.json`,
/// one per line as [`record_search_baseline`] writes them; none if the
/// file or the key is missing.
#[cfg(not(feature = "chaos"))]
fn recorded_entries(json: &str, key: &str) -> Vec<String> {
    let open = format!("\"{key}\": [\n");
    let Some(start) = json.find(&open).map(|at| at + open.len()) else {
        return Vec::new();
    };
    let body = &json[start..];
    let end = body.find("\n  ]").unwrap_or(0);
    body[..end]
        .lines()
        .map(|line| line.trim_end_matches(',').to_string())
        .filter(|line| !line.trim().is_empty())
        .collect()
}

/// Records the machine-readable throughput baseline the acceptance
/// criterion checks: seed-style scalar row-by-row search vs the
/// compiled, batched multi-bank executor, plus the full sweep grid.
///
/// This is a multi-second manual sweep that overwrites
/// `results/BENCH_search.json`; set `FEMCAM_RECORD_BASELINE=0` to
/// skip it (e.g. when iterating on the criterion-timed benches above).
fn record_search_baseline(_c: &mut Criterion) {
    if std::env::var("FEMCAM_RECORD_BASELINE").as_deref() == Ok("0") {
        println!("record_search_baseline: skipped (FEMCAM_RECORD_BASELINE=0)");
        return;
    }
    let (banked, queries) = sweep_memory(9);
    let plan = banked.compile().unwrap();

    // The seed scalar reference: one flat array, one query at a time,
    // row-by-row cell-by-cell LUT dispatch (exactly McamArray::search).
    let ladder = LevelLadder::new(3).unwrap();
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    let mut flat = McamArray::new(ladder, lut, WORD_LEN);
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..SWEEP_ROWS {
        flat.store(&random_levels(&mut rng, WORD_LEN)).unwrap();
    }

    let scalar_batch = 64; // keep the slow path's sampling time sane
    let scalar_refs: Vec<&[u8]> = queries[..scalar_batch]
        .iter()
        .map(|q| q.as_slice())
        .collect();
    let scalar_ns = ns_per_query(scalar_batch, 2, || {
        for q in &scalar_refs {
            std::hint::black_box(flat.search(q).unwrap().best_row());
        }
    });

    let max_threads = par::max_threads();
    let per_query_work = SWEEP_ROWS * WORD_LEN;
    // Thread selection is work-proportional and capped by the machine
    // (par::batch_threads); configs that resolve to the same effective
    // worker count execute identically, so they are measured once and
    // share the sample (noise cannot manufacture a phantom regression
    // between identical code paths).
    let mut measured: HashMap<(usize, usize), f64> = HashMap::new();
    let measure = |requested: usize,
                   batch: usize,
                   measured: &mut HashMap<(usize, usize), f64>|
     -> (usize, f64) {
        let effective = par::batch_threads(batch, per_query_work, requested);
        let refs: Vec<&[u8]> = queries[..batch].iter().map(|q| q.as_slice()).collect();
        let ns = *measured.entry((effective, batch)).or_insert_with(|| {
            ns_per_query(batch, 2, || {
                std::hint::black_box(plan.search_batch(&refs, effective).unwrap());
            })
        });
        (effective, ns)
    };

    // Dedupe the requested (threads, batch) grid by the effective
    // worker count each config resolves to (par::batch_threads):
    // requested counts that collapse to the same effective count run
    // byte-identical code, so each unique (effective, batch) pair is
    // timed once and emitted once, with the requested counts it covers
    // listed for traceability.
    let mut sweep_configs: Vec<(usize, usize, Vec<usize>)> = Vec::new();
    for threads in thread_counts() {
        for &batch in &BATCH_SIZES {
            let effective = par::batch_threads(batch, per_query_work, threads);
            match sweep_configs
                .iter_mut()
                .find(|(e, b, _)| *e == effective && *b == batch)
            {
                Some((_, _, requested)) => requested.push(threads),
                None => sweep_configs.push((effective, batch, vec![threads])),
            }
        }
    }
    let mut sweep_lines = Vec::new();
    let mut best_batched_ns = f64::INFINITY;
    for (effective, batch, requested) in &sweep_configs {
        let (_, ns) = measure(*effective, *batch, &mut measured);
        if requested.contains(&max_threads) && *batch > 1 {
            best_batched_ns = best_batched_ns.min(ns);
        }
        let requested_json: Vec<String> = requested.iter().map(ToString::to_string).collect();
        sweep_lines.push(format!(
            "    {{\"threads_requested\": [{}], \"threads_effective\": {effective}, \
             \"batch\": {batch}, \
             \"ns_per_query\": {ns:.1}, \"queries_per_s\": {:.1}}}",
            requested_json.join(", "),
            1e9 / ns
        ));
    }

    // Thread-scaling regression guard (satellite of ISSUE 2): at every
    // batch >= 64 the highest requested thread count must not lose to
    // single-threaded execution.
    let multi = *thread_counts().last().expect("thread counts");
    let mut scaling_lines = Vec::new();
    let mut speedup_threads = f64::INFINITY;
    for &batch in BATCH_SIZES.iter().filter(|&&b| b >= 64) {
        let (_, ns1) = measure(1, batch, &mut measured);
        let (eff_multi, ns_multi) = measure(multi, batch, &mut measured);
        let speedup = ns1 / ns_multi;
        speedup_threads = speedup_threads.min(speedup);
        scaling_lines.push(format!(
            "    {{\"batch\": {batch}, \"threads\": {multi}, \
             \"threads_effective\": {eff_multi}, \"ns_1_thread\": {ns1:.1}, \
             \"ns_multi_thread\": {ns_multi:.1}, \"speedup_threads\": {speedup:.2}}}"
        ));
    }

    // Plan-mode accounting: compile each execution mode fresh against
    // the same banked contents and record resident plan bytes plus the
    // wall-clock compile cost. The codes mode is what lets one node
    // keep millions of rows compiled (the `plan_bytes_f64_over_codes`
    // ratio is asserted >= 16x in full mode).
    let compile_timed = |f: &dyn Fn() -> usize| -> (usize, f64) {
        let start = Instant::now();
        let bytes = f();
        (bytes, start.elapsed().as_nanos() as f64)
    };
    let (bytes_f64, compile_ns_f64) = compile_timed(&|| banked.compile().unwrap().plan_bytes());
    let (bytes_f32, compile_ns_f32) = compile_timed(&|| banked.compile_f32().unwrap().plan_bytes());
    let (bytes_codes, compile_ns_codes) =
        compile_timed(&|| banked.compile_codes().unwrap().plan_bytes());
    let plan_mode_lines: Vec<String> = [
        ("f64", bytes_f64, compile_ns_f64),
        ("f32", bytes_f32, compile_ns_f32),
        ("codes", bytes_codes, compile_ns_codes),
    ]
    .iter()
    .map(|(mode, bytes, ns)| {
        format!("    {{\"mode\": \"{mode}\", \"plan_bytes\": {bytes}, \"compile_ns\": {ns:.0}}}")
    })
    .collect();
    let plan_ratio = bytes_f64 as f64 / bytes_codes as f64;

    // Execution-mode sweep (f64 reference vs the opt-in f32 plane
    // kernel vs the packed-code LUT-gather kernel) on the same
    // multi-bank geometry.
    let plan32 = banked.compile_f32().unwrap();
    let plan_codes = banked.compile_codes().unwrap();
    let mut precision_lines = Vec::new();
    let mut speedup_f32 = 0.0f64;
    let mut speedup_codes = 0.0f64;
    let mut offline_b64_ns: HashMap<&'static str, f64> = HashMap::new();
    for &batch in BATCH_SIZES.iter().filter(|&&b| b >= 64) {
        let refs: Vec<&[u8]> = queries[..batch].iter().map(|q| q.as_slice()).collect();
        let (eff, ns64) = measure(max_threads, batch, &mut measured);
        let ns32 = ns_per_query(batch, 2, || {
            std::hint::black_box(plan32.search_batch(&refs, eff).unwrap());
        });
        let ns_codes = ns_per_query(batch, 2, || {
            std::hint::black_box(plan_codes.search_batch(&refs, eff).unwrap());
        });
        if batch == 64 {
            // The offline reference the serving contract compares
            // against: batch-64 per-query cost at each precision.
            offline_b64_ns.insert("f64", ns64);
            offline_b64_ns.insert("f32", ns32);
            offline_b64_ns.insert("codes", ns_codes);
        }
        speedup_f32 = speedup_f32.max(ns64 / ns32);
        speedup_codes = speedup_codes.max(ns32 / ns_codes);
        for (precision, ns) in [("f64", ns64), ("f32", ns32), ("codes", ns_codes)] {
            precision_lines.push(format!(
                "    {{\"precision\": \"{precision}\", \"batch\": {batch}, \
                 \"threads_effective\": {eff}, \"ns_per_query\": {ns:.1}, \
                 \"queries_per_s\": {:.1}}}",
                1e9 / ns
            ));
        }
    }

    // Metric-mode sweep (`metric_modes` key): the reconfigurable
    // distance semantics at the packed-code precision on the same
    // banked geometry — batch-64 µs/query through the cached per-metric
    // front door, plus each metric's resident codes plan bytes. The
    // synthesized metrics reuse the packed kernel with a different
    // value table (L∞ with the max fold), so their cost must stay
    // close to the default conductance metric.
    let metric_batch = 64;
    let metric_refs: Vec<&[u8]> = queries[..metric_batch]
        .iter()
        .map(|q| q.as_slice())
        .collect();
    let mut metric_lines = Vec::new();
    let mut metric_us: HashMap<&'static str, f64> = HashMap::new();
    for metric in Metric::ALL {
        // Warm the (codes, metric) cache slot so the compile is not
        // part of the timed window.
        banked
            .search_batch_winners_with_metric(&metric_refs, Precision::Codes, metric)
            .unwrap();
        let ns = ns_per_query(metric_batch, 2, || {
            std::hint::black_box(
                banked
                    .search_batch_winners_with_metric(&metric_refs, Precision::Codes, metric)
                    .unwrap(),
            );
        });
        let plan_bytes = CodesDispatch::compile_snapshot_metric(&flat, metric)
            .unwrap()
            .plan_bytes();
        metric_us.insert(metric.name(), ns / 1e3);
        metric_lines.push(format!(
            "    {{\"metric\": \"{}\", \"precision\": \"codes\", \
             \"batch\": {metric_batch}, \"us_per_query\": {:.2}, \
             \"queries_per_s\": {:.1}, \"plan_bytes\": {plan_bytes}}}",
            metric.name(),
            ns / 1e3,
            1e9 / ns
        ));
    }
    let metric_overhead = Metric::ALL
        .iter()
        .filter(|&&m| m != Metric::McamConductance)
        .map(|m| metric_us[m.name()] / metric_us[Metric::McamConductance.name()])
        .fold(0.0f64, f64::max);

    // Closed-loop serving sweep: single-query submissions through the
    // one-shard femcam-serve front end over the same memory geometry, at the
    // fast execution modes. The contract ties online throughput to the
    // offline batch kernel: achieved batch >= 8, and wall-clock
    // µs/query within 2x of the offline batch-64 number at the same
    // precision.
    let serving: Vec<ServingMeasurement> = [Precision::F32, Precision::Codes]
        .into_iter()
        .map(|p| measure_serving(p, 1))
        .collect();
    let serving_lines: Vec<String> = serving
        .iter()
        .map(|m| {
            let offline_us = offline_b64_ns[m.precision.name()] / 1e3;
            format!(
                "    {{\"precision\": \"{}\", \"clients\": {SERVE_CLIENTS}, \
                 \"queries\": {}, \"us_per_query\": {:.1}, \
                 \"queries_per_s\": {:.1}, \"achieved_batch_mean\": {:.1}, \
                 \"achieved_batch_max\": {}, \"p50_wait_us\": {:.0}, \
                 \"p99_wait_us\": {:.0}, \"exec_us_per_query\": {:.1}, \
                 \"offline_batch64_us_per_query\": {:.1}, \
                 \"ratio_vs_offline_batch64\": {:.2}}}",
                m.precision.name(),
                m.queries,
                m.us_per_query,
                1e6 / m.us_per_query,
                m.achieved_batch_mean,
                m.achieved_batch_max,
                m.p50_wait_us,
                m.p99_wait_us,
                m.exec_us_per_query,
                offline_us,
                m.us_per_query / offline_us,
            )
        })
        .collect();

    // Sharded closed-loop sweep: the same closed-loop clients through
    // a ShardedServer at increasing shard counts (codes precision —
    // the serving mode).
    let sharded: Vec<ServingMeasurement> = [1usize, 2, 4]
        .into_iter()
        .map(|n| measure_serving(Precision::Codes, n))
        .collect();
    let sharded_lines: Vec<String> = sharded
        .iter()
        .map(|m| {
            format!(
                "    {{\"precision\": \"{}\", \"shards\": {}, \
                 \"clients\": {SERVE_CLIENTS}, \"queries\": {}, \
                 \"us_per_query\": {:.1}, \"queries_per_s\": {:.1}, \
                 \"achieved_batch_mean\": {:.1}, \"achieved_batch_max\": {}, \
                 \"p50_wait_us\": {:.0}, \"p99_wait_us\": {:.0}}}",
                m.precision.name(),
                m.shards,
                m.queries,
                m.us_per_query,
                1e6 / m.us_per_query,
                m.achieved_batch_mean,
                m.achieved_batch_max,
                m.p50_wait_us,
                m.p99_wait_us,
            )
        })
        .collect();

    // Two-stage routing sweep: LSH bank routing → compiled masked
    // re-rank on a clustered workload, at the reference and the
    // packed-code precisions. The strict-mode contract: at least 2x
    // routed throughput over the full sweep at >= 0.95 top-1 recall.
    let routing: Vec<RoutingMeasurement> = [Precision::F64, Precision::Codes]
        .into_iter()
        .map(measure_routing)
        .collect();
    let routing_lines: Vec<String> = routing
        .iter()
        .map(|m| {
            format!(
                "    {{\"precision\": \"{}\", \"queries\": {ROUTE_QUERIES}, \
                 \"n_banks\": {}, \"probed_banks_mean\": {:.2}, \
                 \"recall_top1\": {:.4}, \"us_per_query_routed\": {:.2}, \
                 \"us_per_query_full\": {:.2}, \"speedup_vs_full\": {:.2}}}",
                m.precision.name(),
                m.n_banks,
                m.probed_banks_mean,
                m.recall_top1,
                m.us_per_query_routed,
                m.us_per_query_full,
                m.speedup_vs_full,
            )
        })
        .collect();

    // Without `--features chaos` the two chaos entries are not
    // measured; the ones an earlier chaos run recorded are kept.
    #[cfg(not(feature = "chaos"))]
    let recorded = std::fs::read_to_string(femcam_bench::results_dir().join("BENCH_search.json"))
        .unwrap_or_default();

    // Fault-injected serving entry: closed-loop p99 through a shard
    // kill plus recovery time.
    #[cfg(feature = "chaos")]
    let faults = measure_serving_faults();
    #[cfg(feature = "chaos")]
    let serving_faults_lines = {
        let m = &faults;
        vec![format!(
            "    {{\"precision\": \"codes\", \"shards\": 2, \
             \"clients\": {SERVE_CLIENTS}, \"queries_healthy\": {}, \
             \"p99_healthy_us\": {:.0}, \"queries_degraded\": {}, \
             \"p99_degraded_us\": {:.0}, \"failed_requests\": {}, \
             \"recovery_us\": {:.0}}}",
            m.queries_healthy,
            m.p99_healthy_us,
            m.queries_degraded,
            m.p99_degraded_us,
            m.failed_requests,
            m.recovery_us,
        )]
    };
    #[cfg(not(feature = "chaos"))]
    let serving_faults_lines = recorded_entries(&recorded, "serving_faults");

    // Quarantine-storm entry: kill N−1 of N shards under closed-loop
    // load and record the time until the probe supervisor has
    // resurrected the full board.
    #[cfg(feature = "chaos")]
    let storm = measure_quarantine_storm();
    #[cfg(feature = "chaos")]
    let quarantine_storm_lines = {
        let m = &storm;
        vec![format!(
            "    {{\"precision\": \"codes\", \"shards\": {}, \
             \"clients\": {SERVE_CLIENTS}, \"kills\": {}, \
             \"readmitted\": {}, \"probe_failures\": {}, \
             \"queries\": {}, \"failed_requests\": {}, \
             \"recovery_us\": {:.0}}}",
            m.shards,
            m.kills,
            m.readmitted,
            m.probe_failures,
            m.queries,
            m.failed_requests,
            m.recovery_us,
        )]
    };
    #[cfg(not(feature = "chaos"))]
    let quarantine_storm_lines = recorded_entries(&recorded, "quarantine_storm");

    let speedup = scalar_ns / best_batched_ns;
    let json = format!(
        "{{\n  \"config\": {{\"rows\": {SWEEP_ROWS}, \"word_len\": {WORD_LEN}, \
         \"rows_per_bank\": {SWEEP_ROWS_PER_BANK}, \"bits\": 3, \
         \"max_threads\": {max_threads}}},\n\
         \"scalar_ns_per_query\": {scalar_ns:.1},\n\
         \"best_batched_ns_per_query\": {best_batched_ns:.1},\n\
         \"speedup_batched_vs_scalar\": {speedup:.2},\n\
         \"speedup_threads\": {speedup_threads:.2},\n\
         \"speedup_f32_vs_f64\": {speedup_f32:.2},\n\
         \"speedup_codes_vs_f32\": {speedup_codes:.2},\n\
         \"plan_bytes_f64_over_codes\": {plan_ratio:.1},\n\
         \"plan_modes\": [\n{}\n  ],\n\
         \"sweep\": [\n{}\n  ],\n\
         \"thread_scaling\": [\n{}\n  ],\n\
         \"precision\": [\n{}\n  ],\n\
         \"metric_modes\": [\n{}\n  ],\n\
         \"serving\": [\n{}\n  ],\n\
         \"serving_sharded\": [\n{}\n  ],\n\
         \"routing\": [\n{}\n  ],\n\
         \"serving_faults\": [\n{}\n  ],\n\
         \"quarantine_storm\": [\n{}\n  ]\n}}\n",
        plan_mode_lines.join(",\n"),
        sweep_lines.join(",\n"),
        scaling_lines.join(",\n"),
        precision_lines.join(",\n"),
        metric_lines.join(",\n"),
        serving_lines.join(",\n"),
        sharded_lines.join(",\n"),
        routing_lines.join(",\n"),
        serving_faults_lines.join(",\n"),
        quarantine_storm_lines.join(",\n")
    );
    let path = femcam_bench::results_dir().join("BENCH_search.json");
    std::fs::write(&path, &json).expect("write BENCH_search.json");
    println!(
        "baseline: scalar {scalar_ns:.0} ns/query, batched {best_batched_ns:.0} ns/query \
         ({speedup:.1}x), threads >= 1.0x check: {speedup_threads:.2}x, \
         f32 vs f64: {speedup_f32:.2}x, codes vs f32: {speedup_codes:.2}x, \
         plan bytes f64/codes: {plan_ratio:.0}x -> {}",
        path.display()
    );
    for m in &serving {
        println!(
            "serving ({}): {} clients, {:.1} us/query wall \
             (exec {:.1}, offline batch-64 {:.1}), achieved batch {:.1} \
             (max {}), wait p50 {:.0} us / p99 {:.0} us",
            m.precision.name(),
            SERVE_CLIENTS,
            m.us_per_query,
            m.exec_us_per_query,
            offline_b64_ns[m.precision.name()] / 1e3,
            m.achieved_batch_mean,
            m.achieved_batch_max,
            m.p50_wait_us,
            m.p99_wait_us,
        );
    }
    for metric in Metric::ALL {
        println!(
            "metric mode ({}, codes, batch {metric_batch}): {:.2} us/query \
             ({:.2}x vs default)",
            metric.name(),
            metric_us[metric.name()],
            metric_us[metric.name()] / metric_us[Metric::McamConductance.name()],
        );
    }
    for m in &sharded {
        println!(
            "sharded serving ({}, {} shards): {:.1} us/query wall, \
             achieved batch {:.1} (max {}), wait p50 {:.0} us / p99 {:.0} us",
            m.precision.name(),
            m.shards,
            m.us_per_query,
            m.achieved_batch_mean,
            m.achieved_batch_max,
            m.p50_wait_us,
            m.p99_wait_us,
        );
    }
    for m in &routing {
        println!(
            "routing ({}): probed {:.1}/{} banks, top-1 recall {:.3}, \
             routed {:.1} us/query vs full {:.1} us/query ({:.2}x)",
            m.precision.name(),
            m.probed_banks_mean,
            m.n_banks,
            m.recall_top1,
            m.us_per_query_routed,
            m.us_per_query_full,
            m.speedup_vs_full,
        );
    }

    #[cfg(feature = "chaos")]
    {
        let m = &faults;
        println!(
            "serving faults (codes, 2 shards, tail killed): healthy p99 {:.0} us \
             ({} queries), degraded p99 {:.0} us ({} queries), {} failed \
             in-flight, recovery {:.0} us",
            m.p99_healthy_us,
            m.queries_healthy,
            m.p99_degraded_us,
            m.queries_degraded,
            m.failed_requests,
            m.recovery_us,
        );
        // Self-healing sanity: the surviving shard kept every client
        // making progress after the kill.
        assert!(
            m.queries_degraded > 0,
            "no queries completed after the shard kill (see {})",
            path.display()
        );
    }

    #[cfg(feature = "chaos")]
    {
        let m = &storm;
        println!(
            "quarantine storm (codes, {} shards, {} killed): full recovery in \
             {:.0} us ({} re-admitted, {} probe failures, {} queries served, \
             {} failed in-flight)",
            m.shards,
            m.kills,
            m.recovery_us,
            m.readmitted,
            m.probe_failures,
            m.queries,
            m.failed_requests,
        );
    }

    // Performance-contract guards, enforced only with the full sampling
    // window (FEMCAM_BENCH_MS unset) and after the JSON is on disk so a
    // failure leaves the evidence behind. The thread guard tolerates a
    // few percent of sampling noise between separately timed windows —
    // a genuine regression (fork–join overhead on an undersized batch)
    // sits far below that, e.g. 0.84x in the PR 1 baseline.
    const THREAD_NOISE_FLOOR: f64 = 0.95;
    let strict = std::env::var("FEMCAM_BENCH_MS").is_err();
    if strict {
        assert!(
            speedup_threads >= THREAD_NOISE_FLOOR,
            "thread-scaling regression: multi-thread batched search is \
             {speedup_threads:.3}x single-thread at some batch >= 64 \
             (see {})",
            path.display()
        );
        assert!(
            speedup_f32 >= 1.5,
            "f32 kernel speedup {speedup_f32:.2}x below the 1.5x contract \
             (see {})",
            path.display()
        );
        // The codes speedup contract holds for the in-register gather
        // tiers (AVX2 at 8 cells per permute, AVX-512 at 16), so the
        // 1.5x floor is set by the slower AVX2 tier; on machines where
        // only the portable expansion tier runs, the codes mode still
        // wins on plan memory but its throughput is hardware-dependent,
        // so the guard is informational there.
        #[cfg(target_arch = "x86_64")]
        let codes_fast_path = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let codes_fast_path = false;
        assert!(
            !codes_fast_path || speedup_codes >= 1.5,
            "codes kernel speedup {speedup_codes:.2}x over f32 below the \
             1.5x contract (see {})",
            path.display()
        );
        assert!(
            plan_ratio >= 16.0,
            "codes plan memory only {plan_ratio:.1}x below the f64 planes \
             (contract: >= 16x; see {})",
            path.display()
        );
        // Reconfigurable-metric contract: every synthesized metric
        // rides the same packed kernel as the default conductance
        // metric (a different value table, plus the max fold for L∞),
        // so none may cost more than 1.5x the default at the same
        // precision.
        assert!(
            metric_overhead <= 1.5,
            "non-default metric costs {metric_overhead:.2}x the default \
             conductance metric at codes precision (contract: <= 1.5x; \
             see {})",
            path.display()
        );
        // Serving contracts: micro-batching must actually coalesce
        // closed-loop single-query traffic (achieved batch >= 8) and
        // keep wall-clock per-query cost within 2x of the offline
        // batch-64 kernel at the same precision.
        for m in &serving {
            let offline_us = offline_b64_ns[m.precision.name()] / 1e3;
            assert!(
                m.achieved_batch_mean >= 8.0,
                "serving ({}) achieved batch {:.1} below the 8-query \
                 contract (see {})",
                m.precision.name(),
                m.achieved_batch_mean,
                path.display()
            );
            assert!(
                m.us_per_query <= 2.0 * offline_us,
                "serving ({}) {:.1} us/query exceeds 2x the offline \
                 batch-64 number {:.1} us (see {})",
                m.precision.name(),
                m.us_per_query,
                offline_us,
                path.display()
            );
        }
        // Two-stage routing contract: on the clustered workload the
        // router must buy at least 2x throughput over the full sweep
        // while keeping top-1 recall at 0.95 or better.
        for m in &routing {
            assert!(
                m.recall_top1 >= 0.95,
                "routing ({}) top-1 recall {:.3} below the 0.95 contract \
                 (probed {:.1}/{} banks; see {})",
                m.precision.name(),
                m.recall_top1,
                m.probed_banks_mean,
                m.n_banks,
                path.display()
            );
            assert!(
                m.speedup_vs_full >= 2.0,
                "routing ({}) speedup {:.2}x over the full sweep below the \
                 2x contract (probed {:.1}/{} banks; see {})",
                m.precision.name(),
                m.speedup_vs_full,
                m.probed_banks_mean,
                m.n_banks,
                path.display()
            );
        }
    } else if speedup_threads < 1.0 || speedup_f32 < 1.5 || speedup_codes < 1.5 {
        println!(
            "warning (smoke mode, contracts not enforced): \
             speedup_threads={speedup_threads:.2}, speedup_f32={speedup_f32:.2}, \
             speedup_codes={speedup_codes:.2}"
        );
    }
}

criterion_group!(
    benches,
    bench_mcam_search,
    bench_software_nn,
    bench_tcam_hamming,
    bench_variation_array,
    bench_batch_size_sweep,
    bench_thread_sweep,
    record_search_baseline
);
criterion_main!(benches);
