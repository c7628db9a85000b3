//! The two served workloads, both driven by one client thread that
//! keeps [`DEPTH`] searches in flight: it submits until `DEPTH` are
//! outstanding, then waits on the oldest ticket (a closed loop). The
//! client and the server's threads share the one CPU the process is
//! pinned to (see `Machine::detect_and_pin`).
//!
//! `serve_codes`: the `offline_codes` memory and query pool, sent as
//! single-query winner searches through `ShardedServer::start(memory,
//! 1, ServeConfig { precision: Codes, .. })`. Why: the kernel work
//! equals `offline_codes`, so any difference comes from the serving
//! layers — admission, queue, batching window, fan-out and merge, and
//! wake-up. No router, no stores. One shard, because on two cores two
//! shards do not repeat from run to run.
//!
//! `serve_routed_rw`: 65,536 rows drawn around 1024 centres (about a
//! quarter of each row's cells one level off its centre) in 256 banks,
//! built with `RoutedMcam::build` and served by
//! `ShardedServer::start_routed(.., 1, ..)`. Each query is a stored row
//! with 3 cells jittered; every 32nd operation is a blocking store of
//! a new row around a random centre. Why: it is the only workload that
//! uses the router, the store barrier, `note_store` and per-bank plan
//! invalidation, and its 4.2 MB codes plan is 16× the others' working
//! set, about the size of L2.

use std::collections::VecDeque;
use std::time::Instant;

use femcam_core::{BankedMcam, ConductanceLut, LevelLadder, Precision, RoutedMcam, RouterConfig};
use femcam_device::FefetModel;
use femcam_serve::{ServeConfig, ServeError, ShardTicket, ShardedHandle, ShardedServer};

use crate::gen::{self, Rng, WORD_LEN};
use crate::machine::Machine;
use crate::offline::{self, Agreement, Inputs, BATCH, ROWS_PER_BANK};
use crate::stats::{self, ratio};
use crate::trace::{SpanId, Tracer};
use crate::{Outcome, RunConfig};

/// Searches the client keeps in flight.
const DEPTH: usize = 64;
const SERVE_SETUP_RESTARTS: usize = 21;

const ROUTED_ROWS: usize = 65_536;
const CENTRES: usize = 1024;
const ROUTED_POOL: usize = 8192;
/// Every `STORE_EVERY`-th operation of `serve_routed_rw` is a store.
const STORE_EVERY: u64 = 32;
/// Store words generated per run; a run that needs more reuses them
/// from the start.
const STORE_WORDS: usize = 8192;
/// Searches of `serve_routed_rw` checked against the full-sweep
/// oracle: always the first ones the timed phase submits, so recall
/// and accuracy are computed over the same set in every run.
const CHECKED: usize = 2048;
const ROUTED_SETUP_RESTARTS: usize = 5;
/// Stores replayed into the shadow memory to time the store path.
const STORE_REPLAYS: usize = 32;

fn serve_config() -> ServeConfig {
    ServeConfig {
        precision: Precision::Codes,
        ..ServeConfig::default()
    }
}

/// One answered search kept for the oracle.
struct Kept {
    query: usize,
    /// Stores acknowledged before the search was submitted.
    stores_before: usize,
    answer: (usize, f64),
}

#[derive(Default)]
struct Phase {
    latency_us: Vec<f64>,
    /// Completion time of each answered search, in seconds of phase
    /// time.
    done_s: Vec<f64>,
    store_us: Vec<f64>,
    searches: u64,
    stores: u64,
    failed: u64,
    elapsed_s: f64,
    /// Requests whose merge had a shard answering.
    contacted: u64,
    kept: Vec<Kept>,
    /// Global rows the acknowledged stores landed on, in order.
    stored_rows: Vec<usize>,
}

impl Phase {
    fn qps(&self) -> f64 {
        stats::sustained_rate(&self.done_s, 1.0, self.elapsed_s)
    }
}

struct InFlight {
    ticket: ShardTicket,
    submitted: Instant,
    query: usize,
    stores_before: usize,
    request: u64,
    span: SpanId,
}

#[derive(Clone, Copy)]
struct Workload<'a> {
    pool: &'a [Vec<u8>],
    /// Inline reference checked against every answer.
    reference: Option<&'a [(usize, f64)]>,
    store_words: &'a [Vec<u8>],
    store_every: Option<u64>,
    /// Answers kept (and searches the phase runs at least).
    keep: usize,
}

/// Positions in the query pool and the store words, carried across
/// the slices of a run.
#[derive(Default)]
struct Cursor {
    query: usize,
    store: usize,
    /// Operations issued, searches and stores: the request id of the
    /// next one.
    request: u64,
}

/// The closed loop for `seconds` (and at least `w.keep` searches),
/// appended to `phase`.
fn closed_loop(
    handle: &ShardedHandle,
    w: &Workload<'_>,
    seconds: f64,
    cursor: &mut Cursor,
    tracer: &mut Tracer,
    agreement: &mut Agreement,
    phase: &mut Phase,
) {
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(DEPTH);
    let start = Instant::now();
    let clock = (start, phase.elapsed_s);
    loop {
        let now = Instant::now();
        let done = (now - start).as_secs_f64() >= seconds && phase.searches >= w.keep as u64;
        if done {
            break;
        }
        cursor.request += 1;
        let request = cursor.request;
        if w.store_every.is_some_and(|k| request.is_multiple_of(k)) {
            let word = &w.store_words[cursor.store % w.store_words.len()];
            cursor.store += 1;
            let span = tracer.open("serve.store", None, request);
            let t = Instant::now();
            let acked = handle.store(word);
            phase.store_us.push(t.elapsed().as_secs_f64() * 1e6);
            tracer.close(span);
            phase.stores += 1;
            match acked {
                Ok(row) => phase.stored_rows.push(row),
                Err(_) => phase.failed += 1,
            }
            continue;
        }
        if inflight.len() == DEPTH {
            settle(&mut inflight, w, clock, phase, tracer, agreement);
        }
        let query = cursor.query % w.pool.len();
        cursor.query += 1;
        let span = tracer.open("serve.request", None, request);
        let submit_span = tracer.open("serve.submit", span, request);
        let submitted = Instant::now();
        let ticket = handle.submit(&w.pool[query]);
        tracer.close(submit_span);
        phase.searches += 1;
        match ticket {
            Ok(ticket) => inflight.push_back(InFlight {
                ticket,
                submitted,
                query,
                stores_before: phase.stored_rows.len(),
                request,
                span,
            }),
            Err(_) => {
                tracer.close(span);
                phase.failed += 1;
            }
        }
    }
    while !inflight.is_empty() {
        settle(&mut inflight, w, clock, phase, tracer, agreement);
    }
    phase.elapsed_s += start.elapsed().as_secs_f64();
}

/// Waits on the oldest ticket and records its answer; `clock` maps an
/// instant to phase time (slice start, phase time at that start).
fn settle(
    inflight: &mut VecDeque<InFlight>,
    w: &Workload<'_>,
    clock: (Instant, f64),
    phase: &mut Phase,
    tracer: &mut Tracer,
    agreement: &mut Agreement,
) {
    let Some(f) = inflight.pop_front() else {
        return;
    };
    let wait_span = tracer.open("serve.wait", f.span, f.request);
    let answer = f.ticket.wait_covered();
    let latency = f.submitted.elapsed();
    tracer.close(wait_span);
    tracer.close(f.span);
    phase.latency_us.push(latency.as_secs_f64() * 1e6);
    phase.done_s.push(clock.1 + clock.0.elapsed().as_secs_f64());
    match answer {
        Ok(covered) => {
            if covered.coverage.searched > 0 {
                phase.contacted += 1;
            }
            if let Some(reference) = w.reference {
                agreement.record(covered.value, reference[f.query]);
            }
            if phase.kept.len() < w.keep {
                phase.kept.push(Kept {
                    query: f.query,
                    stores_before: f.stores_before,
                    answer: covered.value,
                });
            }
        }
        Err(_) => phase.failed += 1,
    }
}

/// Submits one concurrent batch of `DEPTH` searches and waits for all
/// of them: the warm-up that ends every cold start. Sequential
/// searches would each wait out the batching window instead.
fn warm(handle: &ShardedHandle, pool: &[Vec<u8>]) -> Result<(), ServeError> {
    let tickets: Vec<ShardTicket> = pool[..DEPTH]
        .iter()
        .map(|q| handle.submit(q))
        .collect::<Result<_, _>>()?;
    for t in tickets {
        t.wait()?;
    }
    Ok(())
}

/// Timings of one cold start.
struct ColdStart {
    ingest_s: f64,
    router_s: f64,
    start_s: f64,
    warm_s: f64,
}

impl ColdStart {
    fn total(&self) -> f64 {
        self.ingest_s + self.router_s + self.start_s + self.warm_s
    }
}

/// Runs `restarts` cold starts, appending their timings to `timings`
/// and shutting each server down (untimed) before the next; returns
/// the last server. A run takes half its cold starts before the timed
/// phase and half after it, so `setup_s` samples two moments of the
/// machine.
fn cold_starts(
    restarts: usize,
    start_one: &mut impl FnMut() -> (ShardedServer, ColdStart),
    timings: &mut Vec<ColdStart>,
) -> ShardedServer {
    let mut server: Option<ShardedServer> = None;
    for _ in 0..restarts {
        if let Some(s) = server.take() {
            s.shutdown().expect("clean shutdown between cold starts");
        }
        let (s, t) = start_one();
        timings.push(t);
        server = Some(s);
    }
    server.expect("at least one cold start")
}

fn setup_metrics(out: &mut Outcome, starts: &[ColdStart]) {
    let col = |f: fn(&ColdStart) -> f64| starts.iter().map(f).collect::<Vec<f64>>();
    out.e2e("setup_s", stats::median(&col(ColdStart::total)));
    out.setup_layers(
        &col(|c| c.ingest_s),
        &col(|c| c.router_s),
        &col(|c| c.start_s),
        &col(|c| c.warm_s),
    );
}

/// End-to-end metrics shared by both served workloads.
fn served_e2e(out: &mut Outcome, phase: &Phase) {
    let ops = phase.searches + phase.stores;
    out.attempted = ops;
    out.failed = phase.failed;
    out.e2e("qps", phase.qps());
    out.e2e("p90_us", stats::quantile(&phase.latency_us, 0.9));
    out.e2e("ok_rate", 1.0 - ratio(phase.failed as f64, ops as f64));
}

/// Per-layer metrics of the serving layers from a traced phase.
///
/// The request p50 splits into the client's `submit` call, the
/// server's queue wait p50 (submission to execution start), the
/// execution of the request's batch (mean execution per query × mean
/// batch) and `serve.unattributed_us`, the remainder. The remainder
/// holds the hand-off back to the client: an answer waits there while
/// the single client thread is busy elsewhere, e.g. blocked in a store.
/// It mixes medians with means, so it can be slightly negative.
#[allow(clippy::too_many_arguments)]
fn served_layers(
    out: &mut Outcome,
    machine: &Machine,
    server: &ShardedServer,
    untraced: &Phase,
    traced: &Phase,
    replay_memory: &BankedMcam,
    pool: &[Vec<u8>],
) {
    let sharded = server.stats();
    let merged = sharded.merged();
    let tracer = &out.tracer;
    let request_p50 = tracer.median_us("serve.request");
    let submit_us = tracer.median_us("serve.submit");
    let wait_us = tracer.median_us("serve.wait");
    let batch_exec_us = merged.mean_exec_us_per_query * merged.mean_batch;
    let batch = (merged.mean_batch.round() as usize).clamp(1, DEPTH);
    let replay_us = replay_us_per_query(replay_memory, pool, batch);
    let cells_per_query = (replay_memory.n_rows() * WORD_LEN) as f64;
    let cells_per_ns = ratio(cells_per_query, merged.mean_exec_us_per_query * 1e3);
    let threads = offline::codes_threads(replay_memory, batch);
    let plan_bytes = server.memory_report().map_or(0, |r| r.plan.codes);
    offline::roofline_note(
        out,
        machine,
        threads,
        cells_per_query * batch as f64,
        batch_exec_us,
        plan_bytes,
    );
    out.layer("exec.cells_per_ns", cells_per_ns);
    out.layer(
        "exec.roofline_frac",
        cells_per_ns / machine.codes_ceiling_cells_per_ns(threads),
    );
    out.layer("exec.plan_bytes", plan_bytes as f64);
    out.layer("par.threads_effective", threads as f64);
    out.layer("banked.replay_us_per_query", replay_us);
    out.layer("serve.submit_us", submit_us);
    out.layer("serve.wait_us", wait_us);
    out.layer("serve.queue_wait_p50_us", merged.p50_wait_us);
    out.layer("serve.queue_wait_p99_us", merged.p99_wait_us);
    out.layer("serve.batch_mean", merged.mean_batch);
    out.layer("serve.exec_us_per_query", merged.mean_exec_us_per_query);
    out.layer(
        "serve.exec_vs_offline",
        ratio(merged.mean_exec_us_per_query, replay_us),
    );
    out.layer(
        "serve.unattributed_us",
        request_p50 - submit_us - merged.p50_wait_us - batch_exec_us,
    );
    out.layer("serve.store_us", stats::median(&traced.store_us));
    out.layer("serve.rejected", merged.rejected as f64);
    out.layer("serve.restarts", merged.restarts as f64);
    out.layer(
        "shard.contacted_mean",
        ratio(traced.contacted as f64, traced.searches as f64),
    );
    out.layer("shard.degraded", sharded.degraded as f64);
    out.layer("shard.quarantined", sharded.quarantined as f64);
    out.layer("p50_us", stats::median(&traced.latency_us));
    out.layer("p99_us", stats::quantile(&traced.latency_us, 0.99));
    out.layer("trace.overhead_frac", 1.0 - traced.qps() / untraced.qps());
}

/// Offline cost per query of a full codes sweep at `batch` queries per
/// call: the median over consecutive pool batches.
fn replay_us_per_query(memory: &BankedMcam, pool: &[Vec<u8>], batch: usize) -> f64 {
    let refs: Vec<&[u8]> = pool.iter().map(Vec::as_slice).collect();
    let mut per_query = Vec::new();
    for chunk in refs.chunks_exact(batch).take(64) {
        let t = Instant::now();
        let r = memory.search_batch_winners_with(chunk, Precision::Codes);
        per_query.push(t.elapsed().as_secs_f64() * 1e6 / batch as f64);
        assert!(r.is_ok(), "offline replay failed: {r:?}");
    }
    stats::median(&per_query)
}

/// The timed phase over `cfg.slices()`: the untraced and the traced
/// slices, each accumulated. Only the first untraced slice keeps
/// answers for the oracle, so the checked searches are the same in
/// every run.
fn timed(
    handle: &ShardedHandle,
    w: &Workload<'_>,
    cfg: &RunConfig,
    tracer: &mut Tracer,
    agreement: &mut Agreement,
) -> (Phase, Phase) {
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    let unkept = Workload { keep: 0, ..*w };
    let mut cursor = Cursor::default();
    for (i, (seconds, on)) in cfg.slices().into_iter().enumerate() {
        tracer.set_on(on);
        let (phase, w) = match (on, i) {
            (false, 0) => (&mut untraced, w),
            (false, _) => (&mut untraced, &unkept),
            (true, _) => (&mut traced, &unkept),
        };
        closed_loop(handle, w, seconds, &mut cursor, tracer, agreement, phase);
    }
    (untraced, traced)
}

pub fn run_codes(cfg: &RunConfig, machine: &Machine) -> Outcome {
    let mut out = Outcome::default();
    let inputs = Inputs::generate(cfg.seed);
    let mut start_one = || {
        let t0 = Instant::now();
        let memory = offline::ingest(&inputs.rows, ROWS_PER_BANK);
        let t1 = Instant::now();
        let server = ShardedServer::start(memory, 1, serve_config());
        let t2 = Instant::now();
        warm(&server.handle(), &inputs.pool).expect("warm-up batch");
        let t3 = Instant::now();
        let timing = ColdStart {
            ingest_s: (t1 - t0).as_secs_f64(),
            router_s: 0.0,
            start_s: (t2 - t1).as_secs_f64(),
            warm_s: (t3 - t2).as_secs_f64(),
        };
        (server, timing)
    };
    let mut starts = Vec::new();
    let server = cold_starts(SERVE_SETUP_RESTARTS, &mut start_one, &mut starts);

    let reference = offline::reference(&inputs);
    let w = Workload {
        pool: &inputs.pool,
        reference: Some(&reference),
        store_words: &[],
        store_every: None,
        keep: 0,
    };
    let handle = server.handle();
    let mut agreement = Agreement::default();
    let (untraced, traced) = timed(&handle, &w, cfg, &mut out.tracer, &mut agreement);
    served_e2e(&mut out, &untraced);
    let accuracy = offline::accuracy(&reference, &inputs.labels);
    out.e2e("exact_rate", agreement.exact_rate());
    out.e2e("recall_top1", agreement.row_rate());
    out.e2e("accuracy", accuracy);
    out.check(
        "exact_vs_f32_reference",
        agreement.exact == agreement.checked && agreement.checked > 0,
        format!(
            "{} of {} served answers bitwise equal",
            agreement.exact, agreement.checked
        ),
    );
    out.check(
        "accuracy_floor",
        accuracy >= 0.99,
        format!("{accuracy} of jittered queries answered with their source row"),
    );
    if cfg.trace {
        out.attempted += traced.searches;
        out.failed += traced.failed;
        let replay = offline::ingest(&inputs.rows, ROWS_PER_BANK);
        served_layers(
            &mut out,
            machine,
            &server,
            &untraced,
            &traced,
            &replay,
            &inputs.pool,
        );
    }
    drop(handle);
    let shutdown = server.shutdown().is_ok();
    let last = cold_starts(SERVE_SETUP_RESTARTS, &mut start_one, &mut starts);
    setup_metrics(&mut out, &starts);
    out.check(
        "clean_shutdown",
        shutdown && last.shutdown().is_ok(),
        "servers returned their memory".into(),
    );
    out
}

/// `serve_routed_rw` inputs.
struct RoutedInputs {
    rows: Vec<Vec<u8>>,
    pool: Vec<Vec<u8>>,
    /// Input row each query was drawn from.
    sources: Vec<usize>,
    store_words: Vec<Vec<u8>>,
}

impl RoutedInputs {
    fn generate(seed: u64) -> Self {
        let mut rng = Rng::stream(seed, 2);
        let centres: Vec<Vec<u8>> = (0..CENTRES).map(|_| gen::random_word(&mut rng)).collect();
        let rows: Vec<Vec<u8>> = (0..ROUTED_ROWS)
            .map(|i| gen::cluster_member(&centres[i % CENTRES], &mut rng))
            .collect();
        let (pool, sources) = gen::query_pool(&rows, ROUTED_POOL, offline::JITTER_CELLS, &mut rng);
        let store_words = (0..STORE_WORDS)
            .map(|_| gen::cluster_member(&centres[rng.below(CENTRES)], &mut rng))
            .collect();
        RoutedInputs {
            rows,
            pool,
            sources,
            store_words,
        }
    }

    fn build(&self) -> (RoutedMcam, Vec<usize>) {
        let ladder = LevelLadder::new(3).expect("3 bits is a valid ladder");
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        RoutedMcam::build(
            ladder,
            lut,
            WORD_LEN,
            ROWS_PER_BANK,
            RouterConfig::default(),
            &self.rows,
        )
        .expect("generated rows fit the memory")
    }
}

pub fn run_routed(cfg: &RunConfig, machine: &Machine) -> Outcome {
    let mut out = Outcome::default();
    let inputs = RoutedInputs::generate(cfg.seed);
    let mut start_one = || {
        // A plain bulk load of the same rows, timed apart from the
        // start, splits `RoutedMcam::build` into its ingest and its
        // router work.
        let t = Instant::now();
        drop(offline::ingest(&inputs.rows, ROWS_PER_BANK));
        let ingest_s = t.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let (routed, _) = inputs.build();
        let t1 = Instant::now();
        let server = ShardedServer::start_routed(routed, 1, serve_config());
        let t2 = Instant::now();
        warm(&server.handle(), &inputs.pool).expect("warm-up batch");
        let t3 = Instant::now();
        let build_s = (t1 - t0).as_secs_f64();
        let timing = ColdStart {
            ingest_s: ingest_s.min(build_s),
            router_s: (build_s - ingest_s).max(0.0),
            start_s: (t2 - t1).as_secs_f64(),
            warm_s: (t3 - t2).as_secs_f64(),
        };
        (server, timing)
    };
    let mut starts = Vec::new();
    let server = cold_starts(ROUTED_SETUP_RESTARTS, &mut start_one, &mut starts);

    let w = Workload {
        pool: &inputs.pool,
        reference: None,
        store_words: &inputs.store_words,
        store_every: Some(STORE_EVERY),
        keep: CHECKED,
    };
    let handle = server.handle();
    let mut unchecked = Agreement::default();
    let (untraced, traced) = timed(&handle, &w, cfg, &mut out.tracer, &mut unchecked);
    served_e2e(&mut out, &untraced);
    // The shadow memory: built like the served one, it replays the
    // acknowledged stores for the oracle below.
    let (mut shadow, _) = inputs.build();
    if cfg.trace {
        out.attempted += traced.searches + traced.stores;
        out.failed += traced.failed;
        served_layers(
            &mut out,
            machine,
            &server,
            &untraced,
            &traced,
            shadow.memory(),
            &inputs.pool,
        );
    }
    drop(handle);
    let shutdown = server.shutdown().is_ok();
    let last = cold_starts(ROUTED_SETUP_RESTARTS, &mut start_one, &mut starts);
    setup_metrics(&mut out, &starts);
    out.check(
        "clean_shutdown",
        shutdown && last.shutdown().is_ok(),
        "servers returned their memory".into(),
    );

    // Each checked search must equal a full sweep over the rows stored
    // when it was submitted.
    let mut agreement = Agreement::default();
    let mut labelled = 0usize;
    let mut store_rows_ok = true;
    let mut applied = 0usize;
    for group in untraced
        .kept
        .chunk_by(|a, b| a.stores_before == b.stores_before)
    {
        while applied < group[0].stores_before {
            let word = &inputs.store_words[applied % inputs.store_words.len()];
            let row = shadow.store(word).expect("shadow store");
            store_rows_ok &= untraced.stored_rows.get(applied) == Some(&row);
            applied += 1;
        }
        let queries: Vec<&[u8]> = group
            .iter()
            .map(|k| inputs.pool[k.query].as_slice())
            .collect();
        let oracle = shadow
            .memory()
            .search_batch_winners_with(&queries, Precision::Codes)
            .expect("oracle sweep");
        for (k, want) in group.iter().zip(oracle) {
            agreement.record(k.answer, want);
            let source = &inputs.rows[inputs.sources[k.query]];
            labelled += usize::from(shadow.memory().row(k.answer.0) == Some(source.as_slice()));
        }
    }
    let accuracy = ratio(labelled as f64, untraced.kept.len() as f64);
    out.e2e("exact_rate", agreement.exact_rate());
    out.e2e("recall_top1", agreement.row_rate());
    out.e2e("accuracy", accuracy);
    out.check(
        "checked_searches",
        untraced.kept.len() == CHECKED,
        format!("{} of {CHECKED} searches answered", untraced.kept.len()),
    );
    out.check(
        "exact_vs_full_sweep",
        agreement.exact == agreement.checked,
        format!(
            "{} of {} served winners bitwise equal to the full-sweep oracle",
            agreement.exact, agreement.checked
        ),
    );
    out.check(
        "store_rows",
        store_rows_ok,
        format!("{applied} acknowledged stores landed on the oracle's rows"),
    );
    out.check(
        "accuracy_floor",
        accuracy >= 0.9,
        format!("{accuracy} of checked queries answered with their source row"),
    );
    if cfg.trace {
        router_and_store_replays(&mut out, shadow, &inputs);
    }
    out
}

/// Replays after the timed phase: the router and the store path,
/// offline on the shadow memory.
fn router_and_store_replays(out: &mut Outcome, shadow: RoutedMcam, inputs: &RoutedInputs) {
    let refs: Vec<&[u8]> = inputs.pool.iter().map(Vec::as_slice).collect();
    let mut route_us = Vec::new();
    let mut probed = Vec::new();
    for q in refs.iter().take(1024) {
        let t = Instant::now();
        let banks = shadow.route(q).expect("route");
        route_us.push(t.elapsed().as_secs_f64() * 1e6);
        probed.push(banks.len() as f64);
    }
    let mut routed_us = Vec::new();
    for chunk in refs.chunks_exact(BATCH).take(32) {
        let t = Instant::now();
        let r = shadow.search_batch_winners_with(chunk, Precision::Codes);
        routed_us.push(t.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
        assert!(r.is_ok(), "routed replay failed: {r:?}");
    }
    out.layer("router.route_us", stats::median(&route_us));
    out.layer("router.probed_banks_mean", stats::mean(&probed));
    out.layer("router.offline_us_per_query", stats::median(&routed_us));

    // A store dirties one bank; the first search after it recompiles
    // that bank's plan, the second runs warm.
    let (mut memory, _) = shadow.into_parts();
    let mut store_us = Vec::new();
    let mut recompile_us = Vec::new();
    for (n, word) in inputs
        .store_words
        .iter()
        .rev()
        .take(STORE_REPLAYS)
        .enumerate()
    {
        let t = Instant::now();
        memory.store(word).expect("replayed store");
        store_us.push(t.elapsed().as_secs_f64() * 1e6);
        // Only the bank the store landed in recompiles: time a search
        // masked to it, cold and then warm.
        let dirty = [memory.n_banks() - 1];
        let lo = (n * BATCH) % refs.len();
        let batch = &refs[lo..lo + BATCH];
        let t = Instant::now();
        let cold = memory.search_batch_winners_masked(batch, Precision::Codes, &dirty);
        let cold_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let warm = memory.search_batch_winners_masked(batch, Precision::Codes, &dirty);
        recompile_us.push(cold_us - t.elapsed().as_secs_f64() * 1e6);
        assert!(cold.is_ok() && warm.is_ok(), "replayed search failed");
    }
    out.layer("banked.store_us", stats::median(&store_us));
    out.layer("banked.recompile_us", stats::median(&recompile_us));
}
