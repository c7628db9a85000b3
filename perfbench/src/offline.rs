//! `offline_codes`: the batched codes kernel with nothing in front of
//! it.
//!
//! 4096 uniform random 3-bit rows × 64 cells in 16 banks of 256 rows
//! (a 266 KB codes plan, well inside L2). One thread calls
//! `BankedMcam::search_batch_winners_with(batch of 64, Precision::Codes)`
//! back to back over a 4096-query pool; each query is a stored row
//! with 3 cells moved one level, labelled with that row.
//!
//! Why: it runs only `exec`, `banked` and `par` — no serving, no
//! router, no stores — so it is the reference served cost is compared
//! against, and the workload a kernel change should move most.

use std::time::Instant;

use femcam_core::{par, BankedMcam, ConductanceLut, LevelLadder, Precision};
use femcam_device::FefetModel;

use crate::gen::{self, Rng, WORD_LEN};
use crate::machine::Machine;
use crate::stats::{self, ratio};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};

pub const ROWS: usize = 4096;
pub const ROWS_PER_BANK: usize = 256;
pub const POOL: usize = 4096;
pub const BATCH: usize = 64;
pub const JITTER_CELLS: usize = 3;
/// Cold starts before the timed phase, and again after it; `setup_s`
/// is the median of all of them.
const SETUP_RESTARTS: usize = 21;

/// The inputs `offline_codes` and `serve_codes` share.
pub struct Inputs {
    pub rows: Vec<Vec<u8>>,
    pub pool: Vec<Vec<u8>>,
    pub labels: Vec<usize>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng::stream(seed, 1);
        let rows: Vec<Vec<u8>> = (0..ROWS).map(|_| gen::random_word(&mut rng)).collect();
        let (pool, labels) = gen::query_pool(&rows, POOL, JITTER_CELLS, &mut rng);
        Inputs { rows, pool, labels }
    }

    pub fn pool_refs(&self) -> Vec<&[u8]> {
        self.pool.iter().map(Vec::as_slice).collect()
    }
}

/// A fresh 3-bit memory holding `rows`, LUT synthesis included.
pub fn ingest(rows: &[Vec<u8>], rows_per_bank: usize) -> BankedMcam {
    let ladder = LevelLadder::new(3).expect("3 bits is a valid ladder");
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    let mut memory = BankedMcam::new(ladder, lut, WORD_LEN, rows_per_bank);
    for row in rows {
        memory.store(row).expect("generated rows fit the memory");
    }
    memory
}

/// Worker threads the batched codes kernel earns for one batch of
/// `batch` queries over `memory` (the `par::batch_threads` policy with
/// the codes kernel's per-bank work).
pub fn codes_threads(memory: &BankedMcam, batch: usize) -> usize {
    let rpb = memory.rows_per_bank();
    let work: usize = (0..memory.n_banks())
        .map(|b| {
            let rows = (memory.n_rows() - b * rpb).min(rpb);
            par::codes_work(rows * memory.word_len())
        })
        .sum();
    par::batch_threads(batch, work, par::max_threads())
}

/// Reference winners: the f32-plane sweep, which the codes kernel
/// matches bit for bit on shared-LUT memories.
pub fn reference(inputs: &Inputs) -> Vec<(usize, f64)> {
    ingest(&inputs.rows, ROWS_PER_BANK)
        .search_batch_winners_with(&inputs.pool_refs(), Precision::F32)
        .expect("reference sweep")
}

/// Share of pool queries whose reference winner is their source row.
pub fn accuracy(reference: &[(usize, f64)], labels: &[usize]) -> f64 {
    let hits = reference
        .iter()
        .zip(labels)
        .filter(|((row, _), label)| row == *label)
        .count();
    hits as f64 / labels.len() as f64
}

/// Answers compared with the reference, row alone and row plus
/// `f64::to_bits` conductance.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agreement {
    pub checked: u64,
    pub rows: u64,
    pub exact: u64,
}

impl Agreement {
    pub fn record(&mut self, got: (usize, f64), want: (usize, f64)) {
        self.checked += 1;
        if got.0 == want.0 {
            self.rows += 1;
            if got.1.to_bits() == want.1.to_bits() {
                self.exact += 1;
            }
        }
    }

    pub fn exact_rate(&self) -> f64 {
        ratio(self.exact as f64, self.checked as f64)
    }

    pub fn row_rate(&self) -> f64 {
        ratio(self.rows as f64, self.checked as f64)
    }
}

/// [`SETUP_RESTARTS`] cold starts, each an ingest then one warming
/// batch, appending `[total, ingest, warm]` seconds to `starts`;
/// returns the last memory.
fn cold_starts(inputs: &Inputs, starts: &mut Vec<[f64; 3]>) -> BankedMcam {
    let pool = inputs.pool_refs();
    let mut memory = None;
    for _ in 0..SETUP_RESTARTS {
        drop(memory.take());
        let t0 = Instant::now();
        let m = ingest(&inputs.rows, ROWS_PER_BANK);
        let t1 = Instant::now();
        let warm = m.search_batch_winners_with(&pool[..BATCH], Precision::Codes);
        let t2 = Instant::now();
        assert!(warm.is_ok(), "warm-up batch failed: {warm:?}");
        starts.push([
            (t2 - t0).as_secs_f64(),
            (t1 - t0).as_secs_f64(),
            (t2 - t1).as_secs_f64(),
        ]);
        memory = Some(m);
    }
    memory.expect("at least one cold start")
}

#[derive(Default)]
struct Phase {
    batch_us: Vec<f64>,
    /// Completion time of each batch, in seconds of phase time.
    done_s: Vec<f64>,
    queries: u64,
    failed: u64,
    elapsed_s: f64,
}

impl Phase {
    fn qps(&self) -> f64 {
        stats::sustained_rate(&self.done_s, BATCH as f64, self.elapsed_s)
    }
}

/// Back-to-back batches for `seconds`, appended to `phase`; `next` is
/// the batch cursor over the pool.
#[allow(clippy::too_many_arguments)]
fn timed_batches(
    memory: &BankedMcam,
    pool: &[&[u8]],
    reference: &[(usize, f64)],
    seconds: f64,
    next: &mut usize,
    tracer: &mut Tracer,
    agreement: &mut Agreement,
    phase: &mut Phase,
) {
    let start = Instant::now();
    loop {
        let lo = (*next * BATCH) % pool.len();
        let batch = &pool[lo..lo + BATCH];
        let span = tracer.open("banked.search_batch", None, *next as u64);
        let t = Instant::now();
        let answers = memory.search_batch_winners_with(batch, Precision::Codes);
        let done = Instant::now();
        tracer.close(span);
        *next += 1;
        phase.batch_us.push((done - t).as_secs_f64() * 1e6);
        phase
            .done_s
            .push(phase.elapsed_s + (done - start).as_secs_f64());
        phase.queries += BATCH as u64;
        match answers {
            Ok(answers) => {
                for (i, got) in answers.into_iter().enumerate() {
                    agreement.record(got, reference[lo + i]);
                }
            }
            Err(_) => phase.failed += BATCH as u64,
        }
        if (done - start).as_secs_f64() >= seconds {
            phase.elapsed_s += (done - start).as_secs_f64();
            return;
        }
    }
}

pub fn run(cfg: &RunConfig, machine: &Machine) -> Outcome {
    let mut out = Outcome::default();
    let inputs = Inputs::generate(cfg.seed);
    let pool = inputs.pool_refs();

    let mut starts = Vec::new();
    let memory = cold_starts(&inputs, &mut starts);
    let reference = reference(&inputs);
    let mut agreement = Agreement::default();
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    let mut next = 0;
    for (seconds, on) in cfg.slices() {
        out.tracer.set_on(on);
        let phase = if on { &mut traced } else { &mut untraced };
        timed_batches(
            &memory,
            &pool,
            &reference,
            seconds,
            &mut next,
            &mut out.tracer,
            &mut agreement,
            phase,
        );
    }
    let qps = untraced.qps();
    let accuracy = accuracy(&reference, &inputs.labels);
    out.attempted = untraced.queries;
    out.failed = untraced.failed;
    drop(cold_starts(&inputs, &mut starts));
    let col = |i: usize| starts.iter().map(|s| s[i]).collect::<Vec<f64>>();
    out.e2e("setup_s", stats::median(&col(0)));
    out.e2e("qps", qps);
    out.e2e("p90_us", stats::quantile(&untraced.batch_us, 0.9));
    out.e2e(
        "ok_rate",
        1.0 - ratio(untraced.failed as f64, untraced.queries as f64),
    );
    out.e2e("exact_rate", agreement.exact_rate());
    out.e2e("recall_top1", agreement.row_rate());
    out.e2e("accuracy", accuracy);
    out.check(
        "exact_vs_f32_reference",
        agreement.exact == agreement.checked && agreement.checked > 0,
        format!(
            "{} of {} answers bitwise equal",
            agreement.exact, agreement.checked
        ),
    );
    out.check(
        "accuracy_floor",
        accuracy >= 0.99,
        format!("{accuracy} of jittered queries answered with their source row"),
    );

    let threads = codes_threads(&memory, BATCH);
    let plan_bytes = memory.plan_memory_bytes().codes;
    let cells_per_batch = (memory.n_rows() * WORD_LEN * BATCH) as f64;
    let batch_us = if cfg.trace {
        out.tracer.median_us("banked.search_batch")
    } else {
        stats::median(&untraced.batch_us)
    };
    roofline_note(
        &mut out,
        machine,
        threads,
        cells_per_batch,
        batch_us,
        plan_bytes,
    );
    if !cfg.trace {
        return out;
    }
    out.attempted += traced.queries;
    out.failed += traced.failed;
    let cells_per_ns = cells_per_batch / (batch_us * 1e3);
    out.setup_layers(&col(1), &[0.0], &[0.0], &col(2));
    out.layer("exec.cells_per_ns", cells_per_ns);
    out.layer(
        "exec.roofline_frac",
        cells_per_ns / machine.codes_ceiling_cells_per_ns(threads),
    );
    out.layer("exec.plan_bytes", plan_bytes as f64);
    out.layer("par.threads_effective", threads as f64);
    out.layer("banked.batch_us", batch_us);
    // Offline, the achieved batch is the issued one.
    out.layer("banked.replay_us_per_query", batch_us / BATCH as f64);
    out.layer("p50_us", stats::median(&traced.batch_us));
    out.layer("p99_us", stats::quantile(&traced.batch_us, 0.99));
    out.layer("trace.overhead_frac", 1.0 - traced.qps() / qps);
    out
}

/// The codes-kernel roofline line: achieved cells per ns against one
/// `vpermps` per 8 cells per cycle per earned thread, with bytes moved
/// computed from the plan size.
pub fn roofline_note(
    out: &mut Outcome,
    machine: &Machine,
    threads: usize,
    cells_per_batch: f64,
    batch_us: f64,
    plan_bytes: usize,
) {
    let cells_per_ns = cells_per_batch / (batch_us * 1e3);
    let ceiling = machine.codes_ceiling_cells_per_ns(threads);
    out.notes.push(format!(
        "roofline: codes kernel {cells_per_ns:.3} cells/ns against a ceiling of {ceiling:.3} \
         (8 cells/cycle x {:.3} GHz x {threads} threads) = {:.3}; bytes moved are computed \
         from plan sizes, not measured: at least one pass over the {plan_bytes} B codes plan \
         per batch = {:.3} GB/s",
        machine.clock_ghz,
        cells_per_ns / ceiling,
        plan_bytes as f64 / (batch_us * 1e3),
    ));
}
