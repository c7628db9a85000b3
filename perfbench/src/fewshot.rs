//! `fewshot_5w5s`: the paper's 5-way 5-shot task on the prototype
//! feature surrogate (`PrototypeFeatureModel::paper_default`), run
//! through `femcam_mann::evaluate` with `Backend::mcam(3)`. Each
//! episode builds a fresh 25-row index, stores the support set and
//! classifies 25 queries.
//!
//! Why: it is the only workload for `mann`, `engines`, `array` and
//! `quantize` — many tiny memories, stores beside reads, the `f64`
//! small-array path — and it carries the paper's quality metric,
//! which is deterministic at a fixed seed.
//!
//! The timed phase calls `evaluate` on chunks of [`CHUNK`] episodes.
//! Accuracy comes from a fixed set of [`CHECKED_EPISODES`] episodes,
//! evaluated twice: once by `evaluate` and once by a loop over the
//! same public pieces (`EpisodeSampler`, `Backend::build_index`,
//! `NnIndex::add`, `NnIndex::query_batch`) that also checks every
//! batched answer against a single-query search. The two accuracies
//! must agree bit for bit. That loop is also what a traced run times
//! layer by layer.

use std::time::Instant;

use femcam_core::par;
use femcam_data::{ClassFeatureSource, PrototypeFeatureModel};
use femcam_device::FefetModel;
use femcam_mann::{evaluate, Backend, EpisodeSampler, EvalConfig, FewShotTask};

use crate::gen::Rng;
use crate::machine::Machine;
use crate::offline::Agreement;
use crate::stats::{self, ratio};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};

/// Episodes per `evaluate` call in the timed phase.
const CHUNK: usize = 16;
const CHECKED_EPISODES: usize = 256;
/// Cold starts before the timed phase, and again after it; `setup_s`
/// is the median of all of them.
const SETUP_RESTARTS: usize = 21;
const BITS: u8 = 3;
/// The seed `evaluate` derives its calibration sampler from, XOR-ed
/// into the evaluation seed (see `femcam_mann::eval`).
const CALIBRATION_SALT: u64 = 0xCA11_B8A7_E000_0000;
/// The per-episode index seed multiplier `evaluate` uses.
const EPISODE_SEED_MUL: u64 = 0x9E37_79B9;

fn task() -> FewShotTask {
    FewShotTask::new(5, 5)
}

fn queries_per_episode() -> u64 {
    let t = task();
    (t.n_way * t.n_query) as u64
}

/// Seeds of one run: the feature model's and the evaluations'.
struct Seeds {
    model: u64,
    eval: u64,
}

impl Seeds {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::stream(seed, 3);
        Seeds {
            model: rng.next_u64(),
            eval: rng.next_u64(),
        }
    }
}

/// What the episode loop measured.
#[derive(Default)]
struct Episodes {
    accuracies: Vec<f64>,
    episode_us: Vec<f64>,
    /// Completion time of each timed call, in seconds of phase time,
    /// and the queries one call classifies.
    done_s: Vec<f64>,
    queries_per_call: u64,
    queries: u64,
    failed: u64,
    elapsed_s: f64,
    agreement: Agreement,
}

impl Episodes {
    /// Mean episode accuracy, summed in episode order like `evaluate`.
    fn accuracy(&self) -> f64 {
        ratio(
            self.accuracies.iter().sum::<f64>(),
            self.accuracies.len() as f64,
        )
    }

    fn qps(&self) -> f64 {
        stats::sustained_rate(&self.done_s, self.queries_per_call as f64, self.elapsed_s)
    }
}

/// How long [`EpisodeLoop::run`] runs.
enum Limit {
    Episodes(u64),
    Seconds(f64),
}

/// `evaluate`'s episode loop over the public pieces, resumable so a
/// traced run can alternate untraced and traced slices of one stream
/// of episodes.
struct EpisodeLoop {
    cfg: EvalConfig,
    backend: Backend,
    model: FefetModel,
    source: PrototypeFeatureModel,
    calibration: Vec<Vec<f32>>,
    sampler: EpisodeSampler,
    next: u64,
}

impl EpisodeLoop {
    /// The state `evaluate` starts from: calibration drawn first, then
    /// the episode sampler.
    fn new(seeds: &Seeds) -> Self {
        let cfg = EvalConfig::new(task(), 0, seeds.eval);
        let mut source = PrototypeFeatureModel::paper_default(seeds.model);
        let mut calibration_sampler =
            EpisodeSampler::new(1, 1, 1, cfg.class_pool, cfg.seed ^ CALIBRATION_SALT);
        let calibration = (0..cfg.n_calibration.max(2))
            .map(|_| calibration_sampler.sample(&mut source).support.remove(0).0)
            .collect();
        let t = cfg.task;
        EpisodeLoop {
            sampler: EpisodeSampler::new(t.n_way, t.k_shot, t.n_query, cfg.class_pool, cfg.seed),
            cfg,
            backend: Backend::mcam(BITS),
            model: FefetModel::default(),
            source,
            calibration,
            next: 0,
        }
    }

    /// Runs episodes until `limit`, appending to `out`; with `check`
    /// every batched answer is compared with a single-query search.
    fn run(
        &mut self,
        limit: Limit,
        check: bool,
        tracer: &mut Tracer,
        out: &mut Episodes,
    ) -> femcam_core::Result<()> {
        let cal_refs: Vec<&[f32]> = self.calibration.iter().map(Vec::as_slice).collect();
        let dims = self.source.dims();
        let start = Instant::now();
        let mut ran = 0;
        loop {
            let done = match limit {
                Limit::Episodes(n) => ran >= n,
                Limit::Seconds(s) => start.elapsed().as_secs_f64() >= s,
            };
            if done {
                break;
            }
            let e = self.next;
            self.next += 1;
            ran += 1;
            let t0 = Instant::now();
            let span = tracer.open("mann.episode", None, e);
            let episode = self.sampler.sample(&mut self.source);
            let build = tracer.open("mann.build_index", span, e);
            let mut index = self.backend.build_index(
                &cal_refs,
                dims,
                self.cfg.seed.wrapping_add(e).wrapping_mul(EPISODE_SEED_MUL),
                &self.model,
            )?;
            tracer.close(build);
            for (features, label) in &episode.support {
                let add = tracer.open("engines.add", span, e);
                index.add(features, *label)?;
                tracer.close(add);
            }
            let refs: Vec<&[f32]> = episode.queries.iter().map(|(f, _)| f.as_slice()).collect();
            let query = tracer.open("engines.query_batch", span, e);
            let answers = index.query_batch(&refs)?;
            tracer.close(query);
            tracer.close(span);
            out.episode_us.push(t0.elapsed().as_secs_f64() * 1e6);
            out.done_s
                .push(out.elapsed_s + start.elapsed().as_secs_f64());
            out.queries_per_call = refs.len() as u64;
            let correct = answers
                .iter()
                .zip(&episode.queries)
                .filter(|(a, (_, label))| a.label == *label)
                .count();
            out.accuracies
                .push(correct as f64 / episode.queries.len() as f64);
            out.queries += refs.len() as u64;
            if check {
                for (answer, q) in answers.iter().zip(&refs) {
                    let single = index.query(q)?;
                    out.agreement
                        .record((answer.index, answer.score), (single.index, single.score));
                }
            }
        }
        out.elapsed_s += start.elapsed().as_secs_f64();
        Ok(())
    }
}

/// The timed phase through `evaluate`, [`CHUNK`] episodes per call.
fn evaluate_loop(seeds: &Seeds, seconds: f64) -> Episodes {
    let backend = Backend::mcam(BITS);
    let mut source = PrototypeFeatureModel::paper_default(seeds.model);
    let mut call_seeds = Rng::stream(seeds.eval, 4);
    let mut out = Episodes::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let cfg = EvalConfig::new(task(), CHUNK, call_seeds.next_u64());
        let t = Instant::now();
        let result = evaluate(&mut source, &backend, &cfg);
        let per_episode = t.elapsed().as_secs_f64() * 1e6 / CHUNK as f64;
        out.episode_us.push(per_episode);
        out.done_s.push(start.elapsed().as_secs_f64());
        let queries = queries_per_episode() * CHUNK as u64;
        out.queries_per_call = queries;
        out.queries += queries;
        if result.is_err() {
            out.failed += queries;
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// One cold start: a fresh feature model and calibration set, then
/// the first episode's index built, filled and queried. Only a traced
/// run splits it into layers.
struct ColdStart {
    total_s: f64,
    start_s: f64,
    ingest_s: f64,
    warm_s: f64,
}

fn cold_start(seeds: &Seeds, trace: bool) -> femcam_core::Result<ColdStart> {
    let t0 = Instant::now();
    let mut episodes = EpisodeLoop::new(seeds);
    let start_s = t0.elapsed().as_secs_f64();
    let mut tracer = Tracer::new(trace);
    episodes.run(
        Limit::Episodes(1),
        false,
        &mut tracer,
        &mut Episodes::default(),
    )?;
    let total_s = t0.elapsed().as_secs_f64();
    let sum_s = |name| tracer.durations_us(name).iter().sum::<f64>() / 1e6;
    Ok(ColdStart {
        total_s,
        start_s,
        ingest_s: sum_s("mann.build_index") + sum_s("engines.add"),
        warm_s: sum_s("engines.query_batch"),
    })
}

pub fn run(cfg: &RunConfig, machine: &Machine) -> Outcome {
    let mut out = Outcome::default();
    let seeds = Seeds::new(cfg.seed);
    let cold_starts =
        || (0..SETUP_RESTARTS).map(|_| cold_start(&seeds, cfg.trace).expect("cold start"));
    let mut starts: Vec<ColdStart> = cold_starts().collect();

    // A traced run times the episode loop in alternating untraced and
    // traced slices, so their difference is the tracing alone.
    let (mut timed, mut traced) = (Episodes::default(), Episodes::default());
    if cfg.trace {
        let mut episodes = EpisodeLoop::new(&seeds);
        for (seconds, on) in cfg.slices() {
            out.tracer.set_on(on);
            let phase = if on { &mut traced } else { &mut timed };
            episodes
                .run(Limit::Seconds(seconds), false, &mut out.tracer, phase)
                .expect("episode loop");
        }
        out.tracer.set_on(false);
    } else {
        timed = evaluate_loop(&seeds, cfg.seconds);
    }
    starts.extend(cold_starts());
    let col = |f: fn(&ColdStart) -> f64| starts.iter().map(f).collect::<Vec<f64>>();
    out.e2e("setup_s", stats::median(&col(|c| c.total_s)));
    out.setup_layers(
        &col(|c| c.ingest_s),
        &[0.0],
        &col(|c| c.start_s),
        &col(|c| c.warm_s),
    );
    let qps = timed.qps();
    out.attempted = timed.queries;
    out.failed = timed.failed;
    out.e2e("qps", qps);
    out.e2e("p90_us", stats::quantile(&timed.episode_us, 0.9));
    out.e2e(
        "ok_rate",
        1.0 - ratio(timed.failed as f64, timed.queries as f64),
    );

    let library = evaluate(
        &mut PrototypeFeatureModel::paper_default(seeds.model),
        &Backend::mcam(BITS),
        &EvalConfig::new(task(), CHECKED_EPISODES, seeds.eval),
    )
    .expect("fixed-set evaluation");
    let mut checked = Episodes::default();
    EpisodeLoop::new(&seeds)
        .run(
            Limit::Episodes(CHECKED_EPISODES as u64),
            true,
            &mut out.tracer,
            &mut checked,
        )
        .expect("fixed-set episode loop");
    let accuracy = checked.accuracy();
    out.e2e("exact_rate", checked.agreement.exact_rate());
    out.e2e("recall_top1", checked.agreement.row_rate());
    out.e2e("accuracy", library.accuracy);
    out.check(
        "accuracy_reproduced",
        library.accuracy.to_bits() == accuracy.to_bits(),
        format!(
            "evaluate {} vs episode loop {accuracy} over {CHECKED_EPISODES} episodes",
            library.accuracy
        ),
    );
    out.check(
        "batch_vs_single_query",
        checked.agreement.exact == checked.agreement.checked,
        format!(
            "{} of {} batched answers bitwise equal to single-query search",
            checked.agreement.exact, checked.agreement.checked
        ),
    );
    out.check(
        "accuracy_floor",
        library.accuracy >= 0.95,
        format!("5-way 5-shot accuracy {}", library.accuracy),
    );
    if !cfg.trace {
        return out;
    }

    out.attempted += traced.queries;
    let query_us = out.tracer.median_us("engines.query_batch");
    let dims = PrototypeFeatureModel::paper_default(seeds.model).dims();
    let rows = task().n_way * task().k_shot;
    let cells = (rows * dims) as f64 * queries_per_episode() as f64;
    let cells_per_ns = ratio(cells, query_us * 1e3);
    let refs_per_episode = queries_per_episode() as usize;
    out.notes.push(format!(
        "exec: the f64 small-array path scores {cells_per_ns:.3} cells/ns per query batch \
         (quantization included); the roofline fraction uses the codes-kernel ceiling at one \
         thread"
    ));
    out.layer("exec.cells_per_ns", cells_per_ns);
    out.layer(
        "exec.roofline_frac",
        cells_per_ns / machine.codes_ceiling_cells_per_ns(1),
    );
    out.layer(
        "par.threads_effective",
        par::batch_threads(
            refs_per_episode,
            cells as usize / refs_per_episode,
            par::max_threads(),
        ) as f64,
    );
    out.layer(
        "mann.build_index_us",
        out.tracer.median_us("mann.build_index"),
    );
    out.layer("engines.add_us", out.tracer.median_us("engines.add"));
    out.layer("engines.query_batch_us", query_us);
    out.layer("p50_us", stats::median(&traced.episode_us));
    out.layer("p99_us", stats::quantile(&traced.episode_us, 0.99));
    out.layer("trace.overhead_frac", 1.0 - traced.qps() / qps);
    out
}
