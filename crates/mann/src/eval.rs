//! Episodic few-shot evaluation (paper Fig. 7 protocol).

use femcam_data::ClassFeatureSource;
use femcam_device::FefetModel;

use crate::backend::Backend;
use crate::episode::EpisodeSampler;

/// An N-way K-shot task description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FewShotTask {
    /// Number of classes per episode.
    pub n_way: usize,
    /// Support samples per class.
    pub k_shot: usize,
    /// Query samples per class.
    pub n_query: usize,
}

impl FewShotTask {
    /// Creates a task with the conventional 5 queries per class.
    #[must_use]
    pub fn new(n_way: usize, k_shot: usize) -> Self {
        FewShotTask {
            n_way,
            k_shot,
            n_query: 5,
        }
    }

    /// The four tasks of paper Fig. 7, in presentation order.
    #[must_use]
    pub fn paper_tasks() -> Vec<FewShotTask> {
        vec![
            FewShotTask::new(5, 1),
            FewShotTask::new(5, 5),
            FewShotTask::new(20, 1),
            FewShotTask::new(20, 5),
        ]
    }

    /// Short label like `5w1s`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}w{}s", self.n_way, self.k_shot)
    }
}

/// How support features are written into the MANN memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum MemoryPolicy {
    /// One memory row per support sample (Matching-Networks style; the
    /// paper's N·K-entry memory).
    #[default]
    PerSample,
    /// One row per class: the unit-renormalized mean of its support
    /// features (SimpleShot/ProtoNet-style centroids). Uses N rows
    /// regardless of K.
    ClassPrototype,
}

/// Evaluation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EvalConfig {
    /// The task to run.
    pub task: FewShotTask,
    /// Number of episodes to average over.
    pub n_episodes: usize,
    /// Base seed (episodes, class draws, device variation derive from
    /// it).
    pub seed: u64,
    /// Optional class-pool bound for finite-class sources.
    pub class_pool: Option<u64>,
    /// Number of unlabeled calibration samples used to fit quantizer
    /// input ranges before the episodes run.
    pub n_calibration: usize,
    /// How support features are written to the memory.
    pub memory_policy: MemoryPolicy,
}

impl EvalConfig {
    /// Creates a config with sensible calibration defaults.
    #[must_use]
    pub fn new(task: FewShotTask, n_episodes: usize, seed: u64) -> Self {
        EvalConfig {
            task,
            n_episodes,
            seed,
            class_pool: None,
            n_calibration: 128,
            memory_policy: MemoryPolicy::default(),
        }
    }
}

/// Applies the memory policy: the rows actually written to the index.
fn memory_rows(
    support: &[(Vec<f32>, u32)],
    n_way: usize,
    policy: MemoryPolicy,
) -> Vec<(Vec<f32>, u32)> {
    match policy {
        MemoryPolicy::PerSample => support.to_vec(),
        MemoryPolicy::ClassPrototype => {
            let dims = support.first().map_or(0, |(f, _)| f.len());
            let mut sums = vec![vec![0.0f64; dims]; n_way];
            let mut counts = vec![0usize; n_way];
            for (f, l) in support {
                let l = *l as usize;
                counts[l] += 1;
                for (acc, &v) in sums[l].iter_mut().zip(f) {
                    *acc += v as f64;
                }
            }
            sums.into_iter()
                .enumerate()
                .filter(|(l, _)| counts[*l] > 0)
                .map(|(l, sum)| {
                    let mean: Vec<f64> = sum.iter().map(|&v| v / counts[l] as f64).collect();
                    let norm = mean.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
                    (mean.iter().map(|&v| (v / norm) as f32).collect(), l as u32)
                })
                .collect()
        }
    }
}

/// Accuracy of one backend on one task.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FewShotResult {
    /// Mean query accuracy over all episodes.
    pub accuracy: f64,
    /// Standard error of the per-episode accuracy.
    pub std_error: f64,
    /// Episodes evaluated.
    pub n_episodes: usize,
}

/// Draws the calibration set: unlabeled features from random classes,
/// used to fit input quantizer ranges once per evaluation (the input
/// driver's fixed DAC configuration).
fn calibration_set<S: ClassFeatureSource + ?Sized>(
    source: &mut S,
    cfg: &EvalConfig,
) -> Vec<Vec<f32>> {
    let mut sampler =
        EpisodeSampler::new(1, 1, 1, cfg.class_pool, cfg.seed ^ 0xCA11_B8A7_E000_0000);
    (0..cfg.n_calibration.max(2))
        .map(|_| sampler.sample(source).support.remove(0).0)
        .collect()
}

/// Runs the episodic evaluation of `backend` on features drawn from
/// `source`.
///
/// The backend is calibrated once, on the calibration set drawn before
/// the episodes (the input driver's fixed DAC configuration); each
/// episode then programs a fresh array (see [`Backend::build_index`]).
///
/// # Errors
///
/// Propagates calibration, engine construction and query failures.
pub fn evaluate<S: ClassFeatureSource + ?Sized>(
    source: &mut S,
    backend: &Backend,
    cfg: &EvalConfig,
) -> femcam_core::Result<FewShotResult> {
    let accuracies = run_episodes(source, backend, cfg, |e| {
        cfg.seed.wrapping_add(e).wrapping_mul(0x9E37_79B9)
    })?;
    Ok(summarize(&accuracies))
}

/// One evaluator's episode loop: draws the calibration set, calibrates
/// `backend` once, then runs `cfg.n_episodes` episodes, building
/// episode `e`'s index with seed `episode_seed(e)`. Returns the
/// per-episode accuracies in episode order.
fn run_episodes<S: ClassFeatureSource + ?Sized>(
    source: &mut S,
    backend: &Backend,
    cfg: &EvalConfig,
    episode_seed: impl Fn(u64) -> u64,
) -> femcam_core::Result<Vec<f64>> {
    let model = FefetModel::default();
    let dims = source.dims();
    let calibration = calibration_set(source, cfg);
    let cal_refs: Vec<&[f32]> = calibration.iter().map(|r| r.as_slice()).collect();
    let calibrated = backend.calibrate(&cal_refs, dims, &model)?;
    let mut sampler = EpisodeSampler::new(
        cfg.task.n_way,
        cfg.task.k_shot,
        cfg.task.n_query,
        cfg.class_pool,
        cfg.seed,
    );
    let mut accuracies = Vec::with_capacity(cfg.n_episodes);
    for e in 0..cfg.n_episodes {
        let episode = sampler.sample(source);
        let mut index = calibrated.build_index(episode_seed(e as u64))?;
        for (f, l) in memory_rows(&episode.support, cfg.task.n_way, cfg.memory_policy) {
            index.add(&f, l)?;
        }
        accuracies.push(episode_accuracy(index.as_ref(), &episode.queries)?);
    }
    Ok(accuracies)
}

/// Classifies one episode's query set through the engine's batched
/// path and returns the fraction answered correctly.
fn episode_accuracy(
    index: &dyn femcam_core::NnIndex,
    queries: &[(Vec<f32>, u32)],
) -> femcam_core::Result<f64> {
    let refs: Vec<&[f32]> = queries.iter().map(|(f, _)| f.as_slice()).collect();
    let results = index.query_batch(&refs)?;
    let correct = results
        .iter()
        .zip(queries)
        .filter(|(r, (_, l))| r.label == *l)
        .count();
    Ok(correct as f64 / queries.len() as f64)
}

/// Multi-threaded evaluation: `factory(thread_seed)` constructs an
/// independent feature source per worker; episodes are partitioned over
/// `n_threads` workers.
///
/// Each worker draws its own calibration set and calibrates the backend
/// once, like [`evaluate`]; its episodes then program fresh arrays.
/// Statistically equivalent to [`evaluate`] (same episode count, same
/// backend), though the exact RNG stream differs.
///
/// # Errors
///
/// Propagates the first worker failure.
pub fn evaluate_with_factory<S, F>(
    factory: F,
    backend: &Backend,
    cfg: &EvalConfig,
    n_threads: usize,
) -> femcam_core::Result<FewShotResult>
where
    S: ClassFeatureSource,
    F: Fn(u64) -> S + Sync,
    Backend: Sync,
{
    let n_threads = n_threads.max(1).min(cfg.n_episodes.max(1));
    let per_thread = cfg.n_episodes.div_ceil(n_threads);
    let results: Vec<femcam_core::Result<Vec<f64>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|t| {
                let factory = &factory;
                let thread_cfg = EvalConfig {
                    n_episodes: per_thread.min(cfg.n_episodes.saturating_sub(t * per_thread)),
                    seed: cfg.seed ^ ((t as u64 + 1) << 32),
                    ..*cfg
                };
                scope.spawn(move || {
                    let mut source = factory(thread_cfg.seed);
                    run_episodes(&mut source, backend, &thread_cfg, |e| {
                        thread_cfg.seed.wrapping_add(e)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut all = Vec::with_capacity(cfg.n_episodes);
    for r in results {
        all.extend(r?);
    }
    Ok(summarize(&all))
}

fn summarize(episode_accuracies: &[f64]) -> FewShotResult {
    let n = episode_accuracies.len();
    if n == 0 {
        return FewShotResult {
            accuracy: 0.0,
            std_error: 0.0,
            n_episodes: 0,
        };
    }
    let mean = episode_accuracies.iter().sum::<f64>() / n as f64;
    let var = episode_accuracies
        .iter()
        .map(|&a| (a - mean) * (a - mean))
        .sum::<f64>()
        / n as f64;
    FewShotResult {
        accuracy: mean,
        std_error: (var / n as f64).sqrt(),
        n_episodes: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use femcam_data::PrototypeFeatureModel;

    #[test]
    fn task_labels() {
        assert_eq!(FewShotTask::new(5, 1).label(), "5w1s");
        assert_eq!(FewShotTask::paper_tasks().len(), 4);
    }

    #[test]
    fn cosine_reaches_paper_regime_on_5w1s() {
        let mut source = PrototypeFeatureModel::paper_default(42);
        let cfg = EvalConfig::new(FewShotTask::new(5, 1), 60, 42);
        let r = evaluate(&mut source, &Backend::cosine(), &cfg).unwrap();
        assert!(
            r.accuracy > 0.95,
            "cosine 5w1s accuracy {} below the paper's ~99% regime",
            r.accuracy
        );
        assert_eq!(r.n_episodes, 60);
    }

    #[test]
    fn mcam3_tracks_fp32_closely() {
        let mut source = PrototypeFeatureModel::paper_default(43);
        let cfg = EvalConfig::new(FewShotTask::new(5, 1), 60, 43);
        let fp32 = evaluate(&mut source, &Backend::cosine(), &cfg).unwrap();
        let mcam = evaluate(&mut source, &Backend::mcam(3), &cfg).unwrap();
        assert!(
            fp32.accuracy - mcam.accuracy < 0.05,
            "3-bit MCAM {} strays too far from FP32 {}",
            mcam.accuracy,
            fp32.accuracy
        );
    }

    #[test]
    fn tcam_lsh_with_iso_word_length_trails_mcam() {
        // The paper's central accuracy claim at iso word length.
        let mut source = PrototypeFeatureModel::paper_default(44);
        let cfg = EvalConfig::new(FewShotTask::new(5, 1), 80, 44);
        let mcam = evaluate(&mut source, &Backend::mcam(3), &cfg).unwrap();
        let tcam = evaluate(&mut source, &Backend::tcam_lsh(), &cfg).unwrap();
        assert!(
            mcam.accuracy > tcam.accuracy + 0.03,
            "mcam {} should clearly beat tcam+lsh {}",
            mcam.accuracy,
            tcam.accuracy
        );
    }

    #[test]
    fn harder_tasks_are_harder() {
        let mut source = PrototypeFeatureModel::paper_default(45);
        let easy = evaluate(
            &mut source,
            &Backend::cosine(),
            &EvalConfig::new(FewShotTask::new(5, 5), 40, 45),
        )
        .unwrap();
        let hard = evaluate(
            &mut source,
            &Backend::cosine(),
            &EvalConfig::new(FewShotTask::new(20, 1), 40, 45),
        )
        .unwrap();
        assert!(easy.accuracy >= hard.accuracy);
    }

    #[test]
    fn parallel_evaluation_matches_serial_statistics() {
        let cfg = EvalConfig::new(FewShotTask::new(5, 1), 60, 46);
        let serial = {
            let mut source = PrototypeFeatureModel::paper_default(46);
            evaluate(&mut source, &Backend::mcam(2), &cfg).unwrap()
        };
        let parallel = evaluate_with_factory(
            PrototypeFeatureModel::paper_default,
            &Backend::mcam(2),
            &cfg,
            4,
        )
        .unwrap();
        assert_eq!(parallel.n_episodes, 60);
        assert!(
            (serial.accuracy - parallel.accuracy).abs() < 0.08,
            "serial {} vs parallel {}",
            serial.accuracy,
            parallel.accuracy
        );
    }

    /// The per-episode reference loop: the public
    /// [`Backend::build_index`] (calibration refitted every episode) with
    /// the evaluators' calibration draw, sampler and seeds.
    fn reference_accuracies(
        source: &mut PrototypeFeatureModel,
        backend: &Backend,
        cfg: &EvalConfig,
        episode_seed: impl Fn(u64) -> u64,
    ) -> Vec<f64> {
        let model = FefetModel::default();
        let dims = source.dims();
        let calibration = calibration_set(source, cfg);
        let cal_refs: Vec<&[f32]> = calibration.iter().map(|r| r.as_slice()).collect();
        let t = cfg.task;
        let mut sampler =
            EpisodeSampler::new(t.n_way, t.k_shot, t.n_query, cfg.class_pool, cfg.seed);
        (0..cfg.n_episodes as u64)
            .map(|e| {
                let episode = sampler.sample(source);
                let mut index = backend
                    .build_index(&cal_refs, dims, episode_seed(e), &model)
                    .unwrap();
                for (f, l) in &episode.support {
                    index.add(f, *l).unwrap();
                }
                episode_accuracy(index.as_ref(), &episode.queries).unwrap()
            })
            .collect()
    }

    #[test]
    fn calibrating_once_is_bit_identical_to_per_episode_build() {
        use femcam_core::{measured_lut, ExperimentConfig, LevelLadder};
        let lut = measured_lut(
            &FefetModel::default(),
            &LevelLadder::new(3).unwrap(),
            ExperimentConfig::default(),
        )
        .unwrap();
        let backends = [
            Backend::mcam(3),
            Backend::mcam_with_variation(3, 0.08),
            Backend::mcam_with_lut(3, lut),
            Backend::mcam_served(3),
            Backend::tcam_lsh(),
            Backend::cosine(),
        ];
        let cfg = EvalConfig::new(FewShotTask::new(20, 1), 7, 61);
        let model = FefetModel::default();
        let mut source = PrototypeFeatureModel::paper_default(61);
        let calibration = calibration_set(&mut source, &cfg);
        let cal_refs: Vec<&[f32]> = calibration.iter().map(|r| r.as_slice()).collect();
        let episode = EpisodeSampler::new(5, 1, 5, None, 61).sample(&mut source);
        let queries: Vec<&[f32]> = episode.queries.iter().map(|(f, _)| f.as_slice()).collect();
        for backend in &backends {
            let name = backend.name();
            // Engine level: one calibration serves every episode seed,
            // scores and all.
            let calibrated = backend.calibrate(&cal_refs, source.dims(), &model).unwrap();
            for seed in [0u64, 1, 0x9E37_79B9] {
                let mut once = calibrated.build_index(seed).unwrap();
                let mut per_episode = backend
                    .build_index(&cal_refs, source.dims(), seed, &model)
                    .unwrap();
                for index in [&mut once, &mut per_episode] {
                    for (f, l) in &episode.support {
                        index.add(f, *l).unwrap();
                    }
                }
                let a = once.query_batch(&queries).unwrap();
                let b = per_episode.query_batch(&queries).unwrap();
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!((x.index, x.label), (y.index, y.label), "{name}");
                    assert_eq!(x.score.to_bits(), y.score.to_bits(), "{name} seed {seed}");
                }
            }
            // Evaluation level: the evaluators' accuracy, bit for bit.
            let library =
                evaluate(&mut PrototypeFeatureModel::paper_default(61), backend, &cfg).unwrap();
            let reference = summarize(&reference_accuracies(
                &mut PrototypeFeatureModel::paper_default(61),
                backend,
                &cfg,
                |e| cfg.seed.wrapping_add(e).wrapping_mul(0x9E37_79B9),
            ));
            assert_eq!(
                library.accuracy.to_bits(),
                reference.accuracy.to_bits(),
                "{name}"
            );
            assert_eq!(
                library.std_error.to_bits(),
                reference.std_error.to_bits(),
                "{name}"
            );
            for n_threads in [1usize, 3] {
                let parallel = evaluate_with_factory(
                    PrototypeFeatureModel::paper_default,
                    backend,
                    &cfg,
                    n_threads,
                )
                .unwrap();
                // The factory's partition: worker `t` runs a contiguous
                // share of the episodes on its own seed and source.
                let per_thread = cfg.n_episodes.div_ceil(n_threads);
                let mut all = Vec::new();
                for t in 0..n_threads {
                    let thread_cfg = EvalConfig {
                        n_episodes: per_thread.min(cfg.n_episodes.saturating_sub(t * per_thread)),
                        seed: cfg.seed ^ ((t as u64 + 1) << 32),
                        ..cfg
                    };
                    all.extend(reference_accuracies(
                        &mut PrototypeFeatureModel::paper_default(thread_cfg.seed),
                        backend,
                        &thread_cfg,
                        |e| thread_cfg.seed.wrapping_add(e),
                    ));
                }
                let reference = summarize(&all);
                assert_eq!(
                    parallel.accuracy.to_bits(),
                    reference.accuracy.to_bits(),
                    "{name} at {n_threads} threads"
                );
                assert_eq!(parallel.n_episodes, cfg.n_episodes);
            }
        }
    }

    #[test]
    fn calibrated_variation_backend_redraws_per_episode() {
        // One calibration, two episode seeds: two physical arrays.
        let mut source = PrototypeFeatureModel::paper_default(62);
        let cfg = EvalConfig::new(FewShotTask::new(5, 1), 1, 62);
        let calibration = calibration_set(&mut source, &cfg);
        let cal_refs: Vec<&[f32]> = calibration.iter().map(|r| r.as_slice()).collect();
        let calibrated = Backend::mcam_with_variation(3, 0.08)
            .calibrate(&cal_refs, source.dims(), &FefetModel::default())
            .unwrap();
        let row = source.sample(5);
        let scores: Vec<f64> = [1u64, 2, 1]
            .iter()
            .map(|&seed| {
                let mut index = calibrated.build_index(seed).unwrap();
                index.add(&row, 0).unwrap();
                index.query(&row).unwrap().score
            })
            .collect();
        assert_ne!(
            scores[0].to_bits(),
            scores[1].to_bits(),
            "draw must differ per episode"
        );
        assert_eq!(
            scores[0].to_bits(),
            scores[2].to_bits(),
            "draw must follow the seed"
        );
    }

    #[test]
    fn zero_episodes_yields_empty_summary() {
        let mut source = PrototypeFeatureModel::paper_default(9);
        let cfg = EvalConfig::new(FewShotTask::new(2, 1), 0, 9);
        let r = evaluate(&mut source, &Backend::cosine(), &cfg).unwrap();
        assert_eq!(r.n_episodes, 0);
        assert_eq!(r.accuracy, 0.0);
    }

    #[test]
    fn thread_count_never_exceeds_episodes() {
        // More workers than episodes must not break partitioning.
        let cfg = EvalConfig::new(FewShotTask::new(2, 1), 3, 10);
        let r = evaluate_with_factory(
            PrototypeFeatureModel::paper_default,
            &Backend::cosine(),
            &cfg,
            64,
        )
        .unwrap();
        assert_eq!(r.n_episodes, 3);
    }

    #[test]
    fn euclidean_and_cosine_agree_on_unit_norm_features() {
        // On unit-norm vectors the two metrics induce the same ordering,
        // so their accuracies coincide exactly under the same seed.
        let cfg = EvalConfig::new(FewShotTask::new(5, 1), 30, 77);
        let mut s1 = PrototypeFeatureModel::paper_default(77);
        let cos = evaluate(&mut s1, &Backend::cosine(), &cfg).unwrap();
        let mut s2 = PrototypeFeatureModel::paper_default(77);
        let euc = evaluate(&mut s2, &Backend::euclidean(), &cfg).unwrap();
        assert_eq!(cos.accuracy, euc.accuracy);
    }

    #[test]
    fn prototype_memory_uses_n_rows_and_helps_multishot() {
        // Centroid memories average away support noise: on 5-shot tasks
        // the prototype policy should match or beat per-sample storage,
        // and it must not hurt 1-shot (where both coincide).
        let task = FewShotTask::new(5, 5);
        let mut cfg = EvalConfig::new(task, 40, 91);
        let mut s1 = PrototypeFeatureModel::paper_default(91);
        let per_sample = evaluate(&mut s1, &Backend::mcam(2), &cfg).unwrap();
        cfg.memory_policy = MemoryPolicy::ClassPrototype;
        let mut s2 = PrototypeFeatureModel::paper_default(91);
        let centroid = evaluate(&mut s2, &Backend::mcam(2), &cfg).unwrap();
        assert!(
            centroid.accuracy >= per_sample.accuracy - 0.01,
            "centroids {} should not trail per-sample {}",
            centroid.accuracy,
            per_sample.accuracy
        );
    }

    #[test]
    fn one_shot_policies_coincide() {
        // With K = 1 the centroid of a single (unit-norm) sample is the
        // sample itself, so the two policies agree exactly.
        let task = FewShotTask::new(5, 1);
        let mut cfg = EvalConfig::new(task, 20, 92);
        let mut s1 = PrototypeFeatureModel::paper_default(92);
        let a = evaluate(&mut s1, &Backend::cosine(), &cfg).unwrap();
        cfg.memory_policy = MemoryPolicy::ClassPrototype;
        let mut s2 = PrototypeFeatureModel::paper_default(92);
        let b = evaluate(&mut s2, &Backend::cosine(), &cfg).unwrap();
        assert_eq!(a.accuracy, b.accuracy);
    }

    #[test]
    fn memory_rows_shapes() {
        let support = vec![
            (vec![1.0f32, 0.0], 0u32),
            (vec![0.0, 1.0], 0),
            (vec![-1.0, 0.0], 1),
        ];
        let per_sample = memory_rows(&support, 2, MemoryPolicy::PerSample);
        assert_eq!(per_sample.len(), 3);
        let centroids = memory_rows(&support, 2, MemoryPolicy::ClassPrototype);
        assert_eq!(centroids.len(), 2);
        // Class 0 centroid = normalize((0.5, 0.5)).
        let c0 = &centroids[0].0;
        assert!((c0[0] - c0[1]).abs() < 1e-6);
        let norm: f32 = c0.iter().map(|v| v * v).sum::<f32>();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn summary_statistics() {
        let r = summarize(&[1.0, 0.5]);
        assert!((r.accuracy - 0.75).abs() < 1e-12);
        assert!(r.std_error > 0.0);
        let empty = summarize(&[]);
        assert_eq!(empty.n_episodes, 0);
    }
}
