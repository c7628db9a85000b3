//! Search-backend configurations (the paper's three NN implementations).
//!
//! A [`Backend`] is a *configuration*; [`Backend::build_index`]
//! instantiates a fresh engine per episode. Construction has two steps,
//! as on the chip (paper §IV-A). Calibration fits the input quantizer
//! (the input driver's DAC configuration) and the nominal LUT once per
//! evaluation. Each episode then reprograms only the array, and device
//! variation redraws per episode with a derived seed, modeling a
//! different physical array each time. The episodic evaluators
//! calibrate once and build every episode from that; the public
//! `build_index` runs both steps, so it returns the same engines.

use femcam_core::{BankedMcam, ConductanceLut, LevelLadder, McamArray, McamArrayBuilder};
use femcam_core::{
    Cosine, DistanceKind, Euclidean, Linf, Manhattan, McamNn, Metric, NnIndex, Precision,
    QuantizeStrategy, Quantizer, SoftwareNn, TcamLshNn, VariationSpec,
};
use femcam_device::FefetModel;
use femcam_serve::{ServeConfig, ServedNn};

/// A nearest-neighbor search backend configuration.
#[derive(Debug, Clone)]
pub enum Backend {
    /// FP32 software search with a standard distance function.
    Software(DistanceKind),
    /// The proposed in-MCAM search.
    Mcam {
        /// Cell precision in bits (2 and 3 in the paper).
        bits: u8,
        /// Feature quantization strategy.
        strategy: QuantizeStrategy,
        /// Per-FeFET Gaussian `Vth` variation sigma in volts
        /// (`0.0` = nominal array).
        variation_sigma: f64,
        /// Optional measured LUT override (the Fig. 9 experimental
        /// table). Ignored when `variation_sigma > 0`.
        lut: Option<ConductanceLut>,
        /// Execution precision of the compiled search kernel
        /// ([`Precision::F64`] = bit-identical reference,
        /// [`Precision::F32`] = opt-in fast mode,
        /// [`Precision::Codes`] = byte-packed level-code mode; see
        /// `femcam_core::exec`'s "Precision modes" and "Codes mode").
        precision: Precision,
        /// Distance semantics of the compiled search kernel
        /// ([`Metric::McamConductance`] = the paper's device curves;
        /// `L1` / `Linf` / `Hamming` = synthesized digital metrics —
        /// see `femcam_core::exec`'s "Metric modes").
        metric: Metric,
    },
    /// The proposed in-MCAM search behind the async micro-batching
    /// serving front end (`femcam_serve::ShardedServer` at one shard):
    /// the same quantize→search pipeline as [`Backend::Mcam`], but the
    /// episode memory is a row-tiled [`BankedMcam`] owned by a
    /// dispatcher thread, and every query and support-set store routes
    /// through the serving queue. Results are bit-identical to the
    /// equivalent [`Backend::Mcam`] at the same precision — the serving
    /// layer's determinism contract — which makes this backend a
    /// drop-in way to evaluate the online deployment path on the
    /// paper's workloads.
    ///
    /// This is the one served variant: neither more shards nor an LSH
    /// router could change an episode. Every episode memory starts
    /// empty, so a sharded front end puts every support row on its
    /// tail shard, and an episode's few dozen rows fit in one bank, so
    /// a router has no other bank to skip.
    McamServed {
        /// Cell precision in bits.
        bits: u8,
        /// Feature quantization strategy.
        strategy: QuantizeStrategy,
        /// Execution precision of the served search kernel.
        precision: Precision,
        /// Rows per physical bank of the served memory.
        rows_per_bank: usize,
    },
    /// The TCAM+LSH baseline.
    TcamLsh {
        /// Signature length; `None` uses the feature dimensionality
        /// (iso-word-length with the MCAM, the paper's comparison).
        signature_bits: Option<usize>,
    },
}

impl Backend {
    /// FP32 cosine backend.
    #[must_use]
    pub fn cosine() -> Self {
        Backend::Software(DistanceKind::Cosine)
    }

    /// FP32 Euclidean backend.
    #[must_use]
    pub fn euclidean() -> Self {
        Backend::Software(DistanceKind::Euclidean)
    }

    /// Nominal MCAM backend with `bits` precision.
    ///
    /// Uses per-feature quantile quantization, which spends the `2^bits`
    /// levels where the (concentrated, unit-norm) feature mass actually
    /// lies; this is what achieves the paper's "within 0.8% of FP32"
    /// regime at 3 bits.
    #[must_use]
    pub fn mcam(bits: u8) -> Self {
        Backend::Mcam {
            bits,
            strategy: QuantizeStrategy::PerFeatureQuantile,
            variation_sigma: 0.0,
            lut: None,
            precision: Precision::F64,
            metric: Metric::default(),
        }
    }

    /// Nominal MCAM backend at a chosen [`Metric`]: the same
    /// quantize→search pipeline, with the compiled kernel's distance
    /// semantics swapped at plan-compile time (the report name gains
    /// the metric suffix, e.g. `mcam-3bit-l1`).
    #[must_use]
    pub fn mcam_metric(bits: u8, metric: Metric) -> Self {
        Backend::Mcam {
            bits,
            strategy: QuantizeStrategy::PerFeatureQuantile,
            variation_sigma: 0.0,
            lut: None,
            precision: Precision::F64,
            metric,
        }
    }

    /// Nominal MCAM backend running the opt-in `f32` fast kernel
    /// (reduced-precision match-line evaluation; the accuracy contract
    /// is documented in `femcam_core::exec`).
    #[must_use]
    pub fn mcam_f32(bits: u8) -> Self {
        Backend::Mcam {
            bits,
            strategy: QuantizeStrategy::PerFeatureQuantile,
            variation_sigma: 0.0,
            lut: None,
            precision: Precision::F32,
            metric: Metric::default(),
        }
    }

    /// Nominal MCAM backend running the byte-packed level-code kernel
    /// ([`Precision::Codes`]): bit-identical to [`mcam_f32`](Self::mcam_f32)
    /// results on the shared-LUT arrays episodes build, at a fraction
    /// of the plan bandwidth and resident bytes (see
    /// `femcam_core::exec`'s "Codes mode").
    #[must_use]
    pub fn mcam_codes(bits: u8) -> Self {
        Backend::Mcam {
            bits,
            strategy: QuantizeStrategy::PerFeatureQuantile,
            variation_sigma: 0.0,
            lut: None,
            precision: Precision::Codes,
            metric: Metric::default(),
        }
    }

    /// MCAM backend with Gaussian `Vth` variation (paper Fig. 8).
    #[must_use]
    pub fn mcam_with_variation(bits: u8, sigma_v: f64) -> Self {
        Backend::Mcam {
            bits,
            strategy: QuantizeStrategy::PerFeatureQuantile,
            variation_sigma: sigma_v,
            lut: None,
            precision: Precision::F64,
            metric: Metric::default(),
        }
    }

    /// MCAM backend driven by a measured LUT (paper Fig. 9(c)).
    #[must_use]
    pub fn mcam_with_lut(bits: u8, lut: ConductanceLut) -> Self {
        Backend::Mcam {
            bits,
            strategy: QuantizeStrategy::PerFeatureQuantile,
            variation_sigma: 0.0,
            lut: Some(lut),
            precision: Precision::F64,
            metric: Metric::default(),
        }
    }

    /// MCAM backend behind the micro-batching serving front end
    /// ([`Backend::McamServed`]) at the default `f64` (bit-identical)
    /// precision; 256 rows per bank, the benchmark sweep geometry.
    #[must_use]
    pub fn mcam_served(bits: u8) -> Self {
        Backend::McamServed {
            bits,
            strategy: QuantizeStrategy::PerFeatureQuantile,
            precision: Precision::F64,
            rows_per_bank: 256,
        }
    }

    /// Iso-word-length TCAM+LSH backend.
    #[must_use]
    pub fn tcam_lsh() -> Self {
        Backend::TcamLsh {
            signature_bits: None,
        }
    }

    /// Report name.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Backend::Software(kind) => format!("fp32-{}", kind.name()),
            Backend::Mcam {
                bits,
                variation_sigma,
                lut,
                precision,
                metric,
                ..
            } => {
                let mut n = format!("mcam-{bits}bit");
                if *variation_sigma > 0.0 {
                    n.push_str(&format!("-var{:.0}mv", variation_sigma * 1000.0));
                }
                if lut.is_some() {
                    n.push_str("-exp");
                }
                n.push_str(precision.name_suffix());
                n.push_str(metric.name_suffix());
                n
            }
            Backend::McamServed {
                bits, precision, ..
            } => {
                format!("mcam-served-{bits}bit{}", precision.name_suffix())
            }
            Backend::TcamLsh { signature_bits } => match signature_bits {
                Some(b) => format!("tcam+lsh-{b}b"),
                None => "tcam+lsh".to_string(),
            },
        }
    }

    /// Builds a fresh engine for one episode.
    ///
    /// `calibration` supplies unlabeled feature vectors used to fit the
    /// quantizer's input ranges (the input DAC configuration);
    /// `episode_seed` derives per-episode stochastic state (device
    /// variation draws, LSH planes).
    ///
    /// This fits the quantizer and the nominal LUT on every call. The
    /// episodic evaluators ([`evaluate`](crate::evaluate),
    /// [`evaluate_with_factory`](crate::evaluate_with_factory)) fit them
    /// once per evaluation and reprogram only the array per episode,
    /// through the same construction path, so their engines are the
    /// ones this returns.
    ///
    /// # Errors
    ///
    /// Propagates engine-construction failures.
    pub fn build_index(
        &self,
        calibration: &[&[f32]],
        dims: usize,
        episode_seed: u64,
        model: &FefetModel,
    ) -> femcam_core::Result<Box<dyn NnIndex>> {
        self.calibrate(calibration, dims, model)?
            .build_index(episode_seed)
    }

    /// Fits the per-evaluation state of this backend: for the MCAM
    /// backends, the input quantizer on `calibration`, the level ladder
    /// and the nominal (or overriding measured) LUT. Nothing here
    /// depends on the episode.
    pub(crate) fn calibrate(
        &self,
        calibration: &[&[f32]],
        dims: usize,
        model: &FefetModel,
    ) -> femcam_core::Result<Calibrated> {
        let fit = |bits: u8, strategy: QuantizeStrategy, lut: Option<&ConductanceLut>| {
            let ladder = LevelLadder::new(bits)?;
            let quantizer = Quantizer::fit(
                calibration.iter().copied(),
                dims,
                ladder.n_levels() as u16,
                strategy,
            )?;
            let lut = match lut {
                Some(l) => l.clone(),
                None => ConductanceLut::from_device(model, &ladder),
            };
            femcam_core::Result::Ok(InputDriver {
                quantizer,
                ladder,
                lut,
            })
        };
        Ok(match self {
            Backend::Software(kind) => Calibrated::Software { kind: *kind, dims },
            Backend::Mcam {
                bits,
                strategy,
                variation_sigma,
                lut,
                precision,
                metric,
            } => Calibrated::Mcam {
                driver: fit(*bits, *strategy, lut.as_ref())?,
                variation: (*variation_sigma > 0.0).then_some((*variation_sigma, *model)),
                precision: *precision,
                metric: *metric,
            },
            Backend::McamServed {
                bits,
                strategy,
                precision,
                rows_per_bank,
            } => Calibrated::Served {
                driver: fit(*bits, *strategy, None)?,
                precision: *precision,
                rows_per_bank: (*rows_per_bank).max(1),
            },
            Backend::TcamLsh { signature_bits } => Calibrated::TcamLsh {
                bits: signature_bits.unwrap_or(dims),
                dims,
            },
        })
    }
}

/// The fitted input driver of an MCAM backend: quantizer, level ladder
/// and nominal LUT, shared by every episode of one evaluation.
#[derive(Debug)]
pub(crate) struct InputDriver {
    quantizer: Quantizer,
    ladder: LevelLadder,
    lut: ConductanceLut,
}

impl InputDriver {
    /// A fresh, empty array programmed through this driver, with its
    /// own `Vth` variation draw when `variation` is set.
    fn array(&self, variation: Option<(f64, FefetModel)>, episode_seed: u64) -> McamArray {
        let builder =
            McamArrayBuilder::new(self.ladder, self.lut.clone()).word_len(self.quantizer.dims());
        match variation {
            Some((sigma_v, model)) => builder
                .variation(
                    VariationSpec {
                        sigma_v,
                        seed: episode_seed,
                    },
                    model,
                )
                .build(),
            None => builder.build(),
        }
    }
}

/// A [`Backend`] with its per-evaluation state fitted
/// ([`Backend::calibrate`]); [`build_index`](Self::build_index) then
/// programs one episode's engine.
#[derive(Debug)]
pub(crate) enum Calibrated {
    Software {
        kind: DistanceKind,
        dims: usize,
    },
    Mcam {
        driver: InputDriver,
        /// `(sigma_v, model)` when the array draws `Vth` variation.
        variation: Option<(f64, FefetModel)>,
        precision: Precision,
        metric: Metric,
    },
    Served {
        driver: InputDriver,
        precision: Precision,
        rows_per_bank: usize,
    },
    TcamLsh {
        bits: usize,
        dims: usize,
    },
}

impl Calibrated {
    /// Builds a fresh engine for one episode: a new array (with its own
    /// variation draw when the backend has one) behind the calibrated
    /// input driver.
    ///
    /// # Errors
    ///
    /// Propagates engine-construction failures.
    pub(crate) fn build_index(&self, episode_seed: u64) -> femcam_core::Result<Box<dyn NnIndex>> {
        match self {
            Calibrated::Software { kind, dims } => Ok(match kind {
                DistanceKind::Cosine => Box::new(SoftwareNn::new(Cosine, *dims)),
                DistanceKind::Euclidean => Box::new(SoftwareNn::new(Euclidean, *dims)),
                DistanceKind::Manhattan => Box::new(SoftwareNn::new(Manhattan, *dims)),
                DistanceKind::Linf => Box::new(SoftwareNn::new(Linf, *dims)),
            }),
            Calibrated::Mcam {
                driver,
                variation,
                precision,
                metric,
            } => Ok(Box::new(
                McamNn::new(
                    driver.quantizer.clone(),
                    driver.array(*variation, episode_seed),
                )?
                .with_precision(*precision)
                .with_metric(*metric),
            )),
            Calibrated::Served {
                driver,
                precision,
                rows_per_bank,
            } => {
                let memory = BankedMcam::new(
                    driver.ladder,
                    driver.lut.clone(),
                    driver.quantizer.dims(),
                    *rows_per_bank,
                );
                let config = ServeConfig {
                    precision: *precision,
                    ..ServeConfig::default()
                };
                Ok(Box::new(ServedNn::new(
                    driver.quantizer.clone(),
                    memory,
                    config,
                )?))
            }
            // LSH planes are fixed hardware: derive them from the
            // evaluation seed space but not per episode, so every
            // episode shares the same encoder. The constant is
            // arbitrary; it was retuned from 0xC0FE when the offline
            // vendored RNG (vendor/rand, xoshiro256++) replaced upstream
            // StdRng's ChaCha stream, under which that draw produced a
            // degenerate 4-plane encoder.
            Calibrated::TcamLsh { bits, dims } => {
                Ok(Box::new(TcamLshNn::new(*bits, *dims, 0xC0FFEE)?))
            }
        }
    }
}

/// A software implementation of the full backend lineup used in the
/// paper's figures: 3-bit MCAM, 2-bit MCAM, TCAM+LSH, cosine, Euclidean.
#[must_use]
pub fn paper_lineup() -> Vec<Backend> {
    vec![
        Backend::mcam(3),
        Backend::mcam(2),
        Backend::tcam_lsh(),
        Backend::cosine(),
        Backend::euclidean(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calibration_data() -> Vec<Vec<f32>> {
        (0..20)
            .map(|i| {
                let t = i as f32 / 19.0;
                vec![t, 1.0 - t, 0.5 * t, -t]
            })
            .collect()
    }

    #[test]
    fn names_are_distinct_and_stable() {
        let names: Vec<String> = paper_lineup().iter().map(Backend::name).collect();
        assert_eq!(
            names,
            vec![
                "mcam-3bit",
                "mcam-2bit",
                "tcam+lsh",
                "fp32-cosine",
                "fp32-euclidean"
            ]
        );
        assert_eq!(
            Backend::mcam_with_variation(3, 0.08).name(),
            "mcam-3bit-var80mv"
        );
    }

    #[test]
    fn all_backends_build_and_answer() {
        let model = FefetModel::default();
        let cal = calibration_data();
        let cal_refs: Vec<&[f32]> = cal.iter().map(|r| r.as_slice()).collect();
        for backend in paper_lineup() {
            let mut idx = backend.build_index(&cal_refs, 4, 1, &model).unwrap();
            idx.add(&[0.0, 1.0, 0.0, 0.0], 0).unwrap();
            idx.add(&[1.0, 0.0, 0.5, -1.0], 1).unwrap();
            let r = idx.query(&[0.95, 0.05, 0.45, -0.9]).unwrap();
            assert_eq!(r.label, 1, "{} misclassified an easy query", backend.name());
        }
    }

    #[test]
    fn f32_backend_builds_and_classifies_like_f64() {
        let model = FefetModel::default();
        let cal = calibration_data();
        let cal_refs: Vec<&[f32]> = cal.iter().map(|r| r.as_slice()).collect();
        let backend = Backend::mcam_f32(3);
        assert_eq!(backend.name(), "mcam-3bit-f32");
        let mut fast = backend.build_index(&cal_refs, 4, 1, &model).unwrap();
        let mut reference = Backend::mcam(3)
            .build_index(&cal_refs, 4, 1, &model)
            .unwrap();
        for idx in [&mut fast, &mut reference] {
            idx.add(&[0.0, 1.0, 0.0, 0.0], 0).unwrap();
            idx.add(&[1.0, 0.0, 0.5, -1.0], 1).unwrap();
        }
        // Far-apart queries classify identically; scores agree to the
        // f32 accuracy contract (relative ~1e-7 per cell, 4 cells).
        for q in [[0.95f32, 0.05, 0.45, -0.9], [0.0, 0.9, 0.05, 0.0]] {
            let f = fast.query(&q).unwrap();
            let r = reference.query(&q).unwrap();
            assert_eq!(f.label, r.label);
            assert!(((f.score - r.score) / r.score).abs() < 1e-5);
        }
    }

    #[test]
    fn codes_backend_matches_f32_bitwise() {
        let model = FefetModel::default();
        let cal = calibration_data();
        let cal_refs: Vec<&[f32]> = cal.iter().map(|r| r.as_slice()).collect();
        let backend = Backend::mcam_codes(3);
        assert_eq!(backend.name(), "mcam-3bit-codes");
        let mut codes = backend.build_index(&cal_refs, 4, 1, &model).unwrap();
        let mut fast = Backend::mcam_f32(3)
            .build_index(&cal_refs, 4, 1, &model)
            .unwrap();
        for idx in [&mut codes, &mut fast] {
            idx.add(&[0.0, 1.0, 0.0, 0.0], 0).unwrap();
            idx.add(&[1.0, 0.0, 0.5, -1.0], 1).unwrap();
        }
        // Episodes build shared-LUT arrays, so codes results are
        // bit-identical to the f32 plane kernel — scores and all.
        for q in [[0.95f32, 0.05, 0.45, -0.9], [0.0, 0.9, 0.05, 0.0]] {
            let c = codes.query(&q).unwrap();
            let f = fast.query(&q).unwrap();
            assert_eq!(c.label, f.label);
            assert_eq!(c.index, f.index);
            assert_eq!(c.score, f.score, "codes score drifted from f32");
        }
    }

    #[test]
    fn served_backend_matches_direct_mcam_bitwise() {
        let model = FefetModel::default();
        let cal = calibration_data();
        let cal_refs: Vec<&[f32]> = cal.iter().map(|r| r.as_slice()).collect();
        assert_eq!(Backend::mcam_served(3).name(), "mcam-served-3bit");
        // The default geometry at f64, and one row per bank in codes
        // mode, so three support rows span three banks.
        let codes = Backend::McamServed {
            bits: 3,
            strategy: QuantizeStrategy::PerFeatureQuantile,
            precision: Precision::Codes,
            rows_per_bank: 1,
        };
        // Precision knob surfaces in the report name.
        assert_eq!(codes.name(), "mcam-served-3bit-codes");
        for (backend, reference) in [
            (Backend::mcam_served(3), Backend::mcam(3)),
            (codes, Backend::mcam_codes(3)),
        ] {
            let mut served = backend.build_index(&cal_refs, 4, 1, &model).unwrap();
            let mut direct = reference.build_index(&cal_refs, 4, 1, &model).unwrap();
            for idx in [&mut served, &mut direct] {
                idx.add(&[0.0, 1.0, 0.0, 0.0], 0).unwrap();
                idx.add(&[1.0, 0.0, 0.5, -1.0], 1).unwrap();
                idx.add(&[0.5, 0.5, 0.25, -0.5], 2).unwrap();
            }
            // The serving determinism contract: routed through the
            // dispatcher, results are bit-identical to the direct
            // engine — indices, labels, and conductance scores.
            let queries: Vec<Vec<f32>> = vec![
                vec![0.95, 0.05, 0.45, -0.9],
                vec![0.0, 0.9, 0.05, 0.0],
                vec![0.4, 0.6, 0.2, -0.4],
            ];
            let refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
            let s = served.query_batch(&refs).unwrap();
            let d = direct.query_batch(&refs).unwrap();
            for (a, b) in s.iter().zip(&d) {
                assert_eq!((a.index, a.label), (b.index, b.label));
                assert_eq!(a.score, b.score, "served score drifted from direct");
            }
            // k-NN through the served top-k agrees too.
            for q in &refs {
                let sk = served.query_k(q, 3).unwrap();
                let dk = direct.query_k(q, 3).unwrap();
                for (a, b) in sk.iter().zip(&dk) {
                    assert_eq!((a.index, a.label), (b.index, b.label));
                    assert_eq!(a.score, b.score);
                }
            }
        }
    }

    #[test]
    fn metric_backend_names_and_classifies() {
        let model = FefetModel::default();
        let cal = calibration_data();
        let cal_refs: Vec<&[f32]> = cal.iter().map(|r| r.as_slice()).collect();
        assert_eq!(Backend::mcam_metric(3, Metric::L1).name(), "mcam-3bit-l1");
        assert_eq!(
            Backend::mcam_metric(3, Metric::Linf).name(),
            "mcam-3bit-linf"
        );
        assert_eq!(
            Backend::mcam_metric(2, Metric::Hamming).name(),
            "mcam-2bit-hamming"
        );
        // The default metric keeps the historical names unchanged.
        assert_eq!(
            Backend::mcam_metric(3, Metric::McamConductance).name(),
            "mcam-3bit"
        );
        for metric in Metric::ALL {
            let mut idx = Backend::mcam_metric(3, metric)
                .build_index(&cal_refs, 4, 1, &model)
                .unwrap();
            idx.add(&[0.0, 1.0, 0.0, 0.0], 0).unwrap();
            idx.add(&[1.0, 0.0, 0.5, -1.0], 1).unwrap();
            let r = idx.query(&[0.95, 0.05, 0.45, -0.9]).unwrap();
            assert_eq!(r.label, 1, "{metric:?} misclassified an easy query");
        }
    }

    #[test]
    fn variation_backend_differs_from_nominal_but_works() {
        let model = FefetModel::default();
        let cal = calibration_data();
        let cal_refs: Vec<&[f32]> = cal.iter().map(|r| r.as_slice()).collect();
        let nominal = Backend::mcam(3);
        let varied = Backend::mcam_with_variation(3, 0.05);
        let mut a = nominal.build_index(&cal_refs, 4, 9, &model).unwrap();
        let mut b = varied.build_index(&cal_refs, 4, 9, &model).unwrap();
        for idx in [&mut a, &mut b] {
            idx.add(&[0.0, 1.0, 0.0, 0.0], 0).unwrap();
            idx.add(&[1.0, 0.0, 0.5, -1.0], 1).unwrap();
        }
        let qa = a.query(&[0.0, 0.9, 0.05, 0.0]).unwrap();
        let qb = b.query(&[0.0, 0.9, 0.05, 0.0]).unwrap();
        assert_eq!(qa.label, 0);
        assert_eq!(qb.label, 0);
        assert_ne!(qa.score, qb.score, "variation must perturb conductances");
    }

    #[test]
    fn experimental_lut_backend_builds() {
        use femcam_core::{measured_lut, ExperimentConfig};
        let model = FefetModel::default();
        let ladder = LevelLadder::new(2).unwrap();
        let lut = measured_lut(&model, &ladder, ExperimentConfig::default()).unwrap();
        let backend = Backend::mcam_with_lut(2, lut);
        assert_eq!(backend.name(), "mcam-2bit-exp");
        let cal = calibration_data();
        let cal_refs: Vec<&[f32]> = cal.iter().map(|r| r.as_slice()).collect();
        let mut idx = backend.build_index(&cal_refs, 4, 0, &model).unwrap();
        idx.add(&[0.0, 1.0, 0.0, 0.0], 0).unwrap();
        assert_eq!(idx.query(&[0.0, 1.0, 0.0, 0.0]).unwrap().label, 0);
    }
}
