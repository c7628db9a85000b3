//! Cross-crate integration: from pulse programming through the LUT to
//! array search — the physical story holds together.

use femcam_harness::prelude::*;

#[test]
fn programmed_thresholds_produce_the_search_luts() {
    // Program every ladder Vth target with the pulse model, rebuild the
    // LUT from the programmed (not nominal) thresholds, and check the
    // nearest-neighbor ordering is unchanged.
    let model = FefetModel::default();
    let programmer = PulseProgrammer::default();
    let ladder = LevelLadder::new(3).expect("ladder");

    let programmed_lut = femcam_harness::core::ConductanceLut::from_fn(8, |input, state| {
        let vth_r_target = ladder.vth_right(state);
        let vth_l_target = ladder.vth_left(state);
        let vth_r = programmer.vth_after(programmer.pulse_for_vth(vth_r_target).unwrap());
        let vth_l = programmer.vth_after(programmer.pulse_for_vth(vth_l_target).unwrap());
        let cell = McamCell::with_thresholds(vth_l, vth_r);
        cell.conductance(&model, &ladder, input).unwrap()
    })
    .expect("programmed LUT");

    let nominal_lut = ConductanceLut::from_device(&model, &ladder);
    for input in 0..8u8 {
        for state in 0..8u8 {
            let a = nominal_lut.get(input, state);
            let b = programmed_lut.get(input, state);
            assert!(
                ((a - b).abs() / a) < 0.05,
                "programmed vs nominal LUT diverges at ({input},{state}): {a} vs {b}"
            );
        }
    }
}

#[test]
fn monte_carlo_population_sigma_matches_fig8_tolerance() {
    // The worst sigma produced by the Monte Carlo device study (Fig. 5)
    // must be inside the tolerance window established by Fig. 8 — this
    // is the paper's cross-figure consistency argument.
    let programmer = PulseProgrammer::default();
    let targets: Vec<f64> = (0..8).map(|k| 0.48 + 0.12 * k as f64).collect();
    let population = VthPopulation::generate(
        &programmer,
        DomainVariationParams::default(),
        &targets,
        300,
        17,
    )
    .expect("population");
    let sigma = population.max_sigma();
    assert!(sigma < 0.12, "device sigma {sigma} outside tolerance");

    // And the MCAM at exactly that sigma still classifies.
    let cfg = EvalConfig::new(FewShotTask::new(5, 1), 40, 17);
    let nominal = evaluate_with_factory(
        PrototypeFeatureModel::paper_default,
        &Backend::mcam(3),
        &cfg,
        4,
    )
    .expect("nominal");
    let varied = evaluate_with_factory(
        PrototypeFeatureModel::paper_default,
        &Backend::mcam_with_variation(3, sigma),
        &cfg,
        4,
    )
    .expect("varied");
    assert!(
        nominal.accuracy - varied.accuracy < 0.05,
        "accuracy at measured sigma dropped {:.3}",
        nominal.accuracy - varied.accuracy
    );
}

#[test]
fn rc_discharge_winner_equals_argmin_conductance() {
    // DESIGN.md ablation 1 as an invariant: the physical RC + sense-amp
    // path and the paper's LUT-sum path agree on the winner.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let ladder = LevelLadder::new(3).expect("ladder");
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    let mut rng = StdRng::seed_from_u64(5);
    let mut array = McamArray::new(ladder, lut, 16);
    for _ in 0..50 {
        let word: Vec<u8> = (0..16).map(|_| rng.gen_range(0..8)).collect();
        array.store(&word).expect("store");
    }
    let timing = MlTiming::default();
    let ideal = SenseAmp { resolution_s: 0.0 };
    let physical = SenseAmp::default();
    for _ in 0..50 {
        let query: Vec<u8> = (0..16).map(|_| rng.gen_range(0..8)).collect();
        let outcome = array.search(&query).expect("search");
        // An ideal (zero-resolution) amplifier agrees with argmin-G
        // exactly.
        assert_eq!(
            outcome.sensed_winner(&timing, &ideal),
            Some(outcome.best_row()),
            "ideal RC winner diverged from argmin-G"
        );
        // A finite-resolution amplifier may swap rows whose discharge
        // times are closer than its resolution; its guarantee is that
        // the pick discharges within one resolution of the slowest ML.
        let sensed = outcome.sensed_winner(&timing, &physical).expect("nonempty");
        let times = outcome.discharge_times(&timing);
        let t_max = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            t_max - times[sensed] <= physical.resolution_s * (1.0 + 1e-9),
            "sense amp missed the slowest ML by more than its resolution: \
             {} vs {} (resolution {})",
            times[sensed],
            t_max,
            physical.resolution_s
        );
    }
}

#[test]
fn acam_generalizes_the_programmed_mcam() {
    // Store the same data as MCAM states and as ACAM ranges; the
    // conductance orderings agree.
    use femcam_harness::core::acam::mcam_state_as_range;
    let model = FefetModel::default();
    let ladder = LevelLadder::new(3).expect("ladder");
    let lut = ConductanceLut::from_device(&model, &ladder);

    let words: Vec<Vec<u8>> = vec![vec![0, 2, 4, 6], vec![7, 5, 3, 1], vec![3, 3, 3, 3]];
    let mut mcam = McamArray::new(ladder, lut, 4);
    let mut acam = AcamArray::new(4);
    for w in &words {
        mcam.store(w).expect("mcam store");
        let row: Vec<AcamCell> = w
            .iter()
            .map(|&s| mcam_state_as_range(&ladder, s).expect("range"))
            .collect();
        acam.store(&row).expect("acam store");
    }
    let query = [3u8, 3, 3, 2];
    let outcome = mcam.search(&query).expect("mcam search");
    let q_analog: Vec<f64> = query.iter().map(|&j| (j as f64 + 0.5) / 8.0).collect();
    let acam_g = acam
        .search(&model, &ladder, &q_analog)
        .expect("acam search");
    // Same winner and same pairwise ordering.
    let acam_best = acam_g
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap();
    assert_eq!(acam_best, outcome.best_row());
}

#[test]
fn one_bit_mcam_ranks_like_a_binary_cam() {
    // A 1-bit ladder reduces the MCAM to a binary CAM: row ordering by
    // total conductance must equal ordering by Hamming distance.
    use femcam_harness::core::tcam::TcamArray;
    use femcam_harness::lsh::BitSignature;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let ladder = LevelLadder::new(1).expect("1-bit ladder");
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    let mut mcam = McamArray::new(ladder, lut, 12);
    let mut tcam = TcamArray::new(12);

    let mut rng = StdRng::seed_from_u64(21);
    let rows: Vec<Vec<u8>> = (0..20)
        .map(|_| (0..12).map(|_| rng.gen_range(0..2u8)).collect())
        .collect();
    for r in &rows {
        mcam.store(r).expect("mcam store");
        let bits: Vec<bool> = r.iter().map(|&b| b == 1).collect();
        tcam.store_bits(&bits).expect("tcam store");
    }

    for _ in 0..25 {
        let q: Vec<u8> = (0..12).map(|_| rng.gen_range(0..2u8)).collect();
        let outcome = mcam.search(&q).expect("mcam search");
        let sig = BitSignature::from_bools(&q.iter().map(|&b| b == 1).collect::<Vec<_>>())
            .expect("signature");
        let hams = tcam.hamming_search(&sig).expect("tcam search");
        // Pairwise order agreement: strictly fewer mismatches => strictly
        // lower conductance.
        for i in 0..rows.len() {
            for j in 0..rows.len() {
                if hams.hamming(i) < hams.hamming(j) {
                    assert!(
                        outcome.conductance(i) < outcome.conductance(j),
                        "1-bit MCAM disagrees with Hamming at rows {i},{j}"
                    );
                }
            }
        }
    }
}

#[test]
fn batch_search_matches_individual_searches() {
    let ladder = LevelLadder::new(3).expect("ladder");
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    let mut array = McamArray::new(ladder, lut, 4);
    array.store(&[0, 1, 2, 3]).expect("store");
    array.store(&[7, 6, 5, 4]).expect("store");
    let queries: Vec<Vec<u8>> = vec![vec![0, 1, 2, 3], vec![7, 7, 5, 4], vec![3, 3, 3, 3]];
    let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
    let batch = array
        .search_batch_with(&refs, Precision::F64)
        .expect("batch");
    for (q, outcome) in queries.iter().zip(&batch) {
        assert_eq!(outcome, &array.search(q).expect("single"));
    }
}

#[test]
fn write_verified_array_is_closer_to_nominal_than_single_pulse() {
    // End-to-end value of the verify loop: per-cell conductance tables
    // built from ISPP-verified Vth land nearer the nominal LUT than
    // single-pulse ones.
    use femcam_harness::device::{
        verify::VerifiedProgrammer, DomainVariationParams, MonteCarloDevice, PulseProgrammer,
        WriteVerifyConfig,
    };
    let model = FefetModel::default();
    let programmer = PulseProgrammer::default();
    let verified =
        VerifiedProgrammer::new(programmer.clone(), WriteVerifyConfig::default()).expect("cfg");
    let ladder = LevelLadder::new(3).expect("ladder");
    let nominal = ConductanceLut::from_device(&model, &ladder);

    let mut err_single = 0.0f64;
    let mut err_verified = 0.0f64;
    let mut count = 0usize;
    for state in 0..8u8 {
        for rep in 0..6u64 {
            let seed = (state as u64) << 8 | rep;
            // Single pulse.
            let mut dev =
                MonteCarloDevice::new(programmer.clone(), DomainVariationParams::default(), seed)
                    .expect("device");
            let pulse = programmer
                .pulse_for_vth(ladder.vth_right(state))
                .expect("pulse");
            let vth_single = dev.program(pulse);
            // Verified.
            let mut dev =
                MonteCarloDevice::new(programmer.clone(), DomainVariationParams::default(), seed)
                    .expect("device");
            let vth_verified = verified
                .program_to(&mut dev, ladder.vth_right(state))
                .expect("verify")
                .vth;
            for input in 0..8u8 {
                let g_nom = nominal.get(input, state);
                let g_of = |vth_r: f64| {
                    let cell = McamCell::with_thresholds(ladder.vth_left(state), vth_r);
                    cell.conductance(&model, &ladder, input).expect("g")
                };
                err_single += ((g_of(vth_single) / g_nom).ln()).abs();
                err_verified += ((g_of(vth_verified) / g_nom).ln()).abs();
                count += 1;
            }
        }
    }
    let (avg_s, avg_v) = (err_single / count as f64, err_verified / count as f64);
    assert!(
        avg_v < avg_s * 0.6,
        "verified log-G error {avg_v:.3} not clearly below single-pulse {avg_s:.3}"
    );
}
