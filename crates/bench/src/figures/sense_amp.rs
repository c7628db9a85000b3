//! Sense-amplifier resolution ablation (DESIGN.md §7): how often a
//! finite-resolution winner-take-all amplifier picks a different row
//! than the ideal argmin-conductance search.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use femcam_core::{ConductanceLut, LevelLadder, McamArray, MlTiming, Precision, SenseAmp};
use femcam_device::FefetModel;

use crate::Table;

/// One ablation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseAmpPoint {
    /// Amplifier timing resolution in seconds.
    pub resolution_s: f64,
    /// Fraction of searches whose winner differed from argmin-G.
    pub flip_rate: f64,
}

/// Measures winner-flip rates over random arrays and queries.
///
/// # Panics
///
/// Panics on internal model failures (impossible with defaults).
#[must_use]
pub fn run(resolutions_s: &[f64], n_searches: usize, seed: u64) -> Vec<SenseAmpPoint> {
    let ladder = LevelLadder::new(3).expect("ladder");
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut array = McamArray::new(ladder, lut, 64);
    for _ in 0..100 {
        let word: Vec<u8> = (0..64).map(|_| rng.gen_range(0..8)).collect();
        array.store(&word).expect("store");
    }
    let timing = MlTiming::default();

    // Queries near a stored row (the NN-search regime) rather than pure
    // noise: perturb a random stored row by a few levels.
    let queries: Vec<Vec<u8>> = (0..n_searches)
        .map(|_| {
            let base = rng.gen_range(0..array.n_rows());
            array
                .row(base)
                .iter()
                .map(|&s| {
                    let delta: i16 = rng.gen_range(-1..=1);
                    (s as i16 + delta).clamp(0, 7) as u8
                })
                .collect()
        })
        .collect();

    // The per-row conductances are resolution-independent: run the
    // whole query set once through the batched compiled executor and
    // re-score the sense amplifier per resolution.
    let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
    let outcomes = array
        .search_batch_with(&refs, Precision::F64)
        .expect("search");
    resolutions_s
        .iter()
        .map(|&resolution_s| {
            let amp = SenseAmp { resolution_s };
            let flips = outcomes
                .iter()
                .filter(|outcome| outcome.sensed_winner(&timing, &amp) != Some(outcome.best_row()))
                .count();
            SenseAmpPoint {
                resolution_s,
                flip_rate: flips as f64 / n_searches as f64,
            }
        })
        .collect()
}

/// Prints the ablation table.
pub fn print(points: &[SenseAmpPoint]) {
    println!("== ablation: sense-amplifier timing resolution ==");
    println!("winner-take-all decisions vs the ideal argmin-G search\n");
    let mut t = Table::new(&["resolution (s)", "winner flip rate"]);
    for p in points {
        t.row(&[
            format!("{:.0e}", p.resolution_s),
            format!("{:.2}%", 100.0 * p.flip_rate),
        ]);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_rate_monotone_in_resolution() {
        let points = run(&[0.0, 1e-12, 1e-10, 1e-8], 100, 7);
        assert_eq!(points[0].flip_rate, 0.0, "ideal amp never flips");
        for w in points.windows(2) {
            assert!(
                w[1].flip_rate >= w[0].flip_rate,
                "coarser resolution should not flip less: {points:?}"
            );
        }
        // A hopeless 10ns resolution merges everything.
        assert!(points.last().unwrap().flip_rate > 0.0);
    }
}
