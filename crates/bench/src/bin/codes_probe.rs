//! Micro-probe for the packed-code kernel: times flat winner searches
//! (`McamArray::search_batch_winners_with`) at `Precision::F32` (the
//! plane plan) against `Precision::Codes` on one flat sweep-geometry
//! array, per batch size, so kernel work (no banking, no merge) can be
//! compared in isolation while tuning tile/block constants.
//!
//! The array's searches use the process thread budget; pin it to one
//! worker to time the kernel alone:
//!
//! ```sh
//! FEMCAM_THREADS=1 cargo run --release -p femcam-bench --bin codes_probe
//! ```

use std::time::Instant;

use femcam_core::{ConductanceLut, LevelLadder, McamArray, Metric, Precision};
use femcam_device::FefetModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROWS: usize = 4096;
const WORD_LEN: usize = 64;

fn time_per_query<F: FnMut()>(batch: usize, mut f: F) -> f64 {
    f();
    let start = Instant::now();
    let mut calls = 0;
    while calls < 3 || start.elapsed().as_millis() < 400 {
        f();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / (calls * batch) as f64
}

fn main() {
    let ladder = LevelLadder::new(3).unwrap();
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    let mut rng = StdRng::seed_from_u64(11);
    let mut array = McamArray::new(ladder, lut, WORD_LEN);
    for _ in 0..ROWS {
        let word: Vec<u8> = (0..WORD_LEN).map(|_| rng.gen_range(0..8u8)).collect();
        array.store(&word).unwrap();
    }
    let queries: Vec<Vec<u8>> = (0..1024)
        .map(|_| (0..WORD_LEN).map(|_| rng.gen_range(0..8u8)).collect())
        .collect();
    println!(
        "flat {ROWS}x{WORD_LEN} 3-bit; plan bytes: f32 {} codes {}",
        array
            .cached_plan::<f32>(Metric::default())
            .unwrap()
            .plan_bytes(),
        array
            .compiled_codes(Metric::default())
            .unwrap()
            .plan_bytes()
    );
    for batch in [64usize, 256, 1024] {
        let refs: Vec<&[u8]> = queries[..batch].iter().map(|q| q.as_slice()).collect();
        let ns32 = time_per_query(batch, || {
            std::hint::black_box(
                array
                    .search_batch_winners_with(&refs, Precision::F32)
                    .unwrap(),
            );
        });
        let ns_codes = time_per_query(batch, || {
            std::hint::black_box(
                array
                    .search_batch_winners_with(&refs, Precision::Codes)
                    .unwrap(),
            );
        });
        println!(
            "batch {batch:4}: f32 {ns32:9.0} ns/q  codes {ns_codes:9.0} ns/q  ratio {:.2}x",
            ns32 / ns_codes
        );
    }
}
