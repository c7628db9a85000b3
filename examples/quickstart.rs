//! Quickstart: build a 3-bit FeFET MCAM, store a few feature vectors,
//! and run a single-step in-memory nearest-neighbor search.
//!
//! ```sh
//! cargo run --release -p femcam-harness --example quickstart
//! ```

use femcam_harness::prelude::*;

fn main() -> femcam_core::Result<()> {
    // 1. Device + ladder: the paper's 3-bit cell (8 states, Fig. 3(b)).
    let model = FefetModel::default();
    let ladder = LevelLadder::new(3)?;
    println!(
        "3-bit ladder: {} states over {:.2}..{:.2} V, inputs at state centers",
        ladder.n_levels(),
        ladder.v_min(),
        ladder.v_max()
    );

    // 2. The conductance lookup table F(I, S) — the distance function.
    let lut = ConductanceLut::from_device(&model, &ladder);
    println!(
        "LUT: match leakage {:.2e} S, worst mismatch {:.2e} S ({:.0}x span)",
        lut.min(),
        lut.max(),
        lut.max() / lut.min()
    );

    // 3. Quantize real-valued vectors onto the 8 levels.
    let vectors: Vec<Vec<f32>> = vec![
        vec![0.10, 0.90, 0.20, 0.80],
        vec![0.15, 0.85, 0.25, 0.75], // near the first
        vec![0.90, 0.10, 0.85, 0.15], // far from the first
    ];
    let quantizer = Quantizer::fit(
        vectors.iter().map(|v| v.as_slice()),
        4,
        8,
        QuantizeStrategy::PerFeatureMinMax,
    )?;

    // 4. Program an MCAM array with the quantized words.
    let mut array = McamArray::new(ladder, lut, 4);
    for v in &vectors {
        array.store(&quantizer.quantize(v)?)?;
    }

    // 5. Search: one in-memory step. Lowest total match-line conductance
    //    = slowest discharging ML = nearest neighbor.
    let query = vec![0.12f32, 0.88, 0.22, 0.78];
    let outcome = array.search(&quantizer.quantize(&query)?)?;
    println!("\nquery {query:?}");
    for r in 0..array.n_rows() {
        println!(
            "  row {r}: G_ML = {:.3e} S {}",
            outcome.conductance(r),
            if r == outcome.best_row() {
                "<- nearest"
            } else {
                ""
            }
        );
    }

    // 6. The physical view: ML discharge times and the sense-amp winner.
    let timing = MlTiming::default();
    let times = outcome.discharge_times(&timing);
    let winner = outcome
        .sensed_winner(&timing, &SenseAmp::default())
        .expect("nonempty array");
    println!("\nML discharge times: {times:?}");
    println!(
        "sense-amp winner: row {winner} (same as argmin-G: {})",
        outcome.best_row()
    );

    // 7. Batched execution: the array lazily compiles (and caches) a
    //    plane-major plan and runs the query set through the parallel
    //    executor — results are bit-identical to the scalar search
    //    above, and the cached plan is reused until the next store.
    let levels: Vec<Vec<u8>> = vectors
        .iter()
        .map(|v| quantizer.quantize(v))
        .collect::<femcam_core::Result<_>>()?;
    let level_refs: Vec<&[u8]> = levels.iter().map(|l| l.as_slice()).collect();
    let outcomes = array.search_batch_with(&level_refs, Precision::F64)?;
    println!();
    for (i, o) in outcomes.iter().enumerate() {
        println!("batched query {i} -> nearest row {}", o.best_row());
    }

    // 8. Codes mode: the lowest-bandwidth execution backend. Instead of
    //    dense conductance planes, the cached plan keeps one byte-packed
    //    level code per cell plus the shared LUT in f32 — bit-identical
    //    to the f32 plane kernel on shared-LUT arrays like this one, at
    //    a fraction of the resident plan memory.
    let codes_outcomes = array.search_batch_with(&level_refs, Precision::Codes)?;
    let f32_outcomes = array.search_batch_with(&level_refs, Precision::F32)?;
    for (c, f) in codes_outcomes.iter().zip(&f32_outcomes) {
        assert_eq!(c.conductances(), f.conductances(), "codes == f32, bitwise");
    }
    let mem = array.plan_memory_bytes();
    println!(
        "\ncodes mode: winners {:?}, plan bytes f64 {} / f32 {} / codes {}",
        codes_outcomes
            .iter()
            .map(SearchOutcome::best_row)
            .collect::<Vec<_>>(),
        mem.f64_plane,
        mem.f32_plane,
        mem.codes,
    );

    // 9. Runtime-reconfigurable distance: beside `Precision`, every
    //    cached plan carries a `Metric`. Non-default metrics synthesize
    //    *distance-valued* tables from the level ladder (digital — they
    //    read stored level codes, so they are exact at every precision)
    //    and reuse the same compiled kernels; L-infinity swaps the sum
    //    fold for a max fold. Same array, no re-programming.
    let probe = &level_refs[1..2];
    for metric in Metric::ALL {
        let spec = SearchSpec {
            precision: Precision::Codes,
            metric,
            ..SearchSpec::default()
        };
        let (row, score) = array.search_batch_winners_with(probe, spec)?[0];
        println!(
            "metric {:>7}: nearest row {row} (score {score:.3e})",
            metric.name()
        );
    }
    //    The engine knob: `McamNn::set_metric` reconfigures a live
    //    index between queries — the cache keeps one plan per
    //    (precision, metric) slot, so flipping back is free.
    let mut index = McamNn::fit(
        3,
        vectors.iter().map(|v| v.as_slice()),
        4,
        QuantizeStrategy::PerFeatureMinMax,
        &model,
    )?;
    for (i, v) in vectors.iter().enumerate() {
        index.add(v, i as u32)?;
    }
    index.set_metric(Metric::L1);
    let hit = index.query(&query)?;
    println!(
        "McamNn under {}: nearest entry {} (label {})",
        index.name(),
        hit.index,
        hit.label
    );
    index.set_metric(Metric::default()); // back to the analog distance

    // 10. Two-stage retrieval: an LSH router in front of the compiled
    //    re-rank. `RoutedMcam::build` places rows bucket-by-bucket so
    //    each SimHash bucket concentrates in few banks, and a routed
    //    search sweeps only the banks the query's bucket (plus its
    //    Hamming-ball neighbors) occupies — the winner is exact within
    //    those banks. With a mask covering every bank the result is
    //    bit-identical to the full sweep; here the memory is tiny, so
    //    we just show the plumbing.
    let (ladder2, lut2) = (*array.ladder(), array.lut().clone());
    let (routed, placement) =
        RoutedMcam::build(ladder2, lut2, 4, 2, RouterConfig::default(), &levels)?;
    let routed_query = quantizer.quantize(&query)?;
    let probed = routed.route(&routed_query)?;
    let (global, g) = routed
        .search_batch_winners_with(&[&routed_query[..]], Precision::Codes)
        .map(|w| w[0])?;
    println!(
        "\nrouted: probed {} of {} banks, nearest input row {} (G_ML = {g:.3e} S)",
        probed.len(),
        routed.memory().n_banks(),
        placement.iter().position(|&p| p == global).expect("placed"),
    );
    Ok(())
}
