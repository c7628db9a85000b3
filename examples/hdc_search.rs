//! Hyperdimensional-computing classification with an in-memory
//! associative search — the paper's introductory motivating application
//! (Imani et al., SearcHD).
//!
//! Pipeline: feature vectors are encoded into D-dimensional
//! hypervectors by random projection; each class's training
//! hypervectors are *bundled* (element-wise accumulated) into a class
//! prototype; inference searches the associative memory for the nearest
//! prototype. Two memory realizations are compared:
//!
//! * **binary HDC + TCAM** — prototypes thresholded to signs, Hamming
//!   search (the classic SearcHD regime);
//! * **multi-bit HDC + MCAM** — prototypes quantized to 3 bits per
//!   dimension and searched with the paper's MCAM distance function,
//!   which preserves bundling *counts* the binary memory throws away.
//!
//! ```sh
//! cargo run --release -p femcam-harness --example hdc_search
//! ```

use femcam_harness::prelude::*;

const HV_DIMS: usize = 512;

/// Accumulates sample hypervector signs into per-class counters.
fn bundle(
    lsh: &RandomHyperplanes,
    features: &[Vec<f32>],
    labels: &[u32],
    n_classes: usize,
) -> Vec<Vec<i32>> {
    let mut counters = vec![vec![0i32; HV_DIMS]; n_classes];
    for (f, &l) in features.iter().zip(labels) {
        let sig = lsh.signature(f).expect("encode");
        for (d, bit) in sig.iter().enumerate() {
            counters[l as usize][d] += if bit { 1 } else { -1 };
        }
    }
    counters
}

fn main() -> femcam_core::Result<()> {
    let dataset = synth::wine(42);
    let (train, test) = dataset.split(0.8, 7);
    let n_classes = dataset.n_classes();
    println!(
        "HDC associative classification on {} ({} classes, {} -> {}-d hypervectors)\n",
        dataset.name(),
        n_classes,
        dataset.dims(),
        HV_DIMS
    );

    // Shared random-projection encoder.
    let lsh = RandomHyperplanes::new(HV_DIMS, dataset.dims(), 99)?;
    let counters = bundle(&lsh, train.features(), train.labels(), n_classes);

    // --- Binary associative memory (TCAM, Hamming) -------------------
    let mut tcam = TcamArray::new(HV_DIMS);
    for class_counter in &counters {
        let bits: Vec<bool> = class_counter.iter().map(|&c| c >= 0).collect();
        tcam.store_bits(&bits)?;
    }

    // --- Multi-bit associative memory (MCAM, proposed distance) ------
    // Quantize bundling counters to 3 bits per dimension; queries are
    // single-sample hypervectors mapped onto the same grid.
    let ladder = LevelLadder::new(3)?;
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    let counter_rows: Vec<Vec<f32>> = counters
        .iter()
        .map(|c| c.iter().map(|&v| v as f32).collect())
        .collect();
    let quantizer = Quantizer::fit(
        counter_rows.iter().map(|r| r.as_slice()),
        HV_DIMS,
        8,
        QuantizeStrategy::GlobalMinMax,
    )?;
    let mut mcam = McamArray::new(ladder, lut, HV_DIMS);
    for row in &counter_rows {
        mcam.store(&quantizer.quantize(row)?)?;
    }
    // Query scaling: a single ±1 hypervector stretched to the counter
    // range so its signs land on the grid extremes.
    let scale = counter_rows
        .iter()
        .flatten()
        .fold(0.0f32, |m, &v| m.max(v.abs()));

    // --- Evaluate both memories --------------------------------------
    // The MCAM side batches the whole test set into one search_batch_with
    // call: the array compiles a plane-major plan once and executes
    // every query through the parallel executor.
    let mut correct_tcam = 0usize;
    let mut mcam_queries: Vec<Vec<u8>> = Vec::with_capacity(test.len());
    for (f, &label) in test.features().iter().zip(test.labels()) {
        let sig = lsh.signature(f).expect("encode");
        // TCAM path.
        let outcome = tcam.hamming_search(&sig)?;
        if outcome.best_row() as u32 == label {
            correct_tcam += 1;
        }
        // MCAM path: quantize now, search as one batch below.
        let qvec: Vec<f32> = sig.iter().map(|b| if b { scale } else { -scale }).collect();
        mcam_queries.push(quantizer.quantize(&qvec)?);
    }
    let refs: Vec<&[u8]> = mcam_queries.iter().map(|q| q.as_slice()).collect();
    let outcomes = mcam.search_batch_with(&refs, Precision::F64)?;
    let correct_mcam = outcomes
        .iter()
        .zip(test.labels())
        .filter(|(o, &l)| o.best_row() as u32 == l)
        .count();
    let n = test.len() as f64;
    println!(
        "binary HDC  (TCAM Hamming):       {:>6.2}%",
        100.0 * correct_tcam as f64 / n
    );
    println!(
        "multi-bit HDC (MCAM distance):    {:>6.2}%",
        100.0 * correct_mcam as f64 / n
    );

    // Reference: exact 1-NN on the raw features.
    let mut exact = SoftwareNn::new(Euclidean, dataset.dims());
    for (f, &l) in train.features().iter().zip(train.labels()) {
        exact.add(f, l)?;
    }
    let acc = accuracy(&exact, test.features(), test.labels())?;
    println!("reference fp32 1-NN (raw features): {:>4.2}%", 100.0 * acc);
    Ok(())
}
