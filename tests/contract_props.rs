//! Cross-cutting API-contract property tests (the PR 4 bugfix sweep):
//!
//! 1. **Empty-array / empty-batch contract** — every batch entry point
//!    (flat array, banked memory, and all `NnIndex` engines) errors
//!    with `EmptyArray` on an empty index *even for an empty batch*,
//!    exactly like the single-query paths; an empty batch against a
//!    nonempty index is `Ok(vec![])`.
//! 2. **`k` clamp contract** — `query_k` / `query_k_batch` clamp `k`
//!    (0 → empty, `> len` → `len`) identically across `SoftwareNn`,
//!    `TcamLshNn`, and `McamNn` at every precision; they never error
//!    on out-of-range `k`.
//! 3. **Tie-break determinism** — on exact conductance ties the winner
//!    is the lowest row index, identically across the scalar path, the
//!    compiled f64/f32 planes, the packed-code kernel, batch winners,
//!    and the banked merge. This is load-bearing for the serving
//!    layer's "bit-identical to direct search" guarantee: batch
//!    composition varies at runtime, so any tie broken differently in
//!    any path would surface as nondeterministic serving results.

use proptest::prelude::*;

use femcam_harness::prelude::*;

fn nominal_array(bits: u8, word_len: usize) -> McamArray {
    let ladder = LevelLadder::new(bits).expect("ladder");
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    McamArray::new(ladder, lut, word_len)
}

fn nominal_banked(bits: u8, word_len: usize, rows_per_bank: usize) -> BankedMcam {
    let ladder = LevelLadder::new(bits).expect("ladder");
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    BankedMcam::new(ladder, lut, word_len, rows_per_bank)
}

/// Deterministic pseudo-random word over `n_levels`.
fn gen_word(word_len: usize, n_levels: usize, seed: u64, salt: usize) -> Vec<u8> {
    (0..word_len)
        .map(|c| (((seed as usize).wrapping_mul(31) + salt * 13 + c * 19) % n_levels) as u8)
        .collect()
}

const PRECISIONS: [Precision; 3] = [Precision::F64, Precision::F32, Precision::Codes];

#[test]
fn empty_array_and_banked_refuse_batches_even_empty_ones() {
    let array = nominal_array(3, 4);
    assert!(matches!(array.search(&[0; 4]), Err(CoreError::EmptyArray)));
    for precision in PRECISIONS {
        assert!(matches!(
            array.search_batch_with(&[], precision),
            Err(CoreError::EmptyArray)
        ));
        assert!(matches!(
            array.search_batch_winners_with(&[], precision),
            Err(CoreError::EmptyArray)
        ));
        assert!(matches!(
            array.search_batch_top_k_with(&[], 3, precision),
            Err(CoreError::EmptyArray)
        ));
    }
    let banked = nominal_banked(3, 4, 2);
    assert!(matches!(
        banked.search_batch_winners_with(&[], Precision::F64),
        Err(CoreError::EmptyArray)
    ));
    for precision in PRECISIONS {
        assert!(matches!(
            banked.search_batch_winners_with(&[], precision),
            Err(CoreError::EmptyArray)
        ));
        assert!(matches!(
            banked.search_batch_winners_with(&[], precision),
            Err(CoreError::EmptyArray)
        ));
    }
}

#[test]
fn nonempty_array_and_banked_accept_empty_batches() {
    let mut array = nominal_array(3, 4);
    array.store(&[1, 2, 3, 4]).unwrap();
    let mut banked = nominal_banked(3, 4, 2);
    banked.store(&[1, 2, 3, 4]).unwrap();
    for precision in PRECISIONS {
        assert!(array.search_batch_with(&[], precision).unwrap().is_empty());
        assert!(array
            .search_batch_winners_with(&[], precision)
            .unwrap()
            .is_empty());
        assert!(array
            .search_batch_top_k_with(&[], 3, precision)
            .unwrap()
            .is_empty());
        assert!(banked
            .search_batch_winners_with(&[], precision)
            .unwrap()
            .is_empty());
        assert!(banked
            .search_batch_winners_with(&[], precision)
            .unwrap()
            .is_empty());
    }
    assert!(banked
        .search_batch_winners_with(&[], Precision::F64)
        .unwrap()
        .is_empty());
    // A flat array has no banks: a bank mask is a typed usage error on
    // every spec'd entry, for an empty batch and a real one alike.
    let query: &[u8] = &[1, 2, 3, 4];
    for precision in PRECISIONS {
        let masked = SearchSpec {
            precision,
            banks: Some(&[0]),
            ..SearchSpec::default()
        };
        for batch in [&[][..], &[query][..]] {
            let bank_mask = |e: &CoreError| {
                matches!(
                    e,
                    CoreError::InvalidParameter {
                        name: "bank mask",
                        ..
                    }
                )
            };
            assert!(bank_mask(
                &array.search_batch_with(batch, masked).unwrap_err()
            ));
            assert!(bank_mask(
                &array.search_batch_winners_with(batch, masked).unwrap_err()
            ));
            assert!(bank_mask(
                &array.search_batch_top_k_with(batch, 3, masked).unwrap_err()
            ));
        }
    }
}

/// The engine lineup the cross-engine contracts quantify over: FP32
/// software, TCAM+LSH, and the MCAM engine at every precision.
fn engine_lineup(dims: usize, calibration: &[Vec<f32>]) -> Vec<Box<dyn NnIndex>> {
    let mut engines: Vec<Box<dyn NnIndex>> = vec![
        Box::new(SoftwareNn::new(Euclidean, dims)),
        Box::new(TcamLshNn::new(32, dims, 7).unwrap()),
    ];
    for precision in PRECISIONS {
        engines.push(Box::new(
            McamNn::fit(
                3,
                calibration.iter().map(|r| r.as_slice()),
                dims,
                QuantizeStrategy::PerFeatureMinMax,
                &FefetModel::default(),
            )
            .unwrap()
            .with_precision(precision),
        ));
    }
    engines
}

fn gen_features(dims: usize, seed: u64, salt: usize) -> Vec<f32> {
    (0..dims)
        .map(|c| (((seed as usize).wrapping_mul(23) + salt * 29 + c * 11) % 97) as f32 / 97.0)
        .collect()
}

#[test]
fn empty_engines_refuse_batches_even_empty_ones() {
    let calibration: Vec<Vec<f32>> = (0..8).map(|i| gen_features(3, 5, i)).collect();
    for engine in engine_lineup(3, &calibration) {
        assert!(
            matches!(engine.query_batch(&[]), Err(CoreError::EmptyArray)),
            "{} empty-index query_batch must error",
            engine.name()
        );
        assert!(
            matches!(engine.query_k_batch(&[], 3), Err(CoreError::EmptyArray)),
            "{} empty-index query_k_batch must error",
            engine.name()
        );
        // Emptiness outranks per-query validation: a malformed query
        // against an empty index still reports EmptyArray, uniformly.
        let malformed: Vec<f32> = vec![0.0; 99];
        let batch: Vec<&[f32]> = vec![malformed.as_slice()];
        assert!(
            matches!(engine.query_batch(&batch), Err(CoreError::EmptyArray)),
            "{} must report EmptyArray before the malformed query",
            engine.name()
        );
        assert!(
            matches!(engine.query_k_batch(&batch, 1), Err(CoreError::EmptyArray)),
            "{} must report EmptyArray before the malformed query (k)",
            engine.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `k` is clamped, never an error, identically across engines and
    /// between the single and batched paths.
    #[test]
    fn query_k_clamps_uniformly_across_engines(
        dims in 1usize..5,
        n_rows in 1usize..16,
        seed in 0u64..500,
    ) {
        let calibration: Vec<Vec<f32>> =
            (0..n_rows.max(4)).map(|i| gen_features(dims, seed, i)).collect();
        let features: Vec<Vec<f32>> =
            (0..n_rows).map(|i| gen_features(dims, seed ^ 0x5F5F, i)).collect();
        let queries: Vec<Vec<f32>> =
            (0..3).map(|i| gen_features(dims, seed ^ 0xC3C3, i)).collect();
        let query_refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        for mut engine in engine_lineup(dims, &calibration) {
            for (i, f) in features.iter().enumerate() {
                engine.add(f, i as u32).expect("add");
            }
            for k in [0usize, 1, n_rows, n_rows + 7, 10_000] {
                let expected_len = k.min(n_rows);
                for q in &query_refs {
                    let hits = engine.query_k(q, k).expect("query_k never errors on k");
                    prop_assert_eq!(
                        hits.len(),
                        expected_len,
                        "{} k={} len",
                        engine.name(),
                        k
                    );
                    // Nearest first, and (for k >= 1) the head agrees
                    // with query().
                    for w in hits.windows(2) {
                        prop_assert!(w[0].score <= w[1].score, "{}", engine.name());
                    }
                    if expected_len > 0 {
                        prop_assert_eq!(
                            hits[0].index,
                            engine.query(q).expect("query").index,
                            "{}",
                            engine.name()
                        );
                    }
                }
                // Batched path: identical results per query.
                let batched = engine.query_k_batch(&query_refs, k).expect("batch");
                prop_assert_eq!(batched.len(), query_refs.len());
                for (q, hits) in query_refs.iter().zip(&batched) {
                    let single = engine.query_k(q, k).expect("query_k");
                    prop_assert_eq!(hits.len(), single.len());
                    for (b, s) in hits.iter().zip(&single) {
                        prop_assert_eq!(b.index, s.index, "{}", engine.name());
                        prop_assert_eq!(b.score, s.score, "{}", engine.name());
                    }
                }
            }
        }
    }

    /// On exact conductance ties — forced by storing duplicate rows in
    /// a shared-LUT array and querying the duplicated word — the
    /// winner is the *lowest* row index, identically across the scalar
    /// path, cached compiled plans at every precision, batch winners,
    /// top-k ordering, and the banked merge.
    #[test]
    fn exact_ties_resolve_to_lowest_row_index_everywhere(
        bits in 2u8..=3,
        word_len in 1usize..6,
        n_distinct in 1usize..8,
        dup_of in 0usize..8,
        rows_per_bank in 1usize..5,
        seed in 0u64..500,
    ) {
        let n_levels = 1usize << bits;
        let dup_of = dup_of % n_distinct;
        // Store the distinct words, then a duplicate of one of them at
        // the end: querying that word matches exactly, an exact match
        // is the conductance minimum (the LUT's distance property),
        // and the duplicate ties it bit-for-bit under the shared LUT.
        let mut rows: Vec<Vec<u8>> =
            (0..n_distinct).map(|i| gen_word(word_len, n_levels, seed, i)).collect();
        rows.push(rows[dup_of].clone());
        let query = rows[dup_of].clone();
        // The first occurrence wins; `dup_of` may itself repeat a word
        // generated earlier, so scan for the earliest equal row.
        let expected = rows.iter().position(|r| *r == query).expect("present");

        let mut array = nominal_array(bits, word_len);
        let mut banked = nominal_banked(bits, word_len, rows_per_bank);
        for r in &rows {
            array.store(r).expect("store");
            banked.store(r).expect("banked store");
        }
        // Non-vacuity: the minimum really is tied (>= 2 rows).
        let outcome = array.search(&query).expect("scalar search");
        let min = outcome.conductance(outcome.best_row());
        let tied = outcome
            .conductances()
            .iter()
            .filter(|g| g.to_bits() == min.to_bits())
            .count();
        prop_assert!(tied >= 2, "duplicate rows must tie exactly");
        prop_assert_eq!(outcome.best_row(), expected, "scalar path");

        for precision in PRECISIONS {
            // Flat cached plans: full outcome and winners paths.
            let outcome = array
                .search_batch_with(&[&query[..]], precision)
                .expect("search_batch_with")
                .remove(0);
            prop_assert_eq!(outcome.best_row(), expected, "search_batch_with {:?}", precision);
            let winners = array
                .search_batch_winners_with(&[&query, &query], precision)
                .expect("winners");
            prop_assert_eq!(winners[0].0, expected, "batch winners {:?}", precision);
            prop_assert_eq!(winners[1].0, expected, "batch winners {:?}", precision);
            // Top-k ordering puts the tied minima in ascending row
            // order.
            let top = array
                .search_batch_top_k_with(&[&query], 2, precision)
                .expect("top-k")
                .remove(0);
            prop_assert_eq!(top[0].0, expected, "top-k head {:?}", precision);
            if top.len() > 1 && top[1].1.to_bits() == top[0].1.to_bits() {
                prop_assert!(top[1].0 > top[0].0, "tied top-k out of order");
            }
            // Banked merge: same winner through the hierarchical
            // winner-take-all, single and batched.
            let (row, _) = banked
                .search_batch_winners_with(&[&query[..]], precision)
                .expect("banked")[0];
            prop_assert_eq!(row, expected, "banked search {:?}", precision);
            let batched = banked
                .search_batch_winners_with(&[&query], precision)
                .expect("banked batch");
            prop_assert_eq!(batched[0].0, expected, "banked batch {:?}", precision);
            let top = banked
                .search_batch_top_k_with(&[&query[..]], 2, precision)
                .expect("banked top-k")
                .remove(0);
            prop_assert_eq!(top[0].0, expected, "banked top-k {:?}", precision);
        }
    }
}
