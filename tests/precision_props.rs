//! Property tests for the precision-generic execution layer and the
//! cached auto-recompiling plans (`femcam_core::exec`).
//!
//! Three contracts are pinned here:
//!
//! 1. **f32 accuracy** — the opt-in `f32` fast mode must agree with the
//!    `f64` reference on top-1 and top-k up to the documented error
//!    bound (`word_len · ε_f32` relative per row): whenever the modes
//!    disagree on a rank, the `f64` conductances involved must be
//!    within `REL_TOL` of each other (i.e. the rows were
//!    f32-indistinguishable), across random ladders, bits ∈ {2, 3, 4},
//!    and device variation on/off.
//! 2. **Codes exactness** — the byte-packed level-code mode
//!    (`Precision::Codes`) is **bit-identical** to `f32` on shared-LUT
//!    arrays (every entry point: full outcomes, winners, top-k, flat
//!    and banked), and on variation arrays it transparently falls back
//!    to the very same `f32` plane plan, again bitwise.
//! 3. **Plan-cache invalidation** — a search issued after `store` sees
//!    the new rows, and the cached `f64` path stays bit-identical to a
//!    fresh compile and to the scalar physics path at every step of an
//!    interleaved store/search sequence, for flat arrays, banked
//!    memories, and the `McamNn` engine; the codes slot invalidates on
//!    store like the plane slots.

use proptest::prelude::*;

use femcam_harness::prelude::*;

/// Relative f64 gap below which two rows are considered
/// f32-indistinguishable (comfortably above `word_len · ε_f32` for the
/// word lengths generated here).
const REL_TOL: f64 = 1e-4;

fn build_array(bits: u8, word_len: usize, rows: &[Vec<u8>], sigma: f64, seed: u64) -> McamArray {
    let ladder = LevelLadder::new(bits).expect("ladder");
    let model = FefetModel::default();
    let lut = ConductanceLut::from_device(&model, &ladder);
    let mut builder = McamArrayBuilder::new(ladder, lut).word_len(word_len);
    if sigma > 0.0 {
        builder = builder.variation(
            VariationSpec {
                sigma_v: sigma,
                seed,
            },
            model,
        );
    }
    let mut a = builder.build();
    for r in rows {
        a.store(r).expect("store");
    }
    a
}

/// Deterministic pseudo-random word over `n_levels`.
fn gen_word(word_len: usize, n_levels: usize, seed: u64, salt: usize) -> Vec<u8> {
    (0..word_len)
        .map(|c| (((seed as usize).wrapping_mul(37) + salt * 11 + c * 13) % n_levels) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// f32 top-1: either the same winner as f64, or the two winners'
    /// f64 conductances are within the f32 error bound of each other.
    #[test]
    fn f32_top1_matches_f64_up_to_error_bound(
        bits in 2u8..=4,
        word_len in 1usize..8,
        n_rows in 1usize..24,
        with_variation in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let n_levels = 1usize << bits;
        let rows: Vec<Vec<u8>> =
            (0..n_rows).map(|i| gen_word(word_len, n_levels, seed, i)).collect();
        let sigma = if with_variation { 0.06 } else { 0.0 };
        let array = build_array(bits, word_len, &rows, sigma, seed);
        let plan64 = array.cached_plan::<f64>(Metric::default()).expect("f64 plan");
        let plan32 = array.cached_plan::<f32>(Metric::default()).expect("f32 plan");
        for salt in [501usize, 602, 703] {
            let q = gen_word(word_len, n_levels, seed, salt);
            let o64 = plan64.search_batch(&[&q[..]], 1).expect("f64 search").remove(0);
            let o32 = plan32.search_batch(&[&q[..]], 1).expect("f32 search").remove(0);
            let w64 = o64.best_row();
            let w32 = o32.best_row();
            if w64 != w32 {
                let a = o64.conductance(w64);
                let b = o64.conductance(w32);
                let gap = (a - b).abs() / a.max(b);
                prop_assert!(
                    gap < REL_TOL,
                    "f32 picked row {w32} over {w64} with f64 gap {gap:e}"
                );
            }
            // Per-row conductances stay within the error bound too.
            for (g64, g32) in o64.conductances().iter().zip(o32.conductances()) {
                prop_assert!(((g64 - g32) / g64).abs() < REL_TOL);
            }
        }
    }

    /// f32 top-k recall: every row the f32 mode ranks into the top k is
    /// within the error bound of the true (f64) k-th best, and the two
    /// modes' top-k sets only ever differ across f32-indistinguishable
    /// boundaries.
    #[test]
    fn f32_topk_recall_within_error_bound(
        bits in 2u8..=4,
        word_len in 1usize..7,
        n_rows in 2usize..24,
        k in 1usize..6,
        with_variation in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let n_levels = 1usize << bits;
        let rows: Vec<Vec<u8>> =
            (0..n_rows).map(|i| gen_word(word_len, n_levels, seed, i * 3 + 1)).collect();
        let sigma = if with_variation { 0.09 } else { 0.0 };
        let array = build_array(bits, word_len, &rows, sigma, seed ^ 0x5EED);
        let plan64 = array.cached_plan::<f64>(Metric::default()).expect("f64 plan");
        let plan32 = array.cached_plan::<f32>(Metric::default()).expect("f32 plan");
        let q = gen_word(word_len, n_levels, seed, 999);
        let o64 = plan64.search_batch(&[&q[..]], 1).expect("f64 search").remove(0);
        let o32 = plan32.search_batch(&[&q[..]], 1).expect("f32 search").remove(0);
        let top64 = o64.top_k(k);
        let top32 = o32.top_k(k);
        prop_assert_eq!(top64.len(), top32.len());
        // The f64 conductance of the k-th best admitted by either mode.
        let kth = o64.conductance(*top64.last().expect("nonempty"));
        for &r in &top32 {
            let g = o64.conductance(r);
            prop_assert!(
                g <= kth * (1.0 + REL_TOL),
                "f32 admitted row {r} with f64 conductance {g:e} vs k-th best {kth:e}"
            );
        }
    }

    /// Codes mode is bit-identical to f32 on shared-LUT arrays, across
    /// every entry point: the compiled plans directly, the cached array
    /// front doors (outcomes, winners, top-k), and the dispatch is the
    /// packed kernel (no silent plane fallback).
    #[test]
    fn codes_bit_identical_to_f32_on_shared_lut(
        bits in 2u8..=4,
        word_len in 1usize..8,
        n_rows in 1usize..24,
        k in 1usize..5,
        seed in 0u64..1000,
    ) {
        let n_levels = 1usize << bits;
        let rows: Vec<Vec<u8>> =
            (0..n_rows).map(|i| gen_word(word_len, n_levels, seed, i)).collect();
        let array = build_array(bits, word_len, &rows, 0.0, seed);
        let dispatch = array.compiled_codes(Metric::default()).expect("codes plan");
        prop_assert!(dispatch.is_packed(), "shared-LUT array must use the packed kernel");
        let plan32 = array.cached_plan::<f32>(Metric::default()).expect("f32 plan");
        let queries: Vec<Vec<u8>> =
            (0..4).map(|s| gen_word(word_len, n_levels, seed, 800 + s)).collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        for q in &refs {
            let oc = dispatch.search_batch(&[*q], 1).expect("codes search").remove(0);
            let of = plan32.search_batch(&[*q], 1).expect("f32 search").remove(0);
            prop_assert_eq!(oc.conductances(), of.conductances());
        }
        // Cached array front doors, all three batched shapes.
        let bc = array.search_batch_with(&refs, Precision::Codes).expect("codes batch");
        let bf = array.search_batch_with(&refs, Precision::F32).expect("f32 batch");
        for (c, f) in bc.iter().zip(&bf) {
            prop_assert_eq!(c.conductances(), f.conductances());
        }
        prop_assert_eq!(
            array.search_batch_winners_with(&refs, Precision::Codes).expect("codes winners"),
            array.search_batch_winners_with(&refs, Precision::F32).expect("f32 winners")
        );
        prop_assert_eq!(
            array.search_batch_top_k_with(&refs, k, Precision::Codes).expect("codes top k"),
            array.search_batch_top_k_with(&refs, k, Precision::F32).expect("f32 top k")
        );
    }

    /// Variation arrays cannot share a LUT: codes mode must dispatch to
    /// the f32 plane fallback and produce bitwise-f32 results from
    /// every entry point.
    #[test]
    fn codes_falls_back_to_f32_under_variation(
        bits in 2u8..=4,
        word_len in 1usize..7,
        n_rows in 1usize..16,
        seed in 0u64..1000,
    ) {
        let n_levels = 1usize << bits;
        let rows: Vec<Vec<u8>> =
            (0..n_rows).map(|i| gen_word(word_len, n_levels, seed, i * 2 + 1)).collect();
        let array = build_array(bits, word_len, &rows, 0.07, seed ^ 0xC0DE5);
        let dispatch = array.compiled_codes(Metric::default()).expect("codes dispatch");
        prop_assert!(!dispatch.is_packed(), "variation array must fall back to planes");
        let queries: Vec<Vec<u8>> =
            (0..3).map(|s| gen_word(word_len, n_levels, seed, 700 + s)).collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let bc = array.search_batch_with(&refs, Precision::Codes).expect("codes batch");
        let bf = array.search_batch_with(&refs, Precision::F32).expect("f32 batch");
        for (c, f) in bc.iter().zip(&bf) {
            prop_assert_eq!(c.conductances(), f.conductances());
        }
        let single_codes = array.search_batch_with(&[&queries[0][..]], Precision::Codes).expect("codes").remove(0);
        let single_f32 = array.search_batch_with(&[&queries[0][..]], Precision::F32).expect("f32").remove(0);
        prop_assert_eq!(single_codes.conductances(), single_f32.conductances());
    }

    /// The codes slot invalidates on store at every entry point: flat
    /// arrays, banked memories, and the `McamNn` engine all see rows
    /// stored after the plan was cached, and stay bitwise-f32
    /// throughout the interleaving.
    #[test]
    fn codes_cache_invalidation_tracks_stores(
        rows_per_bank in 1usize..5,
        n_steps in 1usize..8,
        seed in 0u64..500,
    ) {
        let ladder = LevelLadder::new(3).expect("ladder");
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut banked = BankedMcam::new(ladder, lut.clone(), 4, rows_per_bank);
        let mut flat = McamArray::new(ladder, lut, 4);
        for step in 0..n_steps {
            let word = gen_word(4, 8, seed, step);
            banked.store(&word).expect("store banked");
            flat.store(&word).expect("store flat");
            // Flat: the cached codes plan reflects every store.
            let outcome = flat
                .search_batch_with(&[&word[..]], Precision::Codes)
                .expect("flat codes")
                .remove(0);
            prop_assert_eq!(outcome.conductances().len(), step + 1);
            // The row just stored is an exact match on a nominal
            // array, so it ties the winning conductance.
            prop_assert_eq!(
                outcome.conductance(outcome.best_row()),
                outcome.conductance(step)
            );
            // Banked: codes winners equal f32 winners bitwise while
            // rows keep arriving (per-bank codes slots invalidate
            // independently).
            let queries: Vec<Vec<u8>> = (0..3)
                .map(|s| gen_word(4, 8, seed, 300 + step * 3 + s))
                .collect();
            let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
            prop_assert_eq!(
                banked.search_batch_winners_with(&refs, Precision::Codes).expect("banked codes"),
                banked.search_batch_winners_with(&refs, Precision::F32).expect("banked f32")
            );
        }
        // Engine entry point: add() must invalidate the codes slot so
        // the next query sees the new entry.
        let entries: Vec<Vec<f32>> = (0..n_steps.max(2))
            .map(|i| (0..3).map(|c| ((seed as usize + i * 7 + c * 3) % 53) as f32 / 53.0).collect())
            .collect();
        let mut idx = McamNn::fit(
            3,
            entries.iter().map(|e| e.as_slice()),
            3,
            QuantizeStrategy::PerFeatureMinMax,
            &FefetModel::default(),
        )
        .expect("fit")
        .with_precision(Precision::Codes);
        for (i, e) in entries.iter().enumerate() {
            idx.add(e, i as u32).expect("add");
            let hits = idx.query_k(e, entries.len()).expect("query after add");
            prop_assert!(
                hits.iter().any(|h| h.index == i),
                "codes query must see the row just added"
            );
        }
    }

    /// Interleaved store/search: the cached plan always reflects the
    /// latest contents, bit-identically to both a fresh compile and the
    /// scalar reference.
    #[test]
    fn plan_cache_invalidation_tracks_stores(
        bits in 1u8..=3,
        word_len in 1usize..6,
        n_batches in 1usize..5,
        with_variation in any::<bool>(),
        seed in 0u64..500,
    ) {
        let n_levels = 1usize << bits;
        let sigma = if with_variation { 0.05 } else { 0.0 };
        let mut array = build_array(
            bits,
            word_len,
            &[gen_word(word_len, n_levels, seed, 0)],
            sigma,
            seed,
        );
        for batch in 0..n_batches {
            let new_row = gen_word(word_len, n_levels, seed, batch * 7 + 1);
            array.store(&new_row).expect("store");
            let q = gen_word(word_len, n_levels, seed, batch * 7 + 2);
            // Cached path, scalar reference, and explicit fresh compile
            // must agree bitwise — and see every stored row.
            let cached = array.search_batch_with(&[&q[..]], Precision::F64).expect("cached").remove(0);
            let scalar = array.search(&q).expect("scalar");
            let fresh = array
                .compile()
                .expect("fresh")
                .search_batch(&[&q[..]], 1)
                .expect("fresh search")
                .remove(0);
            prop_assert_eq!(cached.conductances(), scalar.conductances());
            prop_assert_eq!(fresh.conductances(), scalar.conductances());
            prop_assert_eq!(cached.conductances().len(), batch + 2);
            // A post-store exact-match query finds the new row (on a
            // nominal array the exact match minimizes conductance, so
            // the winner's conductance equals the new row's; variation
            // arrays only guarantee visibility, asserted above).
            let hit = array.search_batch_with(&[&new_row[..]], Precision::F64).expect("hit").remove(0);
            let stored_at = batch + 1;
            if !with_variation {
                prop_assert_eq!(
                    hit.conductance(hit.best_row()),
                    hit.conductance(stored_at)
                );
            }
            // The f32 cache tracks the same contents.
            let hit32 = array.search_batch_with(&[&new_row[..]], Precision::F32).expect("hit32").remove(0);
            prop_assert_eq!(hit32.conductances().len(), batch + 2);
        }
    }

    /// Banked memories: per-bank caches invalidate on store and the
    /// batched front door stays bit-identical to a flat scalar sweep
    /// while rows keep arriving.
    #[test]
    fn banked_plan_cache_tracks_stores(
        rows_per_bank in 1usize..5,
        n_steps in 1usize..10,
        seed in 0u64..500,
    ) {
        let ladder = LevelLadder::new(3).expect("ladder");
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut banked = BankedMcam::new(ladder, lut.clone(), 4, rows_per_bank);
        let mut flat = McamArray::new(ladder, lut, 4);
        for step in 0..n_steps {
            let word = gen_word(4, 8, seed, step);
            banked.store(&word).expect("store banked");
            flat.store(&word).expect("store flat");
            let queries: Vec<Vec<u8>> = (0..3)
                .map(|s| gen_word(4, 8, seed, 100 + step * 3 + s))
                .collect();
            let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
            let batched = banked
                .search_batch_winners_with(&refs, Precision::F64)
                .expect("banked batch");
            for (q, &(row, g)) in refs.iter().zip(&batched) {
                let scalar = flat.search(q).expect("flat scalar");
                prop_assert_eq!(row, scalar.best_row());
                prop_assert_eq!(g, scalar.conductance(scalar.best_row()));
            }
            // The f32 front door tracks the same contents: its winner
            // is either the f64 winner or f32-indistinguishable from
            // it, and its score is within the error bound of that
            // row's true conductance.
            let (r32, g32) = banked
                .search_batch_winners_with(&[&queries[0][..]], Precision::F32)
                .expect("banked f32")[0];
            let scalar = flat.search(&queries[0]).expect("flat");
            prop_assert!(r32 < flat.n_rows());
            let true_g32 = scalar.conductance(r32);
            prop_assert!(((true_g32 - g32) / true_g32).abs() < REL_TOL);
            let r64 = scalar.best_row();
            if r32 != r64 {
                let a = scalar.conductance(r64);
                let gap = (a - true_g32).abs() / a.max(true_g32);
                prop_assert!(gap < REL_TOL, "f32 winner {r32} vs {r64}, gap {gap:e}");
            }
        }
    }

    /// The engine front door: `McamNn` with a precision knob keeps
    /// batched == sequential at both precisions, and `add` invalidates
    /// the cache so queries see new entries immediately.
    #[test]
    fn mcam_engine_precision_and_cache(
        dims in 1usize..5,
        n_entries in 2usize..10,
        precision_sel in 0usize..3,
        seed in 0u64..300,
    ) {
        let entries: Vec<Vec<f32>> = (0..n_entries)
            .map(|i| {
                (0..dims)
                    .map(|c| ((seed as usize + i * 13 + c * 7) % 89) as f32 / 89.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = entries.iter().map(|e| e.as_slice()).collect();
        let precision = [Precision::F64, Precision::F32, Precision::Codes][precision_sel];
        let mut idx = McamNn::fit(
            3,
            refs.iter().copied(),
            dims,
            QuantizeStrategy::PerFeatureMinMax,
            &FefetModel::default(),
        )
        .expect("fit")
        .with_precision(precision);
        prop_assert_eq!(idx.precision(), precision);
        // Entries arrive one at a time; the cache must track each add:
        // the row just stored must be visible, and (being an exact
        // match of its own quantized word on a nominal array) must tie
        // the winning score. An earlier duplicate may still win the
        // lowest-index tie-break, so equality is on score, not index.
        for (i, e) in entries.iter().enumerate() {
            idx.add(e, i as u32).expect("add");
            let hits = idx.query_k(e, n_entries).expect("query_k after add");
            let new_row = hits.iter().find(|h| h.index == i);
            prop_assert!(new_row.is_some(), "query must see the row just added");
            prop_assert_eq!(new_row.expect("present").score, hits[0].score);
        }
        // Batched results equal sequential results at this precision.
        let batched = idx.query_batch(&refs).expect("batch");
        let batched_k = idx.query_k_batch(&refs, 3).expect("batch k");
        for (i, q) in refs.iter().enumerate() {
            let s = idx.query(q).expect("query");
            prop_assert_eq!(batched[i].index, s.index);
            prop_assert_eq!(batched[i].score, s.score);
            let sk = idx.query_k(q, 3).expect("query_k");
            prop_assert_eq!(batched_k[i].len(), sk.len());
            for (b, s) in batched_k[i].iter().zip(&sk) {
                prop_assert_eq!(b.index, s.index);
                prop_assert_eq!(b.score, s.score);
            }
        }
    }
}
