//! Property tests for the two-stage retrieval layer: the masked-bank
//! sweep contract (`femcam_core::banked`) and the LSH bank router
//! (`femcam_core::router`).
//!
//! Three contracts are pinned here:
//!
//! 1. **All-banks-mask bit-identity** — a masked sweep whose mask
//!    covers every bank is **bit-identical** to the unmasked full
//!    sweep (winners and top-k) at every precision, and a proper
//!    subset mask equals the fixed-order fold of the selected banks'
//!    individual outcomes (the bank-mask contract documented in
//!    `femcam_core::exec`).
//! 2. **Store-synchronized routing** — after any interleaved sequence
//!    of stores through a `RoutedMcam`, an exact-match query for any
//!    stored word answers identically to the full sweep: the router's
//!    buckets update on `store` like the plan caches do, so a stored
//!    row can never become unreachable.
//! 3. **Recall floor** — on the benchmark sweep geometry (4096 rows ×
//!    64 levels, 16 banks) with clustered data and locality-aware
//!    placement (`RoutedMcam::build`), routed top-1/top-k recall
//!    against a `SoftwareNn` ground truth (the MCAM distance evaluated
//!    in software) stays above a measured floor while probing well
//!    under half the banks.

use proptest::prelude::*;

use femcam_harness::prelude::*;

/// Deterministic pseudo-random word over `n_levels`.
fn gen_word(word_len: usize, n_levels: usize, seed: u64, salt: usize) -> Vec<u8> {
    (0..word_len)
        .map(|c| (((seed as usize).wrapping_mul(37) + salt * 11 + c * 13) % n_levels) as u8)
        .collect()
}

fn banked_with_rows(word_len: usize, rows_per_bank: usize, rows: &[Vec<u8>]) -> BankedMcam {
    let ladder = LevelLadder::new(3).expect("ladder");
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    let mut memory = BankedMcam::new(ladder, lut, word_len, rows_per_bank);
    for row in rows {
        memory.store(row).expect("store");
    }
    memory
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A mask covering every bank is bit-identical to the unmasked
    /// full sweep — winners, single-query, and top-k — at every
    /// precision.
    #[test]
    fn all_banks_mask_is_bit_identical_to_full_sweep(
        word_len in 1usize..6,
        rows_per_bank in 1usize..5,
        n_rows in 1usize..24,
        k in 1usize..5,
        seed in 0u64..1000,
    ) {
        let n_levels = 8usize;
        let rows: Vec<Vec<u8>> =
            (0..n_rows).map(|i| gen_word(word_len, n_levels, seed, i)).collect();
        let memory = banked_with_rows(word_len, rows_per_bank, &rows);
        let all: Vec<usize> = (0..memory.n_banks()).collect();
        let queries: Vec<Vec<u8>> =
            (0..4).map(|s| gen_word(word_len, n_levels, seed, 400 + s)).collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        for precision in [Precision::F64, Precision::F32, Precision::Codes] {
            let all_banks = SearchSpec { precision, banks: Some(&all), ..SearchSpec::default() };
            let masked = memory
                .search_batch_winners_masked(&refs, precision, &all)
                .expect("masked winners");
            let full = memory
                .search_batch_winners_with(&refs, precision)
                .expect("full winners");
            prop_assert_eq!(masked.len(), full.len());
            for ((mr, mg), (fr, fg)) in masked.iter().zip(&full) {
                prop_assert_eq!(mr, fr, "{:?}", precision);
                prop_assert_eq!(mg.to_bits(), fg.to_bits(), "{:?}", precision);
            }
            let (sr, sg) = memory
                .search_batch_winners_with(&[refs[0]], all_banks)
                .map(|w| w[0])
                .expect("masked single");
            prop_assert_eq!((sr, sg.to_bits()), (full[0].0, full[0].1.to_bits()));
            let masked_k = memory
                .search_batch_top_k_with(&refs, k, all_banks)
                .expect("masked top-k");
            let full_k = memory
                .search_batch_top_k_with(&refs, k, precision)
                .expect("full top-k");
            prop_assert_eq!(&masked_k, &full_k, "{:?} top-k", precision);
        }
    }

    /// A proper subset mask equals the fixed-order fold of the selected
    /// banks' individual outcomes (ascending bank order, strict `<`, so
    /// exact ties keep the lower global row), and the reduced
    /// precisions stay mutually bit-identical on shared-LUT banks.
    #[test]
    fn subset_mask_matches_per_bank_fold(
        word_len in 1usize..6,
        rows_per_bank in 1usize..4,
        n_rows in 2usize..20,
        seed in 0u64..1000,
    ) {
        let n_levels = 8usize;
        let rows: Vec<Vec<u8>> =
            (0..n_rows).map(|i| gen_word(word_len, n_levels, seed, i * 3 + 1)).collect();
        let memory = banked_with_rows(word_len, rows_per_bank, &rows);
        let n_banks = memory.n_banks();
        // A nonempty ascending bank subset derived from the seed.
        let mask_bits = (seed % ((1u64 << n_banks) - 1)) + 1;
        let banks: Vec<usize> = (0..n_banks).filter(|b| mask_bits >> b & 1 == 1).collect();
        let query = gen_word(word_len, n_levels, seed, 777);
        let masked = SearchSpec { banks: Some(&banks), ..SearchSpec::default() };
        let (row, g) = memory
            .search_batch_winners_with(&[&query[..]], masked)
            .map(|w| w[0])
            .expect("masked");
        // Reference fold of the scalar oracle over each masked bank's
        // rows, rebuilt from `BankedMcam::row`: the reference never
        // runs a compiled plan.
        let mut best: Option<(usize, f64)> = None;
        for &b in &banks {
            let base = b * rows_per_bank;
            let mut bank = McamArray::new(*memory.ladder(), memory.lut().clone(), word_len);
            bank.store_all((0..rows_per_bank).map_while(|local| memory.row(base + local)))
                .expect("rebuild bank");
            let o = bank.search(&query).expect("scalar bank");
            let local = o.best_row();
            let cand = (base + local, o.conductance(local));
            if best.is_none_or(|(_, bg)| cand.1 < bg) {
                best = Some(cand);
            }
        }
        let (want_row, want_g) = best.expect("nonempty mask");
        prop_assert_eq!(row, want_row);
        prop_assert_eq!(g.to_bits(), want_g.to_bits());
        // f32 and codes agree bitwise with each other on the same mask
        // (shared-LUT banks).
        let refs = [query.as_slice()];
        let w32 = memory
            .search_batch_winners_masked(&refs, Precision::F32, &banks)
            .expect("masked f32");
        let wc = memory
            .search_batch_winners_masked(&refs, Precision::Codes, &banks)
            .expect("masked codes");
        prop_assert_eq!(w32[0].0, wc[0].0);
        prop_assert_eq!(w32[0].1.to_bits(), wc[0].1.to_bits());
    }

    /// Interleaved stores through a `RoutedMcam` never strand a row:
    /// after every store, an exact-match query for *any* row stored so
    /// far answers bit-identically to the full sweep (the exact match
    /// is globally minimal and duplicates share its bucket, so routing
    /// cannot change the winner).
    #[test]
    fn routed_store_keeps_every_row_reachable(
        word_len in 2usize..6,
        rows_per_bank in 1usize..4,
        n_steps in 1usize..12,
        seed in 0u64..1000,
    ) {
        let n_levels = 8usize;
        let memory = banked_with_rows(word_len, rows_per_bank, &[]);
        let mut routed = RoutedMcam::new(memory, RouterConfig::default()).expect("routed");
        let mut stored: Vec<Vec<u8>> = Vec::new();
        for step in 0..n_steps {
            let word = gen_word(word_len, n_levels, seed, step * 5 + 2);
            routed.store(&word).expect("store");
            stored.push(word);
            for w in &stored {
                let (rr, rg) = routed
                    .search_batch_winners_with(&[&w[..]], Precision::F64)
                    .expect("routed")[0];
                let (fr, fg) = routed
                    .memory()
                    .search_batch_winners_with(&[&w[..]], Precision::F64)
                    .map(|w| w[0])
                    .expect("full sweep");
                prop_assert_eq!(rr, fr, "step {}", step);
                prop_assert_eq!(rg.to_bits(), fg.to_bits(), "step {}", step);
            }
        }
        // Batched exact-match top-1 agrees with the full sweep too.
        let refs: Vec<&[u8]> = stored.iter().map(|w| w.as_slice()).collect();
        let routed_k = routed
            .search_batch_top_k_with(&refs, 1, Precision::F64)
            .expect("routed top-1");
        let full_k = routed
            .memory()
            .search_batch_top_k_with(&refs, 1, Precision::F64)
            .expect("full top-1");
        prop_assert_eq!(routed_k, full_k);
    }
}

/// The benchmark sweep geometry for the recall floor test.
const SWEEP_ROWS: usize = 4096;
const SWEEP_WORD_LEN: usize = 64;
const SWEEP_ROWS_PER_BANK: usize = 256;
const N_CLUSTERS: usize = 64;
const N_QUERIES: usize = 128;
const TOP_K: usize = 10;

/// Deterministic xorshift for the clustered workload.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Clustered rows: `N_CLUSTERS` random centers, each row a center with
/// per-dim ±1 jitter (25% of dims) — the workload two-stage retrieval
/// is designed for (same-cluster rows share signature buckets).
fn clustered_rows(n_levels: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed | 1;
    let centers: Vec<Vec<u8>> = (0..N_CLUSTERS)
        .map(|_| {
            (0..SWEEP_WORD_LEN)
                .map(|_| (next_rand(&mut state) % n_levels as u64) as u8)
                .collect()
        })
        .collect();
    (0..SWEEP_ROWS)
        .map(|i| {
            let center = &centers[i % N_CLUSTERS];
            center
                .iter()
                .map(|&l| {
                    let r = next_rand(&mut state);
                    if r.is_multiple_of(4) {
                        let up = r >> 8 & 1 == 1;
                        jitter(l, up, n_levels)
                    } else {
                        l
                    }
                })
                .collect()
        })
        .collect()
}

fn jitter(level: u8, up: bool, n_levels: usize) -> u8 {
    if up {
        (level + 1).min(n_levels as u8 - 1)
    } else {
        level.saturating_sub(1)
    }
}

/// Routed recall against a `SoftwareNn` ground truth (the MCAM
/// distance evaluated in software) on the benchmark sweep geometry,
/// with locality-aware placement. The floors are set below the
/// measured values (top-1 ≈ 0.99, top-10 ≈ 0.97, ~6/16 banks probed
/// with the default router config) so the test pins the mechanism, not
/// the exact figure.
#[test]
fn routed_recall_stays_above_floor_on_clustered_sweep() {
    let n_levels = 8usize;
    let ladder = LevelLadder::new(3).expect("ladder");
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    let rows = clustered_rows(n_levels, 0x5EED_CAFE);

    // Ground truth: SoftwareNn over the MCAM distance. The quantizer is
    // fitted so levels-as-f32 round-trip exactly (asserted below), so
    // the software engine scores exactly the words the MCAM stores.
    let mut calibration: Vec<Vec<f32>> = vec![
        vec![0.0; SWEEP_WORD_LEN],
        vec![(n_levels - 1) as f32; SWEEP_WORD_LEN],
    ];
    calibration.extend(
        rows.iter()
            .take(16)
            .map(|r| r.iter().map(|&l| f32::from(l)).collect()),
    );
    let quantizer = Quantizer::fit(
        calibration.iter().map(|r| r.as_slice()),
        SWEEP_WORD_LEN,
        n_levels as u16,
        QuantizeStrategy::PerFeatureMinMax,
    )
    .expect("fit");
    let mut truth = SoftwareNn::new(
        McamSoftware::new(lut.clone(), quantizer.clone()),
        SWEEP_WORD_LEN,
    );
    for (i, row) in rows.iter().enumerate() {
        let features: Vec<f32> = row.iter().map(|&l| f32::from(l)).collect();
        assert_eq!(
            quantizer.quantize(&features).expect("quantize"),
            *row,
            "levels must round-trip exactly for the ground truth to be faithful"
        );
        truth.add(&features, i as u32).expect("add");
    }

    // Two-stage memory with locality-aware placement; `placement[i]`
    // is input row i's global row.
    let (routed, placement) = RoutedMcam::build(
        ladder,
        lut,
        SWEEP_WORD_LEN,
        SWEEP_ROWS_PER_BANK,
        RouterConfig::default(),
        &rows,
    )
    .expect("build");
    let mut input_of = vec![0usize; SWEEP_ROWS];
    for (input, &global) in placement.iter().enumerate() {
        input_of[global] = input;
    }

    // Queries: stored rows with 3 of 64 dims jittered ±1.
    let mut state = 0xBEEF_F00Du64;
    let queries: Vec<Vec<u8>> = (0..N_QUERIES)
        .map(|j| {
            let mut q = rows[(j * 31) % SWEEP_ROWS].clone();
            for _ in 0..3 {
                let d = (next_rand(&mut state) as usize) % SWEEP_WORD_LEN;
                let up = next_rand(&mut state) & 1 == 1;
                q[d] = jitter(q[d], up, n_levels);
            }
            q
        })
        .collect();

    let n_banks = routed.memory().n_banks();
    let mut top1_hits = 0usize;
    let mut topk_overlap = 0usize;
    let mut probed_banks = 0usize;
    let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
    let routed_topk = routed
        .search_batch_top_k_with(&refs, TOP_K, Precision::F64)
        .expect("routed top-k");
    for (q, hits) in queries.iter().zip(&routed_topk) {
        probed_banks += routed.route(q).expect("route").len();
        let features: Vec<f32> = q.iter().map(|&l| f32::from(l)).collect();
        let want = truth.query_k(&features, TOP_K).expect("truth top-k");
        let got: Vec<usize> = hits.iter().map(|&(g, _)| input_of[g]).collect();
        if got.first() == Some(&(want[0].index)) {
            top1_hits += 1;
        }
        topk_overlap += got
            .iter()
            .filter(|i| want.iter().any(|w| w.index == **i))
            .count();
    }
    let top1_recall = top1_hits as f64 / N_QUERIES as f64;
    let topk_recall = topk_overlap as f64 / (N_QUERIES * TOP_K) as f64;
    let mean_probed = probed_banks as f64 / N_QUERIES as f64;
    assert!(
        top1_recall >= 0.9,
        "routed top-1 recall {top1_recall:.3} below floor (mean probed {mean_probed:.1})"
    );
    assert!(
        topk_recall >= 0.85,
        "routed top-{TOP_K} recall {topk_recall:.3} below floor (mean probed {mean_probed:.1})"
    );
    assert!(
        mean_probed <= n_banks as f64 / 2.0,
        "router probed {mean_probed:.1} of {n_banks} banks on average — no pruning"
    );
}
