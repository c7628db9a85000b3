//! Property tests for the runtime-reconfigurable distance semantics
//! (`femcam_core::exec`'s "Metric modes").
//!
//! Contracts pinned here:
//!
//! 1. **f64 bit-identity per metric** — for every [`Metric`], the
//!    compiled `f64` plan is bit-identical to the scalar per-metric
//!    oracle ([`McamArray::search_metric`]), with and without device
//!    variation, including the L∞ max-fold.
//! 2. **Synthesized metrics are exact at every precision** — L1, L∞,
//!    and Hamming read stored level codes (digital), so `f32` planes
//!    and packed codes reproduce the `f64` oracle bit-for-bit at every
//!    entry point (single, batch, winners, top-k), even under device
//!    variation — where codes stay packed (only the conductance metric
//!    needs the plane fallback there).
//! 3. **Exact-tie determinism** — duplicate rows resolve to the lowest
//!    row index for every `Metric` × `Precision` combination, flat and
//!    banked (lowest *global* row).
//! 4. **Per-`(precision, metric)` cache invalidation** — interleaved
//!    stores invalidate every metric's cached plan, so each search sees
//!    the latest contents bit-identically to a fresh scalar oracle.
//! 5. **Banked/masked parity** — banked full-sweep and masked winners
//!    and top-k match the flat oracle restricted to the masked banks'
//!    global rows, per metric.
//! 6. **Served per-request metric** — a [`ShardedServer`] answer at a
//!    per-request metric equals the direct [`BankedMcam`] search under
//!    interleaved stores, with mixed-metric traffic in flight.

use proptest::prelude::*;

use femcam_harness::prelude::*;

const PRECISIONS: [Precision; 3] = [Precision::F64, Precision::F32, Precision::Codes];

/// The digital metrics: synthesized distance tables over level codes,
/// exact at every precision.
const SYNTHESIZED: [Metric; 3] = [Metric::L1, Metric::Linf, Metric::Hamming];

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

/// The flat search spec at `precision` and `metric`.
fn spec_at(precision: Precision, metric: Metric) -> SearchSpec<'static> {
    SearchSpec {
        precision,
        metric,
        ..SearchSpec::default()
    }
}

/// The oracle's winner under the universal lowest-row tie-break.
fn oracle_winner(outcome: &SearchOutcome) -> (usize, f64) {
    let best = outcome.best_row();
    (best, outcome.conductance(best))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every metric's compiled `f64` plan — forced compiled, not the
    /// cold-cache scalar fallback — is bit-identical to the scalar
    /// per-metric oracle, with and without device variation. This is
    /// the acceptance anchor for the L∞ max-reduce kernel: its plan
    /// goes through the same `cached_plan` compile as the sum
    /// folds.
    #[test]
    fn f64_metric_plans_match_scalar_oracle(
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
        for metric in Metric::ALL {
            // Force the compiled plan (a lone cached search may take
            // the documented cold-cache scalar fallback).
            let plan = array.cached_plan::<f64>(metric).expect("f64 plan");
            for salt in [401usize, 502, 603] {
                let q = gen_word(word_len, n_levels, seed, salt);
                let compiled = plan.search_batch(&[&q[..]], 1).expect("compiled search").remove(0);
                let oracle = array.search_metric(&q, metric).expect("oracle");
                prop_assert_eq!(compiled.conductances(), oracle.conductances());
                // The warm cached front door now serves the same plan.
                let cached = array
                    .search_batch_with(&[&q[..]], spec_at(Precision::F64, metric))
                    .expect("cached")
                    .remove(0);
                prop_assert_eq!(cached.conductances(), oracle.conductances());
            }
        }
    }

    /// Synthesized metrics are digital: `f32` planes and packed codes
    /// are bit-identical to the `f64` scalar oracle at every entry
    /// point, even under device variation — where codes must stay on
    /// the packed kernel (no plane fallback).
    #[test]
    fn synthesized_metrics_exact_at_every_precision(
        bits in 2u8..=4,
        word_len in 1usize..8,
        n_rows in 1usize..24,
        k in 1usize..5,
        with_variation in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let n_levels = 1usize << bits;
        let rows: Vec<Vec<u8>> =
            (0..n_rows).map(|i| gen_word(word_len, n_levels, seed, i * 3 + 1)).collect();
        let sigma = if with_variation { 0.07 } else { 0.0 };
        let array = build_array(bits, word_len, &rows, sigma, seed ^ 0x3E7);
        let queries: Vec<Vec<u8>> =
            (0..4).map(|s| gen_word(word_len, n_levels, seed, 800 + s)).collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        for metric in SYNTHESIZED {
            let dispatch = array.compiled_codes(metric).expect("codes dispatch");
            prop_assert!(
                dispatch.is_packed(),
                "synthesized {} must pack even under variation",
                metric.name()
            );
            let oracles: Vec<SearchOutcome> = refs
                .iter()
                .map(|q| array.search_metric(q, metric).expect("oracle"))
                .collect();
            for precision in PRECISIONS {
                for (q, oracle) in refs.iter().zip(&oracles) {
                    let got = array
                        .search_batch_with(&[*q], spec_at(precision, metric))
                        .expect("search")
                        .remove(0);
                    prop_assert_eq!(got.conductances(), oracle.conductances());
                }
                let batch = array
                    .search_batch_with(&refs, spec_at(precision, metric))
                    .expect("batch");
                for (got, oracle) in batch.iter().zip(&oracles) {
                    prop_assert_eq!(got.conductances(), oracle.conductances());
                }
                let winners = array
                    .search_batch_winners_with(&refs, spec_at(precision, metric))
                    .expect("winners");
                for (got, oracle) in winners.iter().zip(&oracles) {
                    prop_assert_eq!(*got, oracle_winner(oracle));
                }
                let topk = array
                    .search_batch_top_k_with(&refs, k, spec_at(precision, metric))
                    .expect("top k");
                for (got, oracle) in topk.iter().zip(&oracles) {
                    let want: Vec<(usize, f64)> = oracle
                        .top_k(k)
                        .into_iter()
                        .map(|r| (r, oracle.conductance(r)))
                        .collect();
                    prop_assert_eq!(got.clone(), want);
                }
            }
        }
    }

    /// The conductance metric's codes mode stays bit-identical to its
    /// `f32` planes per metric slot (shared-LUT packed, variation
    /// fallback), mirroring the default-metric contract.
    #[test]
    fn codes_bit_identical_to_f32_per_metric(
        bits in 2u8..=4,
        word_len in 1usize..7,
        n_rows in 1usize..16,
        with_variation in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let n_levels = 1usize << bits;
        let rows: Vec<Vec<u8>> =
            (0..n_rows).map(|i| gen_word(word_len, n_levels, seed, i * 2 + 1)).collect();
        let sigma = if with_variation { 0.07 } else { 0.0 };
        let array = build_array(bits, word_len, &rows, sigma, seed ^ 0xC0DE);
        let queries: Vec<Vec<u8>> =
            (0..3).map(|s| gen_word(word_len, n_levels, seed, 700 + s)).collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        for metric in Metric::ALL {
            let dispatch = array.compiled_codes(metric).expect("dispatch");
            if metric == Metric::McamConductance && with_variation {
                prop_assert!(!dispatch.is_packed(), "variation conductance must fall back");
            } else {
                prop_assert!(dispatch.is_packed());
            }
            let bc = array
                .search_batch_with(&refs, spec_at(Precision::Codes, metric))
                .expect("codes batch");
            let bf = array
                .search_batch_with(&refs, spec_at(Precision::F32, metric))
                .expect("f32 batch");
            for (c, f) in bc.iter().zip(&bf) {
                prop_assert_eq!(c.conductances(), f.conductances());
            }
        }
    }

    /// Exact ties (duplicate rows) resolve to the lowest row index for
    /// every `Metric` × `Precision` combination — flat winners and
    /// banked top-k (lowest *global* row) alike.
    #[test]
    fn exact_ties_resolve_to_lowest_row(
        bits in 2u8..=3,
        word_len in 1usize..6,
        n_uniques in 1usize..6,
        rows_per_bank in 1usize..4,
        seed in 0u64..500,
    ) {
        let n_levels = 1usize << bits;
        let uniques: Vec<Vec<u8>> =
            (0..n_uniques).map(|i| gen_word(word_len, n_levels, seed, i)).collect();
        // Every unique row stored twice: first copies at [0, n), dups
        // at [n, 2n) — any winner must come from the first block.
        let mut rows = uniques.clone();
        rows.extend(uniques.iter().cloned());
        let array = build_array(bits, word_len, &rows, 0.0, seed);
        let ladder = LevelLadder::new(bits).expect("ladder");
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut banked = BankedMcam::new(ladder, lut, word_len, rows_per_bank);
        for r in &rows {
            banked.store(r).expect("store banked");
        }
        let q = gen_word(word_len, n_levels, seed, 321);
        for metric in Metric::ALL {
            let oracle = array.search_metric(&q, metric).expect("oracle");
            let (want_row, want_score) = oracle_winner(&oracle);
            prop_assert!(want_row < n_uniques, "tie must break to the first copy");
            for precision in PRECISIONS {
                let spec = SearchSpec { precision, metric, ..SearchSpec::default() };
                // f32/codes conductance may round near-ties between
                // *different* rows the other way, but duplicates still
                // tie bitwise, so the first-copy invariant holds at
                // every combination; the full winner is pinned where
                // the path is bit-identical to the f64 oracle.
                let exact = precision == Precision::F64 || metric != Metric::McamConductance;
                let winners = array
                    .search_batch_winners_with(&[&q], spec_at(precision, metric))
                    .expect("winners");
                prop_assert!(winners[0].0 < n_uniques, "tie must break to the first copy");
                if exact {
                    prop_assert_eq!(winners[0], (want_row, want_score));
                }
                let (brow, _) = banked
                    .search_batch_winners_with(&[&q[..]], spec)
                    .map(|w| w[0])
                    .expect("banked");
                prop_assert!(brow < n_uniques);
                if exact {
                    prop_assert_eq!(brow, want_row);
                }
                // Top-k over everything lists each duplicate pair in
                // ascending global-row order within its tie.
                let hits = banked
                    .search_batch_top_k_with(&[&q[..]], rows.len(), spec)
                    .map(|mut h| h.remove(0))
                    .expect("banked top k");
                prop_assert_eq!(hits.len(), rows.len());
                for pair in hits.windows(2) {
                    if pair[0].1 == pair[1].1 {
                        prop_assert!(pair[0].0 < pair[1].0, "ties must order by global row");
                    }
                }
            }
        }
    }

    /// Interleaved store/search across rotating `(precision, metric)`
    /// slots: every cached metric plan invalidates on store, so each
    /// search sees all rows stored so far, bit-identically to a fresh
    /// scalar oracle (exactly for `f64` and for synthesized metrics at
    /// every precision).
    #[test]
    fn metric_plan_cache_invalidation_tracks_stores(
        bits in 2u8..=3,
        word_len in 1usize..6,
        n_steps in 1usize..8,
        seed in 0u64..500,
    ) {
        let n_levels = 1usize << bits;
        let mut array = build_array(
            bits,
            word_len,
            &[gen_word(word_len, n_levels, seed, 0)],
            0.0,
            seed,
        );
        // Warm every (precision, metric) slot so invalidation — not a
        // cold compile — is what the interleaving exercises.
        let warm = gen_word(word_len, n_levels, seed, 777);
        for metric in Metric::ALL {
            for precision in PRECISIONS {
                array
                    .search_batch_with(&[&warm], spec_at(precision, metric))
                    .expect("warm");
            }
        }
        for step in 0..n_steps {
            let new_row = gen_word(word_len, n_levels, seed, step * 7 + 1);
            array.store(&new_row).expect("store");
            let q = gen_word(word_len, n_levels, seed, step * 7 + 2);
            for (i, metric) in Metric::ALL.into_iter().enumerate() {
                let oracle = array.search_metric(&q, metric).expect("oracle");
                prop_assert_eq!(oracle.conductances().len(), step + 2);
                // Rotate the starting precision so every slot gets
                // exercised at multiple steps of the interleaving.
                let precision = PRECISIONS[(step + i) % PRECISIONS.len()];
                let cached = array
                    .search_batch_with(&[&q[..]], spec_at(precision, metric))
                    .expect("cached")
                    .remove(0);
                prop_assert_eq!(cached.conductances().len(), step + 2);
                if precision == Precision::F64 || metric != Metric::McamConductance {
                    prop_assert_eq!(cached.conductances(), oracle.conductances());
                }
                // The stored row is an exact self-match: distance 0
                // under every synthesized metric.
                if metric != Metric::McamConductance {
                    let hit = array
                        .search_batch_with(&[&new_row[..]], spec_at(precision, metric))
                        .expect("self hit")
                        .remove(0);
                    prop_assert_eq!(hit.conductance(hit.best_row()), 0.0);
                }
            }
        }
    }

    /// Banked full-sweep and masked winners/top-k match the flat
    /// per-metric oracle restricted to the masked banks' global rows
    /// (bank `b` owns rows `[b·rows_per_bank, b·rows_per_bank + fill)`).
    #[test]
    fn banked_and_masked_metric_paths_match_flat_oracle(
        rows_per_bank in 1usize..4,
        n_rows in 2usize..12,
        k in 1usize..4,
        precision_sel in 0usize..3,
        seed in 0u64..500,
    ) {
        let bits = 3u8;
        let word_len = 4usize;
        let n_levels = 1usize << bits;
        let ladder = LevelLadder::new(bits).expect("ladder");
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut banked = BankedMcam::new(ladder, lut, word_len, rows_per_bank);
        let rows: Vec<Vec<u8>> =
            (0..n_rows).map(|i| gen_word(word_len, n_levels, seed, i)).collect();
        let flat = build_array(bits, word_len, &rows, 0.0, seed);
        for r in &rows {
            banked.store(r).expect("store");
        }
        let n_banks = n_rows.div_ceil(rows_per_bank);
        // Every other bank, always at least bank 0.
        let mask: Vec<usize> = (0..n_banks).step_by(2).collect();
        let precision = PRECISIONS[precision_sel];
        let q = gen_word(word_len, n_levels, seed, 911);
        for metric in Metric::ALL {
            let oracle = flat.search_metric(&q, metric).expect("oracle");
            // Full sweep == oracle winner (score bitwise except the
            // f32 conductance mode, whose tolerance precision_props
            // pins).
            let exact_score = precision == Precision::F64 || metric != Metric::McamConductance;
            let spec = SearchSpec { precision, metric, ..SearchSpec::default() };
            let masked = SearchSpec { banks: Some(&mask), ..spec };
            let (row, score) = banked
                .search_batch_winners_with(&[&q[..]], spec)
                .map(|w| w[0])
                .expect("banked");
            let (want_row, want_score) = oracle_winner(&oracle);
            if exact_score {
                prop_assert_eq!((row, score), (want_row, want_score));
            }
            // Masked: the oracle restricted to the masked banks' rows.
            let in_mask = |r: usize| mask.contains(&(r / rows_per_bank));
            let mut masked_rows: Vec<(usize, f64)> = (0..n_rows)
                .filter(|&r| in_mask(r))
                .map(|r| (r, oracle.conductance(r)))
                .collect();
            masked_rows
                .sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(a.0.cmp(&b.0)));
            let (mrow, mscore) = banked
                .search_batch_winners_with(&[&q[..]], masked)
                .map(|w| w[0])
                .expect("masked");
            if exact_score {
                prop_assert_eq!((mrow, mscore), masked_rows[0]);
                let topk = banked
                    .search_batch_top_k_with(&[&q], k, masked)
                    .expect("masked top k");
                masked_rows.truncate(k);
                prop_assert_eq!(topk[0].clone(), masked_rows);
            } else {
                prop_assert!(in_mask(mrow), "masked winner must come from a masked bank");
            }
        }
    }
}

/// Acceptance criterion: a served per-request metric answer equals the
/// direct `search_batch_winners_with` under interleaved stores — with
/// mixed-metric tickets in flight so micro-batch windows group by
/// metric.
#[test]
fn served_per_request_metric_matches_direct_under_stores() {
    let ladder = LevelLadder::new(3).unwrap();
    let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
    let mut direct = BankedMcam::new(ladder, lut.clone(), 4, 2);
    let memory = BankedMcam::new(ladder, lut, 4, 2);
    let server = ShardedServer::start(memory, 1, ServeConfig::default());
    let handle = server.handle();

    let mut n_queries = 0usize;
    for step in 0..6usize {
        let word = gen_word(4, 8, step as u64 + 1, step);
        assert_eq!(handle.store(&word).unwrap(), direct.store(&word).unwrap());

        // Mixed-metric burst: one ticket per metric submitted before
        // any is awaited, so a shared window must group per metric.
        let queries: Vec<Vec<u8>> = (0..Metric::ALL.len())
            .map(|s| gen_word(4, 8, 42, step * 7 + s))
            .collect();
        let tickets: Vec<(ShardTicket, Metric, &Vec<u8>)> = Metric::ALL
            .into_iter()
            .zip(&queries)
            .map(|(metric, q)| (handle.submit_with(q, metric, None).unwrap(), metric, q))
            .collect();
        for (ticket, metric, q) in tickets {
            let served = ticket.wait().unwrap();
            let want = direct
                .search_batch_winners_with(
                    &[&q[..]],
                    SearchSpec {
                        precision: Precision::F64,
                        metric,
                        ..SearchSpec::default()
                    },
                )
                .map(|w| w[0])
                .unwrap();
            assert_eq!(
                served,
                want,
                "metric {} diverged at step {step}",
                metric.name()
            );
            n_queries += 1;
        }

        // Top-k rides the same per-request metric.
        let q = gen_word(4, 8, 7, step);
        for metric in [Metric::L1, Metric::Linf] {
            let served = handle
                .submit_top_k(&q, 3, metric, None)
                .and_then(ShardTopKTicket::wait)
                .unwrap();
            let want = direct
                .search_batch_top_k_with(
                    &[&q[..]],
                    3,
                    SearchSpec {
                        precision: Precision::F64,
                        metric,
                        ..SearchSpec::default()
                    },
                )
                .map(|mut h| h.remove(0))
                .unwrap();
            assert_eq!(served, want);
            n_queries += 1;
        }
    }

    let stats = server.stats().merged();
    assert_eq!(stats.queries as usize, n_queries);
    let _ = server.shutdown();
}
