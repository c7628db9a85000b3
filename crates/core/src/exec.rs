//! Compiled, batched query execution for MCAM search.
//!
//! The scalar reference path ([`McamArray::search`]) walks
//! `n_rows × word_len` cells per query and dispatches each one through
//! the LUT (shared bank) or the realized per-cell bank (variation).
//! That models the physics faithfully but is architecturally the
//! opposite of the hardware, where every match line evaluates at once.
//! This module is the software analogue of that parallelism: a query
//! plan compiled once per stored array, executed as contiguous gathers
//! and sums.
//!
//! # Plane-major layout
//!
//! [`CompiledMcam`] precomputes one **conductance plane per input
//! level**: `plane[input]` holds, for every `(column, row)`, the
//! conductance that a search input `input` would draw through the cell
//! at `(row, column)`. Planes are laid out column-major with rows
//! contiguous:
//!
//! ```text
//! planes[(input * word_len + column) * n_rows + row]
//! ```
//!
//! A query `q` then reduces to `word_len` strided plane lookups: for
//! each column `c`, fetch the contiguous row-vector of plane
//! `q[c]`/column `c` and add it elementwise into the per-row
//! accumulator. No per-cell branch, no bank dispatch, unit-stride inner
//! loops — one plane column is exactly the vector a physical driver
//! applies to one search line. For shared-LUT arrays the planes are
//! expanded from the `n_levels × n_levels` LUT; for arrays built with
//! device variation they are gathered from the realized per-cell bank,
//! so a compiled search reproduces the same disorder as the scalar
//! path.
//!
//! The batched kernel is cache-tiled: rows advance in panels sized so
//! one plane-column slice stays L1-resident while it serves every query
//! in the block, and each worker thread owns one reusable
//! `BatchScratch` of accumulators and top-k heap storage — the hot
//! path performs **no per-query heap allocation**.
//!
//! # Precision modes
//!
//! Plans are generic over a [`PlaneScalar`] — the element type of the
//! conductance planes and of the match-line accumulators:
//!
//! * **`f64` (the default, [`Precision::F64`])** is the *reference*
//!   mode. Per row, conductances fold in ascending column order
//!   starting from `0.0`, exactly like [`McamArray::search`], so every
//!   `f64` result in this module is **bit-identical** to the scalar
//!   physics path — not merely close. This is the mode all property
//!   tests pin against.
//! * **`f32` ([`Precision::F32`])** is the opt-in *fast* mode: planes
//!   are rounded to `f32` at compile time and match lines accumulate in
//!   `f32`. Halving the plane bytes roughly doubles the throughput of
//!   this bandwidth-bound kernel and doubles SIMD lane width, at the
//!   cost of exactness. The accuracy contract is: per row, the relative
//!   error of a total conductance is bounded by
//!   `word_len · ε_f32 ≈ word_len · 1.2e-7` (one rounding per plane
//!   read plus one per add, all values positive, no cancellation), so
//!   rankings only change between rows whose `f64` conductances agree
//!   to within that bound. Top-1/top-k recall against the `f64`
//!   reference is asserted by `tests/precision_props.rs`; rows an `f32`
//!   search ranks into the top k are always within relative `1e-5` of
//!   the true k-th best in practice. All public results (scores,
//!   [`SearchOutcome`] conductances) are reported as `f64` in both
//!   modes; in `f32` mode they are exact widenings of the `f32`
//!   accumulators.
//!
//! ## Codes mode
//!
//! **[`Precision::Codes`]** is the *bandwidth-floor* mode for
//! shared-LUT arrays. The MCAM stores discrete levels — 4–16
//! conductance states per cell — yet the plane modes above materialize
//! one dense scalar plane per input level (`n_levels × word_len ×
//! n_rows` scalars). [`CompiledCodes`] instead keeps the array as
//! **byte-packed level codes** (`codes[column][row] = stored_level`,
//! one byte per cell, independent of `n_levels`) plus the shared
//! `n_levels × n_levels` conductance LUT rounded to `f32`. Per column,
//! the query level selects one `n_levels`-entry LUT row — a tiny
//! L1-resident gather table — and the inner loop is a unit-stride
//! `table[code[row]]` gather-accumulate, streaming 1 byte per cell
//! where the `f32` planes stream 4 and the `f64` planes 8×`n_levels`
//! resident.
//!
//! **Kernel tiers:** the block kernel runs at one of three widths,
//! picked once when the plan compiles (from the host's CPU features)
//! and stored in it. The scalar tier is the portable expand/serve
//! kernel. On the vector tiers the query level's whole LUT row sits in
//! one register and stored codes index it directly: one `vpermps`
//! looks up 8 cells on AVX2 and 16 on AVX-512 (over the zero-extended
//! 8-entry row). The ceiling is one permute per cycle — 8 cells per
//! cycle on AVX2 hosts, 16 on AVX-512 hosts. The vector tiers need the
//! padded row to fit 8 lanes, so they serve ladders up to 3 bits (the
//! paper's headline configuration); wider ladders run the scalar tier.
//!
//! **Exactness contract:** on shared-LUT arrays the gathered values are
//! the very same `f32` roundings the `f32` planes hold, and each row
//! folds them in the same ascending column order into an `f32`
//! accumulator — so codes results are **bit-identical to
//! [`Precision::F32`]**, not merely close, and the `f32` accuracy
//! contract above applies verbatim, on every kernel tier.
//! `tests/precision_props.rs` pins this bit-identity, and a unit test
//! pins each tier the host runs against the scalar tier and the `f32`
//! planes.
//!
//! **When fallback triggers:** arrays realized with device variation
//! ([`crate::array::VariationSpec`]) carry per-cell conductances that
//! no shared LUT can represent. The cached entry points detect this and
//! transparently execute the `f32` plane plan instead; the
//! [`CodesDispatch`] an array hands back tells you which engine served
//! you. An explicit [`CompiledCodes::compile`] on such an array returns
//! [`CoreError::PerCellBank`].
//!
//! Resident plan memory drops from `n_levels × word_len × n_rows`
//! scalars to `word_len × n_rows` bytes (plus a negligible LUT) — 64×
//! below the `f64` planes on the 3-bit ladder — which is what lets one
//! node keep millions of rows compiled
//! ([`McamArray::plan_memory_bytes`] exposes the per-slot budget).
//! Compiling a code plan costs roughly one scalar query (one byte write
//! per cell), so even a lone cold-cache query amortizes it
//! ([`CODES_COMPILE_THRESHOLD`]).
//!
//! ## Bounded winners
//!
//! Batched winner searches at [`Precision::Codes`] on the vector tiers
//! do not score every cell. Full, masked (routed) and served winner
//! searches, and flat [`McamArray::search_batch_winners_with`], all run
//! through one banked merge, which carries each query's best score so
//! far across banks. That score is an `f32` bound (exact: codes scores
//! are `f32` widened to `f64`). A register block of rows sweeps its
//! columns in chunks of 8, and after each chunk it is abandoned once
//! every row in it already scores strictly above the bound. A block that finishes
//! folds its first minimum into the query's best and tightens the
//! bound. On near-duplicate queries, where the paper's steep distance
//! function puts the nearest row far below the rest, most blocks stop
//! after the first chunk.
//!
//! The answer is exactly the one a full sweep gives. Every LUT entry is
//! finite and `>= 0`, so neither fold ever lowers a running sum: adding
//! a nonnegative `f32` under round-to-nearest never lowers a sum, and
//! `max` never does. A row's final score is therefore at least any
//! partial sum, and an abandoned row scores above a row already seen.
//! A plan checks this once when it compiles and ignores bounds without
//! it. Ties resolve to the lowest global row as before: the comparison
//! is strict, so a row that ends exactly at the bound is scored in full
//! and then loses the strict `<` against the lower row that set it.
//! Full outcomes, top-k, the scalar tier and the plane plans never
//! abandon.
//!
//! [`crate::router::RoutedMcam`] re-ranks each query over its own
//! routed banks, one batch for every route (the *routed re-rank*):
//! bank-major in ascending bank order within each worker's query group,
//! each bank folding the queries routed to it as one block, and each
//! query's slot carried across its banks exactly as in the full sweep.
//! Per query, that is a masked sweep of exactly its banks.
//!
//! ## Fast-scan prefilter
//!
//! The abandon check only fires after a register block has scored a
//! chunk of columns through widened indices and `f32` permutes. Yet the
//! paper's distance function is steep on purpose: on the default 3-bit
//! device LUT a cell costs about 1.7e-7 when it matches and 2.2e-5
//! three levels off, so a near-duplicate query's winner (about 1.2e-5)
//! lies below any row with a single cell three levels off. So while a
//! query's bound `B` is finite and positive, the bounded sweep first
//! runs each whole register block through a *fast-scan* prefilter
//! (André, Kermarrec and Le Scouarnec, "Cache locality is not enough",
//! VLDB 2015), both in the routed re-rank and in the full sweep:
//!
//! - The plan's `f32` LUT is floor-quantized to `u8` units of
//!   `u = B · (1 + 2⁻¹⁶) / 128`, saturating at 255: one 16-byte table
//!   per input level.
//! - The block's rows are scored straight from the 1-byte column-major
//!   codes, 64 rows per AVX-512BW vector (32 per AVX2 vector), with no
//!   widening: per column one byte shuffle looks the codes up in the
//!   query level's table and one saturating add (a `max` for L∞) folds
//!   them in.
//! - After 8 and after 16 columns, a block whose every row is above 128
//!   units is skipped: no widening and no `f32` work. Any other block
//!   runs the bounded `f32` sweep unchanged.
//!
//! Skipping is exact, so answers stay bit-identical:
//!
//! - Floor quantization never raises a cell's cost, and saturation only
//!   under-counts, so a row above 128 units has an exact cost of at
//!   least `129 · u > B · (1 + 2⁻¹⁶)`.
//! - Recursive `f32` summation of nonnegative terms loses at most
//!   `(word_len − 1) · 2⁻²⁴` relative (`63 · 2⁻²⁴` on 64-cell words),
//!   which the `2⁻¹⁶` margin covers up to 257 cells and the 129th unit
//!   up to 4096 cells; wider words skip the prefilter. The `f64`
//!   quantization rounds far less than either, and the max fold rounds
//!   nothing. So a skipped row's `f32` score is above `B`, and since
//!   bounds only fall, it could never be taken.
//! - The check is a strict `>`, and a row scoring exactly `B` stays at
//!   128 units or below, so rows tied with the bound (and the seed rows
//!   under `next_up(seed)`, see below) are still scored, exactly as the
//!   abandon check leaves them.
//!
//! The tables live in each worker's `BatchScratch` of the batched
//! winner kernel, one per query position in the worker's group. They
//! are built lazily, kept across banks, and rebuilt only when the
//! query's bound falls below half the bound they were built for (a
//! stale, looser table is still exact; a table never serves a bound
//! above its own). A plan with a different LUT drops them. The byte
//! shuffle is AVX2 on the AVX2 tier and AVX-512BW on the AVX-512 tier;
//! each plan records at compile time, beside its tier, whether it runs
//! the prefilter, so an AVX-512F host without BW keeps the `f32` sweep
//! alone. Top-k, full outcomes, the plane plans and the scalar tier
//! never prefilter.
//!
//! ## Self-seeded sweep
//!
//! A bound only saves work once it is tight, and in an ascending sweep
//! it becomes tight only when the sweep reaches the winner's bank,
//! halfway through on average. So before the full sweep, the batched
//! winner kernel gives every query a seed of its own, with the
//! product-quantization "scan, then re-rank" pattern of the same paper:
//!
//! - **Fixed tables.** Each plan quantizes its `f32` LUT once, at
//!   compile time, into the prefilter's `u8` byte-shuffle tables. The
//!   unit comes from the LUT, not from any bound: its *one-step cost* is
//!   the smallest gap between a LUT row's minimum and another entry of
//!   that row, and the tables are quantized for a bound of 64 such
//!   steps, so a byte unit is just over half a step and no step floors
//!   to zero. On the default device LUT a cell costs 0 units when it
//!   matches, 2 one level off, 18 two off and 122 three off. A LUT with
//!   no such gap (one value everywhere) gets no tables and no pass.
//! - **Scan.** Bank by bank in ascending order, so each bank's prefix
//!   columns are read once per worker's query group, every whole byte
//!   vector of rows (64 on AVX-512BW, 32 on AVX2) folds its first 16
//!   columns per query: one byte shuffle and one saturating add (a `max`
//!   for L∞) per column. Each query keeps the lowest byte sum and the
//!   first row that has it, in ascending global row order. Rows past a
//!   bank's last whole vector are never candidates.
//! - **Re-rank.** A bank that improved a query's candidate scores that
//!   row exactly with a scalar fold of the `f32` LUT entries in
//!   ascending column order from `0.0`. Those are the IEEE operations
//!   the vector sweep performs on that row, in the same order, so the
//!   result is the row's sweep score bit for bit.
//! - **Seed.** The candidate's score is the query's *seed*: the full
//!   sweep then runs as usual over every bank in ascending order, but
//!   the query's bound starts at `f32::next_up(seed)` rather than `+∞`,
//!   and the abandon check and prefilter do the rest. A candidate whose
//!   prefix costs 32 units or more (about a step per cell) is no
//!   near-duplicate and seeds nothing: its score would be looser than
//!   the bound the sweep finds in its first register block, and the
//!   prefilter tables built for a loose seed stay loose until the bound
//!   halves, so on uniform random queries over the device LUT such a
//!   seed made the sweep slower than no seed at all. There the pass is
//!   pure overhead, one 16-column byte scan per row.
//!
//! The answer stays the unseeded sweep's, bit for bit:
//!
//! - The seed is the exact score of a real row, so the true first
//!   minimum scores `<= seed`, below the bound: it is never abandoned
//!   and is always taken. Codes scores are `f32` widened to `f64`, so
//!   `next_up` admits exactly the rows scoring `<= seed` and no others.
//! - Ties still go to the lowest global row. The candidate is not
//!   carried in as the answer: its slot keeps the row but the bound
//!   score, so the sweep scores that row again like any other and the
//!   slot always ends on a row the sweep took itself. The sweep visits
//!   banks in ascending order, and the abandon and prefilter checks
//!   stay a strict `>`.
//! - A wrong candidate (a row that matches the query on its prefix but
//!   not on its tail, say) only costs work.
//!
//! The one obligation the pass adds is that the scalar re-rank equals
//! the vector fold bit for bit, which the tests pin against the `f32`
//! planes.
//!
//! The pass runs only on plans that bound their winners and run the
//! prefilter; the routed re-rank, top-k, full outcomes, the plane
//! plans, the scalar tier and `f64` never run it.
//!
//! Callers pick a mode either statically (`CompiledMcam::<f32>`,
//! [`CompiledCodes`]) or at run time through the [`Precision`] knob on
//! the cached-plan entry points ([`McamArray::search_batch_with`],
//! [`crate::engines::McamNn::set_precision`]).
//!
//! # Metric modes
//!
//! Beside [`Precision`], every compiled plan carries a [`Metric`]: the
//! distance semantics its per-cell values encode. The kernel is always
//! "fold a per-cell value over the row", so a metric is nothing more
//! than a different value table plus (for L∞) a different fold:
//!
//! * **[`Metric::McamConductance`]** (the default) folds the device
//!   LUT's conductances with `+` — the paper's analog distance, the
//!   only metric that sees device variation.
//! * **[`Metric::L1`]** synthesizes a *distance-valued* table from the
//!   level ladder — `|input − state|` per cell — and sums it: exact
//!   digital Manhattan distance in level space.
//! * **[`Metric::Hamming`]** synthesizes `0/1` per cell (mismatch
//!   counting) and sums it.
//! * **[`Metric::Linf`]** synthesizes `|input − state|` and folds it
//!   with `max` instead of `+` — the one metric that exercises the
//!   generalized reduce strategy of the block kernels (every
//!   accumulate loop, scalar, AVX2 and AVX-512 alike, is monomorphized
//!   over Sum/Max at dispatch time).
//!
//! "Smaller score = nearer" stays the universal contract: synthesized
//! tables hold distances, so argmin, bounded-heap top-k, and the banked
//! winner merges work unchanged across metrics. All synthesized values
//! are non-negative, so `0` is a valid fold identity for both Sum and
//! Max. Synthesized metrics are *digital* — they read stored level
//! codes, never realized conductances — so they are exact under device
//! variation too, and [`Precision::Codes`] packs them even on per-cell
//! banks (only [`Metric::McamConductance`] needs the `f32` plane
//! fallback there). Per metric, the same bit-identity ladder holds as
//! for precisions: `f64` plans match the scalar per-metric oracle
//! ([`McamArray::search_metric`]) bit-for-bit, codes match `f32`
//! planes bit-for-bit (`tests/metric_props.rs` pins both).
//!
//! The [`PlanCache`] keys its slots by `(precision, metric)`, so mixed
//! metric traffic against one array caches one plan per combination and
//! every mutation invalidates them all.
//!
//! # Cached, auto-recompiling plans
//!
//! A plan is a snapshot of the array contents at compile time. So that
//! callers get compiled speed without managing snapshots, every
//! [`McamArray`] (and, per bank, every [`crate::banked::BankedMcam`])
//! owns a [`PlanCache`]: the first search through a cached entry point
//! compiles and stores the plan (one slot per precision), and any
//! mutation ([`McamArray::store`]) invalidates the cache so the next
//! search transparently recompiles against the new contents. A banked
//! memory invalidates only the bank that changed.
//!
//! # Determinism guarantee
//!
//! Per row, the scalar path folds cell conductances in ascending column
//! order starting from `0.0`; the compiled path accumulates plane
//! columns in exactly the same ascending column order (row panels tile
//! the row axis, never the column axis). Floating-point addition
//! happens in an identical sequence, so compiled `f64` results are
//! **bit-identical** to [`McamArray::search`]. Parallel execution
//! ([`CompiledMcam::search_batch`], [`CompiledBanked`]) shards only
//! across queries and banks — never within one row's fold (a lone
//! query is a batch of one, on one worker) — and every reduction is a
//! fixed-order fold over results reassembled in input order
//! ([`crate::par`]), so parallel execution is bit-identical too, at any
//! thread count. The property tests in `tests/batch_parallel_props.rs`
//! assert this. The same sequencing holds in `f32` mode (the fold is
//! identical, just in `f32`), so `f32` results are deterministic and
//! thread-count independent as well.
//!
//! # Bank-mask contract
//!
//! The banked winner driver (`banked_winner_batch_kernel`) never
//! assumes it is sweeping every bank: each per-bank kernel arrives
//! paired with the **global base row** of that bank, and a winner is
//! always reported as `base + local`. A full sweep is just the
//! instantiation whose bases are `[0, rows_per_bank, 2·rows_per_bank,
//! ..]`; a masked sweep — the `banks` of a [`SearchSpec`], which is
//! how the router's re-rank (see [`crate::router`]) and a degraded
//! server search — passes the same kernels for a *subset* of banks,
//! in ascending bank order, with each bank's true base.
//!
//! Because the merge is the same fixed-order fold either way, a masked
//! sweep obeys the full-sweep contract restricted to its subset: per
//! query, the winner is the row a sequential scan of exactly the masked
//! banks would report, conductances are bit-identical to the full sweep
//! (each bank's fold never sees the mask), and exact ties still resolve
//! to the lowest global row *within the mask*. A mask that covers every
//! bank is therefore bit-identical to the unmasked search — the
//! property `tests/routing_props.rs` pins across all precisions.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, PoisonError};

use crate::sync::{Mutex, MutexGuard};

use crate::array::{McamArray, SearchOutcome};
use crate::error::CoreError;
use crate::par;
use crate::Result;

/// Runtime selector for the plan element type (see the
/// [module-level "Precision modes"](self#precision-modes)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Precision {
    /// `f64` planes and accumulators — bit-identical to the scalar
    /// reference path. The default.
    #[default]
    F64,
    /// `f32` planes and accumulators — roughly 2× faster on the
    /// bandwidth-bound kernel, with the documented accuracy contract.
    F32,
    /// Byte-packed level codes plus the shared `f32` LUT — the
    /// lowest-bandwidth mode: bit-identical to [`Precision::F32`] on
    /// shared-LUT arrays, transparent `f32` plane fallback under device
    /// variation (see the
    /// [module-level "Codes mode"](self#codes-mode)).
    Codes,
}

impl Precision {
    /// Short lowercase name (`"f64"` / `"f32"` / `"codes"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::Codes => "codes",
        }
    }

    /// Engine-name suffix: empty for the default [`Precision::F64`],
    /// `"-f32"` / `"-codes"` for the opt-in modes — the single
    /// definition every engine/backend report name appends.
    #[must_use]
    pub fn name_suffix(self) -> &'static str {
        match self {
            Precision::F64 => "",
            Precision::F32 => "-f32",
            Precision::Codes => "-codes",
        }
    }
}

/// Number of [`Metric`] variants — the per-metric slot count of a
/// [`PlanCache`].
pub const N_METRICS: usize = 4;

/// Runtime selector for the distance semantics of a compiled plan (see
/// the [module-level "Metric modes"](self#metric-modes)).
///
/// Orthogonal to [`Precision`]: every `(precision, metric)` combination
/// compiles, caches, and searches independently. "Smaller score =
/// nearer" holds for every metric — non-default metrics fold
/// *distance-valued* tables synthesized from the level ladder, so the
/// winner/top-k machinery is metric-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Metric {
    /// The paper's analog distance: fold the device LUT's conductances
    /// with `+`. The default, and the only metric that sees device
    /// variation.
    #[default]
    McamConductance,
    /// Digital Manhattan distance in level space: sum of
    /// `|input − state|` per cell.
    L1,
    /// Digital Chebyshev distance: `max` of `|input − state|` per cell
    /// — the max-fold metric.
    Linf,
    /// Mismatch count: sum of `0/1` per cell.
    Hamming,
}

impl Metric {
    /// Every metric, in [`index`](Self::index) order.
    pub const ALL: [Metric; N_METRICS] = [
        Metric::McamConductance,
        Metric::L1,
        Metric::Linf,
        Metric::Hamming,
    ];

    /// Short lowercase name (`"mcam"` / `"l1"` / `"linf"` /
    /// `"hamming"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Metric::McamConductance => "mcam",
            Metric::L1 => "l1",
            Metric::Linf => "linf",
            Metric::Hamming => "hamming",
        }
    }

    /// Engine-name suffix: empty for the default, `"-l1"` / `"-linf"`
    /// / `"-hamming"` for the opt-in metrics — the single definition
    /// every engine/backend report name appends (mirroring
    /// [`Precision::name_suffix`]).
    #[must_use]
    pub fn name_suffix(self) -> &'static str {
        match self {
            Metric::McamConductance => "",
            Metric::L1 => "-l1",
            Metric::Linf => "-linf",
            Metric::Hamming => "-hamming",
        }
    }

    /// The dense `0..N_METRICS` index of this metric — the
    /// [`PlanCache`] slot it compiles into, and a stable key for
    /// per-metric tables (the serving layer groups micro-batch windows
    /// with it). [`Metric::ALL`]`[m.index()] == m`.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Metric::McamConductance => 0,
            Metric::L1 => 1,
            Metric::Linf => 2,
            Metric::Hamming => 3,
        }
    }

    /// Whether this metric folds per-cell values with `max` instead of
    /// `+` (only [`Metric::Linf`]).
    #[must_use]
    pub fn is_max_fold(self) -> bool {
        matches!(self, Metric::Linf)
    }

    /// The synthesized per-cell distance of a *digital* metric for an
    /// `(input, state)` level pair. Never called for the default
    /// metric, whose values come from the device LUT (or the realized
    /// per-cell bank) instead.
    pub(crate) fn level_distance(self, input: u8, state: u8) -> f64 {
        match self {
            Metric::McamConductance => {
                unreachable!("the conductance metric reads the device LUT")
            }
            Metric::L1 | Metric::Linf => (f64::from(input) - f64::from(state)).abs(),
            Metric::Hamming => {
                if input == state {
                    0.0
                } else {
                    1.0
                }
            }
        }
    }
}

/// What a search asks for beside its queries, set per search: the plan
/// [`Precision`], the [`Metric`] and an optional bank mask. Flat
/// ([`McamArray`]), banked ([`crate::banked::BankedMcam`]) and routed
/// ([`crate::router::RoutedMcam`]) memories all take it. [`Default`] is
/// the plain search: `f64`, the MCAM conductance metric, every bank. A
/// bare [`Precision`] converts into that spec at that precision.
///
/// `banks` are global bank indices. A mask must be strictly ascending
/// and name at least one existing bank; it changes the answer (the
/// winner within those banks). Only a banked memory takes one: a flat
/// array has no banks, and a routed memory picks its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchSpec<'a> {
    /// Plan element type (see the
    /// [module-level "Precision modes"](self#precision-modes)).
    pub precision: Precision,
    /// Distance semantics (see the
    /// [module-level "Metric modes"](self#metric-modes)).
    pub metric: Metric,
    /// Banks to search, strictly ascending; `None` searches every bank.
    pub banks: Option<&'a [usize]>,
}

impl From<Precision> for SearchSpec<'_> {
    fn from(precision: Precision) -> Self {
        SearchSpec {
            precision,
            ..SearchSpec::default()
        }
    }
}

/// Cold-cache amortization threshold for [`Precision::Codes`]: the
/// batch size from which compiling a packed-code plan pays for itself.
///
/// Compiling costs one pass over the stored cells (a byte write per
/// cell) plus an `n_levels × n_levels` LUT round-trip — about the cost
/// of ONE scalar query over the same cells — so a single query already
/// amortizes it. This is why the codes entry points compile eagerly, in
/// contrast to the cached `f64` path whose compile costs `n_levels`
/// full plane fills (hence its `n_levels`-query threshold before a cold
/// cache stops falling back to the scalar path).
///
/// This constant *documents* that decision (and is pinned by tests); a
/// threshold of 1 means "always compile", which the entry points
/// implement by compiling unconditionally — editing this value alone
/// changes nothing without also gating
/// [`McamArray::compiled_codes`](crate::McamArray::compiled_codes).
pub const CODES_COMPILE_THRESHOLD: usize = 1;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// Element type of a compiled plan: the scalar the conductance planes
/// are stored in and the match-line accumulators fold in.
///
/// Implemented for `f64` (bit-identical reference) and `f32` (fast
/// mode); sealed — the two modes are a deliberate, documented contract,
/// not an extension point.
pub trait PlaneScalar:
    Copy + PartialOrd + Send + Sync + std::fmt::Debug + sealed::Sealed + 'static
{
    /// The additive identity the per-row fold starts from.
    const ZERO: Self;
    /// The runtime tag for this scalar.
    const PRECISION: Precision;

    /// Rounds an `f64` conductance into this scalar (plane
    /// compilation).
    fn from_f64(v: f64) -> Self;
    /// Widens back to `f64` for reporting (exact for both impls).
    fn to_f64(self) -> f64;
    /// Addition in this precision (the determinism-critical fold step).
    fn add(self, rhs: Self) -> Self;
    /// Maximum in this precision (the [`Metric::Linf`] fold step). Plan
    /// values are non-negative and finite, so the plain `>` maximum is
    /// well defined and `ZERO` is its identity.
    fn max(self, rhs: Self) -> Self;

    /// The Sum/Max reduce the accumulate kernels monomorphize over:
    /// `MAX` selects the fold at compile time, so the inner loops carry
    /// no per-element branch.
    #[inline(always)]
    fn fold<const MAX: bool>(self, rhs: Self) -> Self {
        if MAX {
            self.max(rhs)
        } else {
            self.add(rhs)
        }
    }

    /// The per-metric cache slots for this precision inside a
    /// [`PlanCache`].
    #[doc(hidden)]
    fn plan_slot(cache: &PlanCache) -> &Mutex<[Option<Arc<CompiledMcam<Self>>>; N_METRICS]>
    where
        Self: Sized;
}

impl PlaneScalar for f64 {
    const ZERO: Self = 0.0;
    const PRECISION: Precision = Precision::F64;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        if rhs > self {
            rhs
        } else {
            self
        }
    }

    fn plan_slot(cache: &PlanCache) -> &Mutex<[Option<Arc<CompiledMcam<Self>>>; N_METRICS]> {
        &cache.f64_plans
    }
}

impl PlaneScalar for f32 {
    const ZERO: Self = 0.0;
    const PRECISION: Precision = Precision::F32;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        if rhs > self {
            rhs
        } else {
            self
        }
    }

    fn plan_slot(cache: &PlanCache) -> &Mutex<[Option<Arc<CompiledMcam<Self>>>; N_METRICS]> {
        &cache.f32_plans
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Interior-mutable cache of compiled plans for one array: one slot per
/// `(`[`Precision`]`, `[`Metric`]`)` combination, filled lazily on
/// first use and cleared by [`invalidate`](Self::invalidate) when the
/// array mutates (the dirty-flag half of auto-recompilation — an empty
/// slot *is* the dirty flag).
#[derive(Debug)]
pub struct PlanCache {
    f64_plans: Mutex<[Option<Arc<CompiledMcam<f64>>>; N_METRICS]>,
    f32_plans: Mutex<[Option<Arc<CompiledMcam<f32>>>; N_METRICS]>,
    codes_plans: Mutex<[Option<Arc<CompiledCodes>>; N_METRICS]>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache {
            f64_plans: Mutex::new("core.plan_cache.f64", Default::default()),
            f32_plans: Mutex::new("core.plan_cache.f32", Default::default()),
            codes_plans: Mutex::new("core.plan_cache.codes", Default::default()),
        }
    }
}

impl PlanCache {
    /// Returns the cached plan for `S` at `metric`, compiling and
    /// caching it from `array` on a miss.
    ///
    /// # Errors
    ///
    /// Propagates [`CompiledMcam::compile_metric`] failures (the slot
    /// stays empty).
    pub fn get_or_compile<S: PlaneScalar>(
        &self,
        array: &McamArray,
        metric: Metric,
    ) -> Result<Arc<CompiledMcam<S>>> {
        let mut slots = lock(S::plan_slot(self));
        if let Some(plan) = slots[metric.index()].as_ref() {
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(CompiledMcam::<S>::compile_metric(array, metric)?);
        slots[metric.index()] = Some(Arc::clone(&plan));
        Ok(plan)
    }

    /// The cached plan for `S` at `metric` if one is currently
    /// compiled, without compiling on a miss (lets callers amortize:
    /// skip plan construction for workloads too small to pay for it).
    pub fn cached<S: PlaneScalar>(&self, metric: Metric) -> Option<Arc<CompiledMcam<S>>> {
        lock(S::plan_slot(self))[metric.index()]
            .as_ref()
            .map(Arc::clone)
    }

    /// The codes-mode execution engine for `array` at `metric`,
    /// compiling and caching on a miss. This is where the codes-mode
    /// dispatch lives: packable `(array, metric)` pairs get the
    /// packed-code plan (cached in the codes slot); the conductance
    /// metric on per-cell (variation) arrays transparently falls back
    /// to the cached `f32` plane plan — see the
    /// [module-level "Codes mode"](self#codes-mode). Synthesized
    /// (digital) metrics always pack.
    ///
    /// # Errors
    ///
    /// Propagates compile failures (the slot stays empty).
    pub fn get_or_compile_codes(&self, array: &McamArray, metric: Metric) -> Result<CodesDispatch> {
        if metric == Metric::McamConductance && array.has_per_cell_bank() {
            return Ok(CodesDispatch::Planes(
                self.get_or_compile::<f32>(array, metric)?,
            ));
        }
        let mut slots = lock(&self.codes_plans);
        if let Some(plan) = slots[metric.index()].as_ref() {
            return Ok(CodesDispatch::Packed(Arc::clone(plan)));
        }
        let plan = Arc::new(CompiledCodes::compile_metric(array, metric)?);
        slots[metric.index()] = Some(Arc::clone(&plan));
        Ok(CodesDispatch::Packed(plan))
    }

    /// The cached packed-code plan at `metric` if one is currently
    /// compiled, without compiling on a miss.
    pub fn cached_codes(&self, metric: Metric) -> Option<Arc<CompiledCodes>> {
        lock(&self.codes_plans)[metric.index()]
            .as_ref()
            .map(Arc::clone)
    }

    /// Resident bytes of each cached plan slot, summed across metrics
    /// per precision (0 = every slot of that precision cold) — the
    /// introspection behind [`McamArray::plan_memory_bytes`].
    #[must_use]
    pub fn memory_bytes(&self) -> PlanMemoryBytes {
        fn sum_planes<S: PlaneScalar>(slots: &[Option<Arc<CompiledMcam<S>>>; N_METRICS]) -> usize {
            slots
                .iter()
                .map(|s| s.as_ref().map_or(0, |p| p.plan_bytes()))
                .sum()
        }
        PlanMemoryBytes {
            f64_plane: sum_planes(&lock(&self.f64_plans)),
            f32_plane: sum_planes(&lock(&self.f32_plans)),
            codes: lock(&self.codes_plans)
                .iter()
                .map(|s| s.as_ref().map_or(0, |p| p.plan_bytes()))
                .sum(),
        }
    }

    /// Drops every cached plan (all precisions, all metrics); the next
    /// search recompiles.
    pub fn invalidate(&mut self) {
        *self
            .f64_plans
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = Default::default();
        *self
            .f32_plans
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = Default::default();
        *self
            .codes_plans
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = Default::default();
    }
}

/// Resident bytes of an array's cached compiled plans, one field per
/// [`PlanCache`] slot (0 = slot empty / never compiled). Serving-layer
/// backpressure can budget node memory against
/// [`total`](Self::total); the per-slot split shows what switching
/// modes buys (codes plans are `n_levels × size_of::<f64>()` ≈ 64×
/// smaller than `f64` planes on the 3-bit ladder).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PlanMemoryBytes {
    /// Bytes held by the cached `f64` plane plan.
    pub f64_plane: usize,
    /// Bytes held by the cached `f32` plane plan.
    pub f32_plane: usize,
    /// Bytes held by the cached packed-code plan (codes + `f32` LUT).
    pub codes: usize,
}

impl PlanMemoryBytes {
    /// Total resident plan bytes across all slots.
    #[must_use]
    pub fn total(&self) -> usize {
        self.f64_plane + self.f32_plane + self.codes
    }
}

impl std::ops::AddAssign for PlanMemoryBytes {
    fn add_assign(&mut self, rhs: Self) {
        self.f64_plane += rhs.f64_plane;
        self.f32_plane += rhs.f32_plane;
        self.codes += rhs.codes;
    }
}

/// Per-worker reusable storage for the batched kernels: the block
/// accumulator panel plus bounded-heap top-k scratch. One scratch lives
/// for a worker's whole query group, so the per-query hot path
/// allocates nothing (results excepted — they are the output).
#[derive(Debug)]
pub(crate) struct BatchScratch<S> {
    acc: Vec<S>,
    /// Kernel-private auxiliary slab (the codes kernel's per-block
    /// level-expansion panel or widened index slab, which the bounded
    /// winner sweep reuses across banks); plane kernels leave it
    /// empty.
    aux: Vec<S>,
    heap: BinaryHeap<(TotalF64, usize)>,
    sorted: Vec<(TotalF64, usize)>,
    /// The bounded codes sweep's fast-scan tables, one per query
    /// position in the worker's group; other kernels leave it empty.
    fast: FastScan,
}

impl<S: PlaneScalar> BatchScratch<S> {
    fn new() -> Self {
        BatchScratch {
            acc: Vec::new(),
            aux: Vec::new(),
            heap: BinaryHeap::new(),
            sorted: Vec::new(),
            fast: FastScan::default(),
        }
    }
}

/// Bound units in a fast-scan table: a row whose saturated `u8` sum is
/// above this many units provably scores above the bound (the
/// module-level ["Fast-scan prefilter"](self#fast-scan-prefilter)).
const FAST_SCAN_UNITS: f64 = 128.0;

/// Relative margin the fast-scan unit adds to the bound: it covers the
/// `f32` rounding of a row's sum.
const FAST_SCAN_MARGIN: f64 = 1.0 / 65536.0;

/// One query's fast-scan tables: the plan's `f32` LUT floor-quantized
/// to `u8` units of `bound · (1 + FAST_SCAN_MARGIN) / FAST_SCAN_UNITS`,
/// saturating at 255, one 16-byte byte-shuffle row per input level.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct ByteTables {
    /// The bound the tables were quantized for; `0.0` before the first
    /// build.
    bound: f32,
    /// `[input][state]` units; entries past `n_levels` stay 0.
    rows: [[u8; 16]; 8],
}

#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
impl ByteTables {
    const NONE: Self = ByteTables {
        bound: 0.0,
        rows: [[0; 16]; 8],
    };

    /// Requantizes `lut` (8-entry rows) for `bound`, finite and `> 0`.
    fn quantize(&mut self, lut: &[f32], bound: f32) {
        let scale = FAST_SCAN_UNITS / (f64::from(bound) * (1.0 + FAST_SCAN_MARGIN));
        for (units, row) in self.rows.iter_mut().zip(lut.chunks_exact(8)) {
            for (unit, &v) in units.iter_mut().zip(row) {
                // `as` truncates, the floor of a value `>= 0`, and
                // saturates at 255.
                *unit = (f64::from(v) * scale) as u8;
            }
        }
        self.bound = bound;
    }

    /// Whether the tables still serve `bound`: quantized for a bound at
    /// least as large (so exact), and at most twice as large (so still
    /// tight).
    fn serves(&self, bound: f32) -> bool {
        bound <= self.bound && bound >= 0.5 * self.bound
    }
}

/// A worker's fast-scan state: the LUT its tables quantize and one
/// [`ByteTables`] per query position in the worker's group, built
/// lazily by the bounded sweep and kept across banks.
#[derive(Debug, Default)]
struct FastScan {
    lut: Vec<f32>,
    tables: Vec<ByteTables>,
}

impl FastScan {
    /// Readies a table for each of the query positions `ids` against a
    /// plan over `lut`. A plan with another LUT drops every table.
    fn prepare(&mut self, lut: &[f32], ids: &[usize]) {
        if self.lut != lut {
            self.lut.clear();
            self.lut.extend_from_slice(lut);
            self.tables.fill(ByteTables::NONE);
        }
        let need = ids.iter().max().map_or(0, |&id| id + 1);
        if self.tables.len() < need {
            self.tables.resize(need, ByteTables::NONE);
        }
    }
}

/// Validates one query against an array geometry of `word_len` cells
/// and `n_levels` input levels — the single definition every kernel's
/// `check_query` delegates to, public so admission-time validators
/// (e.g. a serving front end via
/// [`crate::banked::BankedMcam::check_query`]) reject malformed
/// requests with exactly the errors a search would report.
///
/// # Errors
///
/// [`CoreError::WordLengthMismatch`] for a wrong-length query,
/// [`CoreError::LevelOutOfRange`] for a level `>= n_levels`.
pub fn validate_query(word_len: usize, n_levels: usize, query: &[u8]) -> Result<()> {
    if query.len() != word_len {
        return Err(CoreError::WordLengthMismatch {
            expected: word_len,
            actual: query.len(),
        });
    }
    for &q in query {
        if q as usize >= n_levels {
            return Err(CoreError::LevelOutOfRange {
                level: q,
                max: (n_levels - 1) as u8,
            });
        }
    }
    Ok(())
}

/// A query plan: the read-only, plane-major execution image of one
/// [`McamArray`] (see the [module docs](self) for the layout), with
/// planes and accumulators in `S` (see
/// ["Precision modes"](self#precision-modes)).
///
/// Compiling costs `n_levels × word_len × n_rows` LUT reads and the
/// same amount of memory; it pays for itself once a handful of queries
/// run against the same stored contents. The plan is a snapshot —
/// rows stored after [`compile`](Self::compile) are not visible to it.
/// Prefer the cached entry points on [`McamArray`]
/// ([`search_batch_with`](McamArray::search_batch_with)) unless you
/// need an explicit snapshot.
///
/// # Examples
///
/// ```
/// use femcam_core::{CompiledMcam, ConductanceLut, LevelLadder, McamArray};
/// use femcam_device::FefetModel;
///
/// # fn main() -> femcam_core::Result<()> {
/// let ladder = LevelLadder::new(3)?;
/// let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
/// let mut array = McamArray::new(ladder, lut, 4);
/// array.store(&[0, 3, 7, 1])?;
/// array.store(&[5, 5, 5, 5])?;
/// let query: &[u8] = &[0, 3, 7, 1];
/// let plan: CompiledMcam = CompiledMcam::compile(&array)?;
/// // One query is a batch of one; the second argument caps the workers.
/// let exact = plan.search_batch(&[query], 1)?;
/// assert_eq!(exact[0], array.search(query)?); // bit-identical
/// // Opt-in fast mode: f32 planes, ~2x on the bandwidth-bound kernel.
/// let fast = CompiledMcam::<f32>::compile(&array)?;
/// assert_eq!(fast.search_batch(&[query], 1)?[0].best_row(), exact[0].best_row());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledMcam<S: PlaneScalar = f64> {
    n_rows: usize,
    word_len: usize,
    n_levels: usize,
    /// The distance semantics the planes encode (and, for
    /// [`Metric::Linf`], the max fold the accumulators run).
    metric: Metric,
    /// `[input][column][row]`, rows contiguous.
    planes: Vec<S>,
}

/// Bytes of one plane-column row panel; sized so a panel slice stays
/// L1-resident while it serves every query in a block.
const ROW_TILE_BYTES: usize = 16 * 1024;

/// Accumulator budget per block: `block_len × row_tile` accumulators
/// stay within a comfortable slice of L2 alongside the plane panels.
const ACC_BUDGET_BYTES: usize = 256 * 1024;

/// Budget for the codes kernel's per-tile expansion slab
/// (`word_len × n_levels × row_tile` f32): the on-the-fly tile plane
/// every query in a block reads from. Sized to sit in L2 — the point of
/// the codes mode is that this slab is rebuilt from 1-byte codes per
/// tile instead of streamed from an `n_levels`-times-larger resident
/// plan.
const CODES_EXPAND_BUDGET_BYTES: usize = 512 * 1024;

/// Rows per register-blocked sub-tile of the codes serve loop: the
/// running sums fit in the vector register file, so the column sweep
/// never spills the accumulator.
const SERVE_SUB: usize = 32;

/// Running-sum registers of the vector codes serve loop: a row's fold
/// must stay one serial chain of `f32` adds (bit-identity forbids
/// splitting it), so throughput comes from keeping this many
/// independent row vectors in flight — enough to hide FP-add latency.
/// One register block covers `SERVE_REGS × lanes` rows (64 on AVX2,
/// 128 on AVX-512).
const SERVE_REGS: usize = 8;

/// Lanes of the widest codes vector tier (AVX-512): the size of the
/// vector kernels' padded-code and lane buffers.
#[cfg(target_arch = "x86_64")]
const MAX_LANES: usize = 16;

/// Columns the bounded winner sweep scores between abandon checks, and
/// the granularity at which it widens a tile's codes.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const ABANDON_CHUNK: usize = 8;

/// Columns the fast-scan prefilter scores before its first check; it
/// checks once more at twice as many.
#[cfg(target_arch = "x86_64")]
const FAST_SCAN_CHECK: usize = 8;

/// Prefix columns the self-seeding candidate pass folds per row (the
/// module-level ["Self-seeded sweep"](self#self-seeded-sweep)).
const CANDIDATE_COLUMNS: usize = 16;

/// Byte vectors the candidate pass folds together per query: one table
/// load per column serves them all, and their sums are independent
/// dependency chains.
#[cfg(target_arch = "x86_64")]
const CANDIDATE_BLOCK: usize = 4;

/// Widest word the fast-scan prefilter serves: up to this many cells,
/// the 129th unit of the rejection threshold alone covers the `f32`
/// rounding of a row's sum.
const FAST_SCAN_MAX_WORD: usize = 4096;

/// One widened row tile of the vector codes kernels: rows
/// `t0..t0 + tlen`, whose permute indices for column `c` sit at
/// `idx[c * stride..]`, filled for columns `..widened`.
#[cfg(target_arch = "x86_64")]
struct LaneTile {
    t0: usize,
    tlen: usize,
    stride: usize,
    idx: *mut i32,
    widened: usize,
}

/// The vector kernels' dword index slab: `aux`, grown to `len` entries
/// and viewed as `i32` (`f32` and `i32` share size and alignment).
#[cfg(target_arch = "x86_64")]
fn index_slab(aux: &mut Vec<f32>, len: usize) -> *mut i32 {
    if aux.len() < len {
        aux.resize(len, 0.0);
    }
    aux.as_mut_ptr().cast::<i32>()
}

/// `src` (shorter than [`MAX_LANES`]) copied into a zero-padded lane
/// buffer by at most four fixed-size moves: a variable-length
/// `copy_from_slice` compiles to a `memcpy` call, paid per column per
/// tile on every bank whose row count is not a whole number of vectors.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn zero_padded(src: &[u8]) -> [u8; MAX_LANES] {
    debug_assert!(src.len() < MAX_LANES);
    let mut padded = [0u8; MAX_LANES];
    let mut at = 0;
    for width in [8, 4, 2, 1] {
        if src.len() & width != 0 {
            padded[at..at + width].copy_from_slice(&src[at..at + width]);
            at += width;
        }
    }
    padded
}

/// The first lane, in ascending row order, holding the minimum of
/// `sums` and its stored value — if that minimum is strictly below
/// `bound`. The vector face of the first-minimum [`argmin`]: a `0.0`/
/// `-0.0` tie keeps the lower lane and its sign.
///
/// # Safety
///
/// `L`'s CPU features.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// SAFETY: register work plus one store into a `MAX_LANES` buffer, which
// holds `L::WIDTH` lanes.
unsafe fn first_below<L: CodeLanes, const R: usize>(
    sums: &[L::Ps; R],
    bound: f32,
) -> Option<(usize, f32)> {
    let low = sums[1..].iter().fold(sums[0], |m, &s| L::min(m, s));
    if L::gt_mask(L::splat(bound), low) == 0 {
        return None;
    }
    let min = L::splat(L::hmin(low));
    for (j, &sum) in sums.iter().enumerate() {
        let hits = L::eq_mask(sum, min);
        if hits != 0 {
            let lane = hits.trailing_zeros() as usize;
            let mut lanes = [0.0f32; MAX_LANES];
            L::store(lanes.as_mut_ptr(), sum);
            return Some((j * L::WIDTH + lane, lanes[lane]));
        }
    }
    None
}

#[cfg(test)]
thread_local! {
    /// Vector-columns the bounded sweep scored on this thread, the
    /// vector-columns a full sweep of the same rows would have scored,
    /// and the row vectors the fast-scan prefilter rejected unscored.
    /// The self-seeding candidate pass counts in both of the first two,
    /// as work nothing abandons: one byte vector-column per column
    /// folded, and `word_len` for each row it re-ranks.
    static BOUNDED_WORK: std::cell::Cell<(u64, u64, u64)> =
        const { std::cell::Cell::new((0, 0, 0)) };
}

/// Counts the work of one register block of the bounded sweep (tests
/// read it back; other builds compile it away).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[inline(always)]
fn tally_bounded_work(scored: usize, nominal: usize, rejected: usize) {
    #[cfg(test)]
    BOUNDED_WORK.with(|work| {
        let (s, n, r) = work.get();
        work.set((s + scored as u64, n + nominal as u64, r + rejected as u64));
    });
    #[cfg(not(test))]
    let _ = (scored, nominal, rejected);
}

/// The vector width the codes block kernel runs at, picked once per
/// plan when it compiles ([`CodesTier::detect`]) and stored in it, so
/// the accumulate calls never re-run CPU feature detection. The vector
/// tiers hold the whole (padded) LUT row in one 8-lane register, so
/// they serve ladders up to 3 bits — the paper's headline
/// configuration; wider ladders run the scalar tier on any host.
///
/// Every tier folds each row in the same ascending column order over
/// the same `f32` LUT roundings, so all three are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CodesTier {
    /// The portable two-phase expand/serve kernel.
    Scalar,
    /// One `vpermps` looks up 8 stored cells (AVX2).
    Avx2,
    /// One `vpermps` looks up 16 stored cells (AVX-512F, over the
    /// zero-extended 8-entry LUT row). The ceiling is 16 cells per
    /// cycle, twice the AVX2 tier's.
    Avx512,
}

impl CodesTier {
    /// The fastest tier this host runs for LUT rows `lut_stride`
    /// entries wide.
    fn detect(lut_stride: usize) -> Self {
        if Self::Avx512.available(lut_stride) {
            Self::Avx512
        } else if Self::Avx2.available(lut_stride) {
            Self::Avx2
        } else {
            Self::Scalar
        }
    }

    /// Whether this host can run the tier on LUT rows `lut_stride`
    /// entries wide. The vector tiers' `unsafe` kernels rely on this:
    /// a plan holds a vector tier only when it returned `true`. The
    /// AVX-512 tier requires AVX2 too, because the single-query path
    /// runs the AVX2 kernel under either vector tier.
    fn available(self, lut_stride: usize) -> bool {
        match self {
            CodesTier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            CodesTier::Avx2 => lut_stride == 8 && std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            CodesTier::Avx512 => {
                lut_stride == 8
                    && std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("avx512f")
            }
            #[cfg(not(target_arch = "x86_64"))]
            CodesTier::Avx2 | CodesTier::Avx512 => false,
        }
    }

    /// Whether a plan holding this tier runs the fast-scan prefilter on
    /// `word_len`-cell words (the module-level
    /// ["Fast-scan prefilter"](self#fast-scan-prefilter)). The byte
    /// shuffle is AVX2 on the AVX2 tier but AVX-512BW on the AVX-512
    /// tier, so an AVX-512F host without BW keeps the `f32` sweep alone;
    /// the exactness margin covers words up to [`FAST_SCAN_MAX_WORD`]
    /// cells.
    fn fast_scan(self, word_len: usize) -> bool {
        word_len <= FAST_SCAN_MAX_WORD
            && match self {
                CodesTier::Scalar => false,
                #[cfg(target_arch = "x86_64")]
                CodesTier::Avx2 => true,
                #[cfg(target_arch = "x86_64")]
                CodesTier::Avx512 => std::arch::is_x86_feature_detected!("avx512bw"),
                #[cfg(not(target_arch = "x86_64"))]
                CodesTier::Avx2 | CodesTier::Avx512 => false,
            }
    }
}

/// One vector width of the codes kernel: the handful of operations the
/// serve loop ([`CompiledCodes::accumulate_block_lanes`]) is generic
/// over, so the AVX2 and AVX-512 tiers share one loop body. Every
/// method is `#[inline(always)]` with no `target_feature` of its own,
/// so it fuses into the tier's `target_feature` kernel.
///
/// # Safety
///
/// Every method requires the CPU features of its implementing tier
/// (callers are that tier's `target_feature` kernels) and pointers
/// valid for the bytes it reads or writes.
#[cfg(target_arch = "x86_64")]
trait CodeLanes {
    /// Rows (cells of one column) one permute scores.
    const WIDTH: usize;
    /// Bytes of one widened-index tile slab (`word_len × tile` dword
    /// indices): sized to stay L1-resident while every query in the
    /// block reads it back — 128 rows at `word_len` 64 on AVX-512.
    const IDX_SLAB_BYTES: usize;
    /// One vector of `WIDTH` `f32` lanes.
    type Ps: Copy;

    /// All lanes `0.0` (the identity of both folds).
    // SAFETY: contract in the trait docs (the tier's CPU features).
    unsafe fn zero() -> Self::Ps;
    /// The 8-entry LUT row at `row` (32 readable bytes) as a permute
    /// table.
    // SAFETY: contract in the trait docs (features, readable bytes).
    unsafe fn table(row: *const f32) -> Self::Ps;
    /// Widens `WIDTH` byte codes at `codes` to `WIDTH` dword indices
    /// at `dst`.
    // SAFETY: contract in the trait docs (features, valid pointers).
    unsafe fn widen(codes: *const u8, dst: *mut i32);
    /// Looks up `WIDTH` widened indices at `idx` in `table`.
    // SAFETY: contract in the trait docs (features, readable bytes).
    unsafe fn gather(table: Self::Ps, idx: *const i32) -> Self::Ps;
    /// The vector face of [`PlaneScalar::fold`]: Sum or Max across
    /// `WIDTH` lanes, selected at monomorphization time.
    // SAFETY: contract in the trait docs (the tier's CPU features).
    unsafe fn fold<const MAX: bool>(a: Self::Ps, b: Self::Ps) -> Self::Ps;
    /// Stores all `WIDTH` lanes at `dst`.
    // SAFETY: contract in the trait docs (features, writable bytes).
    unsafe fn store(dst: *mut f32, v: Self::Ps);
    /// `x` in every lane.
    // SAFETY: contract in the trait docs (the tier's CPU features).
    unsafe fn splat(x: f32) -> Self::Ps;
    /// Lane-wise minimum (the winner scan's and the abandon check's
    /// reduce; plan values are never NaN).
    // SAFETY: contract in the trait docs (the tier's CPU features).
    unsafe fn min(a: Self::Ps, b: Self::Ps) -> Self::Ps;
    /// The minimum across all `WIDTH` lanes.
    // SAFETY: contract in the trait docs (the tier's CPU features).
    unsafe fn hmin(a: Self::Ps) -> f32;
    /// Bit `i` set where lane `i` of `a` is strictly greater than lane
    /// `i` of `b` (ordered: a NaN lane compares false).
    // SAFETY: contract in the trait docs (the tier's CPU features).
    unsafe fn gt_mask(a: Self::Ps, b: Self::Ps) -> u32;
    /// Bit `i` set where lane `i` of `a` equals lane `i` of `b`.
    // SAFETY: contract in the trait docs (the tier's CPU features).
    unsafe fn eq_mask(a: Self::Ps, b: Self::Ps) -> u32;

    /// Rows one byte vector of the fast-scan prefilter covers: half a
    /// register block.
    const BYTES: usize;
    /// One vector of `BYTES` `u8` lanes (the prefilter's saturating
    /// row sums). The byte methods below need AVX-512BW on the AVX-512
    /// tier.
    type Pb: Copy;

    /// The 16-byte table row at `row` in every 128-bit lane.
    // SAFETY: contract in the trait docs (features, readable bytes).
    unsafe fn byte_table(row: *const u8) -> Self::Pb;
    /// All byte lanes `0`.
    // SAFETY: contract in the trait docs (the tier's CPU features).
    unsafe fn byte_zero() -> Self::Pb;
    /// Looks up `BYTES` codes (each `< 16`) at `codes` in `table`.
    // SAFETY: contract in the trait docs (features, readable bytes).
    unsafe fn byte_lookup(table: Self::Pb, codes: *const u8) -> Self::Pb;
    /// Saturating Sum or Max of unsigned bytes, selected at
    /// monomorphization time.
    // SAFETY: contract in the trait docs (the tier's CPU features).
    unsafe fn byte_fold<const MAX: bool>(a: Self::Pb, b: Self::Pb) -> Self::Pb;
    /// Lane-wise unsigned minimum.
    // SAFETY: contract in the trait docs (the tier's CPU features).
    unsafe fn byte_min(a: Self::Pb, b: Self::Pb) -> Self::Pb;
    /// Whether every byte lane is above [`FAST_SCAN_UNITS`] (128).
    // SAFETY: contract in the trait docs (the tier's CPU features).
    unsafe fn bytes_above_units(a: Self::Pb) -> bool;
    /// Bit `i` set where byte lane `i` is at most `limit` (unsigned).
    // SAFETY: contract in the trait docs (the tier's CPU features).
    unsafe fn bytes_at_most(a: Self::Pb, limit: u8) -> u64;
}

/// The AVX2 lanes: 8 cells per `vpermps`.
#[cfg(target_arch = "x86_64")]
struct Avx2Lanes;

/// The AVX-512 lanes: 16 cells per `vpermps`, over the 8-entry LUT row
/// zero-extended to 16 lanes (codes are `< 8`, so the upper half is
/// never selected).
#[cfg(target_arch = "x86_64")]
struct Avx512Lanes;

#[cfg(target_arch = "x86_64")]
impl CodeLanes for Avx2Lanes {
    const WIDTH: usize = 8;
    const IDX_SLAB_BYTES: usize = 16 * 1024;
    type Ps = std::arch::x86_64::__m256;

    // SAFETY: register-only; the caller has AVX2 (trait contract).
    #[inline(always)]
    unsafe fn zero() -> Self::Ps {
        std::arch::x86_64::_mm256_setzero_ps()
    }

    // SAFETY: reads the 32 bytes of one LUT row the caller provides.
    #[inline(always)]
    unsafe fn table(row: *const f32) -> Self::Ps {
        std::arch::x86_64::_mm256_loadu_ps(row)
    }

    // SAFETY: reads 8 codes and writes 8 dwords, as the caller provides.
    #[inline(always)]
    unsafe fn widen(codes: *const u8, dst: *mut i32) {
        use std::arch::x86_64::*;
        let idx = _mm256_cvtepu8_epi32(_mm_loadl_epi64(codes.cast()));
        _mm256_storeu_si256(dst.cast(), idx);
    }

    // SAFETY: reads the 8 dword indices the caller provides.
    #[inline(always)]
    unsafe fn gather(table: Self::Ps, idx: *const i32) -> Self::Ps {
        use std::arch::x86_64::*;
        _mm256_permutevar8x32_ps(table, _mm256_loadu_si256(idx.cast()))
    }

    // SAFETY: register-only; the caller has AVX2 (trait contract).
    #[inline(always)]
    unsafe fn fold<const MAX: bool>(a: Self::Ps, b: Self::Ps) -> Self::Ps {
        use std::arch::x86_64::*;
        if MAX {
            _mm256_max_ps(a, b)
        } else {
            _mm256_add_ps(a, b)
        }
    }

    // SAFETY: writes the 8 lanes the caller provides room for.
    #[inline(always)]
    unsafe fn store(dst: *mut f32, v: Self::Ps) {
        std::arch::x86_64::_mm256_storeu_ps(dst, v);
    }

    // SAFETY: register-only; the caller has AVX2 (trait contract).
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self::Ps {
        std::arch::x86_64::_mm256_set1_ps(x)
    }

    // SAFETY: register-only; the caller has AVX2 (trait contract).
    #[inline(always)]
    unsafe fn min(a: Self::Ps, b: Self::Ps) -> Self::Ps {
        std::arch::x86_64::_mm256_min_ps(a, b)
    }

    // SAFETY: register-only; the caller has AVX2 (trait contract).
    #[inline(always)]
    unsafe fn hmin(a: Self::Ps) -> f32 {
        use std::arch::x86_64::*;
        let m = _mm_min_ps(_mm256_castps256_ps128(a), _mm256_extractf128_ps::<1>(a));
        let m = _mm_min_ps(m, _mm_movehl_ps(m, m));
        _mm_cvtss_f32(_mm_min_ss(m, _mm_shuffle_ps::<1>(m, m)))
    }

    // SAFETY: register-only; the caller has AVX2 (trait contract).
    #[inline(always)]
    unsafe fn gt_mask(a: Self::Ps, b: Self::Ps) -> u32 {
        use std::arch::x86_64::*;
        _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(a, b)) as u32
    }

    // SAFETY: register-only; the caller has AVX2 (trait contract).
    #[inline(always)]
    unsafe fn eq_mask(a: Self::Ps, b: Self::Ps) -> u32 {
        use std::arch::x86_64::*;
        _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_EQ_OQ>(a, b)) as u32
    }

    const BYTES: usize = 32;
    type Pb = std::arch::x86_64::__m256i;

    // SAFETY: reads the 16 bytes the caller provides.
    #[inline(always)]
    unsafe fn byte_table(row: *const u8) -> Self::Pb {
        use std::arch::x86_64::*;
        _mm256_broadcastsi128_si256(_mm_loadu_si128(row.cast()))
    }

    // SAFETY: register-only; the caller has AVX2 (trait contract).
    #[inline(always)]
    unsafe fn byte_zero() -> Self::Pb {
        std::arch::x86_64::_mm256_setzero_si256()
    }

    // SAFETY: reads the 32 codes the caller provides.
    #[inline(always)]
    unsafe fn byte_lookup(table: Self::Pb, codes: *const u8) -> Self::Pb {
        use std::arch::x86_64::*;
        _mm256_shuffle_epi8(table, _mm256_loadu_si256(codes.cast()))
    }

    // SAFETY: register-only; the caller has AVX2 (trait contract).
    #[inline(always)]
    unsafe fn byte_fold<const MAX: bool>(a: Self::Pb, b: Self::Pb) -> Self::Pb {
        use std::arch::x86_64::*;
        if MAX {
            _mm256_max_epu8(a, b)
        } else {
            _mm256_adds_epu8(a, b)
        }
    }

    // SAFETY: register-only; the caller has AVX2 (trait contract).
    #[inline(always)]
    unsafe fn byte_min(a: Self::Pb, b: Self::Pb) -> Self::Pb {
        std::arch::x86_64::_mm256_min_epu8(a, b)
    }

    // SAFETY: register-only; the caller has AVX2 (trait contract).
    #[inline(always)]
    unsafe fn bytes_above_units(a: Self::Pb) -> bool {
        use std::arch::x86_64::*;
        // `a >= 129` exactly where `max(a, 129) == a` (AVX2 has no
        // unsigned byte compare).
        let floor = _mm256_set1_epi8((FAST_SCAN_UNITS as u8 + 1) as i8);
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(_mm256_max_epu8(a, floor), a)) == -1
    }

    // SAFETY: register-only; the caller has AVX2 (trait contract).
    #[inline(always)]
    unsafe fn bytes_at_most(a: Self::Pb, limit: u8) -> u64 {
        use std::arch::x86_64::*;
        // `a <= limit` exactly where `min(a, limit) == a`.
        let limit = _mm256_set1_epi8(limit as i8);
        u64::from(_mm256_movemask_epi8(_mm256_cmpeq_epi8(_mm256_min_epu8(a, limit), a)) as u32)
    }
}

#[cfg(target_arch = "x86_64")]
impl CodeLanes for Avx512Lanes {
    const WIDTH: usize = 16;
    const IDX_SLAB_BYTES: usize = 32 * 1024;
    type Ps = std::arch::x86_64::__m512;

    // SAFETY: register-only; the caller has AVX-512F (trait contract).
    #[inline(always)]
    unsafe fn zero() -> Self::Ps {
        std::arch::x86_64::_mm512_setzero_ps()
    }

    // SAFETY: reads the 32 bytes of one LUT row the caller provides.
    #[inline(always)]
    unsafe fn table(row: *const f32) -> Self::Ps {
        use std::arch::x86_64::*;
        _mm512_zextps256_ps512(_mm256_loadu_ps(row))
    }

    // SAFETY: reads 16 codes and writes 16 dwords, as the caller
    // provides.
    #[inline(always)]
    unsafe fn widen(codes: *const u8, dst: *mut i32) {
        use std::arch::x86_64::*;
        let idx = _mm512_cvtepu8_epi32(_mm_loadu_si128(codes.cast()));
        _mm512_storeu_si512(dst.cast(), idx);
    }

    // SAFETY: reads the 16 dword indices the caller provides.
    #[inline(always)]
    unsafe fn gather(table: Self::Ps, idx: *const i32) -> Self::Ps {
        use std::arch::x86_64::*;
        _mm512_permutexvar_ps(_mm512_loadu_si512(idx.cast()), table)
    }

    // SAFETY: register-only; the caller has AVX-512F (trait contract).
    #[inline(always)]
    unsafe fn fold<const MAX: bool>(a: Self::Ps, b: Self::Ps) -> Self::Ps {
        use std::arch::x86_64::*;
        if MAX {
            _mm512_max_ps(a, b)
        } else {
            _mm512_add_ps(a, b)
        }
    }

    // SAFETY: writes the 16 lanes the caller provides room for.
    #[inline(always)]
    unsafe fn store(dst: *mut f32, v: Self::Ps) {
        std::arch::x86_64::_mm512_storeu_ps(dst, v);
    }

    // SAFETY: register-only; the caller has AVX-512F (trait contract).
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self::Ps {
        std::arch::x86_64::_mm512_set1_ps(x)
    }

    // SAFETY: register-only; the caller has AVX-512F (trait contract).
    #[inline(always)]
    unsafe fn min(a: Self::Ps, b: Self::Ps) -> Self::Ps {
        std::arch::x86_64::_mm512_min_ps(a, b)
    }

    // SAFETY: register-only; the caller has AVX-512F (trait contract).
    #[inline(always)]
    unsafe fn hmin(a: Self::Ps) -> f32 {
        std::arch::x86_64::_mm512_reduce_min_ps(a)
    }

    // SAFETY: register-only; the caller has AVX-512F (trait contract).
    #[inline(always)]
    unsafe fn gt_mask(a: Self::Ps, b: Self::Ps) -> u32 {
        use std::arch::x86_64::*;
        u32::from(_mm512_cmp_ps_mask::<_CMP_GT_OQ>(a, b))
    }

    // SAFETY: register-only; the caller has AVX-512F (trait contract).
    #[inline(always)]
    unsafe fn eq_mask(a: Self::Ps, b: Self::Ps) -> u32 {
        use std::arch::x86_64::*;
        u32::from(_mm512_cmp_ps_mask::<_CMP_EQ_OQ>(a, b))
    }

    const BYTES: usize = 64;
    type Pb = std::arch::x86_64::__m512i;

    // SAFETY: reads the 16 bytes the caller provides.
    #[inline(always)]
    unsafe fn byte_table(row: *const u8) -> Self::Pb {
        use std::arch::x86_64::*;
        _mm512_broadcast_i32x4(_mm_loadu_si128(row.cast()))
    }

    // SAFETY: register-only; the caller has AVX-512F (trait contract).
    #[inline(always)]
    unsafe fn byte_zero() -> Self::Pb {
        std::arch::x86_64::_mm512_setzero_si512()
    }

    // SAFETY: reads the 64 codes the caller provides; the caller has
    // AVX-512BW (trait contract).
    #[inline(always)]
    unsafe fn byte_lookup(table: Self::Pb, codes: *const u8) -> Self::Pb {
        use std::arch::x86_64::*;
        _mm512_shuffle_epi8(table, _mm512_loadu_si512(codes.cast()))
    }

    // SAFETY: register-only; the caller has AVX-512BW (trait contract).
    #[inline(always)]
    unsafe fn byte_fold<const MAX: bool>(a: Self::Pb, b: Self::Pb) -> Self::Pb {
        use std::arch::x86_64::*;
        if MAX {
            _mm512_max_epu8(a, b)
        } else {
            _mm512_adds_epu8(a, b)
        }
    }

    // SAFETY: register-only; the caller has AVX-512BW (trait contract).
    #[inline(always)]
    unsafe fn byte_min(a: Self::Pb, b: Self::Pb) -> Self::Pb {
        std::arch::x86_64::_mm512_min_epu8(a, b)
    }

    // SAFETY: register-only; the caller has AVX-512BW (trait contract).
    #[inline(always)]
    unsafe fn bytes_above_units(a: Self::Pb) -> bool {
        use std::arch::x86_64::*;
        _mm512_cmpgt_epu8_mask(a, _mm512_set1_epi8(FAST_SCAN_UNITS as u8 as i8)) == u64::MAX
    }

    // SAFETY: register-only; the caller has AVX-512BW (trait contract).
    #[inline(always)]
    unsafe fn bytes_at_most(a: Self::Pb, limit: u8) -> u64 {
        use std::arch::x86_64::*;
        _mm512_cmple_epu8_mask(a, _mm512_set1_epi8(limit as i8))
    }
}

impl<S: PlaneScalar> CompiledMcam<S> {
    /// Compiles the array's current contents into a plane-major plan.
    ///
    /// Plane construction fans out over input levels on the workspace
    /// executor when the array is large enough to justify it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyArray`] if nothing is stored.
    pub fn compile(array: &McamArray) -> Result<Self> {
        Self::compile_metric(array, Metric::default())
    }

    /// Compiles the array's current contents into a plane-major plan
    /// whose per-cell values encode `metric` (see the
    /// [module-level "Metric modes"](self#metric-modes)): the device
    /// LUT / realized bank for [`Metric::McamConductance`], synthesized
    /// level-space distances otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyArray`] if nothing is stored.
    pub fn compile_metric(array: &McamArray, metric: Metric) -> Result<Self> {
        if array.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        let n_rows = array.n_rows();
        let word_len = array.word_len();
        let n_levels = array.ladder().n_levels();
        let plane_work = word_len * n_rows;
        // One allocation for every plane, filled in place: per-input
        // vectors concatenated afterwards cost more than the fill on
        // small arrays.
        let mut planes = vec![S::ZERO; n_levels * plane_work];
        par::par_chunks_mut(
            &mut planes,
            plane_work,
            par::threads_for(plane_work * n_levels),
            |input, plane| array.fill_metric_plane(input as u8, metric, plane),
        );
        Ok(CompiledMcam {
            n_rows,
            word_len,
            n_levels,
            metric,
            planes,
        })
    }

    /// Rows in the compiled snapshot.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Cells per word.
    #[must_use]
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// Input/state levels per cell.
    #[must_use]
    pub fn n_levels(&self) -> usize {
        self.n_levels
    }

    /// The precision this plan was compiled at.
    #[must_use]
    pub fn precision(&self) -> Precision {
        S::PRECISION
    }

    /// The metric this plan was compiled for.
    #[must_use]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Resident bytes of this plan's conductance planes.
    #[must_use]
    pub fn plan_bytes(&self) -> usize {
        std::mem::size_of_val(self.planes.as_slice())
    }

    pub(crate) fn check_query(&self, query: &[u8]) -> Result<()> {
        validate_query(self.word_len, self.n_levels, query)
    }

    /// Rows per cache panel of the tiled block kernel.
    fn row_tile(&self) -> usize {
        (ROW_TILE_BYTES / std::mem::size_of::<S>())
            .min(self.n_rows)
            .max(1)
    }

    /// Queries per grouped batch block, sized so one block's
    /// accumulator panel stays cache-resident (the plane panel loaded
    /// for a level then serves every query in the block that drives
    /// it).
    fn block_len(&self) -> usize {
        (ACC_BUDGET_BYTES / (self.row_tile() * std::mem::size_of::<S>()).max(1)).clamp(1, 16)
    }

    /// The cache-tiled grouped block kernel: accumulates a block of
    /// (validated) queries into `acc`, laid out query-major
    /// (`acc[q * n_rows + row]`). Row panels advance in the outer loop
    /// and columns in the next, so each query still folds its
    /// conductances in ascending column order (the determinism-critical
    /// inner loop), while queries sharing an input level at a column
    /// reuse the same L1-hot plane panel instead of re-streaming it.
    fn accumulate_block(&self, queries: &[&[u8]], acc: &mut [S]) {
        if self.metric.is_max_fold() {
            self.accumulate_block_fold::<true>(queries, acc);
        } else {
            self.accumulate_block_fold::<false>(queries, acc);
        }
    }

    fn accumulate_block_fold<const MAX: bool>(&self, queries: &[&[u8]], acc: &mut [S]) {
        let n = self.n_rows;
        debug_assert!(acc.len() >= queries.len() * n);
        acc[..queries.len() * n].fill(S::ZERO);
        let tile = self.row_tile();
        let mut t0 = 0;
        while t0 < n {
            let t1 = (t0 + tile).min(n);
            for c in 0..self.word_len {
                for (qi, q) in queries.iter().enumerate() {
                    let base = (q[c] as usize * self.word_len + c) * n;
                    let column = &self.planes[base + t0..base + t1];
                    let out = &mut acc[qi * n + t0..qi * n + t1];
                    for (a, &g) in out.iter_mut().zip(column) {
                        *a = a.fold::<MAX>(g);
                    }
                }
            }
            t0 = t1;
        }
    }

    /// Executes a batch of queries against this snapshot through the
    /// tiled block kernel and returns each query's full per-row
    /// outcome, sharding contiguous query groups across workers. A lone
    /// query is a batch of one. `n_threads` is an upper bound: the
    /// kernel forks only as many workers as the workload earns
    /// ([`par::batch_threads`]), so raising the thread count never
    /// regresses throughput. Results are in query order and (in `f64`
    /// mode) bit-identical to [`McamArray::search_metric`] on the
    /// compiled contents; the first malformed query (in input order)
    /// fails the batch before any work runs.
    ///
    /// # Errors
    ///
    /// [`CoreError::WordLengthMismatch`] / [`CoreError::LevelOutOfRange`]
    /// for a malformed query.
    pub fn search_batch(&self, queries: &[&[u8]], n_threads: usize) -> Result<Vec<SearchOutcome>> {
        kernel_search_batch(self, queries, n_threads)
    }
}

/// The batched execution surface shared by the plane kernel
/// ([`CompiledMcam`]) and the packed-code kernel ([`CompiledCodes`] /
/// [`CodesDispatch`]): everything the generic batch drivers below need.
/// The drivers own the group/block orchestration exactly once; a kernel
/// supplies its block accumulator, its work-sizing and, for winner
/// searches, a winner fold that may carry a bound
/// ([`fold_winners`](Self::fold_winners)).
pub(crate) trait BlockKernel: Sync {
    /// The scalar the kernel's match-line accumulators fold in.
    type Acc: PlaneScalar;

    /// Rows in the compiled snapshot.
    fn n_rows(&self) -> usize;

    /// Queries per grouped batch block (cache-residency sizing).
    fn block_len(&self) -> usize;

    /// Validates one query against the snapshot's geometry.
    fn check_query(&self, query: &[u8]) -> Result<()>;

    /// Accumulates a block of (validated) queries into `acc`, laid out
    /// query-major (`acc[q * n_rows + row]`), folding each row's
    /// conductances in ascending column order. `aux` is kernel-private
    /// reusable scratch (the codes kernel's level-expansion panel);
    /// kernels that need none ignore it.
    fn accumulate_block(&self, queries: &[&[u8]], acc: &mut [Self::Acc], aux: &mut Vec<Self::Acc>);

    /// Folds each query's nearest row among this kernel's rows into
    /// `best` (one slot per query, `None` before the first bank): a row
    /// replaces the slot only with a strictly smaller score, and `base`
    /// is added to its local index. Callers visit banks in ascending
    /// base order, so ties keep the lowest global row.
    ///
    /// The default scores every row ([`accumulate_block`]) and scans
    /// each query's scores with [`argmin`]. The packed-code kernel
    /// overrides it on the vector tiers with the bounded sweep: the
    /// slot's score is an upper bound, and a register block of rows is
    /// abandoned once every row in it already scores above it (the
    /// module-level ["Bounded winners"](self#bounded-winners)), behind
    /// the fast-scan prefilter, whose per-query tables live in
    /// `scratch` at each query's position `ids[i]` in the worker's
    /// group (the same query keeps its position across banks and
    /// passes).
    ///
    /// [`accumulate_block`]: Self::accumulate_block
    fn fold_winners(
        &self,
        queries: &[&[u8]],
        ids: &[usize],
        base: usize,
        best: &mut [Option<(usize, f64)>],
        scratch: &mut BatchScratch<Self::Acc>,
    ) {
        let _ = ids;
        fold_winners_full(self, queries, base, best, scratch);
    }

    /// The self-seeding candidate pass over this kernel's rows (the
    /// module-level ["Self-seeded sweep"](self#self-seeded-sweep)): folds
    /// each query's lowest prefix byte sum among these rows into its
    /// candidate `cands[i]`, keeping the first row with it, and scores
    /// a row it takes exactly. `base` is added to local rows. Callers
    /// visit banks in ascending base order, so ties keep the lowest
    /// global row. The default finds no candidate.
    fn scan_candidates<'p>(&'p self, queries: &[&[u8]], base: usize, cands: &mut [Candidate<'p>]) {
        let _ = (queries, base, cands);
    }

    /// Whether [`fold_winners`](Self::fold_winners) abandons rows above
    /// the carried bound — the only case in which a tighter starting
    /// bound saves work. The default scores every row.
    fn bounds_winners(&self) -> bool {
        false
    }

    /// Thread-gating cost of one query against this kernel, in
    /// plane-step units ([`par::PAR_CHUNK_WORK`]'s currency) — cheaper
    /// kernels report less work per cell so they fork later.
    fn batch_work_per_query(&self) -> usize;
}

impl<S: PlaneScalar> BlockKernel for CompiledMcam<S> {
    type Acc = S;

    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn block_len(&self) -> usize {
        // Inherent method: the cache-residency formula above.
        CompiledMcam::block_len(self)
    }

    fn check_query(&self, query: &[u8]) -> Result<()> {
        CompiledMcam::check_query(self, query)
    }

    fn accumulate_block(&self, queries: &[&[u8]], acc: &mut [S], _aux: &mut Vec<S>) {
        CompiledMcam::accumulate_block(self, queries, acc);
    }

    fn batch_work_per_query(&self) -> usize {
        self.n_rows * self.word_len
    }
}

/// The unbounded winner fold behind [`BlockKernel::fold_winners`]:
/// scores every row of `kernel` for the block into `scratch.acc`, then
/// folds each query's first minimum into its slot with strict `<`.
fn fold_winners_full<K: BlockKernel + ?Sized>(
    kernel: &K,
    queries: &[&[u8]],
    base: usize,
    best: &mut [Option<(usize, f64)>],
    scratch: &mut BatchScratch<K::Acc>,
) {
    let n = kernel.n_rows();
    let need = queries.len() * n;
    let BatchScratch { acc, aux, .. } = scratch;
    if acc.len() < need {
        acc.resize(need, K::Acc::ZERO);
    }
    kernel.accumulate_block(queries, &mut acc[..need], aux);
    for (rows, slot) in acc[..need].chunks_exact(n).zip(best) {
        let (local, g) = argmin(rows);
        let g = g.to_f64();
        if slot.is_none_or(|(_, bg)| g < bg) {
            *slot = Some((base + local, g));
        }
    }
}

/// Splits `queries` into one contiguous group per earned worker.
fn kernel_query_groups<'q, 'a, K: BlockKernel>(
    kernel: &K,
    queries: &'q [&'a [u8]],
    n_threads: usize,
) -> (Vec<&'q [&'a [u8]]>, usize) {
    let threads = par::batch_threads(queries.len(), kernel.batch_work_per_query(), n_threads);
    let group = queries.len().div_ceil(threads).max(1);
    (queries.chunks(group).collect(), threads)
}

/// The single batched orchestration loop every flat entry point runs
/// on: validate, split into per-worker groups, accumulate block by
/// block on reusable scratch, and hand each query's finished row
/// conductances (plus the top-k scratch) to `finalize` in query order.
fn kernel_batch_driver<K: BlockKernel, R, F>(
    kernel: &K,
    queries: &[&[u8]],
    n_threads: usize,
    finalize: F,
) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(&[K::Acc], &mut BinaryHeap<(TotalF64, usize)>, &mut Vec<(TotalF64, usize)>) -> R + Sync,
{
    for q in queries {
        kernel.check_query(q)?;
    }
    if queries.is_empty() {
        return Ok(Vec::new());
    }
    let n = kernel.n_rows();
    let (groups, threads) = kernel_query_groups(kernel, queries, n_threads);
    let per_group = par::par_map(&groups, threads, |_, group| {
        let mut scratch = BatchScratch::<K::Acc>::new();
        let mut results = Vec::with_capacity(group.len());
        for block in group.chunks(kernel.block_len()) {
            let need = block.len() * n;
            let BatchScratch {
                acc,
                aux,
                heap,
                sorted,
                ..
            } = &mut scratch;
            if acc.len() < need {
                acc.resize(need, K::Acc::ZERO);
            }
            kernel.accumulate_block(block, &mut acc[..need], aux);
            for qi in 0..block.len() {
                results.push(finalize(&acc[qi * n..(qi + 1) * n], heap, sorted));
            }
        }
        results
    });
    Ok(per_group.into_iter().flatten().collect())
}

/// Generic batched full-outcome driver (see
/// [`CompiledMcam::search_batch`] for the caller-facing contract).
fn kernel_search_batch<K: BlockKernel>(
    kernel: &K,
    queries: &[&[u8]],
    n_threads: usize,
) -> Result<Vec<SearchOutcome>> {
    kernel_batch_driver(kernel, queries, n_threads, |rows, _, _| {
        SearchOutcome::from_conductances(rows.iter().map(|g| g.to_f64()).collect())
    })
}

/// Generic batched top-k driver: each query's `k` nearest rows as
/// `(row, score)`, nearest first, selected by a bounded heap on the
/// worker's reusable scratch (no per-query heap allocation).
pub(crate) fn kernel_search_batch_top_k<K: BlockKernel>(
    kernel: &K,
    queries: &[&[u8]],
    k: usize,
    n_threads: usize,
) -> Result<Vec<Vec<(usize, f64)>>> {
    kernel_batch_driver(kernel, queries, n_threads, |rows, heap, sorted| {
        let mut top = Vec::new();
        select_top_k(rows, k, heap, sorted, &mut top);
        top
    })
}

/// A packed-code query plan: the array as byte-packed level codes plus
/// the shared conductance LUT in `f32` — the lowest-bandwidth execution
/// image (see the [module-level "Codes mode"](self#codes-mode)).
///
/// Layout: `codes[column * n_rows + row] = stored_level` (column-major
/// with rows contiguous, the same orientation as the plane plans), and
/// `lut[input * stride + state]` with `stride` padded to a power of two
/// so the gather index `code & (stride - 1)` provably stays in bounds —
/// the inner loop carries no bound check.
///
/// The plan also records its kernel tier (scalar, AVX2 or AVX-512; see
/// the module-level "Codes mode"), detected once when it compiles: the
/// vector tiers score 8 or 16 cells per permute, up to one permute per
/// cycle. Results are bit-identical on every tier. It also records
/// whether its LUT lets batched winner searches abandon rows early
/// (every entry finite and nonnegative); on the vector tiers those
/// searches then skip most of the cells of rows that cannot win, with
/// the same answers (the module-level
/// ["Bounded winners"](self#bounded-winners)).
///
/// Only shared-LUT arrays can compile to codes; per-cell (variation)
/// arrays must use a plane plan ([`CoreError::PerCellBank`]). The
/// cached entry points ([`McamArray::compiled_codes`]) make that
/// fallback transparent via [`CodesDispatch`].
///
/// # Examples
///
/// ```
/// use femcam_core::{CompiledCodes, CompiledMcam, ConductanceLut, LevelLadder, McamArray};
/// use femcam_device::FefetModel;
///
/// # fn main() -> femcam_core::Result<()> {
/// let ladder = LevelLadder::new(3)?;
/// let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
/// let mut array = McamArray::new(ladder, lut, 4);
/// array.store(&[0, 3, 7, 1])?;
/// array.store(&[5, 5, 5, 5])?;
/// array.store(&[2, 6, 0, 4])?;
/// let codes = CompiledCodes::compile(&array)?;
/// let f32_plan = CompiledMcam::<f32>::compile(&array)?;
/// let query: &[u8] = &[0, 3, 7, 1];
/// // Bit-identical to the f32 plane plan, at a fraction of the bytes.
/// assert_eq!(
///     codes.search_batch(&[query], 1)?,
///     f32_plan.search_batch(&[query], 1)?,
/// );
/// assert!(codes.plan_bytes() < f32_plan.plan_bytes());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledCodes {
    n_rows: usize,
    word_len: usize,
    n_levels: usize,
    /// The distance semantics `lut` encodes (and, for
    /// [`Metric::Linf`], the max fold the gather loops run).
    metric: Metric,
    /// Power-of-two row stride of `lut`; `stride - 1` is the gather
    /// mask.
    lut_stride: usize,
    /// `[column][row]`, rows contiguous; one byte per cell.
    codes: Vec<u8>,
    /// `[input][state]` per-cell values, rounded to `f32` exactly like
    /// the `f32` planes; rows padded to `lut_stride`.
    lut: Vec<f32>,
    /// The block kernel's vector width on this host, detected once at
    /// compile time. The vector kernels' `unsafe` loads rely on it: it
    /// names a vector tier only if [`CodesTier::available`] held for
    /// `lut_stride`.
    tier: CodesTier,
    /// The bounded sweep runs the fast-scan prefilter: the tier has a
    /// byte shuffle on this host and the word is short enough for its
    /// exactness margin ([`CodesTier::fast_scan`], detected once at
    /// compile time beside `tier`). The AVX-512 prefilter's `unsafe`
    /// byte ops rely on it.
    fast_scan: bool,
    /// Every LUT entry is finite and nonnegative, and no row score can
    /// overflow: both folds then never lower a running sum, which is
    /// what makes the bounded winner sweep's abandoning exact. Checked
    /// once at compile time ([`CompiledCodes::lut_allows_abandon`]); a
    /// plan without it ignores bounds.
    abandon_exact: bool,
    /// The self-seeding candidate pass's fixed `u8` tables
    /// ([`CompiledCodes::candidate_tables`], quantized once at compile
    /// time); `None` when the LUT has no one-step cost (all entries
    /// equal) or rows wider than 8 entries. The pass runs only on plans
    /// that also run the prefilter and bound their winners.
    candidates: Option<ByteTables>,
}

impl CompiledCodes {
    /// Compiles the array's current contents into a packed-code plan.
    ///
    /// Costs one byte write per stored cell plus an
    /// `n_levels × n_levels` LUT round-trip — about one scalar query's
    /// work, so even a single query amortizes it
    /// ([`CODES_COMPILE_THRESHOLD`]).
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyArray`] if nothing is stored.
    /// * [`CoreError::PerCellBank`] if the array realizes per-cell
    ///   conductances (device variation) — use a plane plan, or the
    ///   transparent [`McamArray::compiled_codes`] dispatch.
    pub fn compile(array: &McamArray) -> Result<Self> {
        Self::compile_metric(array, Metric::default())
    }

    /// Compiles the array's current contents into a packed-code plan
    /// whose LUT encodes `metric`: the shared device LUT for
    /// [`Metric::McamConductance`], a synthesized level-space distance
    /// table otherwise. Synthesized metrics are digital — they read
    /// stored level codes only — so they pack even on per-cell
    /// (variation) arrays.
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyArray`] if nothing is stored.
    /// * [`CoreError::PerCellBank`] for [`Metric::McamConductance`] on
    ///   an array realizing per-cell conductances (device variation).
    pub fn compile_metric(array: &McamArray, metric: Metric) -> Result<Self> {
        if array.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        if metric == Metric::McamConductance && array.has_per_cell_bank() {
            return Err(CoreError::PerCellBank);
        }
        let n_rows = array.n_rows();
        let word_len = array.word_len();
        let n_levels = array.ladder().n_levels();
        // Rows padded to at least 8 entries so a whole row is one
        // 8-lane vector load for the in-register gather fast path.
        let lut_stride = n_levels.next_power_of_two().max(8);
        let mut lut = vec![0.0f32; n_levels * lut_stride];
        for input in 0..n_levels as u8 {
            for state in 0..n_levels as u8 {
                // The exact f32 rounding the f32 planes hold — the
                // bit-identity contract hinges on this.
                lut[input as usize * lut_stride + state as usize] = match metric {
                    Metric::McamConductance => array.lut().get(input, state) as f32,
                    _ => metric.level_distance(input, state) as f32,
                };
            }
        }
        let tier = CodesTier::detect(lut_stride);
        let mut codes = vec![0u8; word_len * n_rows];
        for r in 0..n_rows {
            for (c, &state) in array.row(r).iter().enumerate() {
                codes[c * n_rows + r] = state;
            }
        }
        Ok(CompiledCodes {
            n_rows,
            word_len,
            n_levels,
            metric,
            lut_stride,
            codes,
            abandon_exact: Self::lut_allows_abandon(&lut, word_len),
            candidates: Self::candidate_tables(&lut, n_levels, lut_stride),
            lut,
            tier,
            fast_scan: tier.fast_scan(word_len),
        })
    }

    /// The candidate pass's fixed tables (the module-level
    /// ["Self-seeded sweep"](self#self-seeded-sweep)): `lut` quantized
    /// once through [`ByteTables::quantize`] for a bound of
    /// `FAST_SCAN_UNITS / 2` one-step costs. The one-step cost is the
    /// smallest gap between a LUT row's minimum and another entry of that
    /// row, so a byte unit is just over half a step and no step floors to
    /// zero. `None` without such a gap (all entries equal), on rows wider
    /// than 8 entries, or when that bound is not a finite, positive `f32`.
    fn candidate_tables(lut: &[f32], n_levels: usize, lut_stride: usize) -> Option<ByteTables> {
        if lut_stride != 8 {
            return None;
        }
        let step = lut
            .chunks_exact(lut_stride)
            .flat_map(|row| {
                let row = &row[..n_levels];
                let min = row.iter().copied().fold(f32::INFINITY, f32::min);
                row.iter().map(move |&v| f64::from(v) - f64::from(min))
            })
            .filter(|&gap| gap > 0.0)
            .fold(f64::INFINITY, f64::min);
        let bound = (FAST_SCAN_UNITS / 2.0 * step) as f32;
        (bound.is_finite() && bound > 0.0).then(|| {
            let mut tables = ByteTables::NONE;
            tables.quantize(lut, bound);
            tables
        })
    }

    /// Whether a `word_len`-cell plan over `lut` may abandon rows: every
    /// entry finite and `>= 0` (so neither fold ever lowers a running
    /// sum), and `word_len` times the largest entry at most half of
    /// `f32::MAX` (so no row score rounds up to infinity).
    /// [`ConductanceLut::from_device`](crate::ConductanceLut::from_device)
    /// does not validate signs, so this is checked per plan.
    fn lut_allows_abandon(lut: &[f32], word_len: usize) -> bool {
        let max = lut.iter().fold(0.0f32, |m, &v| m.max(v));
        lut.iter().all(|&v| v.is_finite() && v >= 0.0)
            && f64::from(max) * word_len as f64 <= f64::from(f32::MAX) / 2.0
    }

    /// Rows in the compiled snapshot.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Cells per word.
    #[must_use]
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// Input/state levels per cell.
    #[must_use]
    pub fn n_levels(&self) -> usize {
        self.n_levels
    }

    /// The precision tag of this plan ([`Precision::Codes`]).
    #[must_use]
    pub fn precision(&self) -> Precision {
        Precision::Codes
    }

    /// The metric this plan was compiled for.
    #[must_use]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Resident bytes of this plan: the packed codes plus the `f32`
    /// LUT — independent of `n_levels` per cell, ≈ 64× below the `f64`
    /// planes on the 3-bit ladder.
    #[must_use]
    pub fn plan_bytes(&self) -> usize {
        std::mem::size_of_val(self.codes.as_slice()) + std::mem::size_of_val(self.lut.as_slice())
    }

    fn check_query(&self, query: &[u8]) -> Result<()> {
        validate_query(self.word_len, self.n_levels, query)
    }

    /// Rows per cache panel: sized so the whole per-tile expansion slab
    /// (`word_len × n_levels × tile` f32) stays L2-resident while it
    /// serves every query in the block.
    fn row_tile(&self) -> usize {
        (CODES_EXPAND_BUDGET_BYTES
            / (std::mem::size_of::<f32>() * self.lut_stride * self.word_len.max(1)))
        .clamp(32, ROW_TILE_BYTES / std::mem::size_of::<f32>())
        .min(self.n_rows)
        .max(1)
    }

    /// Queries per grouped batch block. Much larger than the plane
    /// kernel's blocks on purpose: the per-tile expansion slab is
    /// rebuilt once per block, so reuse (≈ `block_len / n_levels` adds
    /// per expanded cell) is what pays for the gather.
    fn block_len(&self) -> usize {
        (ACC_BUDGET_BYTES / (self.row_tile() * std::mem::size_of::<f32>()).max(1)).clamp(1, 256)
    }

    /// The LUT row of every query level as a permute table.
    ///
    /// # Safety
    ///
    /// `L`'s CPU features and `lut_stride == 8`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    // SAFETY: each read is one 8-entry LUT row, in range for
    // `level < n_levels` under the contract above.
    unsafe fn lane_tables<L: CodeLanes>(&self) -> [L::Ps; 8] {
        // A fixed trip count with a per-row test: a loop over the first
        // `n_levels` rows compiles to a `memcpy` call on AVX2.
        let mut tables = [L::zero(); 8];
        for (level, table) in tables.iter_mut().enumerate() {
            if level < self.n_levels {
                *table = L::table(self.lut.as_ptr().add(level * 8));
            }
        }
        tables
    }

    /// Rows per widened tile of the vector kernels — whole register
    /// blocks within `L`'s index-slab budget, at least one, at most
    /// `n_rows` — and the slab's per-column stride in dwords (the tile
    /// rounded up to whole vectors).
    #[cfg(target_arch = "x86_64")]
    fn lane_tile<L: CodeLanes>(&self) -> (usize, usize) {
        let block_rows = SERVE_REGS * L::WIDTH;
        let blocks = (L::IDX_SLAB_BYTES / (4 * self.word_len.max(1)) / block_rows).max(1);
        let tile = (blocks * block_rows).min(self.n_rows);
        (tile, tile.next_multiple_of(L::WIDTH))
    }

    /// Widens the codes of tile rows `tile.t0..tile.t0 + tile.tlen`,
    /// columns `cols`, to dword permute indices at
    /// `tile.idx[c * tile.stride..]`. A last partial vector is widened
    /// from zero-padded codes.
    ///
    /// # Safety
    ///
    /// `L`'s CPU features; `tile` describes rows inside the plan and an
    /// index slab of `word_len × stride` writable dwords, with `stride`
    /// at least the tile rounded up to whole vectors; `cols.end <=
    /// word_len`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    // SAFETY: reads `L::WIDTH` codes only for full vectors inside the
    // tile (a partial one is copied into a zero-padded buffer first) and
    // writes within column `c`'s `stride` dwords, under the contract
    // above.
    unsafe fn widen_columns<L: CodeLanes>(&self, tile: &LaneTile, cols: std::ops::Range<usize>) {
        const { assert!(L::WIDTH <= MAX_LANES) };
        let n = self.n_rows;
        let w = L::WIDTH;
        let full = tile.tlen / w;
        let rem = tile.tlen % w;
        for c in cols {
            let col = self.codes.as_ptr().add(c * n + tile.t0);
            let dst = tile.idx.add(c * tile.stride);
            for g in 0..full {
                L::widen(col.add(g * w), dst.add(g * w));
            }
            if rem > 0 {
                let padded = zero_padded(&self.codes[c * n + tile.t0 + full * w..][..rem]);
                L::widen(padded.as_ptr(), dst.add(full * w));
            }
        }
    }

    /// The vector block kernel, generic over lane width: widens each
    /// row tile's byte codes to dword permute indices **once per
    /// block** into the `aux` slab (the widen shares the shuffle port
    /// with the permute, so hoisting it out of the per-query loop
    /// roughly halves the serve's critical-port pressure), then serves
    /// every query from the widened slab — one index load, one
    /// in-register permute and one add (or max) per `L::WIDTH` cells,
    /// with running sums for [`SERVE_REGS`] vectors of rows pinned in
    /// registers across the column sweep. A tile's last partial vector
    /// is widened from zero-padded codes and only its live lanes are
    /// written back, so no row falls to a scalar tail.
    ///
    /// Same per-row ascending-column `f32` fold as every other path:
    /// bit-identical results. This kernel scores every row; the winner
    /// searches run the bounded sweep
    /// ([`winners_block_lanes`](Self::winners_block_lanes)) instead.
    ///
    /// # Safety
    ///
    /// The CPU must have `L`'s features (the callers are the tiers'
    /// `target_feature` wrappers below, reached only when `self.tier`
    /// names that tier), `lut_stride == 8`, every query validated
    /// (`word_len` levels, each `< n_levels`). `acc` must hold
    /// `queries.len() * n_rows` scalars (checked: a shorter one
    /// panics).
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    // SAFETY: inside the body every raw access is in bounds under the
    // contract above: `lane_tables` and `widen_columns` get their
    // contracts met (`aux` is resized to the `word_len × stride` dwords
    // the slab spans; `f32` and `i32` share size and alignment), and
    // validated levels `< n_levels` keep `tables` in range; the serve
    // writes full vectors only below the tile's `tlen` rows, and a
    // partial one through a lane buffer, so `acc` is written only at
    // `qi * n + t0 + [0, tlen)`.
    unsafe fn accumulate_block_lanes<L: CodeLanes, const MAX: bool>(
        &self,
        queries: &[&[u8]],
        acc: &mut [f32],
        aux: &mut Vec<f32>,
    ) {
        const { assert!(L::WIDTH <= MAX_LANES) };
        let n = self.n_rows;
        let w = L::WIDTH;
        // Bounds the raw `acc` writes below by a checked slice.
        let acc = &mut acc[..queries.len() * n];
        let tables = self.lane_tables::<L>();
        let (tile_rows, stride) = self.lane_tile::<L>();
        let idx = index_slab(aux, self.word_len * stride);
        let mut t0 = 0;
        while t0 < n {
            let t1 = (t0 + tile_rows).min(n);
            let tile = LaneTile {
                t0,
                tlen: t1 - t0,
                stride,
                idx,
                widened: self.word_len,
            };
            let full = tile.tlen / w;
            let rem = tile.tlen % w;
            // Widen this tile's codes to permute indices, once for the
            // whole block.
            self.widen_columns::<L>(&tile, 0..self.word_len);
            for (qi, q) in queries.iter().enumerate() {
                let out = acc.as_mut_ptr().add(qi * n + t0);
                let mut g = 0;
                while g + SERVE_REGS <= full {
                    let mut sums = [L::zero(); SERVE_REGS];
                    for (c, &level) in q.iter().enumerate() {
                        let table = tables[level as usize];
                        let base = idx.add(c * stride + g * w);
                        for (j, sum) in sums.iter_mut().enumerate() {
                            *sum = L::fold::<MAX>(*sum, L::gather(table, base.add(j * w)));
                        }
                    }
                    for (j, &sum) in sums.iter().enumerate() {
                        L::store(out.add((g + j) * w), sum);
                    }
                    g += SERVE_REGS;
                }
                while g * w < tile.tlen {
                    let mut sum = L::zero();
                    for (c, &level) in q.iter().enumerate() {
                        let at = idx.add(c * stride + g * w);
                        sum = L::fold::<MAX>(sum, L::gather(tables[level as usize], at));
                    }
                    if g < full {
                        L::store(out.add(g * w), sum);
                    } else {
                        let mut lanes = [0.0f32; MAX_LANES];
                        L::store(lanes.as_mut_ptr(), sum);
                        std::ptr::copy_nonoverlapping(lanes.as_ptr(), out.add(g * w), rem);
                    }
                    g += 1;
                }
            }
            t0 = t1;
        }
    }

    /// Scores `R` vectors of tile rows, from vector `g` on, for query
    /// `q` into `sums` — the serve loop of the bounded sweep. Columns go
    /// in [`ABANDON_CHUNK`]-column chunks; each chunk is widened the
    /// first time any query reaches it (`tile.widened` records how far).
    /// After every chunk but the last, while `bound` is finite, the rows
    /// are abandoned once every lane of all `R` running sums is strictly
    /// above it. Returns whether the sums finished (`false` when
    /// abandoned).
    ///
    /// Exact because the plan's LUT is finite and nonnegative: adding a
    /// nonnegative `f32` under round-to-nearest never lowers a sum, and
    /// `max` never lowers one, so a row's final score is at least any
    /// partial sum. The strict `>` means a row that will end exactly at
    /// the bound is always scored in full.
    ///
    /// # Safety
    ///
    /// As [`widen_columns`](Self::widen_columns); `q` validated; rows
    /// `g * L::WIDTH..(g + R) * L::WIDTH` inside the tile's `stride`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    // SAFETY: every index load reads `R` vectors of column `c` of the
    // slab at vectors `g..g + R`, inside `stride` by the contract above,
    // after `widen_columns` filled that column; `tables` is indexed by
    // validated levels `< n_levels <= 8`.
    unsafe fn serve_bounded<L: CodeLanes, const MAX: bool, const R: usize>(
        &self,
        tables: &[L::Ps; 8],
        q: &[u8],
        tile: &mut LaneTile,
        g: usize,
        bound: f32,
        sums: &mut [L::Ps; R],
    ) -> bool {
        let wl = self.word_len;
        let w = L::WIDTH;
        let every_lane = u32::MAX >> (32 - w);
        let limit = L::splat(bound);
        let checking = bound < f32::INFINITY;
        *sums = [L::zero(); R];
        let mut c0 = 0;
        while c0 < wl {
            let c1 = (c0 + ABANDON_CHUNK).min(wl);
            if c1 > tile.widened {
                self.widen_columns::<L>(tile, tile.widened..c1);
                tile.widened = c1;
            }
            for (c, &level) in (c0..c1).zip(&q[c0..c1]) {
                let table = tables[level as usize];
                let base = tile.idx.add(c * tile.stride + g * w);
                for (j, sum) in sums.iter_mut().enumerate() {
                    *sum = L::fold::<MAX>(*sum, L::gather(table, base.add(j * w)));
                }
            }
            c0 = c1;
            if checking && c0 < wl {
                let low = sums[1..].iter().fold(sums[0], |m, &s| L::min(m, s));
                if L::gt_mask(low, limit) == every_lane {
                    tally_bounded_work(R * c0, R * wl, 0);
                    return false;
                }
            }
        }
        tally_bounded_work(R * wl, R * wl, 0);
        true
    }

    /// The fast-scan prefilter of one register block (the module-level
    /// ["Fast-scan prefilter"](self#fast-scan-prefilter)): whether
    /// every one of the `SERVE_REGS × L::WIDTH` rows from plan row `row`
    /// on provably scores above the bound `tables` were quantized for.
    /// The rows' `u8` sums fold straight from the column-major codes,
    /// two byte vectors per column (one lookup and one saturating add,
    /// or max, each), and are checked after [`FAST_SCAN_CHECK`] columns
    /// and after twice as many.
    ///
    /// # Safety
    ///
    /// `L`'s CPU features, with AVX-512BW on the AVX-512 tier; `q`
    /// validated; rows `row..row + SERVE_REGS × L::WIDTH` inside the
    /// plan.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    // SAFETY: each lookup reads `L::BYTES` codes of column `c` at rows
    // inside the block, which the contract puts inside the plan;
    // `tables` is indexed by validated levels `< n_levels <= 8`.
    unsafe fn fast_scan_rejects<L: CodeLanes, const MAX: bool>(
        &self,
        tables: &ByteTables,
        q: &[u8],
        row: usize,
    ) -> bool {
        const { assert!(SERVE_REGS * L::WIDTH == 2 * L::BYTES) };
        let wl = self.word_len;
        let n = self.n_rows;
        let codes = self.codes.as_ptr().add(row);
        let (mut lo, mut hi) = (L::byte_zero(), L::byte_zero());
        let mut c0 = 0;
        for check in [FAST_SCAN_CHECK, 2 * FAST_SCAN_CHECK] {
            let c1 = check.min(wl);
            for (c, &level) in (c0..c1).zip(&q[c0..c1]) {
                let table = L::byte_table(tables.rows[level as usize].as_ptr());
                let col = codes.add(c * n);
                lo = L::byte_fold::<MAX>(lo, L::byte_lookup(table, col));
                hi = L::byte_fold::<MAX>(hi, L::byte_lookup(table, col.add(L::BYTES)));
            }
            if L::bytes_above_units(L::byte_min(lo, hi)) {
                return true;
            }
            if c1 == wl {
                break;
            }
            c0 = c1;
        }
        false
    }

    /// The candidate pass over this plan's rows (the module-level
    /// ["Self-seeded sweep"](self#self-seeded-sweep)). Whole byte vectors
    /// of `L::BYTES` rows go in ascending blocks of
    /// [`CANDIDATE_BLOCK`], and each query scans a block through
    /// [`scan_block`](Self::scan_block) unless its candidate already
    /// sums to 0. Rows past the last whole vector are never candidates.
    ///
    /// # Safety
    ///
    /// `L`'s CPU features, with AVX-512BW on the AVX-512 tier; every
    /// query validated.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    // SAFETY: every `scan_block` call covers whole vectors below
    // `n_rows / L::BYTES`.
    unsafe fn scan_candidates_lanes<'p, L: CodeLanes, const MAX: bool>(
        &'p self,
        tables: &ByteTables,
        queries: &[&[u8]],
        base: usize,
        cands: &mut [Candidate<'p>],
    ) {
        let vectors = self.n_rows / L::BYTES;
        let mut scanned = 0;
        let mut v = 0;
        while v < vectors {
            let k = (vectors - v).min(CANDIDATE_BLOCK);
            for (q, cand) in queries.iter().zip(cands.iter_mut()) {
                // Nothing lies strictly below a sum of 0.
                if cand.units == 0 {
                    continue;
                }
                scanned += k;
                if k == CANDIDATE_BLOCK {
                    self.scan_block::<L, MAX, CANDIDATE_BLOCK>(tables, q, base, v, cand);
                } else {
                    for j in v..v + k {
                        self.scan_block::<L, MAX, 1>(tables, q, base, j, cand);
                    }
                }
            }
            v += k;
        }
        let work = scanned * self.word_len.min(CANDIDATE_COLUMNS);
        tally_bounded_work(work, work, 0);
    }

    /// Folds the first [`CANDIDATE_COLUMNS`] columns of the `K` byte
    /// vectors from vector `v` on through `tables` for query `q` (one
    /// table load per column serves all `K`), and moves `cand` to the
    /// first of their rows whose sum is strictly below its own, if any
    /// (recorded with this plan and its `base`).
    ///
    /// # Safety
    ///
    /// `L`'s CPU features, with AVX-512BW on the AVX-512 tier; `q`
    /// validated; vectors `v..v + K` whole and inside the plan.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    // SAFETY: each lookup reads `L::BYTES` codes of a column `c <
    // word_len` in a whole vector the contract puts inside the plan;
    // `tables` is indexed by validated levels `< n_levels <= 8`.
    unsafe fn scan_block<'p, L: CodeLanes, const MAX: bool, const K: usize>(
        &'p self,
        tables: &ByteTables,
        q: &[u8],
        base: usize,
        v: usize,
        cand: &mut Candidate<'p>,
    ) {
        let n = self.n_rows;
        let cols = self.word_len.min(CANDIDATE_COLUMNS);
        let codes = self.codes.as_ptr().add(v * L::BYTES);
        let mut sums = [L::byte_zero(); K];
        for (c, &level) in (0..cols).zip(&q[..cols]) {
            let table = L::byte_table(tables.rows[level as usize].as_ptr());
            let col = codes.add(c * n);
            for (j, sum) in sums.iter_mut().enumerate() {
                *sum = L::byte_fold::<MAX>(*sum, L::byte_lookup(table, col.add(j * L::BYTES)));
            }
        }
        // The largest sum strictly below the candidate's, if any:
        // `units` is at most 256, so it fits a byte.
        let below = |units: u16| units.checked_sub(1).map(|u| u as u8);
        let low = sums[1..].iter().fold(sums[0], |m, &s| L::byte_min(m, s));
        if below(cand.units).is_none_or(|limit| L::bytes_at_most(low, limit) == 0) {
            return;
        }
        for (j, &sum) in sums.iter().enumerate() {
            let Some(limit) = below(cand.units) else {
                return;
            };
            if L::bytes_at_most(sum, limit) == 0 {
                continue;
            }
            // The vector's lowest sum: the least limit that still admits
            // a lane; its first lane is the first row with that sum.
            let (mut lo, mut hi) = (0u8, limit);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if L::bytes_at_most(sum, mid) == 0 {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let lane = L::bytes_at_most(sum, lo).trailing_zeros() as usize;
            cand.units = u16::from(lo);
            cand.found = Some((self, base, (v + j) * L::BYTES + lane));
        }
    }

    /// Row `row`'s exact score for `query`: the plan's `f32` LUT entries
    /// folded in ascending column order from `0.0`, the same IEEE
    /// operations, in the same order, as every tier's fold of that row,
    /// so the result is bit-identical to the score the sweep computes.
    fn score_row(&self, query: &[u8], row: usize) -> f32 {
        if self.metric.is_max_fold() {
            self.score_row_fold::<true>(query, row)
        } else {
            self.score_row_fold::<false>(query, row)
        }
    }

    fn score_row_fold<const MAX: bool>(&self, query: &[u8], row: usize) -> f32 {
        let column = self.codes[row..].iter().step_by(self.n_rows);
        query
            .iter()
            .zip(column)
            .fold(0.0f32, |acc, (&level, &code)| {
                acc.fold::<MAX>(self.lut[usize::from(level) * self.lut_stride + usize::from(code)])
            })
    }

    /// The bounded winner sweep behind [`BlockKernel::fold_winners`] on
    /// the vector tiers (the module-level
    /// ["Bounded winners"](self#bounded-winners)). Per query, the
    /// slot's score is the bound, as `f32` (exact: codes scores are
    /// `f32` widened to `f64`). Rows go in ascending order, in register
    /// blocks through [`serve_bounded`](Self::serve_bounded); a block
    /// that finishes folds its first minimum into the slot with strict
    /// `<` and tightens the bound. The slot so ends at exactly the first
    /// minimum a full sweep reports, with no `acc` write-back and no
    /// separate [`argmin`] pass.
    ///
    /// With `FAST`, a whole register block first runs the fast-scan
    /// prefilter ([`fast_scan_rejects`](Self::fast_scan_rejects)) while
    /// the bound is finite and positive, and is skipped, unwidened and
    /// unscored, when it rejects every row. The query at position
    /// `ids[i]` quantizes its tables into `fast.tables[ids[i]]`, again
    /// only once its bound falls below half the bound they were built
    /// for ([`ByteTables::serves`]).
    ///
    /// # Safety
    ///
    /// As [`accumulate_block_lanes`](Self::accumulate_block_lanes), and
    /// `self.abandon_exact` holds (which makes abandoning exact). With
    /// `FAST`: AVX-512BW on the AVX-512 tier, and `fast` prepared for
    /// `self.lut` and `ids` ([`FastScan::prepare`]).
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    // SAFETY: the slab is sized to `word_len × stride` dwords as
    // `widen_columns` requires, and each `serve_bounded` call covers
    // whole vectors below the tile's `tlen` rows (the partial one reads
    // its zero-padded vector); the prefilter runs on whole register
    // blocks below `tlen` only; results go through `best` and a lane
    // buffer only.
    unsafe fn winners_block_lanes<L: CodeLanes, const MAX: bool, const FAST: bool>(
        &self,
        queries: &[&[u8]],
        ids: &[usize],
        base: usize,
        best: &mut [Option<(usize, f64)>],
        aux: &mut Vec<f32>,
        fast: &mut FastScan,
    ) {
        const { assert!(L::WIDTH <= MAX_LANES) };
        let n = self.n_rows;
        let w = L::WIDTH;
        let tables = self.lane_tables::<L>();
        let (tile_rows, stride) = self.lane_tile::<L>();
        let idx = index_slab(aux, self.word_len * stride);
        let mut t0 = 0;
        while t0 < n {
            let t1 = (t0 + tile_rows).min(n);
            let mut tile = LaneTile {
                t0,
                tlen: t1 - t0,
                stride,
                idx,
                widened: 0,
            };
            let full = tile.tlen / w;
            let rem = tile.tlen % w;
            let (mut block, mut one) = ([L::zero(); SERVE_REGS], [L::zero(); 1]);
            for ((q, slot), &id) in queries.iter().zip(best.iter_mut()).zip(ids) {
                // The bound restarts from each query's own best.
                let mut bound = slot.map_or(f32::INFINITY, |(_, g)| g as f32);
                // Records tile row `row` as the query's best; returns
                // its score, the new bound.
                let mut take = |row: usize, v: f32| {
                    *slot = Some((base + t0 + row, f64::from(v)));
                    v
                };
                let mut g = 0;
                while g + SERVE_REGS <= full {
                    if FAST && bound > 0.0 && bound < f32::INFINITY {
                        let bytes = &mut fast.tables[id];
                        if !bytes.serves(bound) {
                            bytes.quantize(&self.lut, bound);
                        }
                        if self.fast_scan_rejects::<L, MAX>(bytes, q, t0 + g * w) {
                            tally_bounded_work(0, SERVE_REGS * self.word_len, SERVE_REGS);
                            g += SERVE_REGS;
                            continue;
                        }
                    }
                    if self.serve_bounded::<L, MAX, SERVE_REGS>(
                        &tables, q, &mut tile, g, bound, &mut block,
                    ) {
                        if let Some((lane, v)) = first_below::<L, SERVE_REGS>(&block, bound) {
                            bound = take(g * w + lane, v);
                        }
                    }
                    g += SERVE_REGS;
                }
                while g < full {
                    if self.serve_bounded::<L, MAX, 1>(&tables, q, &mut tile, g, bound, &mut one) {
                        if let Some((lane, v)) = first_below::<L, 1>(&one, bound) {
                            bound = take(g * w + lane, v);
                        }
                    }
                    g += 1;
                }
                if rem > 0 {
                    // The partial vector's padded lanes hold real scores
                    // (of code 0), so they may keep it from being
                    // abandoned but never win: only live lanes are read.
                    if self.serve_bounded::<L, MAX, 1>(&tables, q, &mut tile, g, bound, &mut one) {
                        let mut lanes = [0.0f32; MAX_LANES];
                        L::store(lanes.as_mut_ptr(), one[0]);
                        for (lane, &v) in lanes[..rem].iter().enumerate() {
                            if v < bound {
                                bound = take(g * w + lane, v);
                            }
                        }
                    }
                }
            }
            t0 = t1;
        }
    }

    /// The AVX2 tier of the block kernel (8 cells per permute).
    ///
    /// # Safety
    ///
    /// Same contract as
    /// [`accumulate_block_lanes`](Self::accumulate_block_lanes), with
    /// AVX2 available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: forwards the caller's contract unchanged.
    unsafe fn accumulate_block_avx2<const MAX: bool>(
        &self,
        queries: &[&[u8]],
        acc: &mut [f32],
        aux: &mut Vec<f32>,
    ) {
        self.accumulate_block_lanes::<Avx2Lanes, MAX>(queries, acc, aux);
    }

    /// The AVX-512 tier of the block kernel (16 cells per permute).
    ///
    /// # Safety
    ///
    /// Same contract as
    /// [`accumulate_block_lanes`](Self::accumulate_block_lanes), with
    /// AVX-512F available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    // SAFETY: forwards the caller's contract unchanged.
    unsafe fn accumulate_block_avx512<const MAX: bool>(
        &self,
        queries: &[&[u8]],
        acc: &mut [f32],
        aux: &mut Vec<f32>,
    ) {
        self.accumulate_block_lanes::<Avx512Lanes, MAX>(queries, acc, aux);
    }

    /// The AVX2 tier of the bounded winner sweep, with or without the
    /// fast-scan prefilter.
    ///
    /// # Safety
    ///
    /// Same contract as
    /// [`winners_block_lanes`](Self::winners_block_lanes), with AVX2
    /// available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: forwards the caller's contract unchanged.
    unsafe fn winners_block_avx2<const MAX: bool, const FAST: bool>(
        &self,
        queries: &[&[u8]],
        ids: &[usize],
        base: usize,
        best: &mut [Option<(usize, f64)>],
        scratch: &mut BatchScratch<f32>,
    ) {
        let BatchScratch { aux, fast, .. } = scratch;
        self.winners_block_lanes::<Avx2Lanes, MAX, FAST>(queries, ids, base, best, aux, fast);
    }

    /// The AVX-512 tier of the bounded winner sweep, without the
    /// fast-scan prefilter.
    ///
    /// # Safety
    ///
    /// Same contract as
    /// [`winners_block_lanes`](Self::winners_block_lanes), with
    /// AVX-512F available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    // SAFETY: forwards the caller's contract unchanged.
    unsafe fn winners_block_avx512<const MAX: bool>(
        &self,
        queries: &[&[u8]],
        ids: &[usize],
        base: usize,
        best: &mut [Option<(usize, f64)>],
        scratch: &mut BatchScratch<f32>,
    ) {
        let BatchScratch { aux, fast, .. } = scratch;
        self.winners_block_lanes::<Avx512Lanes, MAX, false>(queries, ids, base, best, aux, fast);
    }

    /// The AVX-512 tier of the bounded winner sweep with the fast-scan
    /// prefilter, whose byte shuffle needs AVX-512BW.
    ///
    /// # Safety
    ///
    /// Same contract as
    /// [`winners_block_lanes`](Self::winners_block_lanes), with
    /// AVX-512F and AVX-512BW available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw")]
    // SAFETY: forwards the caller's contract unchanged.
    unsafe fn winners_block_avx512bw<const MAX: bool>(
        &self,
        queries: &[&[u8]],
        ids: &[usize],
        base: usize,
        best: &mut [Option<(usize, f64)>],
        scratch: &mut BatchScratch<f32>,
    ) {
        let BatchScratch { aux, fast, .. } = scratch;
        self.winners_block_lanes::<Avx512Lanes, MAX, true>(queries, ids, base, best, aux, fast);
    }

    /// The AVX2 tier of the candidate pass.
    ///
    /// # Safety
    ///
    /// Same contract as
    /// [`scan_candidates_lanes`](Self::scan_candidates_lanes), with AVX2
    /// available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // SAFETY: forwards the caller's contract unchanged.
    unsafe fn scan_candidates_avx2<'p, const MAX: bool>(
        &'p self,
        tables: &ByteTables,
        queries: &[&[u8]],
        base: usize,
        cands: &mut [Candidate<'p>],
    ) {
        self.scan_candidates_lanes::<Avx2Lanes, MAX>(tables, queries, base, cands);
    }

    /// The AVX-512 tier of the candidate pass, whose byte shuffle needs
    /// AVX-512BW.
    ///
    /// # Safety
    ///
    /// Same contract as
    /// [`scan_candidates_lanes`](Self::scan_candidates_lanes), with
    /// AVX-512F and AVX-512BW available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw")]
    // SAFETY: forwards the caller's contract unchanged.
    unsafe fn scan_candidates_avx512bw<'p, const MAX: bool>(
        &'p self,
        tables: &ByteTables,
        queries: &[&[u8]],
        base: usize,
        cands: &mut [Candidate<'p>],
    ) {
        self.scan_candidates_lanes::<Avx512Lanes, MAX>(tables, queries, base, cands);
    }

    /// The candidate pass on the plan's tier, where the plan runs it:
    /// fixed tables, the prefilter's byte shuffle, and a bounded sweep
    /// after it.
    fn scan_candidates_fold<'p, const MAX: bool>(
        &'p self,
        queries: &[&[u8]],
        base: usize,
        cands: &mut [Candidate<'p>],
    ) {
        let Some(tables) = &self.candidates else {
            return;
        };
        if !(self.fast_scan && self.abandon_exact) {
            return;
        }
        match self.tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `fast_scan` on the AVX-512 tier was detected with
            // AVX-512F and AVX-512BW, and the batch entry points validate
            // queries before any work runs.
            CodesTier::Avx512 => unsafe {
                self.scan_candidates_avx512bw::<MAX>(tables, queries, base, cands);
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the tier was detected with AVX2; validated queries.
            CodesTier::Avx2 => unsafe {
                self.scan_candidates_avx2::<MAX>(tables, queries, base, cands);
            },
            _ => {
                let _ = (tables, queries, base, cands);
            }
        }
    }

    /// The winner fold on the plan's tier: the bounded sweep on the
    /// vector tiers when the LUT makes abandoning exact, behind the
    /// fast-scan prefilter where the plan runs it, otherwise the full
    /// sweep plus [`argmin`].
    fn fold_winners_fold<const MAX: bool>(
        &self,
        queries: &[&[u8]],
        ids: &[usize],
        base: usize,
        best: &mut [Option<(usize, f64)>],
        scratch: &mut BatchScratch<f32>,
    ) {
        if self.fast_scan && self.abandon_exact {
            scratch.fast.prepare(&self.lut, ids);
        }
        match self.tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the tier was detected with AVX-512F and 8-entry
            // LUT rows, `fast_scan` with AVX-512BW, the LUT check held,
            // the tables were prepared above, and the batch entry
            // points validate queries before any work runs.
            CodesTier::Avx512 if self.abandon_exact => unsafe {
                if self.fast_scan {
                    self.winners_block_avx512bw::<MAX>(queries, ids, base, best, scratch);
                } else {
                    self.winners_block_avx512::<MAX>(queries, ids, base, best, scratch);
                }
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the tier was detected with AVX2 and 8-entry LUT
            // rows; same LUT check, prepared tables and validated
            // queries.
            CodesTier::Avx2 if self.abandon_exact => unsafe {
                if self.fast_scan {
                    self.winners_block_avx2::<MAX, true>(queries, ids, base, best, scratch);
                } else {
                    self.winners_block_avx2::<MAX, false>(queries, ids, base, best, scratch);
                }
            },
            _ => fold_winners_full(self, queries, base, best, scratch),
        }
    }

    /// The block kernel: accumulates a block of validated queries into
    /// `acc` (query-major) on the plan's [`CodesTier`], dispatching once
    /// into the Sum- or Max-monomorphized fold.
    fn accumulate_block(&self, queries: &[&[u8]], acc: &mut [f32], aux: &mut Vec<f32>) {
        debug_assert!(acc.len() >= queries.len() * self.n_rows);
        if self.metric.is_max_fold() {
            self.accumulate_block_fold::<true>(queries, acc, aux);
        } else {
            self.accumulate_block_fold::<false>(queries, acc, aux);
        }
    }

    fn accumulate_block_fold<const MAX: bool>(
        &self,
        queries: &[&[u8]],
        acc: &mut [f32],
        aux: &mut Vec<f32>,
    ) {
        match self.tier {
            CodesTier::Scalar => self.accumulate_block_scalar::<MAX>(queries, acc, aux),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the tier was detected with AVX-512F and 8-entry
            // LUT rows; the drivers validate queries before any work
            // runs and size `acc` to the block.
            CodesTier::Avx512 => unsafe { self.accumulate_block_avx512::<MAX>(queries, acc, aux) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the tier was detected with AVX2 and 8-entry LUT
            // rows; same validated queries and block-sized `acc`.
            CodesTier::Avx2 => unsafe { self.accumulate_block_avx2::<MAX>(queries, acc, aux) },
            #[cfg(not(target_arch = "x86_64"))]
            CodesTier::Avx2 | CodesTier::Avx512 => {
                self.accumulate_block_scalar::<MAX>(queries, acc, aux)
            }
        }
    }

    /// The scalar tier: a tiled two-phase block kernel. Per row panel:
    ///
    /// 1. **Expand** — for every column, each *distinct* level the
    ///    block's queries drive there gathers the codes column through
    ///    its LUT row once, into an L2-resident `f32` micro-plane in
    ///    the `aux` slab (`aux[column][level][row]`). This is the only
    ///    gather, and it runs once per `(column, distinct level)` —
    ///    amortized across every query in the block that shares the
    ///    level, not repeated per query.
    /// 2. **Serve** — each query then sweeps its columns in ascending
    ///    order, adding the matching micro-planes into its accumulator
    ///    tile with unit-stride SIMD-friendly loops. The accumulator
    ///    tile stays L1-hot across the whole column sweep (this loop
    ///    order — query outer, column inner — is what the plane kernel
    ///    cannot afford, because its per-level planes would thrash; the
    ///    compact slab makes it cheap).
    ///
    /// Rows advance in panels, columns ascend per query, and each cell
    /// contributes exactly one `f32` add of exactly the LUT's `f32`
    /// rounding — per-row folds identical to the vector tiers' and
    /// bit-identical to the `f32` plane kernel.
    fn accumulate_block_scalar<const MAX: bool>(
        &self,
        queries: &[&[u8]],
        acc: &mut [f32],
        aux: &mut Vec<f32>,
    ) {
        let n = self.n_rows;
        acc[..queries.len() * n].fill(0.0);
        let mask = self.lut_stride - 1;
        let tile = self.row_tile();
        if aux.len() < self.word_len * self.lut_stride * tile {
            aux.resize(self.word_len * self.lut_stride * tile, 0.0);
        }
        let mut t0 = 0;
        while t0 < n {
            let t1 = (t0 + tile).min(n);
            let tlen = t1 - t0;
            // Phase 1: expand the (column, level) micro-planes the
            // block needs into the slab.
            for c in 0..self.word_len {
                let column = &self.codes[c * n + t0..c * n + t1];
                let slab = &mut aux[c * self.lut_stride * tlen..][..self.lut_stride * tlen];
                let mut seen = [false; 256];
                for q in queries {
                    let level = q[c] as usize;
                    if seen[level] {
                        continue;
                    }
                    seen[level] = true;
                    let table = &self.lut[level * self.lut_stride..][..self.lut_stride];
                    let panel = &mut slab[level * tlen..(level + 1) * tlen];
                    for (g, &code) in panel.iter_mut().zip(column) {
                        // `code & mask < table.len()` by construction:
                        // the bound check vanishes.
                        *g = table[code as usize & mask];
                    }
                }
            }
            // Phase 2: per query, sweep columns from the hot slab in
            // register-blocked row sub-tiles — the running sums for
            // SERVE_SUB rows live in a fixed-size local the compiler
            // keeps in vector registers across the whole column sweep,
            // so each cell costs one panel load and one add (no
            // accumulator load/store per column).
            for (qi, q) in queries.iter().enumerate() {
                let out = &mut acc[qi * n + t0..qi * n + t1];
                let mut s0 = 0;
                while s0 < tlen {
                    if tlen - s0 >= SERVE_SUB {
                        let mut local = [0.0f32; SERVE_SUB];
                        for (c, &level) in q.iter().enumerate() {
                            let panel = &aux[(c * self.lut_stride + level as usize) * tlen + s0..]
                                [..SERVE_SUB];
                            for (l, &g) in local.iter_mut().zip(panel) {
                                *l = l.fold::<MAX>(g);
                            }
                        }
                        out[s0..s0 + SERVE_SUB].copy_from_slice(&local);
                        s0 += SERVE_SUB;
                    } else {
                        for (c, &level) in q.iter().enumerate() {
                            let panel = &aux[(c * self.lut_stride + level as usize) * tlen + s0..]
                                [..tlen - s0];
                            for (a, &g) in out[s0..].iter_mut().zip(panel) {
                                *a = a.fold::<MAX>(g);
                            }
                        }
                        s0 = tlen;
                    }
                }
            }
            t0 = t1;
        }
    }

    /// Batched execution through the generic tiled driver — same
    /// contract as [`CompiledMcam::search_batch`], bit-identical to the
    /// `f32` plane plan on the same contents.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledMcam::search_batch`].
    pub fn search_batch(&self, queries: &[&[u8]], n_threads: usize) -> Result<Vec<SearchOutcome>> {
        kernel_search_batch(self, queries, n_threads)
    }
}

impl BlockKernel for CompiledCodes {
    type Acc = f32;

    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn block_len(&self) -> usize {
        CompiledCodes::block_len(self)
    }

    fn check_query(&self, query: &[u8]) -> Result<()> {
        CompiledCodes::check_query(self, query)
    }

    fn accumulate_block(&self, queries: &[&[u8]], acc: &mut [f32], aux: &mut Vec<f32>) {
        CompiledCodes::accumulate_block(self, queries, acc, aux);
    }

    fn fold_winners(
        &self,
        queries: &[&[u8]],
        ids: &[usize],
        base: usize,
        best: &mut [Option<(usize, f64)>],
        scratch: &mut BatchScratch<f32>,
    ) {
        if self.metric.is_max_fold() {
            self.fold_winners_fold::<true>(queries, ids, base, best, scratch);
        } else {
            self.fold_winners_fold::<false>(queries, ids, base, best, scratch);
        }
    }

    fn scan_candidates<'p>(&'p self, queries: &[&[u8]], base: usize, cands: &mut [Candidate<'p>]) {
        if self.metric.is_max_fold() {
            self.scan_candidates_fold::<true>(queries, base, cands);
        } else {
            self.scan_candidates_fold::<false>(queries, base, cands);
        }
    }

    fn bounds_winners(&self) -> bool {
        self.abandon_exact && self.tier != CodesTier::Scalar
    }

    fn batch_work_per_query(&self) -> usize {
        par::codes_work(self.n_rows * self.word_len)
    }
}

/// The engine actually serving a codes-mode request: the packed-code
/// plan on shared-LUT arrays, or the transparent `f32` plane fallback
/// on per-cell (variation) arrays — the dispatch half of
/// [`Precision::Codes`] (see the
/// [module-level "Codes mode"](self#codes-mode)). Obtained from the
/// cached entry points ([`McamArray::compiled_codes`],
/// [`PlanCache::get_or_compile_codes`]).
#[derive(Debug, Clone)]
pub enum CodesDispatch {
    /// Shared-LUT array: the LUT-gather kernel (bit-identical to `f32`
    /// planes at a fraction of the bytes).
    Packed(Arc<CompiledCodes>),
    /// Per-cell (variation) array: the `f32` plane kernel — per-cell
    /// conductances cannot share a LUT.
    Planes(Arc<CompiledMcam<f32>>),
}

impl CodesDispatch {
    /// Compiles a fresh (uncached) codes-mode snapshot of `array` at
    /// `metric` — the single definition of the dispatch rule:
    /// shared-LUT arrays pack to codes, and so does every synthesized
    /// (digital) metric; only the conductance metric on per-cell
    /// (variation) arrays falls back to the `f32` plane plan.
    /// [`PlanCache::get_or_compile_codes`] applies the same rule
    /// against its cached slots; [`CompiledBankedCodes::compile`] uses
    /// this per bank.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyArray`] if nothing is stored.
    pub fn compile_snapshot_metric(array: &McamArray, metric: Metric) -> Result<CodesDispatch> {
        if metric == Metric::McamConductance && array.has_per_cell_bank() {
            Ok(CodesDispatch::Planes(Arc::new(
                CompiledMcam::<f32>::compile_metric(array, metric)?,
            )))
        } else {
            Ok(CodesDispatch::Packed(Arc::new(
                CompiledCodes::compile_metric(array, metric)?,
            )))
        }
    }

    /// The metric this snapshot was compiled for.
    #[must_use]
    pub fn metric(&self) -> Metric {
        match self {
            CodesDispatch::Packed(c) => c.metric(),
            CodesDispatch::Planes(p) => p.metric(),
        }
    }

    /// `true` when the packed-code kernel serves this array (no
    /// variation fallback).
    #[must_use]
    pub fn is_packed(&self) -> bool {
        matches!(self, CodesDispatch::Packed(_))
    }

    /// Rows in the compiled snapshot.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        match self {
            CodesDispatch::Packed(c) => c.n_rows(),
            CodesDispatch::Planes(p) => p.n_rows(),
        }
    }

    /// Resident bytes of the serving plan.
    #[must_use]
    pub fn plan_bytes(&self) -> usize {
        match self {
            CodesDispatch::Packed(c) => c.plan_bytes(),
            CodesDispatch::Planes(p) => p.plan_bytes(),
        }
    }

    /// Batched execution on the serving engine.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledCodes::search_batch`].
    pub fn search_batch(&self, queries: &[&[u8]], n_threads: usize) -> Result<Vec<SearchOutcome>> {
        kernel_search_batch(self, queries, n_threads)
    }
}

impl BlockKernel for CodesDispatch {
    type Acc = f32;

    fn n_rows(&self) -> usize {
        CodesDispatch::n_rows(self)
    }

    fn block_len(&self) -> usize {
        match self {
            CodesDispatch::Packed(c) => c.block_len(),
            CodesDispatch::Planes(p) => p.block_len(),
        }
    }

    fn check_query(&self, query: &[u8]) -> Result<()> {
        match self {
            CodesDispatch::Packed(c) => c.check_query(query),
            CodesDispatch::Planes(p) => p.check_query(query),
        }
    }

    fn accumulate_block(&self, queries: &[&[u8]], acc: &mut [f32], aux: &mut Vec<f32>) {
        match self {
            CodesDispatch::Packed(c) => c.accumulate_block(queries, acc, aux),
            CodesDispatch::Planes(p) => p.accumulate_block(queries, acc),
        }
    }

    fn fold_winners(
        &self,
        queries: &[&[u8]],
        ids: &[usize],
        base: usize,
        best: &mut [Option<(usize, f64)>],
        scratch: &mut BatchScratch<f32>,
    ) {
        match self {
            CodesDispatch::Packed(c) => c.as_ref().fold_winners(queries, ids, base, best, scratch),
            CodesDispatch::Planes(p) => p.as_ref().fold_winners(queries, ids, base, best, scratch),
        }
    }

    fn scan_candidates<'p>(&'p self, queries: &[&[u8]], base: usize, cands: &mut [Candidate<'p>]) {
        if let CodesDispatch::Packed(c) = self {
            c.as_ref().scan_candidates(queries, base, cands);
        }
    }

    fn bounds_winners(&self) -> bool {
        match self {
            CodesDispatch::Packed(c) => c.bounds_winners(),
            CodesDispatch::Planes(_) => false,
        }
    }

    fn batch_work_per_query(&self) -> usize {
        match self {
            CodesDispatch::Packed(c) => BlockKernel::batch_work_per_query(c.as_ref()),
            CodesDispatch::Planes(p) => BlockKernel::batch_work_per_query(p.as_ref()),
        }
    }
}

/// Lanes of [`argmin`]'s minimum pass: independent running minima, so
/// the pass vectorizes instead of walking one compare-select chain.
const ARGMIN_LANES: usize = 16;

/// Index and value of the smallest scalar; ties keep the lowest index
/// (identical to [`SearchOutcome::best_row`]'s first-minimum argmin).
///
/// Two vectorizable passes — a lane-parallel minimum, then the first
/// index whose score equals it — that return exactly what a serial
/// `<` scan from `scores[0]` returns: every lane starts at `scores[0]`,
/// so a later NaN never enters the minimum (it never compares less), a
/// leading NaN is returned as the serial scan returns it, and the
/// value reported is the stored one at the first equal index, so a
/// `0.0`/`-0.0` tie keeps the lowest row's sign.
fn argmin<S: PlaneScalar>(scores: &[S]) -> (usize, S) {
    let first = scores[0];
    let mut lanes = [first; ARGMIN_LANES];
    let chunks = scores.chunks_exact(ARGMIN_LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (m, &g) in lanes.iter_mut().zip(chunk) {
            if g < *m {
                *m = g;
            }
        }
    }
    let mut min = first;
    for &g in lanes.iter().chain(tail) {
        if g < min {
            min = g;
        }
    }
    for (ci, chunk) in scores.chunks(ARGMIN_LANES).enumerate() {
        if chunk.iter().fold(false, |hit, &g| hit | (g == min)) {
            if let Some(j) = chunk.iter().position(|&g| g == min) {
                let i = ci * ARGMIN_LANES + j;
                return (i, scores[i]);
            }
        }
    }
    // Only a leading NaN gets here: every lane starts at it and nothing
    // compares less or equal, which is the serial scan's `(0, NaN)`.
    (0, first)
}

/// A compiled multi-bank plan: one [`CompiledMcam`] per bank plus the
/// fixed-order hierarchical winner-take-all merge.
#[derive(Debug, Clone)]
pub struct CompiledBanked<S: PlaneScalar = f64> {
    plans: Vec<CompiledMcam<S>>,
    rows_per_bank: usize,
}

impl<S: PlaneScalar> CompiledBanked<S> {
    /// Compiles per-bank plans (banks compile independently).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyArray`] if `banks` is empty or any
    /// bank is.
    pub fn compile(banks: &[McamArray], rows_per_bank: usize) -> Result<Self> {
        Self::compile_metric(banks, rows_per_bank, Metric::default())
    }

    /// [`compile`](Self::compile) at a chosen [`Metric`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyArray`] if `banks` is empty or any
    /// bank is.
    pub fn compile_metric(
        banks: &[McamArray],
        rows_per_bank: usize,
        metric: Metric,
    ) -> Result<Self> {
        if banks.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        let plans = par::try_par_map(banks, 1, |_, bank| {
            CompiledMcam::compile_metric(bank, metric)
        })?;
        Ok(CompiledBanked {
            plans,
            rows_per_bank,
        })
    }

    /// Number of banks.
    #[must_use]
    pub fn n_banks(&self) -> usize {
        self.plans.len()
    }

    /// Total rows across banks.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.plans.iter().map(CompiledMcam::n_rows).sum()
    }

    /// The precision this plan was compiled at.
    #[must_use]
    pub fn precision(&self) -> Precision {
        S::PRECISION
    }

    /// Total resident bytes across the per-bank plans.
    #[must_use]
    pub fn plan_bytes(&self) -> usize {
        self.plans.iter().map(CompiledMcam::plan_bytes).sum()
    }

    /// Searches a batch of queries, sharding contiguous query groups
    /// across up to `n_threads` workers (each worker sweeps every bank
    /// for its queries, so one fork–join serves the whole batch); each
    /// result is the merged `(global_row, total_conductance)` winner
    /// for that query, in query order.
    ///
    /// Banks run ascending and the per-query merge folds in bank
    /// order, so winners (including lowest-index tie-breaks) are
    /// bit-identical to a sequential sweep at any thread count.
    ///
    /// # Errors
    ///
    /// The first failing query (in input order) fails the batch.
    pub fn search_batch(&self, queries: &[&[u8]], n_threads: usize) -> Result<Vec<(usize, f64)>> {
        let plans: Vec<&CompiledMcam<S>> = self.plans.iter().collect();
        let bases = bank_bases(plans.len(), self.rows_per_bank);
        banked_winner_batch_kernel(&plans, &bases, queries, WinnerSweep::Full, n_threads)
    }
}

/// Thread-gating cost of one query against a set of per-bank kernels:
/// the sum of each bank's own estimate, so mixed dispatches (packed
/// codes banks next to plane-fallback banks) are costed by what each
/// bank actually executes.
pub(crate) fn banked_work_per_query<K: BlockKernel>(plans: &[&K]) -> usize {
    plans.iter().map(|p| p.batch_work_per_query()).sum()
}

/// Global base rows of a full `n_banks`-bank sweep — the all-banks
/// instantiation of the bank-mask contract (see the module-level
/// ["Bank-mask contract"](self#bank-mask-contract)).
pub(crate) fn bank_bases(n_banks: usize, rows_per_bank: usize) -> Vec<usize> {
    (0..n_banks).map(|b| b * rows_per_bank).collect()
}

/// Which banks a batched winner sweep scores for each query (see
/// [`banked_winner_batch_kernel`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum WinnerSweep<'h> {
    /// Every bank, in ascending order, each query's bound starting from
    /// its own candidate where the plans run the candidate pass (the
    /// module-level ["Self-seeded sweep"](self#self-seeded-sweep)).
    Full,
    /// The routed re-rank: each query's hinted banks only, in ascending
    /// order, per query a masked sweep of exactly those banks. A hint
    /// lists positions in the sweep's `plans`, one list per query;
    /// positions out of range are ignored, and order and repeats do not
    /// matter. A query whose hint names no bank fails the batch.
    Hinted(&'h [&'h [usize]]),
}

/// One query's candidate in the candidate pass (the module-level
/// ["Self-seeded sweep"](self#self-seeded-sweep)): the lowest prefix
/// byte sum seen so far and the first row holding it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate<'p> {
    /// The lowest prefix byte sum seen; above 255 before any row.
    units: u16,
    /// The plan holding the first row with `units`, the plan's base
    /// row, and the row's index in the plan.
    found: Option<(&'p CompiledCodes, usize, usize)>,
}

impl Candidate<'_> {
    const NONE: Self = Candidate {
        units: 256,
        found: None,
    };

    /// The candidate's global row and its exact score for `query`: the
    /// re-rank, once per query after every bank was scanned.
    fn seed(&self, query: &[u8]) -> Option<(usize, f64)> {
        let (plan, base, row) = self.found?;
        tally_bounded_work(plan.word_len, plan.word_len, 0);
        Some((base + row, f64::from(plan.score_row(query, row))))
    }
}

/// Prefix byte sums from which a candidate seeds no sweep: two units
/// per prefix cell, about one one-step cost per cell. A query whose
/// best prefix costs more is no near-duplicate of any row, so its
/// candidate's exact score is no tighter than the bound the sweep finds
/// in its first register block, and a loose seed costs the sweep more
/// than it saves: the prefilter's tables, quantized for the seed bound,
/// stay loose until the bound halves.
const CANDIDATE_MAX_UNITS: u16 = 2 * CANDIDATE_COLUMNS as u16;

/// The candidate pass of a worker's query group: each query gets its
/// candidate from every bank in ascending order; if the candidate's
/// prefix sum is below [`CANDIDATE_MAX_UNITS`], the query's seed is
/// that row and its exact score (the re-rank, one row per query).
fn self_seed<K: BlockKernel>(
    plans: &[&K],
    bases: &[usize],
    queries: &[&[u8]],
) -> Vec<Option<(usize, f64)>> {
    let mut cands = vec![Candidate::NONE; queries.len()];
    for (plan, &base) in plans.iter().zip(bases) {
        plan.scan_candidates(queries, base, &mut cands);
    }
    cands
        .iter()
        .zip(queries)
        .map(|(cand, query)| {
            (cand.units < CANDIDATE_MAX_UNITS)
                .then(|| cand.seed(query))
                .flatten()
        })
        .collect()
}

/// The bound a seeded sweep starts from: the least `f32` above
/// `score`. Seeding runs only on plans that bound winners, whose scores
/// are `f32` widened to `f64`, so a row is admitted under this bound
/// exactly when it scores `<= score`.
fn seed_bound(score: f64) -> f64 {
    f64::from((score as f32).next_up())
}

/// The routed re-rank of a worker's query group
/// ([`WinnerSweep::Hinted`]): folds each query over its hinted banks
/// only, bank-major in ascending bank order (one sub-batch per bank of
/// the queries that hint it), carrying each query's slot across its
/// banks exactly as the full sweep does. A query whose hint names no
/// bank keeps an empty slot.
fn rerank_routes<K: BlockKernel>(
    plans: &[&K],
    bases: &[usize],
    queries: &[&[u8]],
    hints: &[&[usize]],
) -> Vec<Option<(usize, f64)>> {
    let mut best = vec![None; queries.len()];
    let mut scratch = BatchScratch::<K::Acc>::new();
    let mut visits: Vec<(usize, usize)> = hints
        .iter()
        .enumerate()
        .flat_map(|(q, banks)| {
            banks
                .iter()
                .filter(|&&b| b < plans.len())
                .map(move |&b| (b, q))
        })
        .collect();
    visits.sort_unstable();
    visits.dedup();
    let mut block: Vec<&[u8]> = Vec::new();
    let mut ids: Vec<usize> = Vec::new();
    let mut slots: Vec<Option<(usize, f64)>> = Vec::new();
    for run in visits.chunk_by(|a, b| a.0 == b.0) {
        let (plan, base) = (plans[run[0].0], bases[run[0].0]);
        block.clear();
        block.extend(run.iter().map(|&(_, q)| queries[q]));
        ids.clear();
        ids.extend(run.iter().map(|&(_, q)| q));
        slots.clear();
        slots.extend(run.iter().map(|&(_, q)| best[q]));
        let len = plan.block_len();
        for ((b, i), s) in block
            .chunks(len)
            .zip(ids.chunks(len))
            .zip(slots.chunks_mut(len))
        {
            plan.fold_winners(b, i, base, s, &mut scratch);
        }
        for (&(_, q), &slot) in run.iter().zip(&slots) {
            best[q] = slot;
        }
    }
    best
}

/// Batched hierarchical winner-take-all over per-bank kernels:
/// contiguous query groups shard across workers; each worker sweeps
/// banks in ascending order for its group with one reusable scratch,
/// merging per-query winners in bank order as it goes.
///
/// `bases[i]` is the global base row of `plans[i]`: [`bank_bases`]
/// for a full sweep, or any ascending bank subset's true bases for a
/// masked sweep (the module-level
/// ["Bank-mask contract"](self#bank-mask-contract)). `sweep` picks the
/// banks each query visits: all of them, or its hinted banks alone.
/// Before a sweep of all of them, each query gets its seed from the
/// candidate pass ([`self_seed`]) when some plan bounds its winners.
pub(crate) fn banked_winner_batch_kernel<K: BlockKernel>(
    plans: &[&K],
    bases: &[usize],
    queries: &[&[u8]],
    sweep: WinnerSweep<'_>,
    n_threads: usize,
) -> Result<Vec<(usize, f64)>> {
    debug_assert_eq!(plans.len(), bases.len(), "one base per bank kernel");
    // femcam::allow(no_panic): callers pass one plan per bank and banked
    // memories have >= 1 bank.
    let first = plans.first().expect("at least one bank");
    for q in queries {
        first.check_query(q)?;
    }
    if queries.is_empty() {
        return Ok(Vec::new());
    }
    let per_query = match sweep {
        WinnerSweep::Full => banked_work_per_query(plans),
        WinnerSweep::Hinted(hints) => {
            debug_assert_eq!(hints.len(), queries.len(), "one hint per query");
            let hinted: usize = hints
                .iter()
                .flat_map(|banks| banks.iter().filter_map(|&b| plans.get(b)))
                .map(|p| p.batch_work_per_query())
                .sum();
            hinted.div_ceil(queries.len())
        }
    };
    let threads = par::batch_threads(queries.len(), per_query, n_threads);
    let group = queries.len().div_ceil(threads).max(1);
    let starts: Vec<usize> = (0..queries.len()).step_by(group).collect();
    let bounding = plans.iter().any(|p| p.bounds_winners());
    let per_group = par::par_map(&starts, threads, |_, &start| {
        let span = start..(start + group).min(queries.len());
        let group = &queries[span.clone()];
        if let WinnerSweep::Hinted(hints) = sweep {
            return rerank_routes(plans, bases, group, hints.get(span).unwrap_or(&[]));
        }
        let mut scratch = BatchScratch::<K::Acc>::new();
        // The seed row keeps its place but its score rises to the seed
        // bound: the sweep below scores it again, so the slot always
        // ends on a row it took itself.
        let mut best: Vec<Option<(usize, f64)>> = if bounding {
            self_seed(plans, bases, group)
                .into_iter()
                .map(|slot| {
                    slot.filter(|(_, g)| g.is_finite())
                        .map(|(row, g)| (row, seed_bound(g)))
                })
                .collect()
        } else {
            vec![None; group.len()]
        };
        let ids: Vec<usize> = (0..group.len()).collect();
        for (plan, &base) in plans.iter().zip(bases) {
            let len = plan.block_len();
            let blocks = group.chunks(len).zip(ids.chunks(len));
            for ((block, ids), slots) in blocks.zip(best.chunks_mut(len)) {
                plan.fold_winners(block, ids, base, slots, &mut scratch);
            }
        }
        best
    });
    per_group
        .into_iter()
        .flatten()
        .map(|slot| {
            slot.ok_or(CoreError::InvalidParameter {
                name: "bank mask",
                value: 0.0,
            })
        })
        .collect()
}

/// A compiled multi-bank packed-code plan: one [`CodesDispatch`] per
/// bank (packed codes for shared-LUT banks, `f32` plane fallback for
/// variation banks) plus the same fixed-order winner merge as
/// [`CompiledBanked`]. An explicit snapshot — the cached entry points
/// ([`crate::banked::BankedMcam::search_batch_winners_with`] at
/// [`Precision::Codes`]) are usually preferable.
#[derive(Debug, Clone)]
pub struct CompiledBankedCodes {
    plans: Vec<CodesDispatch>,
    rows_per_bank: usize,
}

impl CompiledBankedCodes {
    /// Compiles per-bank codes plans (falling back to `f32` planes for
    /// any bank realized with device variation).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyArray`] if `banks` is empty or any
    /// bank is.
    pub fn compile(banks: &[McamArray], rows_per_bank: usize) -> Result<Self> {
        Self::compile_metric(banks, rows_per_bank, Metric::default())
    }

    /// [`compile`](Self::compile) at a chosen [`Metric`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyArray`] if `banks` is empty or any
    /// bank is.
    pub fn compile_metric(
        banks: &[McamArray],
        rows_per_bank: usize,
        metric: Metric,
    ) -> Result<Self> {
        if banks.is_empty() {
            return Err(CoreError::EmptyArray);
        }
        let plans = par::try_par_map(banks, 1, |_, bank| {
            CodesDispatch::compile_snapshot_metric(bank, metric)
        })?;
        Ok(CompiledBankedCodes {
            plans,
            rows_per_bank,
        })
    }

    /// Number of banks.
    #[must_use]
    pub fn n_banks(&self) -> usize {
        self.plans.len()
    }

    /// Total rows across banks.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.plans.iter().map(CodesDispatch::n_rows).sum()
    }

    /// The precision tag of this plan ([`Precision::Codes`]).
    #[must_use]
    pub fn precision(&self) -> Precision {
        Precision::Codes
    }

    /// Total resident bytes across the per-bank plans.
    #[must_use]
    pub fn plan_bytes(&self) -> usize {
        self.plans.iter().map(CodesDispatch::plan_bytes).sum()
    }

    /// Batched multi-bank search — same contract as
    /// [`CompiledBanked::search_batch`].
    ///
    /// # Errors
    ///
    /// The first failing query (in input order) fails the batch.
    pub fn search_batch(&self, queries: &[&[u8]], n_threads: usize) -> Result<Vec<(usize, f64)>> {
        let plans: Vec<&CodesDispatch> = self.plans.iter().collect();
        let bases = bank_bases(plans.len(), self.rows_per_bank);
        banked_winner_batch_kernel(&plans, &bases, queries, WinnerSweep::Full, n_threads)
    }
}

/// `f64` ordered by [`f64::total_cmp`] for heap membership.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TotalF64(f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Bounded-heap top-k selection into `out` as ascending
/// `(index, score)` pairs, reusing the caller's heap and sort scratch.
/// Ties on score resolve to the lower index, matching a stable
/// ascending sort; `k >= n` returns all entries fully sorted.
fn select_top_k<S: PlaneScalar>(
    scores: &[S],
    k: usize,
    heap: &mut BinaryHeap<(TotalF64, usize)>,
    sorted: &mut Vec<(TotalF64, usize)>,
    out: &mut Vec<(usize, f64)>,
) {
    out.clear();
    if k == 0 || scores.is_empty() {
        return;
    }
    let k = k.min(scores.len());
    heap.clear();
    for (i, &s) in scores.iter().enumerate() {
        let item = (TotalF64(s.to_f64()), i);
        if heap.len() < k {
            heap.push(item);
        } else if let Some(&worst) = heap.peek() {
            if item < worst {
                heap.pop();
                heap.push(item);
            }
        }
    }
    sorted.clear();
    sorted.extend(heap.drain());
    sorted.sort_unstable();
    out.extend(sorted.iter().map(|&(g, i)| (i, g.0)));
}

/// Indices of the `k` smallest scores, ascending by `(score, index)` —
/// a bounded max-heap selection in `O(n log k)` replacing the previous
/// full `O(n log n)` sorts on the hot path.
///
/// Ties on score resolve to the lower index, matching a stable
/// ascending sort; `k >= n` returns all indices fully sorted.
#[must_use]
pub fn top_k_indices(scores: &[f64], k: usize) -> Vec<usize> {
    let mut heap = BinaryHeap::new();
    let mut sorted = Vec::new();
    let mut out = Vec::new();
    select_top_k(scores, k, &mut heap, &mut sorted, &mut out);
    out.into_iter().map(|(i, _)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{McamArrayBuilder, VariationSpec};
    use crate::levels::LevelLadder;
    use crate::lut::ConductanceLut;
    use femcam_device::FefetModel;
    use proptest::prelude::*;

    /// One query through a plan's explicit-snapshot batch entry, on one
    /// worker.
    fn search_one<K: BlockKernel>(plan: &K, query: &[u8]) -> Result<SearchOutcome> {
        kernel_search_batch(plan, &[query], 1).map(|mut o| o.remove(0))
    }

    /// Each query's winner on one flat plan: the one-bank banked merge.
    fn flat_winners<K: BlockKernel>(
        plan: &K,
        queries: &[&[u8]],
        n_threads: usize,
    ) -> Result<Vec<(usize, f64)>> {
        banked_winner_batch_kernel(&[plan], &[0], queries, WinnerSweep::Full, n_threads)
    }

    fn array_with_rows(word_len: usize, rows: &[Vec<u8>]) -> McamArray {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        let mut a = McamArray::new(ladder, lut, word_len);
        for r in rows {
            a.store(r).unwrap();
        }
        a
    }

    #[test]
    fn compiled_search_is_bit_identical_to_scalar() {
        let rows: Vec<Vec<u8>> = (0..17)
            .map(|i| (0..6).map(|c| ((i * 3 + c * 5) % 8) as u8).collect())
            .collect();
        let a = array_with_rows(6, &rows);
        let plan: CompiledMcam = CompiledMcam::compile(&a).unwrap();
        for q in [[0u8, 1, 2, 3, 4, 5], [7, 7, 0, 0, 3, 3], [2, 2, 2, 2, 2, 2]] {
            let scalar = a.search(&q).unwrap();
            let compiled = search_one(&plan, &q).unwrap();
            assert_eq!(scalar.conductances(), compiled.conductances());
        }
    }

    /// Every plane entry of a compiled plan, bitwise, against the
    /// per-cell oracle `S::from_f64(cell_metric_value(..))`.
    fn assert_planes_match_cells<S: PlaneScalar + Into<f64>>(a: &McamArray, metric: Metric) {
        let plan = CompiledMcam::<S>::compile_metric(a, metric).unwrap();
        let (n_rows, word_len) = (a.n_rows(), a.word_len());
        for input in 0..a.ladder().n_levels() as u8 {
            for c in 0..word_len {
                for r in 0..n_rows {
                    let got = plan.planes[(input as usize * word_len + c) * n_rows + r];
                    let want = S::from_f64(a.cell_metric_value(r, c, input, metric));
                    assert_eq!(
                        got.into().to_bits(),
                        want.into().to_bits(),
                        "{:?} {metric:?} plane entry (input {input}, col {c}, row {r})",
                        S::PRECISION
                    );
                }
            }
        }
    }

    #[test]
    fn compiled_planes_match_per_cell_values_bitwise() {
        let ladder = LevelLadder::new(3).unwrap();
        let model = FefetModel::default();
        let lut = ConductanceLut::from_device(&model, &ladder);
        let shared = McamArray::new(ladder, lut.clone(), 5);
        let varied = McamArrayBuilder::new(ladder, lut)
            .word_len(5)
            .variation(
                VariationSpec {
                    sigma_v: 0.08,
                    seed: 23,
                },
                model,
            )
            .build();
        for mut a in [shared, varied] {
            for i in 0..11u8 {
                a.store(&[i % 8, (i * 3) % 8, (i + 4) % 8, 7 - i % 8, (i * 5 + 1) % 8])
                    .unwrap();
            }
            for metric in Metric::ALL {
                assert_planes_match_cells::<f64>(&a, metric);
                assert_planes_match_cells::<f32>(&a, metric);
            }
            if a.has_per_cell_bank() {
                // A digital metric reads stored states, never the
                // realized bank: its planes equal the shared array's
                // level distances, while the conductance planes do not.
                let rows: Vec<Vec<u8>> = (0..a.n_rows()).map(|r| a.row(r).to_vec()).collect();
                let nominal = array_with_rows(5, &rows);
                for metric in [Metric::L1, Metric::Hamming] {
                    let got = CompiledMcam::<f64>::compile_metric(&a, metric).unwrap();
                    let want = CompiledMcam::<f64>::compile_metric(&nominal, metric).unwrap();
                    assert_eq!(got.planes, want.planes, "{metric:?} saw the bank");
                }
                assert_ne!(
                    CompiledMcam::<f64>::compile(&a).unwrap().planes,
                    CompiledMcam::<f64>::compile(&nominal).unwrap().planes,
                    "conductance planes must read the realized bank"
                );
            }
        }
    }

    #[test]
    fn compiled_search_matches_scalar_under_variation() {
        let ladder = LevelLadder::new(3).unwrap();
        let model = FefetModel::default();
        let lut = ConductanceLut::from_device(&model, &ladder);
        let mut a = McamArrayBuilder::new(ladder, lut)
            .word_len(5)
            .variation(
                VariationSpec {
                    sigma_v: 0.06,
                    seed: 17,
                },
                model,
            )
            .build();
        for i in 0..9u8 {
            a.store(&[i % 8, (i + 1) % 8, (i + 2) % 8, (i + 3) % 8, (i + 5) % 8])
                .unwrap();
        }
        let plan: CompiledMcam = CompiledMcam::compile(&a).unwrap();
        let q = [4u8, 0, 6, 2, 7];
        assert_eq!(
            a.search(&q).unwrap().conductances(),
            search_one(&plan, &q).unwrap().conductances(),
        );
    }

    #[test]
    fn compiled_plan_is_a_snapshot() {
        let mut a = array_with_rows(2, &[vec![0, 0]]);
        let plan: CompiledMcam = CompiledMcam::compile(&a).unwrap();
        a.store(&[7, 7]).unwrap();
        assert_eq!(plan.n_rows(), 1);
        assert_eq!(a.n_rows(), 2);
        assert_eq!(search_one(&plan, &[7, 7]).unwrap().conductances().len(), 1);
    }

    #[test]
    fn compiled_validation_mirrors_scalar_errors() {
        let a = array_with_rows(3, &[vec![1, 2, 3]]);
        let plan: CompiledMcam = CompiledMcam::compile(&a).unwrap();
        assert!(matches!(
            search_one(&plan, &[1, 2]),
            Err(CoreError::WordLengthMismatch {
                expected: 3,
                actual: 2
            })
        ));
        assert!(matches!(
            search_one(&plan, &[1, 2, 9]),
            Err(CoreError::LevelOutOfRange { level: 9, max: 7 })
        ));
        let empty = McamArray::new(
            LevelLadder::new(3).unwrap(),
            ConductanceLut::from_device(&FefetModel::default(), &LevelLadder::new(3).unwrap()),
            3,
        );
        assert!(matches!(
            CompiledMcam::<f64>::compile(&empty),
            Err(CoreError::EmptyArray)
        ));
    }

    #[test]
    fn batch_results_are_in_query_order_and_first_error_wins() {
        let a = array_with_rows(2, &[vec![0, 0], vec![7, 7], vec![3, 3]]);
        let plan: CompiledMcam = CompiledMcam::compile(&a).unwrap();
        let queries: Vec<Vec<u8>> = vec![vec![0, 0], vec![7, 7], vec![3, 4]];
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let outcomes = plan.search_batch(&refs, 4).unwrap();
        assert_eq!(outcomes[0].best_row(), 0);
        assert_eq!(outcomes[1].best_row(), 1);
        assert_eq!(outcomes[2].best_row(), 2);
        // First malformed query in input order decides the error.
        let bad: Vec<&[u8]> = vec![&[0, 0], &[9, 9], &[1]];
        assert!(matches!(
            plan.search_batch(&bad, 4),
            Err(CoreError::LevelOutOfRange { level: 9, .. })
        ));
    }

    #[test]
    fn winners_and_top_k_agree_with_full_outcomes() {
        let rows: Vec<Vec<u8>> = (0..29)
            .map(|i| (0..5).map(|c| ((i * 5 + c * 3) % 8) as u8).collect())
            .collect();
        let a = array_with_rows(5, &rows);
        let plan: CompiledMcam = CompiledMcam::compile(&a).unwrap();
        let queries: Vec<Vec<u8>> = (0..9)
            .map(|i| (0..5).map(|c| ((i * 7 + c) % 8) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let outcomes = plan.search_batch(&refs, 3).unwrap();
        let winners = flat_winners(&plan, &refs, 3).unwrap();
        let top3 = kernel_search_batch_top_k(&plan, &refs, 3, 3).unwrap();
        for ((outcome, &(row, g)), hits) in outcomes.iter().zip(&winners).zip(&top3) {
            assert_eq!(row, outcome.best_row());
            assert_eq!(g, outcome.conductance(row));
            let expect: Vec<usize> = outcome.top_k(3);
            let got: Vec<usize> = hits.iter().map(|&(r, _)| r).collect();
            assert_eq!(got, expect);
            for &(r, score) in hits {
                assert_eq!(score, outcome.conductance(r));
            }
        }
    }

    #[test]
    fn f32_plan_finds_the_same_easy_winners() {
        let rows: Vec<Vec<u8>> = (0..23)
            .map(|i| (0..6).map(|c| ((i * 3 + c * 5) % 8) as u8).collect())
            .collect();
        let a = array_with_rows(6, &rows);
        let plan64 = CompiledMcam::<f64>::compile(&a).unwrap();
        let plan32 = CompiledMcam::<f32>::compile(&a).unwrap();
        assert_eq!(plan32.precision(), Precision::F32);
        for (i, row) in rows.iter().enumerate().take(8) {
            // Exact-match queries have an unambiguous winner.
            assert_eq!(search_one(&plan32, row).unwrap().best_row(), i);
            assert_eq!(search_one(&plan64, row).unwrap().best_row(), i);
        }
        // And f32 conductances are close to the f64 reference.
        let o64 = search_one(&plan64, &rows[0]).unwrap();
        let o32 = search_one(&plan32, &rows[0]).unwrap();
        for (a, b) in o64.conductances().iter().zip(o32.conductances()) {
            assert!((a - b).abs() / a < 1e-5, "f32 drifted: {a} vs {b}");
        }
    }

    #[test]
    fn plan_cache_compiles_once_and_invalidates() {
        let mut a = array_with_rows(2, &[vec![0, 0], vec![7, 7]]);
        let p1 = a.cached_plan::<f64>(Metric::default()).unwrap();
        let p2 = a.cached_plan::<f64>(Metric::default()).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "cache must return the same plan");
        let f1 = a.cached_plan::<f32>(Metric::default()).unwrap();
        assert_eq!(f1.precision(), Precision::F32);
        a.store(&[3, 3]).unwrap();
        let p3 = a.cached_plan::<f64>(Metric::default()).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p3), "store must invalidate the cache");
        assert_eq!(p3.n_rows(), 3);
        let f2 = a.cached_plan::<f32>(Metric::default()).unwrap();
        assert!(!Arc::ptr_eq(&f1, &f2));
        assert_eq!(f2.n_rows(), 3);
    }

    #[test]
    fn codes_plan_is_bit_identical_to_f32_plane() {
        let rows: Vec<Vec<u8>> = (0..37)
            .map(|i| (0..6).map(|c| ((i * 5 + c * 3) % 8) as u8).collect())
            .collect();
        let a = array_with_rows(6, &rows);
        let plan32 = CompiledMcam::<f32>::compile(&a).unwrap();
        let codes = CompiledCodes::compile(&a).unwrap();
        assert_eq!(codes.precision(), Precision::Codes);
        assert_eq!(codes.n_rows(), plan32.n_rows());
        assert_eq!(codes.word_len(), plan32.word_len());
        assert_eq!(codes.n_levels(), plan32.n_levels());
        let queries: Vec<Vec<u8>> = (0..9)
            .map(|i| (0..6).map(|c| ((i * 7 + c) % 8) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        for q in &refs {
            assert_eq!(
                search_one(&codes, q).unwrap().conductances(),
                search_one(&plan32, q).unwrap().conductances(),
                "codes single-query result drifted from f32"
            );
        }
        let o_codes = codes.search_batch(&refs, 3).unwrap();
        let o_f32 = plan32.search_batch(&refs, 3).unwrap();
        for (c, f) in o_codes.iter().zip(&o_f32) {
            assert_eq!(c.conductances(), f.conductances());
        }
        assert_eq!(
            flat_winners(&codes, &refs, 2).unwrap(),
            flat_winners(&plan32, &refs, 2).unwrap(),
        );
        assert_eq!(
            kernel_search_batch_top_k(&codes, &refs, 4, 2).unwrap(),
            kernel_search_batch_top_k(&plan32, &refs, 4, 2).unwrap(),
        );
    }

    #[test]
    fn codes_compile_rejects_variation_and_empty() {
        let ladder = LevelLadder::new(3).unwrap();
        let model = FefetModel::default();
        let lut = ConductanceLut::from_device(&model, &ladder);
        let mut varied = McamArrayBuilder::new(ladder, lut.clone())
            .word_len(4)
            .variation(
                VariationSpec {
                    sigma_v: 0.05,
                    seed: 3,
                },
                model,
            )
            .build();
        varied.store(&[1, 2, 3, 4]).unwrap();
        assert!(matches!(
            CompiledCodes::compile(&varied),
            Err(CoreError::PerCellBank)
        ));
        // The cached dispatch falls back to planes instead of failing.
        let dispatch = varied.compiled_codes(Metric::default()).unwrap();
        assert!(!dispatch.is_packed());
        assert_eq!(
            search_one(&dispatch, &[1, 2, 3, 4]).unwrap().conductances(),
            search_one(
                varied
                    .cached_plan::<f32>(Metric::default())
                    .unwrap()
                    .as_ref(),
                &[1, 2, 3, 4]
            )
            .unwrap()
            .conductances(),
        );
        let empty = McamArray::new(ladder, lut, 4);
        assert!(matches!(
            CompiledCodes::compile(&empty),
            Err(CoreError::EmptyArray)
        ));
        // Validation mirrors the plane plans.
        let a = array_with_rows(3, &[vec![1, 2, 3]]);
        let codes = CompiledCodes::compile(&a).unwrap();
        assert!(matches!(
            search_one(&codes, &[1, 2]),
            Err(CoreError::WordLengthMismatch {
                expected: 3,
                actual: 2
            })
        ));
        assert!(matches!(
            search_one(&codes, &[1, 2, 9]),
            Err(CoreError::LevelOutOfRange { level: 9, max: 7 })
        ));
    }

    #[test]
    fn codes_plan_bytes_and_cache_slots() {
        let rows: Vec<Vec<u8>> = (0..64)
            .map(|i| (0..8).map(|c| ((i + c * 3) % 8) as u8).collect())
            .collect();
        let mut a = array_with_rows(8, &rows);
        assert_eq!(a.plan_memory_bytes().total(), 0, "cold cache holds nothing");
        let p64 = a.cached_plan::<f64>(Metric::default()).unwrap();
        let p32 = a.cached_plan::<f32>(Metric::default()).unwrap();
        let codes = a.compiled_codes(Metric::default()).unwrap();
        assert!(codes.is_packed());
        // Exact byte formulas: planes are n_levels*wl*rows scalars,
        // codes are wl*rows bytes plus the padded f32 LUT.
        assert_eq!(p64.plan_bytes(), 8 * 8 * 64 * 8);
        assert_eq!(p32.plan_bytes(), 8 * 8 * 64 * 4);
        assert_eq!(codes.plan_bytes(), 8 * 64 + 8 * 8 * 4);
        // The acceptance ratio: codes at least 16x below the f64 plan.
        assert!(p64.plan_bytes() >= 16 * codes.plan_bytes());
        let mem = a.plan_memory_bytes();
        assert_eq!(mem.f64_plane, p64.plan_bytes());
        assert_eq!(mem.f32_plane, p32.plan_bytes());
        assert_eq!(mem.codes, codes.plan_bytes());
        assert_eq!(
            mem.total(),
            p64.plan_bytes() + p32.plan_bytes() + codes.plan_bytes()
        );
        // The codes slot caches (same engine back) and invalidates on
        // store like the plane slots.
        let codes2 = a.compiled_codes(Metric::default()).unwrap();
        match (&codes, &codes2) {
            (CodesDispatch::Packed(x), CodesDispatch::Packed(y)) => {
                assert!(Arc::ptr_eq(x, y), "cache must return the same codes plan");
            }
            _ => panic!("shared-LUT array must dispatch packed"),
        }
        a.store(&rows[0].clone()).unwrap();
        assert_eq!(
            a.plan_memory_bytes().total(),
            0,
            "store must clear all slots"
        );
        let codes3 = a.compiled_codes(Metric::default()).unwrap();
        assert_eq!(codes3.n_rows(), 65);
    }

    #[test]
    fn codes_threshold_is_one_query() {
        // The documented amortization decision: compiling a code plan
        // costs about one scalar query, so the entry points compile
        // eagerly even for a lone cold-cache query.
        assert_eq!(CODES_COMPILE_THRESHOLD, 1);
        let a = array_with_rows(2, &[vec![0, 0], vec![7, 7]]);
        assert_eq!(a.plan_memory_bytes().codes, 0);
        let _ = a.search_batch_with(&[&[0, 0]], Precision::Codes).unwrap();
        assert!(
            a.plan_memory_bytes().codes > 0,
            "lone query must compile the codes plan"
        );
    }

    #[test]
    fn top_k_matches_stable_full_sort() {
        let scores = [3.0, 1.0, 2.0, 1.0, 5.0, 0.5, 2.0, 1.0];
        for k in 0..=10 {
            let mut expect: Vec<usize> = (0..scores.len()).collect();
            expect.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap());
            expect.truncate(k);
            assert_eq!(top_k_indices(&scores, k), expect, "k={k}");
        }
        assert!(top_k_indices(&[], 3).is_empty());
    }

    /// Every codes tier this host runs, against the scalar tier and
    /// the `f32` plane plan, bitwise: single-query and batched full
    /// outcomes, winners and top-k, over row counts on both sides of
    /// every vector, register-block and tile edge, one-cell to 64-cell
    /// words, and all four metrics (the L∞ max fold included). Prints
    /// which tiers ran, so a host without AVX-512 does not pass
    /// silently.
    #[test]
    fn codes_kernel_tiers_are_bit_identical() {
        let tiers = [CodesTier::Scalar, CodesTier::Avx2, CodesTier::Avx512];
        let ran: Vec<CodesTier> = tiers.into_iter().filter(|t| t.available(8)).collect();
        for tier in tiers {
            let status = if ran.contains(&tier) {
                "ran"
            } else {
                "skipped (not supported on this host)"
            };
            let scan = if tier.fast_scan(64) { "on" } else { "off" };
            println!("codes kernel tier {tier:?}: {status}, fast scan {scan}");
        }
        let outcome_bits = |outcomes: &[SearchOutcome]| -> Vec<Vec<u64>> {
            outcomes
                .iter()
                .map(|o| o.conductances().iter().map(|g| g.to_bits()).collect())
                .collect()
        };
        let hit_bits = |hits: &[(usize, f64)]| -> Vec<(usize, u64)> {
            hits.iter().map(|&(r, g)| (r, g.to_bits())).collect()
        };
        // Single-query and batched outcomes, winners and top-5 of a
        // query batch, as bits: the same calls on either plan type.
        macro_rules! results {
            ($plan:expr, $refs:expr) => {{
                let (plan, refs): (_, &[&[u8]]) = ($plan, $refs);
                let singles: Vec<SearchOutcome> =
                    refs.iter().map(|q| search_one(plan, q).unwrap()).collect();
                let top = kernel_search_batch_top_k(plan, refs, 5, 1).unwrap();
                (
                    outcome_bits(&singles),
                    outcome_bits(&plan.search_batch(refs, 1).unwrap()),
                    hit_bits(&flat_winners(plan, refs, 1).unwrap()),
                    top.iter().map(|hits| hit_bits(hits)).collect::<Vec<_>>(),
                )
            }};
        }
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut level = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 8) as u8
        };
        for word_len in [1, 6, 64] {
            for n_rows in [
                1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256, 300,
            ] {
                let mut word = |_| (0..word_len).map(|_| level()).collect::<Vec<u8>>();
                let rows: Vec<Vec<u8>> = (0..n_rows).map(&mut word).collect();
                let mut queries: Vec<Vec<u8>> = (0..5).map(&mut word).collect();
                // An exact match on the last row, which sits in the
                // last (often partial) vector.
                queries.push(rows[n_rows - 1].clone());
                let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
                let a = array_with_rows(word_len, &rows);
                for metric in Metric::ALL {
                    let ctx = format!("{metric:?} word_len={word_len} n_rows={n_rows}");
                    let plane = CompiledMcam::<f32>::compile_metric(&a, metric).unwrap();
                    let compiled = CompiledCodes::compile_metric(&a, metric).unwrap();
                    let expect = results!(&plane, &refs);
                    let scalar = results!(
                        &CompiledCodes {
                            tier: CodesTier::Scalar,
                            ..compiled.clone()
                        },
                        &refs
                    );
                    assert!(
                        scalar == expect,
                        "scalar tier drifted from f32 planes: {ctx}"
                    );
                    for &tier in &ran[1..] {
                        for scan in scan_modes(tier) {
                            let got = results!(
                                &CompiledCodes {
                                    tier,
                                    fast_scan: scan && tier.fast_scan(word_len),
                                    ..compiled.clone()
                                },
                                &refs
                            );
                            assert!(
                                got == scalar,
                                "{tier:?} (fast scan {scan}) drifted from the scalar tier: {ctx}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The serial first-minimum scan: the oracle the two-pass
    /// [`argmin`] must match exactly.
    fn argmin_serial<S: PlaneScalar>(scores: &[S]) -> (usize, S) {
        let mut best = 0;
        let mut best_g = scores[0];
        for (i, &g) in scores.iter().enumerate().skip(1) {
            if g < best_g {
                best = i;
                best_g = g;
            }
        }
        (best, best_g)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// `argmin` returns the serial scan's `(index, value)`, value
        /// bits included, in `f32` and `f64`: scores drawn from a
        /// palette with `0.0`/`-0.0` ties and NaN, with one value
        /// planted on both sides of a 16-lane chunk boundary and in
        /// the remainder.
        #[test]
        fn argmin_matches_the_serial_scan(
            picks in collection::vec(0usize..6, 1..70),
            boundary in 1usize..5,
            plant in 0usize..5,
        ) {
            let palette = [0.0f32, -0.0, 1.0, 0.5, f32::NAN, 2.0];
            let planted = [-3.0f32, 0.0, -0.0, f32::NAN, -1.0][plant];
            let mut scores: Vec<f32> = picks.iter().map(|&p| palette[p]).collect();
            let len = scores.len();
            let edge = boundary * ARGMIN_LANES;
            // The last lane before a chunk boundary, the first after
            // it, and a slot inside the remainder (the last score when
            // there is none).
            let in_tail = len - 1 - len % ARGMIN_LANES / 2;
            for at in [edge - 1, edge, in_tail] {
                if at < len {
                    scores[at] = planted;
                }
            }
            let (i, g) = argmin(&scores);
            let (si, sg) = argmin_serial(&scores);
            prop_assert_eq!((i, g.to_bits()), (si, sg.to_bits()));
            let wide: Vec<f64> = scores.iter().map(|&g| f64::from(g)).collect();
            let (i, g) = argmin(&wide);
            let (si, sg) = argmin_serial(&wide);
            prop_assert_eq!((i, g.to_bits()), (si, sg.to_bits()));
        }
    }

    /// Rows at equal distance from the query, spread over different
    /// lanes, register blocks, tiles and banks: every precision and
    /// metric reports the lowest global row, whichever of the tied
    /// rows are stored.
    #[test]
    fn banked_ties_resolve_to_the_lowest_global_row() {
        use crate::banked::BankedMcam;
        const WORD: usize = 64;
        const PER_BANK: usize = 300;
        // Lane 5 of bank 0's first vector; lane 9 of its second
        // 128-row tile; its last, partial vector; bank 1's second
        // tile; bank 2.
        let tied = [5usize, 137, 290, 450, 700];
        let target: Vec<u8> = (0..WORD).map(|c| (c * 3 % 8) as u8).collect();
        for first in 0..tied.len() {
            let ladder = LevelLadder::new(3).unwrap();
            let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
            let mut memory = BankedMcam::new(ladder, lut, WORD, PER_BANK);
            for r in 0..3 * PER_BANK {
                if tied[first..].contains(&r) {
                    memory.store(&target).unwrap();
                } else {
                    // Every cell one to seven levels off the target:
                    // strictly farther under every metric.
                    let far: Vec<u8> = target
                        .iter()
                        .enumerate()
                        .map(|(c, &t)| (t + 1 + ((r + c) % 7) as u8) % 8)
                        .collect();
                    memory.store(&far).unwrap();
                }
            }
            for precision in [Precision::F64, Precision::F32, Precision::Codes] {
                for metric in Metric::ALL {
                    let spec = SearchSpec {
                        precision,
                        metric,
                        ..SearchSpec::default()
                    };
                    let winners = memory
                        .search_batch_winners_with(&[&target, &target], spec)
                        .unwrap();
                    for (row, _) in winners {
                        assert_eq!(row, tied[first], "{precision:?} {metric:?}");
                    }
                }
            }
        }
    }

    /// Reads and resets this thread's bounded-sweep work counter:
    /// `(vector-columns scored, vector-columns a full sweep scores, row
    /// vectors the fast-scan prefilter rejected)`.
    fn take_bounded_work() -> (u64, u64, u64) {
        BOUNDED_WORK.with(|work| work.replace((0, 0, 0)))
    }

    const ALL_TIERS: [CodesTier; 3] = [CodesTier::Scalar, CodesTier::Avx2, CodesTier::Avx512];

    /// The codes tiers this host runs, scalar first.
    fn host_tiers() -> Vec<CodesTier> {
        ALL_TIERS.into_iter().filter(|t| t.available(8)).collect()
    }

    /// A fresh copy of `plan` running on `tier`, with the fast-scan
    /// prefilter where that tier runs it on this host.
    fn on_tier(plan: &CompiledCodes, tier: CodesTier) -> CodesDispatch {
        on_tier_scan(plan, tier, true)
    }

    /// A fresh copy of `plan` running on `tier`, with the fast-scan
    /// prefilter off, or (`scan`) on where that tier runs it on this
    /// host.
    fn on_tier_scan(plan: &CompiledCodes, tier: CodesTier, scan: bool) -> CodesDispatch {
        on_tier_modes(plan, tier, scan, true)
    }

    /// [`on_tier_scan`], with the self-seeding candidate pass off, or
    /// (`pass`) on where the plan runs it (it needs the prefilter).
    fn on_tier_modes(
        plan: &CompiledCodes,
        tier: CodesTier,
        scan: bool,
        pass: bool,
    ) -> CodesDispatch {
        CodesDispatch::Packed(Arc::new(CompiledCodes {
            tier,
            fast_scan: scan && tier.fast_scan(plan.word_len),
            candidates: plan.candidates.filter(|_| pass),
            ..plan.clone()
        }))
    }

    /// The (prefilter, candidate pass) settings to run on `tier`: both
    /// off, and each pass setting with the prefilter on where the host
    /// runs it.
    fn scan_and_pass_modes(tier: CodesTier) -> Vec<(bool, bool)> {
        scan_modes(tier)
            .into_iter()
            .flat_map(|scan| [(scan, false), (scan, true)])
            .collect()
    }

    /// The prefilter settings to run on `tier`: off, and on where the
    /// host runs it.
    fn scan_modes(tier: CodesTier) -> Vec<bool> {
        if tier.fast_scan(64) {
            vec![false, true]
        } else {
            vec![false]
        }
    }

    /// Winners as `(row, score bits)`.
    fn winner_bits(hits: &[(usize, f64)]) -> Vec<(usize, u64)> {
        hits.iter().map(|&(r, g)| (r, g.to_bits())).collect()
    }

    /// The first minimum of `scores` over `rows` (ascending), as
    /// `(row, score bits)` — the winner a full sweep reports.
    fn first_min(scores: &[f64], rows: impl Iterator<Item = usize>) -> (usize, u64) {
        let mut best: Option<(usize, f64)> = None;
        for r in rows {
            if best.is_none_or(|(_, g)| scores[r] < g) {
                best = Some((r, scores[r]));
            }
        }
        let (r, g) = best.unwrap();
        (r, g.to_bits())
    }

    /// A 3-bit banked memory and the flat array holding the same rows.
    fn banked_and_flat(
        rows: &[Vec<u8>],
        word_len: usize,
        rows_per_bank: usize,
    ) -> (crate::banked::BankedMcam, McamArray) {
        let ladder = LevelLadder::new(3).unwrap();
        let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
        banked_and_flat_with(rows, word_len, rows_per_bank, lut)
    }

    /// [`banked_and_flat`] over a LUT of the caller's choosing.
    fn banked_and_flat_with(
        rows: &[Vec<u8>],
        word_len: usize,
        rows_per_bank: usize,
        lut: ConductanceLut,
    ) -> (crate::banked::BankedMcam, McamArray) {
        let ladder = LevelLadder::new(3).unwrap();
        let mut memory =
            crate::banked::BankedMcam::new(ladder, lut.clone(), word_len, rows_per_bank);
        let mut flat = McamArray::new(ladder, lut, word_len);
        for r in rows {
            memory.store(r).unwrap();
            flat.store(r).unwrap();
        }
        (memory, flat)
    }

    /// The 3-bit LUTs the fast-scan prefilter must stay exact on, by
    /// name: the device LUT; small integers, which lie exactly on a
    /// quantization step whenever the bound is 128 (or 64, 32, ...)
    /// times a power of two; zeros and duplicates (a flat plateau past
    /// one level); entries up to `f32::MAX / 64`, inside the
    /// overflow guard for 24-cell words; `f32::MAX / 8`, outside it,
    /// where no sweep bounds at all; and one value everywhere, which has
    /// no one-step cost and so no candidate pass.
    fn fast_scan_luts() -> Vec<(&'static str, ConductanceLut)> {
        let ladder = LevelLadder::new(3).unwrap();
        let gap = |i: u8, s: u8| f64::from(i.abs_diff(s));
        let from = |f: &dyn Fn(u8, u8) -> f64| ConductanceLut::from_fn(8, f).unwrap();
        let huge = f64::from(f32::MAX);
        vec![
            (
                "device",
                ConductanceLut::from_device(&FefetModel::default(), &ladder),
            ),
            (
                "integer steps",
                from(&|i, s| 2.0 * gap(i, s) * gap(i, s) + 1.0),
            ),
            (
                "zeros and duplicates",
                from(&|i, s| gap(i, s).min(2.0) * 64.0),
            ),
            (
                "near the guard",
                from(&|i, s| huge / 64.0 * gap(i, s) / 7.0),
            ),
            ("past the guard", from(&|i, s| huge / 8.0 * gap(i, s) / 7.0)),
            ("all equal", from(&|_, _| 3.0)),
        ]
    }

    /// Every batched codes winner path of `memory` — the public full and
    /// masked entry points on the host's tier, and the banked driver on
    /// every tier the host runs at 1 and 2 threads, full and masked —
    /// against the first minimum of the `f32` plane scores of `flat`,
    /// bitwise. For the digital metrics, whose `f32` scores are exact
    /// small integers, that reference is itself pinned to the scalar
    /// oracle ([`McamArray::search_metric`]).
    fn check_bounded_winners(
        memory: &crate::banked::BankedMcam,
        flat: &McamArray,
        queries: &[Vec<u8>],
        mask: &[usize],
    ) {
        let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
        let n = flat.n_rows();
        let rpb = memory.rows_per_bank();
        let all: Vec<usize> = (0..memory.n_banks()).collect();
        let bank_rows = |banks: &[usize]| -> Vec<usize> {
            banks
                .iter()
                .flat_map(|&b| b * rpb..((b + 1) * rpb).min(n))
                .collect()
        };
        for metric in Metric::ALL {
            let ctx = format!("{metric:?} rows={n} per_bank={rpb} mask={mask:?}");
            let planes = CompiledMcam::<f32>::compile_metric(flat, metric)
                .unwrap()
                .search_batch(&refs, 1)
                .unwrap();
            let expect = |banks: &[usize]| -> Vec<(usize, u64)> {
                let rows = bank_rows(banks);
                planes
                    .iter()
                    .map(|o| first_min(o.conductances(), rows.iter().copied()))
                    .collect()
            };
            let (want_all, want_mask) = (expect(&all), expect(mask));
            if metric != Metric::McamConductance {
                for (q, want) in refs.iter().zip(&want_all) {
                    let oracle = flat.search_metric(q, metric).unwrap();
                    assert_eq!(first_min(oracle.conductances(), 0..n), *want, "{ctx}");
                }
            }
            let spec = SearchSpec {
                precision: Precision::Codes,
                metric,
                ..SearchSpec::default()
            };
            let public = memory.search_batch_winners_with(&refs, spec).unwrap();
            assert_eq!(winner_bits(&public), want_all, "public full: {ctx}");
            let masked = SearchSpec {
                banks: Some(mask),
                ..spec
            };
            let public = memory.search_batch_winners_with(&refs, masked).unwrap();
            assert_eq!(winner_bits(&public), want_mask, "public masked: {ctx}");
            let plans: Vec<CompiledCodes> = memory
                .banks()
                .iter()
                .map(|b| CompiledCodes::compile_metric(b, metric).unwrap())
                .collect();
            for tier in host_tiers() {
                let banks: Vec<CodesDispatch> = plans.iter().map(|p| on_tier(p, tier)).collect();
                for threads in [1, 2] {
                    for (subset, want) in [(&all[..], &want_all), (mask, &want_mask)] {
                        let kernels: Vec<&CodesDispatch> =
                            subset.iter().map(|&b| &banks[b]).collect();
                        let bases: Vec<usize> = subset.iter().map(|&b| b * rpb).collect();
                        let got = banked_winner_batch_kernel(
                            &kernels,
                            &bases,
                            &refs,
                            WinnerSweep::Full,
                            threads,
                        )
                        .unwrap();
                        assert_eq!(
                            winner_bits(&got),
                            *want,
                            "{tier:?} threads={threads} banks={subset:?}: {ctx}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The bounded (early-abandon) codes winner sweep reports
        /// exactly the full sweep's winner: all four metrics (Hamming's
        /// zero entries keep partial sums flat, L∞ folds with max),
        /// banks on both sides of every vector and register-block edge,
        /// one-chunk to eight-chunk words, every tier the host runs,
        /// 1 and 2 threads, full and masked sweeps. Queries are
        /// near-duplicates of stored rows (so blocks abandon) plus
        /// uniform random ones, and one word is planted at several rows
        /// — neighbouring lanes, the same and the next register block,
        /// later banks — so rows ending exactly at the carried bound
        /// must lose to the lowest copy the sweep covers.
        #[test]
        fn bounded_winners_match_the_full_sweep(
            bank_pick in 0usize..6,
            n_banks in 1usize..4,
            word_pick in 0usize..3,
            seed in 0u64..1_000_000,
            mask_bits in 1usize..8,
        ) {
            let rows_per_bank = [1usize, 127, 128, 129, 256, 300][bank_pick];
            let word_len = [3usize, 20, 64][word_pick];
            let total = rows_per_bank * n_banks;
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut rows: Vec<Vec<u8>> = (0..total)
                .map(|_| (0..word_len).map(|_| (next() % 8) as u8).collect())
                .collect();
            let planted: Vec<u8> = (0..word_len).map(|_| (next() % 8) as u8).collect();
            let first = (next() % 40) as usize;
            for at in [
                first,
                first + 1 + (next() % 15) as usize,
                first + 17 + (next() % 200) as usize,
                first + rows_per_bank,
                first + 2 * rows_per_bank + (next() % 64) as usize,
            ] {
                if at < total {
                    rows[at] = planted.clone();
                }
            }
            // The planted word, then near-duplicates (0 to 3 cells one
            // level off) of it and of random stored rows.
            let mut queries = vec![planted.clone()];
            for i in 0..13u64 {
                let source = if i == 0 {
                    &planted
                } else {
                    &rows[(next() % total as u64) as usize]
                };
                let mut q = source.clone();
                for _ in 0..(i % 4).max(1) {
                    let c = (next() % word_len as u64) as usize;
                    q[c] = if q[c] == 7 { 6 } else { q[c] + 1 };
                }
                queries.push(q);
            }
            for _ in 0..2 {
                queries.push((0..word_len).map(|_| (next() % 8) as u8).collect());
            }
            let mask: Vec<usize> = (0..n_banks).filter(|b| mask_bits >> b & 1 == 1).collect();
            let mask = if mask.is_empty() { vec![n_banks - 1] } else { mask };
            let (memory, flat) = banked_and_flat(&rows, word_len, rows_per_bank);
            check_bounded_winners(&memory, &flat, &queries, &mask);
        }
    }

    /// Non-vacuity and the CI report: on near-duplicate queries the
    /// vector tiers abandon most column work and still report the full
    /// sweep's winners; uniform random queries report their share too.
    /// Prints which tiers ran, the fraction abandoned on each, and the
    /// row vectors the fast-scan prefilter rejected. Near-duplicates one
    /// level off their source row, which the candidate pass seeds, must
    /// have the prefilter reject most register blocks, with it on its
    /// own tier and as the AVX2 variant on an AVX-512 host.
    #[test]
    fn bounded_winners_abandon_work_on_near_duplicates() {
        const WORD: usize = 64;
        let tiers = host_tiers();
        for tier in ALL_TIERS {
            let status = if tiers.contains(&tier) {
                "ran"
            } else {
                "skipped (not supported on this host)"
            };
            let scan = if tier.fast_scan(WORD) { "on" } else { "off" };
            println!("bounded_winners: codes kernel tier {tier:?}: {status}, fast scan {scan}");
        }
        let mut state = 0x5DEE_CE66_D1CE_4E5Bu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rows: Vec<Vec<u8>> = (0..2048)
            .map(|_| (0..WORD).map(|_| (next() % 8) as u8).collect())
            .collect();
        let near: Vec<Vec<u8>> = (0..48)
            .map(|_| {
                let mut q = rows[(next() % 2048) as usize].clone();
                for _ in 0..3 {
                    q[(next() % WORD as u64) as usize] = (next() % 8) as u8;
                }
                q
            })
            .collect();
        let uniform: Vec<Vec<u8>> = (0..48)
            .map(|_| (0..WORD).map(|_| (next() % 8) as u8).collect())
            .collect();
        // Stored rows with three cells moved one level, each seeded with
        // its source row by the candidate pass.
        let nudged: Vec<Vec<u8>> = (0..48)
            .map(|_| {
                let source = (next() % 2048) as usize;
                let mut q = rows[source].clone();
                for _ in 0..3 {
                    let c = (next() % WORD as u64) as usize;
                    q[c] = if q[c] == 7 { 6 } else { q[c] + 1 };
                }
                q
            })
            .collect();
        let (memory, flat) = banked_and_flat(&rows, WORD, 256);
        let runs = [
            ("near-duplicate", &near),
            ("uniform random", &uniform),
            ("self-seeded near-duplicate", &nudged),
        ];
        for (name, queries) in runs {
            let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
            let plans: Vec<CompiledCodes> = memory
                .banks()
                .iter()
                .map(|b| CompiledCodes::compile(b).unwrap())
                .collect();
            let bases = bank_bases(plans.len(), 256);
            let planes = CompiledMcam::<f32>::compile(&flat)
                .unwrap()
                .search_batch(&refs, 1)
                .unwrap();
            let want: Vec<(usize, u64)> = planes
                .iter()
                .map(|o| first_min(o.conductances(), 0..flat.n_rows()))
                .collect();
            for &tier in &tiers {
                for scan in scan_modes(tier) {
                    let banks: Vec<CodesDispatch> =
                        plans.iter().map(|p| on_tier_scan(p, tier, scan)).collect();
                    let kernels: Vec<&CodesDispatch> = banks.iter().collect();
                    take_bounded_work();
                    let got =
                        banked_winner_batch_kernel(&kernels, &bases, &refs, WinnerSweep::Full, 1)
                            .unwrap();
                    let (scored, nominal, rejected) = take_bounded_work();
                    assert_eq!(winner_bits(&got), want, "{tier:?} {name}");
                    if tier == CodesTier::Scalar {
                        assert_eq!(nominal, 0, "the scalar tier never bounds");
                        continue;
                    }
                    let abandoned = 1.0 - scored as f64 / nominal as f64;
                    let vectors = nominal / WORD as u64;
                    println!(
                        "bounded_winners: tier {tier:?}, fast scan {scan}, {name} queries: \
                         abandoned {abandoned:.3} of column work ({scored} of {nominal} \
                         vector-columns scored); prefilter rejected {rejected} of {vectors} \
                         row vectors"
                    );
                    if name == "near-duplicate" {
                        assert!(abandoned > 0.2, "{tier:?} abandoned only {abandoned:.3}");
                    }
                    if !scan {
                        assert_eq!(rejected, 0, "{tier:?}: the prefilter ran while off");
                    } else if name == "self-seeded near-duplicate" {
                        assert!(
                            rejected * 2 > vectors,
                            "{tier:?}: the prefilter rejected only {rejected} of {vectors} row vectors"
                        );
                    }
                }
            }
        }
    }

    /// The abandon check is strict: rows whose partial score already
    /// equals the bound — every row a copy of the winner, the query
    /// differing only in the first column chunk, so under the digital
    /// metrics the partial score after that chunk is the final one —
    /// are scored in full and lose to the lowest copy.
    ///
    /// So is the fast-scan prefilter, on every tier with it off and on,
    /// in the full sweep and the routed re-rank: it rejects no row at
    /// the bound. Under the
    /// conductance metric the LUT is integers and the rows score
    /// exactly 128, so every entry lies exactly on a quantization step
    /// and only the `1 + 2⁻¹⁶` margin keeps the tied rows' `u8` sums at
    /// the threshold or below.
    #[test]
    fn bounded_winners_score_rows_at_the_bound_in_full() {
        const WORD: usize = 64;
        let row: Vec<u8> = (0..WORD).map(|c| (c * 5 % 8) as u8).collect();
        let mut query = row.clone();
        for cell in query.iter_mut().take(ABANDON_CHUNK).step_by(3) {
            *cell = (*cell + 3) % 8;
        }
        let a = array_with_rows(WORD, &vec![row.clone(); 600]);
        for tier in host_tiers() {
            for metric in [Metric::L1, Metric::Linf, Metric::Hamming] {
                let plan = on_tier(&CompiledCodes::compile_metric(&a, metric).unwrap(), tier);
                take_bounded_work();
                let got =
                    banked_winner_batch_kernel(&[&plan], &[0], &[&query], WinnerSweep::Full, 1)
                        .unwrap();
                let (scored, nominal, _) = take_bounded_work();
                assert_eq!(got[0].0, 0, "{tier:?} {metric:?}");
                assert_eq!(
                    scored, nominal,
                    "{tier:?} {metric:?} abandoned a row at the bound"
                );
            }
        }
        // The three changed cells are 3, 5 and 5 levels off: 61 + 21 +
        // 23 + 23 = 128.
        let lut = ConductanceLut::from_fn(8, |i, s| match i.abs_diff(s) {
            0 => 1.0,
            3 => 21.0,
            5 => 23.0,
            d => f64::from(d) * 2.0,
        })
        .unwrap();
        let ladder = LevelLadder::new(3).unwrap();
        let mut stepped = McamArray::new(ladder, lut, WORD);
        for _ in 0..600 {
            stepped.store(&row).unwrap();
        }
        let stepped = CompiledCodes::compile(&stepped).unwrap();
        for tier in host_tiers() {
            for scan in scan_modes(tier) {
                let arrays = [(Metric::McamConductance, &stepped)];
                let digital: Vec<CompiledCodes> = [Metric::L1, Metric::Linf, Metric::Hamming]
                    .into_iter()
                    .map(|m| CompiledCodes::compile_metric(&a, m).unwrap())
                    .collect();
                let plans = arrays
                    .into_iter()
                    .chain(digital.iter().map(|p| (p.metric, p)));
                for (metric, plan) in plans {
                    let plan = on_tier_scan(plan, tier, scan);
                    for sweep in [WinnerSweep::Full, WinnerSweep::Hinted(&[&[0]])] {
                        let ctx = format!("{tier:?} {metric:?} fast scan {scan} {sweep:?}");
                        take_bounded_work();
                        let got = banked_winner_batch_kernel(&[&plan], &[0], &[&query], sweep, 1)
                            .unwrap();
                        let (scored, nominal, rejected) = take_bounded_work();
                        assert_eq!(got[0].0, 0, "{ctx}");
                        if metric == Metric::McamConductance {
                            assert_eq!(got[0].1, 128.0, "{ctx}");
                        }
                        assert_eq!(rejected, 0, "{ctx}: prefilter rejected a row at the bound");
                        assert_eq!(scored, nominal, "{ctx}: abandoned a row at the bound");
                    }
                }
            }
        }
        // At a bound of 128 a unit is `1 + 2⁻¹⁶`: entries on a step
        // floor one unit low, and only an entry above 129 clears the
        // threshold on its own.
        let mut tables = ByteTables::NONE;
        tables.quantize(&[0.0, 1.0, 128.0, 129.0, 130.0, 255.0, 256.0, 1e30], 128.0);
        assert_eq!(tables.rows[0][..8], [0, 0, 127, 128, 129, 254, 255, 255]);
        assert!(tables.serves(128.0) && tables.serves(64.0));
        assert!(!tables.serves(f32::next_up(128.0)) && !tables.serves(63.9));
    }

    /// A LUT with a negative entry fails the plan's abandon check, and
    /// the sweep then scores every row. The rows are built so that
    /// abandoning would be wrong: rows `0..128` score `16` (1 per
    /// column); rows `128..256` score `5` per column over the first
    /// chunk, already above that bound, then `-4` per column after it,
    /// ending at `8`.
    #[test]
    fn bounded_winners_ignore_a_lut_that_can_decrease() {
        const WORD: usize = 16;
        let mut rows = vec![vec![1u8; WORD]; 128];
        let mut tricky = vec![2u8; ABANDON_CHUNK];
        tricky.resize(WORD, 3);
        rows.extend(std::iter::repeat_n(tricky, 128));
        let compiled = CompiledCodes::compile(&array_with_rows(WORD, &rows)).unwrap();
        assert!(compiled.abandon_exact, "device LUTs are nonnegative");
        let mut lut = compiled.lut.clone();
        lut[1] = 1.0;
        lut[2] = 5.0;
        lut[3] = -4.0;
        assert!(!CompiledCodes::lut_allows_abandon(&lut, WORD));
        assert!(!CompiledCodes::lut_allows_abandon(&[f32::MAX / 8.0], WORD));
        let query = [0u8; WORD];
        for tier in host_tiers() {
            let plan = CompiledCodes {
                lut: lut.clone(),
                abandon_exact: CompiledCodes::lut_allows_abandon(&lut, WORD),
                tier,
                ..compiled.clone()
            };
            let got = banked_winner_batch_kernel(&[&plan], &[0], &[&query], WinnerSweep::Full, 1)
                .unwrap();
            assert_eq!(got, vec![(128, 8.0)], "{tier:?}");
            if tier != CodesTier::Scalar {
                // What the check prevents: forced on, the vector sweep
                // abandons rows 128.. and reports row 0.
                let forced = CompiledCodes {
                    abandon_exact: true,
                    ..plan
                };
                let got =
                    banked_winner_batch_kernel(&[&forced], &[0], &[&query], WinnerSweep::Full, 1)
                        .unwrap();
                assert_eq!(got, vec![(0, 16.0)], "{tier:?}");
            }
        }
    }

    /// Routed hints for `n_queries` queries over `n_banks` banks, each
    /// kind the routed re-rank must take as the masked sweep of its
    /// in-range banks: empty, every bank, repeated, unsorted, out of
    /// range, and one arbitrary bank.
    fn hint_cases(
        n_queries: usize,
        n_banks: usize,
        pick: u64,
    ) -> Vec<(&'static str, Vec<Vec<usize>>)> {
        let all: Vec<usize> = (0..n_banks).collect();
        let each = |f: &dyn Fn(usize) -> Vec<usize>| (0..n_queries).map(f).collect::<Vec<_>>();
        vec![
            ("empty", each(&|_| Vec::new())),
            ("all banks", each(&|_| all.clone())),
            ("repeated", each(&|q| vec![q % n_banks; 3])),
            ("unsorted", each(&|_| all.iter().rev().copied().collect())),
            ("out of range", each(&|q| vec![n_banks + q, usize::MAX])),
            (
                "arbitrary",
                each(&|q| vec![(pick as usize + q) % n_banks, n_banks]),
            ),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The full sweep reports the first minimum of the `f32` plane
        /// scores bit for bit: every tier the host runs, every metric
        /// (L∞'s max fold included), and 1 and 2 threads. A planted
        /// word repeated across banks makes ties at the seed bound
        /// common. A routed hint, swept as `Hinted`, is the masked
        /// sweep of its in-range banks, whatever the hint.
        ///
        /// The fast-scan prefilter changes nothing: on a drawn
        /// adversarial LUT ([`fast_scan_luts`]), every tier answers
        /// with the prefilter off and on (the AVX2 variant included on
        /// an AVX-512 host) exactly as the `f32` planes.
        ///
        /// Nor does the self-seeding candidate pass, off or on, against
        /// candidates built to be wrong: a decoy row placed before a
        /// query's winner matches the query on the scanned prefix but is
        /// far on the tail; the planted word sits at the last row of
        /// bank 0 (past the last whole byte vector when the bank is not a
        /// multiple of one) and the first of bank 1, so the candidate can
        /// be the higher tie; banks of 1 and 40 rows are shorter than one
        /// byte vector; and the all-equal LUT gets no candidate pass.
        #[test]
        fn seeded_winners_match_the_unseeded_sweep(
            bank_pick in 0usize..5,
            n_banks in 1usize..5,
            seed in 0u64..1_000_000,
            lut_pick in 0usize..6,
        ) {
            const WORD: usize = 24;
            let rows_per_bank = [1usize, 40, 64, 129, 200][bank_pick];
            let total = rows_per_bank * n_banks;
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut rows: Vec<Vec<u8>> = (0..total)
                .map(|_| (0..WORD).map(|_| (next() % 8) as u8).collect())
                .collect();
            let planted: Vec<u8> = (0..WORD).map(|_| (next() % 8) as u8).collect();
            let edges = [rows_per_bank - 1, rows_per_bank].into_iter().filter(|&at| at < total);
            for at in [total - 1, (next() as usize) % total, total / 2].into_iter().chain(edges) {
                rows[at] = planted.clone();
            }
            let mut queries = vec![planted.clone()];
            for i in 0..11 {
                let mut q = rows[(next() % total as u64) as usize].clone();
                for _ in 0..i % 3 {
                    q[(next() % WORD as u64) as usize] = (next() % 8) as u8;
                }
                queries.push(q);
            }
            queries.push((0..WORD).map(|_| (next() % 8) as u8).collect());
            // A stored row with its last cell moved one level, and a
            // decoy at or before it: the query's first 16 cells, then
            // every tail cell four levels off.
            let target = (next() % total as u64) as usize;
            let mut decoyed = rows[target].clone();
            decoyed[WORD - 1] = (decoyed[WORD - 1] + 1) % 8;
            let decoy: Vec<u8> = decoyed
                .iter()
                .enumerate()
                .map(|(c, &l)| if c < 16 { l } else { (l + 4) % 8 })
                .collect();
            rows[(next() as usize) % (target + 1)] = decoy;
            queries.push(decoyed);
            let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
            let (lut_name, lut) = fast_scan_luts().swap_remove(lut_pick);
            let (memory, flat) = banked_and_flat_with(&rows, WORD, rows_per_bank, lut);
            let bases = bank_bases(n_banks, rows_per_bank);
            let cases = hint_cases(refs.len(), n_banks, next());
            for metric in Metric::ALL {
                let plans: Vec<CompiledCodes> = memory
                    .banks()
                    .iter()
                    .map(|b| CompiledCodes::compile_metric(b, metric).unwrap())
                    .collect();
                let planes = CompiledMcam::<f32>::compile_metric(&flat, metric)
                    .unwrap()
                    .search_batch(&refs, 1)
                    .unwrap();
                let oracle: Vec<(usize, u64)> =
                    planes.iter().map(|o| first_min(o.conductances(), 0..total)).collect();
                let modes = host_tiers().into_iter().flat_map(|t| {
                    scan_and_pass_modes(t).into_iter().map(move |(s, p)| (t, s, p))
                });
                for (tier, scan, pass) in modes {
                    let banks: Vec<CodesDispatch> =
                        plans.iter().map(|p| on_tier_modes(p, tier, scan, pass)).collect();
                    let kernels: Vec<&CodesDispatch> = banks.iter().collect();
                    let want = winner_bits(
                        &banked_winner_batch_kernel(&kernels, &bases, &refs, WinnerSweep::Full, 1)
                            .unwrap(),
                    );
                    prop_assert_eq!(
                        want.clone(),
                        oracle.clone(),
                        "{:?} {:?} fast scan {} candidate pass {} LUT {} rows_per_bank={}",
                        tier,
                        metric,
                        scan,
                        pass,
                        lut_name,
                        rows_per_bank
                    );
                    let got = banked_winner_batch_kernel(&kernels, &bases, &refs, WinnerSweep::Full, 2)
                        .unwrap();
                    prop_assert_eq!(
                        winner_bits(&got),
                        want.clone(),
                        "{:?} {:?} fast scan {} candidate pass {} threads=2",
                        tier,
                        metric,
                        scan,
                        pass
                    );
                    for (name, hints) in &cases {
                        let hints: Vec<&[usize]> = hints.iter().map(Vec::as_slice).collect();
                        let ctx = format!(
                            "{tier:?} {metric:?} fast scan {scan} candidate pass {pass} \
                             LUT {lut_name} hint {name} rows_per_bank={rows_per_bank}"
                        );
                        for (q, hint) in refs.iter().zip(&hints) {
                            let mut mask: Vec<usize> =
                                hint.iter().copied().filter(|&b| b < n_banks).collect();
                            mask.sort_unstable();
                            mask.dedup();
                            let got = banked_winner_batch_kernel(
                                &kernels,
                                &bases,
                                &[q],
                                WinnerSweep::Hinted(&[hint]),
                                1,
                            );
                            if mask.is_empty() {
                                prop_assert!(got.is_err(), "{}: no bank to sweep", ctx);
                                continue;
                            }
                            let sub: Vec<&CodesDispatch> = mask.iter().map(|&b| kernels[b]).collect();
                            let sub_bases: Vec<usize> = mask.iter().map(|&b| bases[b]).collect();
                            let masked =
                                banked_winner_batch_kernel(&sub, &sub_bases, &[q], WinnerSweep::Full, 1)
                                    .unwrap();
                            prop_assert_eq!(winner_bits(&got.unwrap()), winner_bits(&masked), "{}", ctx);
                        }
                    }
                }
            }
        }
    }

    /// The tie trap: one word stored in bank 0 and again in bank 2.
    /// The bank-0 copy is its last row, past the bank's last whole byte
    /// vector on both vector tiers (100 rows: 64 + 36 on AVX-512BW,
    /// 96 + 4 on AVX2), so the candidate pass never sees it and must
    /// land on the bank-2 copy. The full sweep must still answer with
    /// bank 0's copy, the lowest global row, on every tier and metric,
    /// exact and near-duplicate queries alike, scoring it bitwise as
    /// the routed re-rank of bank 2 alone scores the candidate.
    #[test]
    fn seeded_winners_resolve_ties_to_the_lowest_row() {
        const WORD: usize = 32;
        const PER_BANK: usize = 100;
        let mut state = 0xA076_1D64_78BD_642Fu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut rows: Vec<Vec<u8>> = (0..3 * PER_BANK)
            .map(|_| (0..WORD).map(|_| (next() % 8) as u8).collect())
            .collect();
        let word: Vec<u8> = (0..WORD).map(|c| (c * 3 % 8) as u8).collect();
        let (low, high) = (PER_BANK - 1, 2 * PER_BANK + 7);
        rows[low] = word.clone();
        rows[high] = word.clone();
        let mut near = word.clone();
        near[WORD - 1] = (near[WORD - 1] + 1) % 8;
        let (memory, _) = banked_and_flat(&rows, WORD, PER_BANK);
        let bases = bank_bases(3, PER_BANK);
        let queries: [&[u8]; 2] = [&word, &near];
        let hints: [&[usize]; 2] = [&[2], &[2]];
        for metric in Metric::ALL {
            for tier in host_tiers() {
                let banks: Vec<CodesDispatch> = memory
                    .banks()
                    .iter()
                    .map(|b| on_tier(&CompiledCodes::compile_metric(b, metric).unwrap(), tier))
                    .collect();
                let kernels: Vec<&CodesDispatch> = banks.iter().collect();
                let full =
                    banked_winner_batch_kernel(&kernels, &bases, &queries, WinnerSweep::Full, 1)
                        .unwrap();
                let hinted = banked_winner_batch_kernel(
                    &kernels,
                    &bases,
                    &queries,
                    WinnerSweep::Hinted(&hints),
                    1,
                )
                .unwrap();
                let seeds = self_seed(&kernels, &bases, &queries);
                for (((f, h), seed), q) in
                    full.iter().zip(&hinted).zip(&seeds).zip(["exact", "near"])
                {
                    assert_eq!(f.0, low, "{tier:?} {metric:?} {q}: full sweep");
                    assert_eq!(h.0, high, "{tier:?} {metric:?} {q}: the seed itself");
                    assert_eq!(f.1.to_bits(), h.1.to_bits(), "{tier:?} {metric:?} {q}");
                    if let Some(seed) = seed {
                        assert_eq!(seed.0, high, "{tier:?} {metric:?} {q}: the candidate");
                        assert_eq!(seed.1.to_bits(), h.1.to_bits(), "{tier:?} {metric:?} {q}");
                    }
                }
                if tier.fast_scan(WORD) {
                    assert!(
                        seeds.iter().all(Option::is_some),
                        "{tier:?} {metric:?}: the candidate pass seeded no query"
                    );
                }
            }
        }
    }

    /// Non-vacuity: on near-duplicate queries the full sweep that seeds
    /// itself, candidate pass included, scores strictly fewer
    /// vector-columns than the unseeded one, and reports the same
    /// winners. "Unseeded" is a sweep with no seed at all: its plans
    /// run with the candidate pass off. Prints both counts per vector
    /// tier.
    #[test]
    fn seeded_winners_score_less_work_on_near_duplicates() {
        const WORD: usize = 64;
        const PER_BANK: usize = 256;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rows: Vec<Vec<u8>> = (0..8 * PER_BANK)
            .map(|_| (0..WORD).map(|_| (next() % 8) as u8).collect())
            .collect();
        let mut queries = Vec::new();
        for _ in 0..48 {
            let source = (next() % rows.len() as u64) as usize;
            let mut q = rows[source].clone();
            for _ in 0..3 {
                q[(next() % WORD as u64) as usize] = (next() % 8) as u8;
            }
            queries.push(q);
        }
        let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
        let (memory, _) = banked_and_flat(&rows, WORD, PER_BANK);
        let bases = bank_bases(memory.n_banks(), PER_BANK);
        for tier in host_tiers() {
            if tier == CodesTier::Scalar {
                continue;
            }
            let plans: Vec<CompiledCodes> = memory
                .banks()
                .iter()
                .map(|b| CompiledCodes::compile(b).unwrap())
                .collect();
            let banks: Vec<CodesDispatch> = plans.iter().map(|p| on_tier(p, tier)).collect();
            let kernels: Vec<&CodesDispatch> = banks.iter().collect();
            let no_pass: Vec<CodesDispatch> = plans
                .iter()
                .map(|p| on_tier_modes(p, tier, true, false))
                .collect();
            let no_pass: Vec<&CodesDispatch> = no_pass.iter().collect();
            take_bounded_work();
            let full =
                banked_winner_batch_kernel(&no_pass, &bases, &refs, WinnerSweep::Full, 1).unwrap();
            let (unseeded, nominal, _) = take_bounded_work();
            let self_seeded =
                banked_winner_batch_kernel(&kernels, &bases, &refs, WinnerSweep::Full, 1).unwrap();
            let (self_scored, _, _) = take_bounded_work();
            assert_eq!(winner_bits(&self_seeded), winner_bits(&full), "{tier:?}");
            println!(
                "seeded_winners: tier {tier:?}, near-duplicate queries: self-seeded sweep \
                 scored {self_scored} vector-columns, unseeded {unseeded} (full sweep {nominal})"
            );
            assert!(
                self_scored < unseeded,
                "{tier:?}: self-seeded {self_scored} >= unseeded {unseeded}"
            );
        }
    }

    /// The candidate pass against a scalar model of it, on every vector
    /// tier the host runs it on, every metric and every
    /// [`fast_scan_luts`] LUT, over banks whose last rows fall outside
    /// a whole byte vector: each query's candidate is the first row,
    /// over the whole byte vectors of ascending banks, with the lowest
    /// saturated (for L∞, maximum) byte sum over the first 16 cells,
    /// and its score is that row's `f32` plane score, bit for bit; the
    /// queries it seeds are those whose candidate sums below
    /// [`CANDIDATE_MAX_UNITS`], and both kinds occur. A plan that cannot
    /// bound its winners, or whose LUT is one value everywhere, finds no
    /// candidate. The unit: one step of the digital metrics costs one
    /// byte unit, two steps three.
    #[test]
    fn self_seeded_candidates_score_their_rows_exactly() {
        const WORD: usize = 40;
        const PER_BANK: usize = 150;
        let mut state = 0x9FB2_1C65_1E98_DF25u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rows: Vec<Vec<u8>> = (0..3 * PER_BANK)
            .map(|_| (0..WORD).map(|_| (next() % 8) as u8).collect())
            .collect();
        let mut queries: Vec<Vec<u8>> = (0..12)
            .map(|i| {
                let mut q = rows[(next() % rows.len() as u64) as usize].clone();
                for _ in 0..i % 4 {
                    q[(next() % WORD as u64) as usize] = (next() % 8) as u8;
                }
                q
            })
            .collect();
        queries.push((0..WORD).map(|_| (next() % 8) as u8).collect());
        let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
        let (mut seeded, mut unseeded) = (0, 0);
        for (lut_name, lut) in fast_scan_luts() {
            let (memory, flat) = banked_and_flat_with(&rows, WORD, PER_BANK, lut);
            for metric in Metric::ALL {
                let plans: Vec<CompiledCodes> = memory
                    .banks()
                    .iter()
                    .map(|b| CompiledCodes::compile_metric(b, metric).unwrap())
                    .collect();
                let digital = [
                    (Metric::L1, [0, 1, 3, 5, 7, 9, 11, 13]),
                    (Metric::Hamming, [0, 1, 1, 1, 1, 1, 1, 1]),
                ];
                for (m, units) in digital {
                    if m == metric {
                        let tables = plans[0].candidates.expect("digital LUTs have a step");
                        assert_eq!(tables.rows[0][..8], units, "{metric:?}");
                    }
                }
                let planes = CompiledMcam::<f32>::compile_metric(&flat, metric)
                    .unwrap()
                    .search_batch(&refs, 1)
                    .unwrap();
                for tier in host_tiers() {
                    if !tier.fast_scan(WORD) {
                        continue;
                    }
                    let bytes = if tier == CodesTier::Avx512 { 64 } else { 32 };
                    let ctx = format!("{tier:?} {metric:?} LUT {lut_name}");
                    let banks: Vec<CodesDispatch> =
                        plans.iter().map(|p| on_tier(p, tier)).collect();
                    let mut cands = vec![Candidate::NONE; refs.len()];
                    for (b, bank) in banks.iter().enumerate() {
                        bank.scan_candidates(&refs, b * PER_BANK, &mut cands);
                    }
                    let Some(tables) = plans[0].candidates.filter(|_| plans[0].abandon_exact)
                    else {
                        assert!(
                            cands.iter().all(|c| c.found.is_none()),
                            "{ctx}: a candidate"
                        );
                        continue;
                    };
                    for ((q, cand), outcome) in refs.iter().zip(&cands).zip(&planes) {
                        let mut want: Option<(u16, usize)> = None;
                        for b in 0..plans.len() {
                            for row in 0..PER_BANK / bytes * bytes {
                                let cells = q.iter().zip(&rows[b * PER_BANK + row]).take(16);
                                let units = cells.fold(0u8, |sum, (&i, &s)| {
                                    let unit = tables.rows[usize::from(i)][usize::from(s)];
                                    if metric.is_max_fold() {
                                        sum.max(unit)
                                    } else {
                                        sum.saturating_add(unit)
                                    }
                                });
                                if want.is_none_or(|(u, _)| u16::from(units) < u) {
                                    want = Some((u16::from(units), b * PER_BANK + row));
                                }
                            }
                        }
                        let (units, row) = want.unwrap();
                        let (got, score) = cand.seed(q).expect("a candidate");
                        assert_eq!((cand.units, got), (units, row), "{ctx}");
                        assert_eq!(
                            score.to_bits(),
                            outcome.conductances()[row].to_bits(),
                            "{ctx}: row {row}"
                        );
                    }
                    // The pass seeds exactly the queries whose candidate
                    // is near: below `CANDIDATE_MAX_UNITS`.
                    let kernels: Vec<&CodesDispatch> = banks.iter().collect();
                    let best = self_seed(&kernels, &bank_bases(banks.len(), PER_BANK), &refs);
                    for ((q, cand), slot) in refs.iter().zip(&cands).zip(&best) {
                        let near = cand.units < CANDIDATE_MAX_UNITS;
                        assert_eq!(*slot, cand.seed(q).filter(|_| near), "{ctx}");
                    }
                    seeded += best.iter().filter(|s| s.is_some()).count();
                    unseeded += best.iter().filter(|s| s.is_none()).count();
                }
            }
        }
        assert!(
            seeded > 0 && unseeded > 0,
            "seeded {seeded}, unseeded {unseeded}"
        );
    }
}
