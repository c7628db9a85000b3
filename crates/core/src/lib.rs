//! Multi-bit content-addressable memory (MCAM) simulator and the MCAM
//! distance function for in-memory nearest-neighbor search.
//!
//! This crate is the primary contribution of *"In-Memory Nearest Neighbor
//! Search with FeFET Multi-Bit Content-Addressable Memories"* (Kazemi et
//! al., DATE 2021), built on the device models of [`femcam_device`]:
//!
//! * [`levels`] — the multi-bit voltage ladder of paper Fig. 3(b): `2^B`
//!   threshold states in the FeFET memory window, search inputs at state
//!   centers, and the *analog inversion* that maps the ladder onto itself
//!   (so no on-the-fly analog inverter is needed).
//! * [`cell`] — the two-FeFET MCAM cell and its conductance for any
//!   (input, stored-state) pair.
//! * [`lut`] — the 2-D conductance lookup table `F(I, S) = G`, the
//!   paper's own simulation vehicle, plus the Fig. 4 distance-function
//!   curves and their derivative.
//! * [`array`](mod@array) — MCAM arrays with match-line RC discharge, sense-amp
//!   winner-take-all, and optional per-cell `Vth` variation.
//! * [`exec`] / [`par`] — the compiled, batched query executor:
//!   plane-major conductance plans (precision-generic: `f64` reference
//!   bit-identical to the scalar path, opt-in `f32` fast mode) plus the
//!   byte-packed level-code LUT-gather mode (`Precision::Codes`,
//!   bit-identical to `f32` on shared-LUT arrays at a fraction of the
//!   plan bytes), cached auto-recompiling plans with per-slot memory
//!   introspection, cache-tiled block kernels with reusable scratch,
//!   and work-proportional row/query/bank sharding across worker
//!   threads with bounded-heap top-k.
//! * [`router`] — two-stage retrieval: an LSH router (SimHash bucket →
//!   bank subsets) in front of the exact masked-bank MCAM re-rank, with
//!   locality-aware bulk placement and store-synchronized buckets.
//! * [`tcam`] / [`acam`] — the ternary CAM baseline (Hamming search and a
//!   multi-lookup L∞ extension) and the analog-CAM generalization.
//! * [`quantize`] — feature quantizers that map real-valued vectors onto
//!   MCAM input/state levels.
//! * [`distance`] — software distance functions (cosine, Euclidean, L∞,
//!   and the MCAM distance evaluated in software).
//! * [`engines`] — pluggable nearest-neighbor engines: FP32 software
//!   search, MCAM in-memory search, and the TCAM+LSH baseline.
//! * [`analysis`] — the `G^n_d` concentration analysis of §III-B.
//! * [`experiment`] — a "virtual measurement" reproducing the 2-bit
//!   GLOBALFOUNDRIES demonstration of §IV-D (noisy measured LUT).
//!
//! # Quickstart: single-step in-memory NN search
//!
//! ```
//! use femcam_core::{ConductanceLut, LevelLadder, McamArrayBuilder};
//! use femcam_device::FefetModel;
//!
//! # fn main() -> femcam_core::Result<()> {
//! // 3-bit MCAM: 8 states, 8 input levels (paper Fig. 3(b)).
//! let ladder = LevelLadder::new(3)?;
//! let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
//! let mut array = McamArrayBuilder::new(ladder, lut).word_len(4).build();
//!
//! array.store(&[0, 3, 7, 1])?;
//! array.store(&[0, 3, 6, 1])?; // distance 1 from the query below
//! array.store(&[5, 5, 5, 5])?;
//!
//! let outcome = array.search(&[0, 3, 6, 1])?;
//! assert_eq!(outcome.best_row(), 1); // exact match wins
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod acam;
pub mod analysis;
pub mod array;
pub mod banked;
pub mod cell;
pub mod distance;
pub mod engines;
pub mod error;
pub mod exec;
pub mod experiment;
pub mod levels;
pub mod lut;
pub mod par;
mod proptests;
pub mod quantize;
pub mod router;
pub mod sync;
pub mod tcam;

pub use acam::{AcamArray, AcamCell};
pub use array::{McamArray, McamArrayBuilder, MlTiming, SearchOutcome, SenseAmp, VariationSpec};
pub use banked::BankedMcam;
pub use cell::McamCell;
pub use distance::{Cosine, Distance, DistanceKind, Euclidean, Linf, Manhattan, McamSoftware};
pub use engines::{accuracy, classify_knn, McamNn, NnIndex, QueryResult, SoftwareNn, TcamLshNn};
pub use error::CoreError;
pub use exec::{
    top_k_indices, CodesDispatch, CompiledBanked, CompiledBankedCodes, CompiledCodes, CompiledMcam,
    Metric, PlanCache, PlanMemoryBytes, PlaneScalar, Precision, SearchSpec, N_METRICS,
};
pub use experiment::{measured_lut, ExperimentConfig};
pub use levels::LevelLadder;
pub use lut::ConductanceLut;
pub use quantize::{QuantizeStrategy, Quantizer};
pub use router::{LshRouter, RoutedMcam, RouterConfig};
pub use tcam::{TcamArray, TcamOutcome, Ternary};

/// Result alias used by fallible APIs in this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
