//! Umbrella crate for the femcam workspace: re-exports the public API of
//! every crate and hosts the repository-root `examples/` and `tests/`
//! (cross-crate integration tests).
//!
//! Downstream users who want "everything" can depend on this crate and
//! use the re-exported module paths:
//!
//! ```
//! use femcam_harness::prelude::*;
//!
//! # fn main() -> femcam_core::Result<()> {
//! let ladder = LevelLadder::new(3)?;
//! let lut = ConductanceLut::from_device(&FefetModel::default(), &ladder);
//! let mut array = McamArray::new(ladder, lut, 2);
//! array.store(&[1, 2])?;
//! assert_eq!(array.search(&[1, 2])?.best_row(), 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use femcam_core as core;
pub use femcam_data as data;
pub use femcam_device as device;
pub use femcam_energy as energy;
pub use femcam_lsh as lsh;
pub use femcam_mann as mann;
pub use femcam_nn as nn;
pub use femcam_serve as serve;

/// Commonly used items from across the workspace.
pub mod prelude {
    pub use femcam_core::{
        accuracy, top_k_indices, AcamArray, AcamCell, BankedMcam, CodesDispatch, CompiledBanked,
        CompiledBankedCodes, CompiledCodes, CompiledMcam, ConductanceLut, CoreError, Cosine,
        Distance, DistanceKind, Euclidean, LevelLadder, Linf, LshRouter, McamArray,
        McamArrayBuilder, McamCell, McamNn, McamSoftware, Metric, MlTiming, NnIndex,
        PlanMemoryBytes, PlaneScalar, Precision, QuantizeStrategy, Quantizer, RoutedMcam,
        RouterConfig, SearchOutcome, SearchSpec, SenseAmp, SoftwareNn, TcamArray, TcamLshNn,
        Ternary, VariationSpec, N_METRICS,
    };
    pub use femcam_data::{
        synth, ClassFeatureSource, Dataset, GlyphClass, GlyphRenderer, PrototypeFeatureModel,
    };
    pub use femcam_device::{
        DomainVariationParams, FefetModel, FefetParams, GaussianVth, MonteCarloDevice,
        ProgramPulse, PulseProgrammer, VthPopulation,
    };
    pub use femcam_energy::EnergyReport;
    pub use femcam_lsh::{BitSignature, RandomHyperplanes};
    pub use femcam_mann::{
        evaluate, evaluate_with_factory, Backend, CnnFeatureSource, EvalConfig, FewShotResult,
        FewShotTask,
    };
    pub use femcam_nn::model::{mann_cnn, Sequential};
    pub use femcam_nn::optim::Sgd;
    pub use femcam_serve::{
        Coverage, Covered, DegradedPolicy, MemoryReport, ServeConfig, ServeError, ServeStats,
        ServedNn, ShardHealth, ShardTicket, ShardTopKTicket, ShardedHandle, ShardedServer,
        ShardedStats,
    };
}
