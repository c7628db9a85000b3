//! Minimal neural-network substrate for the MANN feature extractor.
//!
//! The paper's memory-augmented neural network (§IV-C) uses a CNN — two
//! 3×3/64 convolutions, max-pool, two 3×3/128 convolutions, max-pool,
//! then 128- and 64-node fully-connected layers — whose 64-d output
//! feeds the nearest-neighbor memory. This crate implements exactly the
//! pieces needed to train such a network from scratch:
//!
//! * [`layers`] — `Conv2d` (same-padded 3×3), `MaxPool2d`, `Dense`,
//!   `Relu`, all with hand-written backward passes;
//! * [`loss`] — softmax cross-entropy;
//! * [`optim`] — SGD with momentum;
//! * [`model`] — a [`Sequential`] container with
//!   embedding extraction (`forward_upto`) for the MANN memory, plus the
//!   paper's architecture builder [`model::mann_cnn`].
//!
//! Gradients are verified against finite differences in the test suite.
//!
//! # Quickstart
//!
//! ```
//! use femcam_nn::model::{mann_cnn, Sequential};
//! use femcam_nn::optim::Sgd;
//!
//! // A scaled-down MANN CNN over 8×8 images, 4-way classifier.
//! let mut net = mann_cnn(8, 4, 4, 1);
//! let image = vec![0.5f32; 64];
//! let logits = net.forward(&image);
//! assert_eq!(logits.len(), 4);
//! // The 64-d embedding the MANN memory stores sits one layer back.
//! let embedding = net.embed(&image);
//! assert_eq!(embedding.len(), 64);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod init;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;

pub use layers::{Conv2d, Dense, Layer, MaxPool2d, Relu};
pub use loss::softmax_cross_entropy;
pub use model::{mann_cnn, Sequential};
pub use optim::Sgd;
