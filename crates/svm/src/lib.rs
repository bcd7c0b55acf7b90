#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # dls-svm
//!
//! SMO-based Support Vector Machine training, generic over the storage
//! format of the data matrix (any [`dls_sparse::MatrixFormat`]).
//!
//! The solver implements Algorithm 1 of the paper: Sequential Minimal
//! Optimization with first-order (maximal-violating-pair) working-set
//! selection. Each iteration's bottleneck is two SMSV products — computing
//! the kernel rows of the two selected samples — which is exactly the
//! operation whose cost depends on the chosen data layout.

pub mod cache;
pub mod error;
pub mod kernel;
pub mod metrics;
pub mod model;
pub mod model_selection;
pub mod multiclass;
pub mod persist;
pub mod platt;
pub mod problem;
pub mod smo;
pub mod svr;

pub use cache::KernelCache;
pub use error::SvmError;
pub use kernel::KernelKind;
pub use metrics::{accuracy, confusion_binary};
pub use model::{PredictWorkspace, SvmModel};
pub use model_selection::{cross_validate, grid_search, GridPoint, GridSearchResult};
pub use multiclass::{MulticlassModel, MulticlassStrategy};
pub use persist::{read_model, write_model, ModelFormatError};
pub use platt::{PlattScaling, ProbabilisticModel};
pub use problem::SvmProblem;
pub use smo::{
    train, train_with_stats, SegmentReport, SmoParams, SmoState, SmoStats, WorkingSetSelection,
};
pub use svr::{train_svr, SvrParams, SvrStats};
