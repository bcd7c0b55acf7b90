#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # dls-hw
//!
//! Hardware platform cost model for the paper's §IV/V evaluation: time to
//! 0.8 CIFAR-10 accuracy and **dollars per speedup** across an 8-core CPU,
//! Intel KNL, Intel Haswell, one Tesla P100, and a DGX station
//! (Table VII, Figures 5 and 6).
//!
//! None of that hardware is attached here, so each platform is modelled by
//! a saturating-throughput curve `rate(B) = r∞ · B / (B + B½)` calibrated
//! against the paper's own measurements: the B = 100 rows of Table VII pin
//! `rate(100)` for every platform, and the DGX rows at B = 512 pin the
//! DGX's `B½` (more samples per second at larger batch — the §IV-C effect
//! that makes batch tuning pay). Combining the model with *measured*
//! epochs-to-accuracy from `dls-dnn` reproduces the table's shape.

pub mod cost;
pub mod formats;
pub mod platform;
pub mod recommend;
pub mod speedup;

pub use cost::ThroughputModel;
pub use platform::{Platform, PLATFORMS};
pub use recommend::{fastest, recommend, Recommendation, TrainingJob};
pub use speedup::{build_table7, paper_run_specs, PriceModel, RunSpec, TableRow, PAPER_TABLE7};
