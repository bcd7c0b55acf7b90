#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # dls-dnn
//!
//! A from-scratch deep-learning substrate for the paper's second half
//! (§IV): minibatch SGD with momentum (equations 8–9), batch-size /
//! learning-rate / momentum auto-tuning, and the data-parallel
//! divide-and-conquer gradient averaging of §IV-B.
//!
//! The paper trains Caffe's `cifar10_full` model on CIFAR-10; this crate
//! provides a procedurally generated CIFAR-like dataset ([`data`]) and a
//! small network over it, so the *tuning dynamics* (how B, η and µ trade
//! iteration cost against convergence rate) are measured on real SGD runs
//! rather than hard-coded.

pub mod data;
pub mod init;
pub mod layers;
pub mod loss;
pub mod net;
pub mod optim;
pub mod parallel;
pub mod schedule;
pub mod tensor;
pub mod train;
pub mod tuning;

pub use data::{CifarLikeConfig, Dataset};
pub use net::Network;
pub use optim::SgdConfig;
pub use schedule::LrSchedule;
pub use tensor::Tensor;
pub use train::{TrainOutcome, Trainer, TrainerConfig};
