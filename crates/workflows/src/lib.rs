//! # dtf-workflows
//!
//! The paper's three evaluation workloads (§IV-B), rebuilt as synthetic
//! task-graph generators calibrated to Table I, plus the multi-run
//! campaign driver that produces the data behind every figure.
//!
//! | workflow | graphs | tasks | files | submission |
//! |---|---|---|---|---|
//! | [`imageproc`] — 4-step image pipeline over BCSS-like images | 3 | 5440 | 151(+2 stores) | sequential |
//! | [`resnet`] — fine-tuned ResNet152 batch prediction | 1 | 8645 | 3929 | all at once |
//! | [`xgboost`] — NYC-FHV trip-duration regression | 74 | 10348 | 61 | sequential |
//!
//! Each generator takes the per-run workload RNG stream, so structural
//! run-to-run variation (e.g. XGBoost's parquet chunking) reproduces the
//! ranges Table I reports.
//!
//! [`replay`] runs a persisted simulated run again from its archive alone.

pub mod campaign;
pub mod imageproc;
mod replay;
pub mod resnet;
pub mod xgboost;

pub use campaign::{Campaign, CampaignResult, RunSummary, Workload};
pub use replay::replay;
