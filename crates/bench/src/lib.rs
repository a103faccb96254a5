//! Benchmark harness: regenerates every figure and table of the paper's
//! evaluation.
//!
//! * [`experiments`] — one function per figure/table (see the
//!   per-experiment index in DESIGN.md); each returns an
//!   [`experiments::ExperimentReport`] with a text table and JSON payload.
//! * [`speedup`] — speedup-series helpers and the analytic phase-shape
//!   model used for workloads too large to materialise point-by-point.
//! * [`baseline`] — `--baseline old.json` diffing: per-experiment speedup
//!   deltas against a recorded `BENCH_results.json` (run by CI against the
//!   committed baseline).
//! * [`selection`] — experiment-selector resolution for `paper_results`
//!   (duplicate ids collapse, unknown ids are rejected with the registry).
//! * the `paper_results` binary drives everything and is what EXPERIMENTS.md
//!   records.  The per-layer cost of the analyses, partitioning and
//!   schedule construction themselves is measured by the repository
//!   benchmark under `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod selection;
pub mod speedup;

pub use baseline::{diff_against_baseline, BaselineDiff, SchemeDelta};
pub use experiments::{calibrated_model, ExperimentReport};
pub use selection::select_experiments;
pub use speedup::{
    measured_speedup, phases_speedup, phases_time_ns, MeasuredSeries, PhaseShape, SpeedupFigure,
    SpeedupSeries,
};
