//! Benchmark harness: regenerates every figure and table of the paper's
//! evaluation.
//!
//! * [`experiments`] — one function per figure/table; each returns an
//!   [`experiments::ExperimentReport`] with a text table and JSON payload.
//! * [`speedup`] — speedup-series helpers and the analytic phase-shape
//!   model used for workloads too large to materialise point-by-point.
//! * [`baseline`] — `--baseline old.json` diffing: per-experiment speedup
//!   deltas against a recorded `BENCH_results.json` (run by CI against the
//!   committed baselines), evaluated at the cost model the file recorded.
//! * [`selection`] — experiment-selector resolution for `paper_results`
//!   (duplicate ids collapse, unknown ids are rejected with the registry).
//! * the `paper_results` binary drives everything and writes
//!   `BENCH_results.json`.  The wall-clock cost of the analyses,
//!   partitioning, schedule construction and execution themselves is
//!   measured by the repository benchmark under `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod selection;
pub mod speedup;

pub use baseline::{diff_against_baseline, BaselineDiff, SchemeDelta};
pub use experiments::{calibrated_model, ExperimentReport};
pub use selection::select_experiments;
pub use speedup::{phases_speedup, phases_time_ns, PhaseShape, SpeedupFigure, SpeedupSeries};
