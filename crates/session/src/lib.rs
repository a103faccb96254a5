//! `rcp-session`: the staged pipeline API of the recurrence-chains
//! workspace.
//!
//! The paper's method is a pipeline — dependence analysis → three-set
//! partition → recurrence chains → schedule → verified parallel execution
//! — and this crate is its canonical driver: a typed, staged API
//!
//! ```text
//! Session ── parse/load ──► Analyzed ──┬─ plan ──► Planned
//!                                      └─ partition ──► Partitioned ── schedule ──► Scheduled
//! ```
//!
//! where every stage is a reusable, memoised artifact configured by a
//! single [`Config`] instead of per-call arguments.  One [`Analyzed`] can
//! be re-partitioned for many parameter bindings without re-running the
//! analysis; one [`Partitioned`] can be scheduled by every scheme in the
//! [`Partitioner`] registry (`recurrence-chains`, `pdm`, `pl`, `unique`,
//! `doacross`, `inner-parallel`); every failure is a typed [`RcpError`] —
//! parse errors carry `rcp-lang` source positions, and a plan falling back
//! from recurrence chains carries the [`rcp_core::PlanUnavailable`] reason
//! instead of a silent `None`.
//!
//! # Quick start
//!
//! ```
//! use rcp_session::{Config, Session};
//!
//! let session = Session::with_config(
//!     Config::new().with_param("N1", 10).with_param("N2", 10).with_threads(4),
//! );
//! let analyzed = session
//!     .bundled("example1")
//!     .expect("example1.loop is bundled");
//!
//! // Compile-time plan: Example 1 takes the recurrence-chain branch.
//! let planned = analyzed.plan().expect("single coupled pair, full rank");
//! assert!(planned.listing().contains("DOALL"));
//!
//! // Concrete partition at the configured parameters, scheduled with the
//! // paper's scheme and verified against sequential execution.
//! let scheduled = analyzed.partition()?.schedule()?;
//! assert_eq!(scheduled.scheme(), "recurrence-chains");
//! assert!(scheduled.verify().passed());
//!
//! // The same Analyzed re-partitions for another binding without
//! // re-running the dependence analysis.
//! let bigger = analyzed.partition_with(&[("N1".into(), 20), ("N2".into(), 12)])?;
//! assert_eq!(bigger.stats().total_iterations, 240);
//! # Ok::<(), rcp_session::RcpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod degrade;
mod error;
mod partitioner;
mod pipeline;

pub use config::{Config, GranularityChoice};
pub use degrade::{DegradationLevel, DegradationReport};
pub use error::RcpError;
pub use partitioner::{
    partitioner, registry, scheme_names, Partitioner, SchemeSchedule, DEFAULT_SCHEME,
};
pub use pipeline::{Analyzed, BenchMeasurement, Partitioned, Planned, Scheduled, Session};
pub use rcp_guard::BudgetSpec;

#[cfg(test)]
mod tests {
    use super::*;
    use rcp_core::{PlanUnavailable, Strategy};

    fn example1_session() -> Session {
        Session::with_config(Config::new().with_param("N1", 10).with_param("N2", 10))
    }

    #[test]
    fn the_staged_pipeline_runs_end_to_end() {
        let analyzed = example1_session().bundled("example1").unwrap();
        assert_eq!(analyzed.strategy().unwrap(), Strategy::RecurrenceChains);
        let stage = analyzed.partition().unwrap();
        assert_eq!(stage.stats().total_iterations, 100);
        assert!(stage.validate().is_empty());
        let scheduled = stage.schedule().unwrap();
        assert!(scheduled.verify().passed());
    }

    #[test]
    fn one_analysis_serves_many_bindings() {
        let analyzed = example1_session().bundled("example1").unwrap();
        let a = analyzed.partition().unwrap();
        let b = analyzed
            .partition_with(&[("N1".into(), 12), ("N2".into(), 12)])
            .unwrap();
        assert_eq!(a.stats().total_iterations, 100);
        assert_eq!(b.stats().total_iterations, 144);
        assert_eq!(analyzed.cached_partitions(), 2);
        // A repeated binding is served from the memo (same shared stage).
        let a2 = analyzed.partition().unwrap();
        assert_eq!(analyzed.cached_partitions(), 2);
        assert_eq!(a2.values(), a.values());
    }

    #[test]
    fn measurement_toggles_do_not_change_results() {
        // Cold caches are a measurement knob: the produced analysis must be
        // bit-identical to the default's.
        let reference = format!(
            "{:?}",
            example1_session()
                .bundled("example1")
                .unwrap()
                .symbolic_analysis()
                .unwrap()
                .relation
        );
        let config = Config::new()
            .with_param("N1", 10)
            .with_param("N2", 10)
            .with_cold_caches();
        let analyzed = Session::with_config(config).bundled("example1").unwrap();
        assert_eq!(
            format!("{:?}", analyzed.symbolic_analysis().unwrap().relation),
            reference,
            "cold caches changed the analysis"
        );
    }

    #[test]
    fn partition_reuse_can_be_disabled() {
        let session = Session::with_config(
            Config::new()
                .with_param("N1", 6)
                .with_param("N2", 6)
                .without_partition_reuse(),
        );
        let analyzed = session.bundled("example1").unwrap();
        let a = analyzed.partition().unwrap();
        let _b = analyzed.partition().unwrap();
        assert_eq!(analyzed.cached_partitions(), 0, "memo must stay empty");
        assert_eq!(a.stats().total_iterations, 36);
    }

    #[test]
    fn every_registered_scheme_schedules_example1() {
        let analyzed = example1_session().bundled("example1").unwrap();
        let stage = analyzed.partition().unwrap();
        for scheme in registry() {
            let scheduled = stage.schedule_with(scheme.name()).unwrap();
            assert_eq!(scheduled.scheme(), scheme.name());
            assert_eq!(
                scheduled.schedule().n_instances(),
                100,
                "{}: every scheme covers the whole space",
                scheme.name()
            );
        }
    }

    #[test]
    fn fallback_reasons_are_typed_not_silent() {
        // mvt is an imperfect nest: statement-level analysis, no coupled
        // recurrence — the plan must explain that.
        let session = Session::with_config(Config::new().with_param("N", 8));
        let analyzed = session.bundled("mvt").unwrap();
        assert_eq!(
            analyzed.plan_unavailability().unwrap(),
            Some(PlanUnavailable::StatementLevel)
        );
        let err = analyzed.plan().unwrap_err();
        assert_eq!(err.plan_reason(), Some(&PlanUnavailable::StatementLevel));
        assert_eq!(analyzed.strategy().unwrap(), Strategy::Dataflow);
    }

    #[test]
    fn loop_level_only_schemes_refuse_statement_level_programs() {
        let session = Session::with_config(Config::new().with_param("N", 8));
        let stage = session.bundled("mvt").unwrap().partition().unwrap();
        let err = stage.schedule_with("pdm").unwrap_err();
        assert!(matches!(
            err,
            RcpError::SchemeUnsupported { scheme: "pdm", .. }
        ));
        // DOACROSS and inner-parallel still produce schedules.
        assert!(stage.schedule_with("doacross").is_ok());
        assert!(stage.schedule_with("inner-parallel").is_ok());
    }

    #[test]
    fn deferred_analysis_handles_parameters_in_subscripts() {
        // Cholesky's subscripts mention N/NMAT: the analysis runs on the
        // parameter-bound program, transparently.
        let session = Session::with_config(
            Config::new()
                .with_param("NMAT", 2)
                .with_param("M", 2)
                .with_param("N", 6)
                .with_param("NRHS", 1),
        );
        let analyzed = session.bundled("cholesky").unwrap();
        assert!(analyzed.symbolic_analysis().is_none());
        let stage = analyzed.partition().unwrap();
        assert!(!stage.phi().is_empty());
        assert_eq!(
            stage.plan_unavailability(),
            Some(PlanUnavailable::StatementLevel)
        );
        let scheduled = stage.schedule().unwrap();
        assert!(scheduled.verify().passed());
    }

    #[test]
    fn unknown_workloads_and_schemes_are_typed() {
        let session = Session::new();
        assert!(matches!(
            session.bundled("nope").unwrap_err(),
            RcpError::UnknownWorkload { .. }
        ));
        let stage = example1_session()
            .bundled("example1")
            .unwrap()
            .partition()
            .unwrap();
        assert!(matches!(
            stage.schedule_with("nope").unwrap_err(),
            RcpError::UnknownScheme { .. }
        ));
    }
}
