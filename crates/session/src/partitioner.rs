//! The [`Partitioner`] trait and its name-keyed registry: one interface
//! over every partitioning scheme the workspace implements, so drivers
//! (`rcp bench --scheme`, `paper_results`) iterate the registry instead of
//! importing each baseline's ad-hoc signature.
//!
//! | name | scheme | source |
//! |---|---|---|
//! | `recurrence-chains` | Algorithm 1 (three sets + WHILE chains, dataflow fallback) | the paper |
//! | `pdm` | pseudo distance matrix partitioning | Yu & D'Hollander, ICPP 2000 |
//! | `pl` | unimodular partitioning/labeling | D'Hollander, TPDS 1992 |
//! | `unique` | unique-set oriented partitioning | Ju & Chaudhary, 1997 |
//! | `doacross` | pipelined outer loop + index synchronisation | Tzen & Ni; Chen & Yew |
//! | `inner-parallel` | outer loop sequential, inner loops DOALL | Wolfe & Tseng (POWER test) |
//!
//! Every scheme consumes the same staged artifact — a
//! [`Partitioned`] — and produces a [`SchemeSchedule`]: an executable
//! barrier schedule plus, for DOACROSS, the pipeline descriptor its
//! point-to-point synchronisation needs for honest cost modelling (a
//! barrier schedule cannot express it, so the executable rendering is the
//! conservative phase-per-outer-iteration one).

use crate::error::RcpError;
use crate::pipeline::Partitioned;
use rcp_baselines::{
    doacross_plan, doacross_schedule, inner_parallel_schedule, pdm_schedule, pl_schedule,
    unique_sets_schedule, DoacrossPlan,
};
use rcp_codegen::Schedule;
use rcp_depend::Granularity;

/// The registry name of the paper's own scheme, used when a
/// [`crate::Config`] names no scheme.
pub const DEFAULT_SCHEME: &str = "recurrence-chains";

/// What a scheme produces for one concrete partition stage.
pub struct SchemeSchedule {
    /// The executable barrier schedule (always a valid execution order
    /// for the paper scheme; baseline schemes reproduce their published
    /// structure, which for some programs knowingly under-synchronises —
    /// [`crate::Scheduled::verify`] reports that honestly).
    pub schedule: Schedule,
    /// The pipeline descriptor, for schemes (DOACROSS) whose
    /// synchronisation structure a barrier schedule cannot express.
    pub pipeline: Option<DoacrossPlan>,
}

/// One partitioning scheme behind a stable name: the unified interface
/// over Algorithm 1 and every comparator baseline.
pub trait Partitioner: Send + Sync {
    /// The registry name (`rcp bench --scheme <name>`).
    fn name(&self) -> &'static str;
    /// One-line description for listings.
    fn description(&self) -> &'static str;
    /// Builds the scheme's schedule for a concrete partition stage.
    fn build(&self, stage: &Partitioned) -> Result<SchemeSchedule, RcpError>;
}

fn require_loop_level(stage: &Partitioned, scheme: &'static str) -> Result<(), RcpError> {
    if stage.analyzed().granularity() != Granularity::LoopLevel {
        return Err(RcpError::SchemeUnsupported {
            scheme,
            reason: "the scheme operates on perfect loop nests at loop-level granularity"
                .to_string(),
        });
    }
    if !stage.runtime_program().is_perfect_nest() {
        return Err(RcpError::SchemeUnsupported {
            scheme,
            reason: "the scheme's lattice construction is defined on perfect nests, not on \
                     the aggregated loop-group view of an imperfect nest"
                .to_string(),
        });
    }
    Ok(())
}

fn label(stage: &Partitioned, suffix: &str) -> String {
    format!("{}-{suffix}", stage.analyzed().program().name)
}

/// Algorithm 1: the recurrence-chain partitioning of the paper, with its
/// dataflow else-branch.
struct RecurrenceChains;

impl Partitioner for RecurrenceChains {
    fn name(&self) -> &'static str {
        "recurrence-chains"
    }
    fn description(&self) -> &'static str {
        "Algorithm 1: three-set partition + WHILE recurrence chains, dataflow fallback"
    }
    fn build(&self, stage: &Partitioned) -> Result<SchemeSchedule, RcpError> {
        // Points expand from the program alone, so the schedule never
        // forces the dependence analysis; `runtime_values` match
        // `runtime_program`.
        // The partition (like a baseline's Φ and Rd) is built under its
        // own spans, outside `codegen.schedule`.
        let partition = stage.partition();
        let _span = rcp_trace::span!("codegen.schedule");
        let schedule = Schedule::from_partition(
            stage.runtime_program(),
            stage.analyzed().granularity(),
            stage.runtime_values(),
            partition,
            &label(stage, "rcp"),
        );
        Ok(SchemeSchedule {
            schedule,
            pipeline: None,
        })
    }
}

/// PDM: pseudo-distance-matrix partitioning (ICPP 2000).
struct Pdm;

impl Partitioner for Pdm {
    fn name(&self) -> &'static str {
        "pdm"
    }
    fn description(&self) -> &'static str {
        "pseudo distance matrix: lattice classes as parallel sequential chains"
    }
    fn build(&self, stage: &Partitioned) -> Result<SchemeSchedule, RcpError> {
        require_loop_level(stage, self.name())?;
        let (analysis, phi, rd) = (stage.analysis(), stage.phi(), stage.rd());
        let _span = rcp_trace::span!("codegen.schedule");
        let (_, schedule) = pdm_schedule(analysis, phi, rd, &label(stage, "pdm"));
        Ok(SchemeSchedule {
            schedule,
            pipeline: None,
        })
    }
}

/// PL: unimodular partitioning/labeling (TPDS 1992).
struct Pl;

impl Partitioner for Pl {
    fn name(&self) -> &'static str {
        "pl"
    }
    fn description(&self) -> &'static str {
        "partitioning/labeling: distance-lattice classes (uniform loops only)"
    }
    fn build(&self, stage: &Partitioned) -> Result<SchemeSchedule, RcpError> {
        require_loop_level(stage, self.name())?;
        let (analysis, phi, rd) = (stage.analysis(), stage.phi(), stage.rd());
        let _span = rcp_trace::span!("codegen.schedule");
        let schedule = pl_schedule(analysis, phi, rd, &label(stage, "pl"));
        Ok(SchemeSchedule {
            schedule,
            pipeline: None,
        })
    }
}

/// UNIQUE: unique-set oriented partitioning (Ju & Chaudhary 1997).
struct Unique;

impl Partitioner for Unique {
    fn name(&self) -> &'static str {
        "unique"
    }
    fn description(&self) -> &'static str {
        "unique sets: role classes of the flow/anti hulls, in sequence"
    }
    fn build(&self, stage: &Partitioned) -> Result<SchemeSchedule, RcpError> {
        require_loop_level(stage, self.name())?;
        let (analysis, phi, rd) = (stage.analysis(), stage.phi(), stage.rd());
        let _span = rcp_trace::span!("codegen.schedule");
        let schedule = unique_sets_schedule(analysis, phi, rd, &label(stage, "unique"))
            .ok_or_else(|| RcpError::SchemeUnsupported {
                scheme: self.name(),
                reason: "role-class graph is cyclic: no sequential order of unique sets exists"
                    .to_string(),
            })?;
        Ok(SchemeSchedule {
            schedule,
            pipeline: None,
        })
    }
}

/// DOACROSS: pipelined outer loop with index synchronisation.
struct Doacross;

impl Partitioner for Doacross {
    fn name(&self) -> &'static str {
        "doacross"
    }
    fn description(&self) -> &'static str {
        "pipelined outer loop + index synchronisation (cost-model pipeline descriptor)"
    }
    fn build(&self, stage: &Partitioned) -> Result<SchemeSchedule, RcpError> {
        let program = stage.runtime_program();
        let values = stage.runtime_values();
        let statement_level = stage.analyzed().granularity() == Granularity::StatementLevel;
        let rd = stage.rd();
        let _span = rcp_trace::span!("codegen.schedule");
        let plan = doacross_plan(program, values, rd, statement_level);
        // The executable rendering: one sequential chain per outer
        // iteration; the pipelined overlap is carried by the descriptor.
        Ok(SchemeSchedule {
            schedule: doacross_schedule(program, values, &label(stage, "doacross")),
            pipeline: Some(plan),
        })
    }
}

/// PAR: inner-loop parallelization (outer loop sequential).
struct InnerParallel;

impl Partitioner for InnerParallel {
    fn name(&self) -> &'static str {
        "inner-parallel"
    }
    fn description(&self) -> &'static str {
        "outer loop sequential, the inner loops of each iteration one DOALL"
    }
    fn build(&self, stage: &Partitioned) -> Result<SchemeSchedule, RcpError> {
        let _span = rcp_trace::span!("codegen.schedule");
        let schedule = inner_parallel_schedule(
            stage.runtime_program(),
            stage.runtime_values(),
            &label(stage, "par"),
        );
        Ok(SchemeSchedule {
            schedule,
            pipeline: None,
        })
    }
}

static SCHEMES: [&dyn Partitioner; 6] = [
    &RecurrenceChains,
    &Pdm,
    &Pl,
    &Unique,
    &Doacross,
    &InnerParallel,
];

/// Every registered scheme, the paper's own first.
pub fn registry() -> &'static [&'static dyn Partitioner] {
    &SCHEMES
}

/// The registered scheme names, in registry order.
pub fn scheme_names() -> Vec<&'static str> {
    SCHEMES.iter().map(|s| s.name()).collect()
}

/// Looks a scheme up by name.
pub fn partitioner(name: &str) -> Result<&'static dyn Partitioner, RcpError> {
    SCHEMES
        .iter()
        .copied()
        .find(|s| s.name() == name)
        .ok_or_else(|| RcpError::UnknownScheme {
            name: name.to_string(),
            known: scheme_names(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_registry_names_every_scheme_once() {
        let names = scheme_names();
        assert_eq!(
            names,
            vec![
                "recurrence-chains",
                "pdm",
                "pl",
                "unique",
                "doacross",
                "inner-parallel"
            ]
        );
        for name in names {
            assert_eq!(partitioner(name).map(|s| s.name()).unwrap(), name);
        }
        let err = partitioner("nope").map(|s| s.name()).unwrap_err();
        assert!(matches!(err, RcpError::UnknownScheme { .. }));
        assert!(err.to_string().contains("recurrence-chains"));
    }
}
