//! The DOACROSS and inner-loop parallelization baselines.
//!
//! * **DOACROSS** (Tzen & Ni; Chen & Yew): the outer loop is distributed
//!   over the processors and cross-iteration dependences are enforced with
//!   point-to-point index synchronisation after a fixed delay.  A schedule
//!   of barrier-separated phases cannot express that pipelining, so the
//!   baseline produces a [`DoacrossPlan`] descriptor consumed by the
//!   runtime cost model's pipeline formula.
//! * **PAR (inner-loop parallelization)**: the outermost loop stays
//!   sequential and the inner loops of each outer iteration run as one
//!   DOALL — the structure the paper attributes to the POWER-test style
//!   parallelization it compares against on Example 3.

use rcp_codegen::{PhaseKind, Schedule, ScheduleBuilder};
use rcp_loopir::Program;
use rcp_presburger::DenseRelation;
use std::collections::BTreeMap;

/// Descriptor of a DOACROSS execution of an imperfect nest: outer
/// iterations pipelined with a synchronisation delay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DoacrossPlan {
    /// Number of outer-loop iterations (the pipelined dimension).
    pub n_outer: usize,
    /// Average number of statement instances per outer iteration.
    pub avg_inner: f64,
    /// The synchronisation delay, in statement instances, that a successor
    /// outer iteration must wait for (derived from the maximum dependence
    /// distance along the outer dimension).
    pub delay: usize,
    /// Total statement instances.
    pub total_instances: usize,
}

/// Builds the DOACROSS plan of a program at concrete parameters: outer
/// iterations are pipelined; the delay is the largest fraction of an outer
/// iteration that a dependence forces a successor to wait for.
///
/// `statement_level` states whether the points of `rd` are unified
/// statement-level vectors (outer index at position 1) or loop-level
/// vectors (outer index at position 0).
pub fn doacross_plan(
    program: &Program,
    params: &[i64],
    rd: &DenseRelation,
    statement_level: bool,
) -> DoacrossPlan {
    // group instance counts by outer index
    let mut total = 0;
    let mut per_outer: BTreeMap<i64, usize> = BTreeMap::new();
    program.for_each_instance(params, |_, idx| {
        total += 1;
        if let Some(&outer) = idx.first() {
            *per_outer.entry(outer).or_insert(0) += 1;
        }
    });
    let n_outer = per_outer.len().max(1);
    let avg_inner = total as f64 / n_outer as f64;
    // The delay is conservatively the average inner size when dependences
    // cross outer iterations (the synchronisation waits for the producing
    // statement inside the predecessor iteration), and zero when they do
    // not.
    let outer_pos = usize::from(statement_level);
    let crosses_outer = rd.iter().any(|(src, dst)| src[outer_pos] != dst[outer_pos]);
    let delay = if crosses_outer {
        (avg_inner * 0.5).ceil() as usize
    } else {
        0
    };
    DoacrossPlan {
        n_outer,
        avg_inner,
        delay,
        total_instances: total,
    }
}

/// The inner-loop (PAR) parallelization: one DOALL phase per outer-loop
/// iteration, containing all statement instances of that outer iteration.
///
/// The DOALL is over *inner iterations*: statement instances sharing the
/// same full index vector stay one work item, in program order.  The
/// dependence analysis only reports deps between distinct iteration
/// points, so splitting same-point statements into parallel items would
/// race on conflicts (e.g. two statements writing one cell) that the
/// relation by convention leaves to intra-iteration program order.
pub fn inner_parallel_schedule(program: &Program, params: &[i64], name: &str) -> Schedule {
    let sequential = Schedule::sequential(program, params);
    let mut builder = ScheduleBuilder::new(name, &sequential.statement_depths());
    builder.reserve(sequential.n_instances(), sequential.n_instances());
    let mut open: Option<(i64, &[i64])> = None;
    for i in by_outer(&sequential, |idx| idx) {
        let (stmt, idx) = sequential.instance(i);
        let outer = outer_index(idx);
        if open.is_none_or(|(o, _)| o != outer) {
            builder.phase(PhaseKind::Doall);
        }
        if open != Some((outer, idx)) {
            builder.item();
        }
        builder.instance(stmt, idx);
        open = Some((outer, idx));
    }
    builder.finish()
}

/// The executable rendering of DOACROSS: one phase per outer-loop
/// iteration, each a single sequential chain of its statement instances
/// in program order.  This is always a valid execution order (program
/// order within an outer iteration, barriers between them); the pipelined
/// overlap DOACROSS actually exploits is carried by the [`DoacrossPlan`]
/// for the cost model.
pub fn doacross_schedule(program: &Program, params: &[i64], name: &str) -> Schedule {
    let sequential = Schedule::sequential(program, params);
    let mut builder = ScheduleBuilder::new(name, &sequential.statement_depths());
    builder.reserve(sequential.n_instances(), sequential.n_instances());
    let mut open = None;
    for i in by_outer(&sequential, |_| ()) {
        let (stmt, idx) = sequential.instance(i);
        let outer = outer_index(idx);
        if open != Some(outer) {
            builder.phase(PhaseKind::ChainSet);
            builder.chain();
        }
        builder.single(stmt, idx);
        open = Some(outer);
    }
    builder.finish()
}

/// The outer-loop index of an instance (0 outside every loop).
fn outer_index(indices: &[i64]) -> i64 {
    indices.first().copied().unwrap_or(0)
}

/// The instance ids of a sequential schedule stably sorted by outer-loop
/// index, then by `inner` of the indices: program order within a key.
fn by_outer<'s, K: Ord>(sequential: &'s Schedule, inner: impl Fn(&'s [i64]) -> K) -> Vec<usize> {
    let key = |i: usize| {
        let (_, idx) = sequential.instance(i);
        (outer_index(idx), inner(idx))
    };
    let mut order: Vec<usize> = (0..sequential.n_instances()).collect();
    order.sort_by_key(|&i| key(i));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcp_depend::DependenceAnalysis;
    use rcp_presburger::DenseRelation;
    use rcp_workloads::example3;

    #[test]
    fn inner_parallel_schedule_of_example3() {
        let p = example3();
        let schedule = inner_parallel_schedule(&p, &[6], "par-ex3");
        // one phase per value of I
        assert_eq!(schedule.n_phases(), 6);
        assert!(schedule.validate_coverage(&p, &[6]).is_empty());
        // the critical path equals the number of outer iterations
        assert_eq!(schedule.critical_path(), 6);
    }

    #[test]
    fn doacross_schedule_chains_each_outer_iteration() {
        let p = example3();
        let schedule = doacross_schedule(&p, &[6], "doacross-ex3");
        assert_eq!(schedule.n_phases(), 6);
        assert!(schedule.validate_coverage(&p, &[6]).is_empty());
        // one chain per phase, holding the whole outer iteration
        assert!(schedule.phases().all(|phase| phase.width() == 1));
        assert_eq!(schedule.critical_path(), schedule.n_items());
    }

    #[test]
    fn doacross_plan_shape() {
        let p = example3();
        let analysis = DependenceAnalysis::statement_level(&p);
        let (_, rel) = analysis.bind_params(&[30]);
        let rd = DenseRelation::from_relation(&rel);
        let plan = doacross_plan(&p, &[30], &rd, true);
        assert_eq!(plan.n_outer, 30);
        assert!(plan.total_instances > 0);
        assert!(plan.avg_inner > 1.0);
        // example 3 has dependences crossing outer iterations at N = 30
        assert!(plan.delay > 0);
    }
}
