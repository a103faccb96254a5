//! Executable schedules: the parallel structure handed to the runtime.
//!
//! Code generation in the original system emits OpenMP Fortran.  Here the
//! same parallel structure — a sequence of barrier-separated phases, each
//! either a DOALL set or a set of independent WHILE chains — is captured as
//! a [`Schedule`] over *work items* (statement instances), which the
//! `rcp-runtime` crate executes on a thread pool and the cost model turns
//! into the speedup curves of Figure 3.

use rcp_core::ConcretePartition;
use rcp_depend::{DependenceAnalysis, Granularity};
use rcp_intlin::IVec;
use rcp_loopir::{LoopGroup, Program, UnifiedDecoder};
use rcp_presburger::DenseSet;

/// One unit of scheduled work: a list of statement instances executed
/// sequentially (normally the statements of one loop-body iteration, or a
/// single statement instance at statement-level granularity).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkItem {
    /// `(statement id, loop index values)` pairs in execution order.
    pub instances: Vec<(usize, IVec)>,
}

impl WorkItem {
    /// A work item with a single statement instance.
    pub fn single(stmt_id: usize, indices: IVec) -> Self {
        WorkItem {
            instances: vec![(stmt_id, indices)],
        }
    }

    /// Number of statement instances in the item.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when the item contains no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

/// A barrier-separated phase of a schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Fully parallel set: items may execute concurrently in any order.
    Doall(Vec<WorkItem>),
    /// A set of independent chains: chains may execute concurrently, the
    /// items of one chain execute sequentially in order (the WHILE loops of
    /// the intermediate set).
    ChainSet(Vec<Vec<WorkItem>>),
}

impl Phase {
    /// Total number of work items in the phase.
    pub fn n_items(&self) -> usize {
        match self {
            Phase::Doall(items) => items.len(),
            Phase::ChainSet(chains) => chains.iter().map(|c| c.len()).sum(),
        }
    }

    /// The number of independently schedulable units (items or chains).
    pub fn width(&self) -> usize {
        match self {
            Phase::Doall(items) => items.len(),
            Phase::ChainSet(chains) => chains.len(),
        }
    }

    /// The longest sequential run inside the phase, in work items.
    pub fn depth(&self) -> usize {
        match self {
            Phase::Doall(items) => usize::from(!items.is_empty()),
            Phase::ChainSet(chains) => chains.iter().map(|c| c.len()).max().unwrap_or(0),
        }
    }
}

/// A parallel execution schedule: phases executed in order with a barrier
/// after each phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Schedule name (scheme + workload, used in reports).
    pub name: String,
    /// The barrier-separated phases.
    pub phases: Vec<Phase>,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new(name: &str) -> Self {
        Schedule {
            name: name.to_string(),
            phases: Vec::new(),
        }
    }

    /// The fully sequential schedule of a program at concrete parameter
    /// values: every statement instance in program order, as listed by the
    /// loop interpreter ([`Program::enumerate_instances`]), as one chain.
    pub fn sequential(program: &Program, params: &[i64]) -> Schedule {
        let items = program
            .enumerate_instances(params)
            .into_iter()
            .map(|(stmt, indices)| WorkItem::single(stmt, indices))
            .collect();
        Schedule {
            name: format!("{}-sequential", program.name),
            phases: vec![Phase::ChainSet(vec![items])],
        }
    }

    /// Builds the schedule of a concrete Algorithm-1 partition.
    ///
    /// At loop-level granularity each partition point is one loop-body
    /// iteration and expands to all statements of the (perfect) nest; at
    /// statement-level granularity each point is a single statement
    /// instance.  Aggregated loop-level points (imperfect nests) need the
    /// parameter values to expand their inner loops — use
    /// [`Self::from_partition_with`] and [`PointExpander::new`] for those.
    pub fn from_partition(
        analysis: &DependenceAnalysis,
        partition: &ConcretePartition,
        name: &str,
    ) -> Schedule {
        Self::from_partition_with(&PointExpander::new(analysis, &[]), partition, name)
    }

    /// Builds the schedule of a concrete Algorithm-1 partition whose
    /// points `expander` turns into work items.
    pub fn from_partition_with(
        expander: &PointExpander<'_>,
        partition: &ConcretePartition,
        name: &str,
    ) -> Schedule {
        let to_item = |point: &[i64]| expander.item(point);
        let mut phases = Vec::new();
        match partition {
            ConcretePartition::RecurrenceChains { p1, chains, p3, .. } => {
                if !p1.is_empty() {
                    phases.push(Phase::Doall(p1.iter().map(to_item).collect()));
                }
                if !chains.is_empty() {
                    phases.push(Phase::ChainSet(
                        chains
                            .iter()
                            .map(|c| c.iterations.iter().map(|p| to_item(p)).collect())
                            .collect(),
                    ));
                }
                if !p3.is_empty() {
                    phases.push(Phase::Doall(p3.iter().map(to_item).collect()));
                }
            }
            ConcretePartition::Dataflow { stages } => {
                for stage in &stages.stages {
                    if !stage.is_empty() {
                        phases.push(Phase::Doall(stage.iter().map(to_item).collect()));
                    }
                }
            }
        }
        Schedule {
            name: name.to_string(),
            phases,
        }
    }

    /// Builds a one-phase DOALL schedule from a dense set of points (used by
    /// baseline schemes; direct views only).
    pub fn doall_phase(analysis: &DependenceAnalysis, points: &DenseSet, name: &str) -> Schedule {
        let expander = PointExpander::new(analysis, &[]);
        Schedule {
            name: name.to_string(),
            phases: vec![Phase::Doall(
                points.iter().map(|p| expander.item(p)).collect(),
            )],
        }
    }

    /// Total number of work items.
    pub fn n_items(&self) -> usize {
        self.phases.iter().map(|p| p.n_items()).sum()
    }

    /// Total number of statement instances.
    pub fn n_instances(&self) -> usize {
        self.phases
            .iter()
            .map(|p| match p {
                Phase::Doall(items) => items.iter().map(|i| i.len()).sum::<usize>(),
                Phase::ChainSet(chains) => chains
                    .iter()
                    .flat_map(|c| c.iter())
                    .map(|i| i.len())
                    .sum::<usize>(),
            })
            .sum()
    }

    /// Number of barrier-separated phases.
    pub fn n_phases(&self) -> usize {
        self.phases.len()
    }

    /// The critical path in work items: the sum over phases of the longest
    /// sequential run inside each phase.
    pub fn critical_path(&self) -> usize {
        self.phases.iter().map(|p| p.depth()).sum()
    }

    /// Checks that this schedule executes exactly the same statement
    /// instances as the program in sequential order (each exactly once).
    /// Returns violated invariants.
    pub fn validate_coverage(&self, program: &Program, params: &[i64]) -> Vec<String> {
        use std::collections::BTreeMap;
        let mut scheduled: BTreeMap<(usize, IVec), usize> = BTreeMap::new();
        for item in self.all_items() {
            for inst in &item.instances {
                *scheduled.entry(inst.clone()).or_insert(0) += 1;
            }
        }
        let mut reference: BTreeMap<(usize, IVec), usize> = BTreeMap::new();
        for inst in program.enumerate_instances(params) {
            *reference.entry(inst).or_insert(0) += 1;
        }
        let mut problems = Vec::new();
        for (inst, &count) in &scheduled {
            match reference.get(inst) {
                None => problems.push(format!("instance {:?} is not part of the program", inst)),
                Some(&c) if c != count => problems.push(format!(
                    "instance {:?} scheduled {count} times, expected {c}",
                    inst
                )),
                _ => {}
            }
        }
        for inst in reference.keys() {
            if !scheduled.contains_key(inst) {
                problems.push(format!("instance {:?} is never scheduled", inst));
            }
        }
        problems
    }

    /// Iterates all work items of all phases.
    pub fn all_items(&self) -> impl Iterator<Item = &WorkItem> {
        self.phases.iter().flat_map(|p| match p {
            Phase::Doall(items) => items.iter().collect::<Vec<_>>().into_iter(),
            Phase::ChainSet(chains) => chains
                .iter()
                .flat_map(|c| c.iter())
                .collect::<Vec<_>>()
                .into_iter(),
        })
    }
}

/// Expands partition points into work items according to the analysis
/// granularity and view: a loop-level point becomes all statements of the
/// nest at those indices, an aggregated point the whole body of one prefix
/// iteration, a statement-level point a single instance.
///
/// Build one per schedule: construction reads the program tree once, so
/// [`Self::item`] never re-walks it per point.  Public because structural
/// schedule checks (the differential fuzzer's dependence-respect oracle)
/// need the same point-to-instances expansion the schedules were built
/// with.
pub struct PointExpander<'a> {
    program: &'a Program,
    params: &'a [i64],
    expansion: Expansion,
}

enum Expansion {
    /// Aggregated loop-level points `(group, prefix iteration, padding)`.
    Groups(Vec<LoopGroup>),
    /// Loop-level points of a perfect nest with this many statements.
    Nest(usize),
    /// Statement-level points of the unified space.
    Unified(UnifiedDecoder),
}

impl<'a> PointExpander<'a> {
    /// The expander of `analysis`'s points at the parameter values
    /// `params`, which aggregated points need to expand their inner loops
    /// (unused for direct views).
    pub fn new(analysis: &'a DependenceAnalysis, params: &'a [i64]) -> Self {
        Self::for_program(&analysis.program, analysis.granularity, params)
    }

    /// The expander of the points of `program`'s analysis space at
    /// `granularity`.  The view follows from the program: loop level over
    /// an imperfect nest is the aggregated loop-group view, whose points
    /// need `params` to expand their inner loops.  No dependence analysis
    /// is involved.
    pub fn for_program(program: &'a Program, granularity: Granularity, params: &'a [i64]) -> Self {
        let expansion = match granularity {
            Granularity::LoopLevel if program.is_perfect_nest() => {
                Expansion::Nest(program.statements().len())
            }
            Granularity::LoopLevel => Expansion::Groups(program.loop_groups().unwrap_or_default()),
            Granularity::StatementLevel => Expansion::Unified(program.unified_decoder()),
        };
        PointExpander {
            program,
            params,
            expansion,
        }
    }

    /// The work item of one partition point.
    // Panic-hygiene allow: partition points come from the same analysis the
    // expander was built from, so the group/instance lookups are invariants.
    #[allow(clippy::expect_used)]
    pub fn item(&self, point: &[i64]) -> WorkItem {
        match &self.expansion {
            Expansion::Groups(groups) => {
                // An aggregated point executes the whole body of one
                // prefix iteration in program order.
                let group = groups
                    .iter()
                    .find(|g| g.group as i64 == point[0])
                    .expect("aggregated point names a loop group");
                let prefix = &point[1..1 + group.depth()];
                WorkItem {
                    instances: self
                        .program
                        .enumerate_group_instances(group, prefix, self.params),
                }
            }
            // All statements of the nest execute at these indices, in order.
            Expansion::Nest(statements) => WorkItem {
                instances: (0..*statements).map(|id| (id, point.to_vec())).collect(),
            },
            Expansion::Unified(decoder) => {
                let (stmt, indices) = decoder
                    .decode(point)
                    .expect("partition point decodes to a statement instance");
                WorkItem::single(stmt, indices)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcp_core::concrete_partition;
    use rcp_loopir::expr::{c, v};
    use rcp_loopir::program::build::{loop_, stmt};
    use rcp_loopir::ArrayRef;

    fn figure2() -> Program {
        Program::new(
            "figure2",
            &[],
            vec![loop_(
                "I",
                c(1),
                c(20),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I") * 2]),
                        ArrayRef::read("a", vec![c(21) - v("I")]),
                    ],
                )],
            )],
        )
    }

    #[test]
    fn sequential_schedule_covers_program_in_order() {
        let p = figure2();
        let seq = Schedule::sequential(&p, &[]);
        assert_eq!(seq.n_items(), 20);
        assert_eq!(seq.n_phases(), 1);
        assert_eq!(seq.critical_path(), 20);
        // items appear in increasing loop order
        let indices: Vec<i64> = seq.all_items().map(|w| w.instances[0].1[0]).collect();
        assert_eq!(indices, (1..=20).collect::<Vec<_>>());
        assert!(seq.validate_coverage(&p, &[]).is_empty());
    }

    #[test]
    fn partition_schedule_for_figure2() {
        let p = figure2();
        let analysis = DependenceAnalysis::loop_level(&p);
        let part = concrete_partition(&analysis, &[]);
        let sched = Schedule::from_partition(&analysis, &part, "figure2-rec");
        // Empty intermediate set: two DOALL phases.
        assert_eq!(sched.n_phases(), 2);
        assert_eq!(sched.n_items(), 20);
        assert_eq!(sched.critical_path(), 2);
        assert!(sched.validate_coverage(&p, &[]).is_empty());
        match &sched.phases[0] {
            Phase::Doall(items) => assert_eq!(items.len(), 12),
            _ => panic!("expected a DOALL phase"),
        }
    }

    #[test]
    fn example1_schedule_structure() {
        let p = Program::new(
            "example1",
            &["N1", "N2"],
            vec![loop_(
                "I1",
                c(1),
                v("N1"),
                vec![loop_(
                    "I2",
                    c(1),
                    v("N2"),
                    vec![stmt(
                        "S",
                        vec![
                            ArrayRef::write(
                                "a",
                                vec![v("I1") * 3 + c(1), v("I1") * 2 + v("I2") - c(1)],
                            ),
                            ArrayRef::read("a", vec![v("I1") + c(3), v("I2") + c(1)]),
                        ],
                    )],
                )],
            )],
        );
        let analysis = DependenceAnalysis::loop_level(&p);
        let part = concrete_partition(&analysis, &[30, 40]);
        let sched = Schedule::from_partition(&analysis, &part, "example1-rec");
        assert_eq!(sched.n_items(), 30 * 40);
        assert!(sched.validate_coverage(&p, &[30, 40]).is_empty());
        assert_eq!(sched.n_phases(), 3);
        // phase 2 is the chain set and is deeper than one item
        assert!(matches!(sched.phases[1], Phase::ChainSet(_)));
        assert!(sched.phases[1].depth() >= 2);
        // critical path well below the sequential length
        assert!(sched.critical_path() < 100);
    }

    #[test]
    fn coverage_validation_detects_missing_and_duplicate_items() {
        let p = figure2();
        let analysis = DependenceAnalysis::loop_level(&p);
        let part = concrete_partition(&analysis, &[]);
        let mut sched = Schedule::from_partition(&analysis, &part, "broken");
        // remove one item
        if let Phase::Doall(items) = &mut sched.phases[0] {
            items.pop();
        }
        assert!(!sched.validate_coverage(&p, &[]).is_empty());
        // duplicate an item
        let mut sched = Schedule::from_partition(&analysis, &part, "broken2");
        if let Phase::Doall(items) = &mut sched.phases[0] {
            let dup = items[0].clone();
            items.push(dup);
        }
        assert!(!sched.validate_coverage(&p, &[]).is_empty());
    }
}
