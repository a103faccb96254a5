//! Executable schedules: the parallel structure handed to the runtime.
//!
//! Code generation in the original system emits OpenMP Fortran.  Here the
//! same parallel structure — a sequence of barrier-separated phases, each
//! either a DOALL set or a set of independent WHILE chains — is captured as
//! a [`Schedule`] over *work items* (statement instances), which the
//! `rcp-runtime` crate executes on a thread pool and the cost model turns
//! into the speedup curves of Figure 3.
//!
//! # Layout
//!
//! A schedule is one flat slab, built by a [`ScheduleBuilder`]: per
//! statement instance a `u32` statement id and a fixed-stride row of loop
//! indices (the stride is the deepest statement's depth; each statement's
//! own depth is recorded once), plus three boundary arrays.  A work item
//! is a run of consecutive instances, a *unit* a run of consecutive items
//! (a WHILE chain, or one item of a DOALL), and a phase a run of
//! consecutive units.  Execution order is slab order, so every unit, and
//! every phase, is one contiguous range of instances.  Callers read the
//! slab through the borrowed views [`Phase`], [`Unit`] and [`WorkItem`];
//! no instance owns a heap object.  As it appends instances, the builder
//! also records each statement's box, the range of each loop index over
//! its instances ([`Schedule::statement_boxes`]): the runtime lays its
//! arrays out from them without a pass over the slab.

use rcp_core::{ConcretePartition, DataflowPartition};
use rcp_depend::{DependenceAnalysis, Granularity};
use rcp_loopir::{LoopWalker, Program, StatementBox, UnifiedDecoder};
use rcp_presburger::DenseSet;
use std::fmt;
use std::ops::Range;

/// How the units of a phase may execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseKind {
    /// Fully parallel set: every work item is its own unit, and items may
    /// execute concurrently in any order.
    Doall,
    /// A set of independent chains: chains may execute concurrently, the
    /// items of one chain execute sequentially in order (the WHILE loops of
    /// the intermediate set).
    ChainSet,
}

/// A parallel execution schedule: phases executed in order with a barrier
/// after each phase, held as one flat slab (see the [module
/// docs](self)).
#[derive(Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Schedule name (scheme + workload, used in reports).
    pub name: String,
    /// Statement id → the number of loop indices its instances carry.
    depths: Vec<u32>,
    /// Length of an index row: the largest depth, at least 1.
    stride: usize,
    /// Per instance, its statement id.
    stmts: Vec<u32>,
    /// Per instance, `stride` loop indices, outermost first, zero padded.
    indices: Vec<i64>,
    /// Item `k` holds instances `items[k]..items[k + 1]`.
    items: Vec<u32>,
    /// Unit `u` holds items `units[u]..units[u + 1]`.
    units: Vec<u32>,
    /// Per phase, its kind and first unit; phase `p`'s units end where
    /// phase `p + 1`'s begin.
    phases: Vec<(PhaseKind, u32)>,
    /// Statement id → the box of its instances in the slab.
    boxes: Vec<StatementBox>,
}

/// A slab offset as stored: a schedule addresses at most `u32::MAX`
/// instances, items and units.
// Panic-hygiene allow: past u32::MAX instances the slab alone would hold
// more than 48 GB, which no allocation reaches, so the overflow is
// unreachable in practice.
#[allow(clippy::expect_used)]
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("a schedule holds at most u32::MAX instances")
}

impl Schedule {
    /// The fully sequential schedule of a program at concrete parameter
    /// values: every statement instance in program order, as the compiled
    /// loop walker ([`Program::walker`]) lists them, as one chain.
    pub fn sequential(program: &Program, params: &[i64]) -> Schedule {
        let walker = program.walker(params);
        let mut builder =
            ScheduleBuilder::new(&format!("{}-sequential", program.name), walker.depths());
        let n = walker.count();
        builder.reserve(n, n);
        builder.phase(PhaseKind::ChainSet);
        builder.chain();
        walker.for_each(|stmt, indices| builder.single(stmt, indices));
        builder.finish()
    }

    /// Builds the schedule of a concrete Algorithm-1 partition of the
    /// points of `program`'s analysis space at `granularity` and the
    /// parameter values `params`.  No dependence analysis is involved.
    ///
    /// At loop-level granularity each partition point is one loop-body
    /// iteration and expands to all statements of the (perfect) nest, or
    /// to the whole body of one prefix iteration in the aggregated view of
    /// an imperfect nest; at statement-level granularity each point is a
    /// single statement instance.
    pub fn from_partition(
        program: &Program,
        granularity: Granularity,
        params: &[i64],
        partition: &ConcretePartition,
        name: &str,
    ) -> Schedule {
        let (three_set, chains) = match partition {
            ConcretePartition::RecurrenceChains { three_set, chains } => (three_set, chains),
            ConcretePartition::Dataflow { stages } => {
                return Self::dataflow(program, granularity, params, stages, name)
            }
        };
        let (p1, p2, p3) = (&three_set.p1, &three_set.p2, &three_set.p3);
        let expander = PointExpander::for_program(program, granularity, params);
        let mut builder = expander.builder(name);
        expander.reserve(&mut builder, p1.len() + chains.ids().len() + p3.len());
        let doall = |builder: &mut ScheduleBuilder, points: &DenseSet| {
            if !points.is_empty() {
                builder.phase(PhaseKind::Doall);
                for point in points.iter() {
                    expander.item(point, builder);
                }
            }
        };
        doall(&mut builder, p1);
        if !chains.is_empty() {
            builder.phase(PhaseKind::ChainSet);
            for chain in chains.iter() {
                builder.chain();
                for &id in chain {
                    expander.item(p2.point(id as usize), &mut builder);
                }
            }
        }
        doall(&mut builder, p3);
        builder.finish()
    }

    /// The schedule of a dataflow partition, the one builder of dataflow
    /// schedules, traced or built from `Rd`, at every view: a DOALL phase
    /// per level whose items are the points at that level in id order.
    /// Point `k` of the program-order walk ([`LoopWalker::for_each_point`])
    /// is `Φ` id `k`, and expands to the instances the walk visits for it:
    /// an empty work item when it runs none.
    fn dataflow(
        program: &Program,
        granularity: Granularity,
        params: &[i64],
        stages: &DataflowPartition,
        name: &str,
    ) -> Schedule {
        let walker = program.walker(params);
        let loop_level = granularity == Granularity::LoopLevel;
        // The points in program order, an item each.
        let mut walk = ScheduleBuilder::new(name, walker.depths());
        walk.reserve(walker.count(), stages.levels.len());
        walk.phase(PhaseKind::Doall);
        walker.for_each_point(loop_level, |point| {
            walk.item();
            point.for_each(|stmt, indices| walk.instance(stmt, indices));
        });
        let walk = walk.finish();
        assert_eq!(walk.n_items(), stages.levels.len(), "one level per point");
        // The point ids of every level, in id order.
        let mut ids: Vec<Vec<u32>> = vec![Vec::new(); stages.n_stages()];
        for (id, &level) in stages.levels.iter().enumerate() {
            ids[level as usize].push(offset(id));
        }
        let mut builder = ScheduleBuilder::new(name, walker.depths());
        builder.reserve(walk.n_instances(), walk.n_items());
        for stage in ids.iter().filter(|ids| !ids.is_empty()) {
            builder.phase(PhaseKind::Doall);
            for &id in stage {
                builder.item();
                for (stmt, indices) in walk.item(id as usize).instances() {
                    builder.instance(stmt, indices);
                }
            }
        }
        builder.finish()
    }

    /// Builds a one-phase DOALL schedule from a dense set of points (used by
    /// baseline schemes; direct views only).
    pub fn doall_phase(analysis: &DependenceAnalysis, points: &DenseSet, name: &str) -> Schedule {
        let expander = PointExpander::new(analysis, &[]);
        let mut builder = expander.builder(name);
        expander.reserve(&mut builder, points.len());
        builder.phase(PhaseKind::Doall);
        for point in points.iter() {
            expander.item(point, &mut builder);
        }
        builder.finish()
    }

    /// Total number of work items.
    pub fn n_items(&self) -> usize {
        self.items.len() - 1
    }

    /// Total number of statement instances.
    pub fn n_instances(&self) -> usize {
        self.stmts.len()
    }

    /// Number of barrier-separated phases.
    pub fn n_phases(&self) -> usize {
        self.phases.len()
    }

    /// The critical path in work items: the sum over phases of the longest
    /// sequential run inside each phase.
    pub fn critical_path(&self) -> usize {
        self.phases().map(|p| p.depth()).sum()
    }

    /// The phases in execution order.
    pub fn phases(&self) -> impl ExactSizeIterator<Item = Phase<'_>> + '_ {
        (0..self.phases.len()).map(|p| self.phase(p))
    }

    /// Phase `p` (panics past [`Self::n_phases`]).
    pub fn phase(&self, p: usize) -> Phase<'_> {
        let (kind, first) = self.phases[p];
        let end = self
            .phases
            .get(p + 1)
            .map_or(self.units.len() - 1, |&(_, next)| next as usize);
        Phase {
            schedule: self,
            kind,
            units: first as usize..end,
        }
    }

    /// Every statement instance in execution order: phase by phase, unit
    /// by unit.
    pub fn instances(&self) -> Instances<'_> {
        self.instances_in(0..self.n_instances())
    }

    /// The instances `range` of the slab, in order.
    pub fn instances_in(&self, range: Range<usize>) -> Instances<'_> {
        Instances {
            depths: &self.depths,
            stmts: self.stmts[range.clone()].iter(),
            rows: self.indices[range.start * self.stride..range.end * self.stride]
                .chunks_exact(self.stride),
        }
    }

    /// Instance `i` of the slab: its statement id and its own loop
    /// indices.
    #[inline]
    pub fn instance(&self, i: usize) -> (usize, &[i64]) {
        let stmt = self.stmts[i] as usize;
        let start = i * self.stride;
        (
            stmt,
            &self.indices[start..start + self.depths[stmt] as usize],
        )
    }

    /// Statement id → the number of loop indices its instances carry.
    pub fn statement_depths(&self) -> Vec<usize> {
        self.depths.iter().map(|&d| d as usize).collect()
    }

    /// Statement id → the number of its instances in the schedule and the
    /// range of each of their loop indices, recorded as they were
    /// appended.
    pub fn statement_boxes(&self) -> &[StatementBox] {
        &self.boxes
    }

    fn item(&self, k: usize) -> WorkItem<'_> {
        WorkItem {
            schedule: self,
            instances: self.items[k] as usize..self.items[k + 1] as usize,
        }
    }

    fn unit(&self, u: usize) -> Unit<'_> {
        Unit {
            schedule: self,
            items: self.units[u] as usize..self.units[u + 1] as usize,
        }
    }

    /// Checks that this schedule executes exactly the same statement
    /// instances as the program in sequential order (each exactly once).
    /// Returns violated invariants.
    pub fn validate_coverage(&self, program: &Program, params: &[i64]) -> Vec<String> {
        use std::cmp::Ordering;
        let reference = Schedule::sequential(program, params);
        let (mine, theirs) = (self.tally(), reference.tally());
        // Merge the two ascending tallies: surplus and miscounted
        // instances first, then the unscheduled ones, each in order.
        let (mut problems, mut missing) = (Vec::new(), Vec::new());
        let (mut i, mut j) = (0, 0);
        while i < mine.len() || j < theirs.len() {
            let order = match (mine.get(i), theirs.get(j)) {
                (Some(a), Some(b)) => a.0.cmp(&b.0),
                (Some(_), None) => Ordering::Less,
                _ => Ordering::Greater,
            };
            match order {
                Ordering::Less => {
                    problems.push(format!(
                        "instance {:?} is not part of the program",
                        mine[i].0
                    ));
                    i += 1;
                }
                Ordering::Greater => {
                    missing.push(format!("instance {:?} is never scheduled", theirs[j].0));
                    j += 1;
                }
                Ordering::Equal => {
                    let ((inst, count), (_, c)) = (mine[i], theirs[j]);
                    if count != c {
                        problems.push(format!(
                            "instance {inst:?} scheduled {count} times, expected {c}"
                        ));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        problems.extend(missing);
        problems
    }

    /// The distinct instances in ascending `(statement, indices)` order,
    /// each with its number of occurrences.
    fn tally(&self) -> Vec<(InstanceRef<'_>, usize)> {
        let mut all: Vec<InstanceRef<'_>> = self.instances().collect();
        all.sort_unstable();
        let mut out: Vec<(InstanceRef<'_>, usize)> = Vec::new();
        for inst in all {
            match out.last_mut() {
                Some((last, n)) if *last == inst => *n += 1,
                _ => out.push((inst, 1)),
            }
        }
        out
    }
}

/// One statement instance of a slab: its statement id and its own loop
/// indices.
type InstanceRef<'s> = (usize, &'s [i64]);

/// The `Debug` text of the nested form the slab replaced:
/// `Schedule { name, phases: [Doall([WorkItem { instances: [(stmt,
/// [indices])] }]), ChainSet([[…]])] }`, so schedule digests stay
/// comparable across the change.
impl fmt::Debug for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Schedule")
            .field("name", &self.name)
            .field(
                "phases",
                &DebugWith(|f| f.debug_list().entries(self.phases()).finish()),
            )
            .finish()
    }
}

/// A `Debug` value written by a closure.
struct DebugWith<F: Fn(&mut fmt::Formatter<'_>) -> fmt::Result>(F);

impl<F: Fn(&mut fmt::Formatter<'_>) -> fmt::Result> fmt::Debug for DebugWith<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (self.0)(f)
    }
}

/// A barrier-separated phase of a schedule: a run of units.
#[derive(Clone)]
pub struct Phase<'s> {
    schedule: &'s Schedule,
    kind: PhaseKind,
    units: Range<usize>,
}

impl<'s> Phase<'s> {
    /// DOALL or chain set.
    pub fn kind(&self) -> PhaseKind {
        self.kind
    }

    /// The independently schedulable units: the items of a DOALL, the
    /// chains of a chain set.
    pub fn units(&self) -> impl ExactSizeIterator<Item = Unit<'s>> + 's {
        let schedule = self.schedule;
        self.units.clone().map(move |u| schedule.unit(u))
    }

    /// Unit `k` of the phase (panics past [`Self::width`]).
    pub fn unit(&self, k: usize) -> Unit<'s> {
        assert!(k < self.width(), "unit {k} of a phase of {}", self.width());
        self.schedule.unit(self.units.start + k)
    }

    /// The number of independently schedulable units (items or chains).
    pub fn width(&self) -> usize {
        self.units.len()
    }

    /// The phase's work items in execution order.
    pub fn items(&self) -> impl ExactSizeIterator<Item = WorkItem<'s>> + 's {
        let schedule = self.schedule;
        self.item_range().map(move |k| schedule.item(k))
    }

    /// Total number of work items in the phase.
    pub fn n_items(&self) -> usize {
        self.item_range().len()
    }

    /// The longest sequential run inside the phase, in work items.
    pub fn depth(&self) -> usize {
        self.units().map(|u| u.len()).max().unwrap_or(0)
    }

    /// The phase's statement instances: one contiguous range of the slab.
    pub fn instance_range(&self) -> Range<usize> {
        let items = self.item_range();
        self.schedule.items[items.start] as usize..self.schedule.items[items.end] as usize
    }

    fn item_range(&self) -> Range<usize> {
        let units = &self.schedule.units;
        units[self.units.start] as usize..units[self.units.end] as usize
    }
}

impl fmt::Debug for Phase<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            PhaseKind::Doall => f
                .debug_tuple("Doall")
                .field(&DebugWith(|f| {
                    f.debug_list().entries(self.items()).finish()
                }))
                .finish(),
            PhaseKind::ChainSet => f
                .debug_tuple("ChainSet")
                .field(&DebugWith(|f| {
                    f.debug_list().entries(self.units()).finish()
                }))
                .finish(),
        }
    }
}

/// One unit of intra-phase concurrency: a run of work items that execute
/// sequentially in order (a chain, or one DOALL item).
#[derive(Clone)]
pub struct Unit<'s> {
    schedule: &'s Schedule,
    items: Range<usize>,
}

impl<'s> Unit<'s> {
    /// The unit's work items in order.
    pub fn items(&self) -> impl ExactSizeIterator<Item = WorkItem<'s>> + 's {
        let schedule = self.schedule;
        self.items.clone().map(move |k| schedule.item(k))
    }

    /// Number of work items in the unit.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the unit holds no work item.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The unit's statement instances: one contiguous range of the slab.
    pub fn instance_range(&self) -> Range<usize> {
        let items = &self.schedule.items;
        items[self.items.start] as usize..items[self.items.end] as usize
    }

    /// The unit's statement instances in execution order.
    pub fn instances(&self) -> Instances<'s> {
        self.schedule.instances_in(self.instance_range())
    }
}

/// A chain prints as its list of items.
impl fmt::Debug for Unit<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.items()).finish()
    }
}

/// One unit of scheduled work: a run of statement instances executed
/// sequentially (normally the statements of one loop-body iteration, or a
/// single statement instance at statement-level granularity).
#[derive(Clone)]
pub struct WorkItem<'s> {
    schedule: &'s Schedule,
    instances: Range<usize>,
}

impl<'s> WorkItem<'s> {
    /// The `(statement id, loop index values)` pairs in execution order.
    pub fn instances(&self) -> Instances<'s> {
        self.schedule.instances_in(self.instances.clone())
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

impl fmt::Debug for WorkItem<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkItem")
            .field(
                "instances",
                &DebugWith(|f| f.debug_list().entries(self.instances()).finish()),
            )
            .finish()
    }
}

/// Statement instances of a schedule in slab order: `(statement id, its
/// own loop indices)`, borrowed from the slab.
#[derive(Clone)]
pub struct Instances<'s> {
    depths: &'s [u32],
    stmts: std::slice::Iter<'s, u32>,
    rows: std::slice::ChunksExact<'s, i64>,
}

impl<'s> Iterator for Instances<'s> {
    type Item = (usize, &'s [i64]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let stmt = *self.stmts.next()? as usize;
        let row = self.rows.next()?;
        Some((stmt, &row[..self.depths[stmt] as usize]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.stmts.size_hint()
    }
}

impl ExactSizeIterator for Instances<'_> {}

/// The one constructor of [`Schedule`]s.
///
/// Calls append to the slab in execution order: [`Self::phase`] opens a
/// phase, [`Self::chain`] a chain of a chain-set phase, [`Self::item`] a
/// work item (in a DOALL phase also its unit), and [`Self::instance`]
/// appends an instance to the open item.  Opening one closes the previous
/// one of its kind; [`Self::finish`] closes everything.
pub struct ScheduleBuilder {
    schedule: Schedule,
}

impl ScheduleBuilder {
    /// An empty schedule named `name` whose statement `s` carries
    /// `depths[s]` loop indices.
    pub fn new(name: &str, depths: &[usize]) -> Self {
        let stride = depths.iter().copied().max().unwrap_or(0).max(1);
        ScheduleBuilder {
            schedule: Schedule {
                name: name.to_string(),
                depths: depths.iter().map(|&d| offset(d)).collect(),
                stride,
                stmts: Vec::new(),
                indices: Vec::new(),
                items: Vec::new(),
                units: Vec::new(),
                phases: Vec::new(),
                boxes: depths.iter().map(|&d| StatementBox::empty(d)).collect(),
            },
        }
    }

    /// Reserves room for `instances` more instances in `items` more items.
    pub fn reserve(&mut self, instances: usize, items: usize) {
        let s = &mut self.schedule;
        s.stmts.reserve(instances);
        s.indices.reserve(instances * s.stride);
        s.items.reserve(items + 1);
        s.units.reserve(items + 1);
    }

    /// Opens a phase of `kind`.
    pub fn phase(&mut self, kind: PhaseKind) {
        let s = &mut self.schedule;
        s.phases.push((kind, offset(s.units.len())));
    }

    /// Opens a chain of the open chain-set phase.
    pub fn chain(&mut self) {
        debug_assert_eq!(
            self.schedule.phases.last().map(|p| p.0),
            Some(PhaseKind::ChainSet),
            "chains belong to chain-set phases"
        );
        let s = &mut self.schedule;
        s.units.push(offset(s.items.len()));
    }

    /// Opens a work item: in a DOALL phase a unit of its own, in a chain
    /// set the next item of the open chain.
    pub fn item(&mut self) {
        let s = &mut self.schedule;
        match s.phases.last() {
            Some(&(PhaseKind::Doall, _)) => s.units.push(offset(s.items.len())),
            Some(&(PhaseKind::ChainSet, first)) => {
                debug_assert!(s.units.len() > first as usize, "items belong to chains")
            }
            None => debug_assert!(false, "items belong to phases"),
        }
        s.items.push(offset(s.stmts.len()));
    }

    /// Appends an instance of statement `stmt` at its loop `indices` to
    /// the open item.
    #[inline]
    pub fn instance(&mut self, stmt: usize, indices: &[i64]) {
        let s = &mut self.schedule;
        debug_assert!(!s.items.is_empty(), "instances belong to items");
        let depth = s.depths[stmt] as usize;
        s.stmts.push(offset(stmt));
        let start = s.indices.len();
        s.indices.resize(start + s.stride, 0);
        s.indices[start..start + depth].copy_from_slice(indices);
        s.boxes[stmt].add(indices);
    }

    /// Opens an item holding the one instance `(stmt, indices)`.
    #[inline]
    pub fn single(&mut self, stmt: usize, indices: &[i64]) {
        self.item();
        self.instance(stmt, indices);
    }

    /// The finished schedule.
    pub fn finish(mut self) -> Schedule {
        let s = &mut self.schedule;
        s.units.push(offset(s.items.len()));
        s.items.push(offset(s.stmts.len()));
        self.schedule
    }
}

/// Expands partition points into work items according to the analysis
/// granularity and view: a loop-level point becomes all statements of the
/// nest at those indices, an aggregated point the whole body of one prefix
/// iteration, a statement-level point a single instance.
///
/// Build one per schedule: construction reads the program tree once (and
/// for aggregated points compiles its loop walker), so [`Self::item`]
/// never re-walks it per point.  Public because structural schedule checks
/// (the differential fuzzer's dependence-respect oracle) need the same
/// point-to-instances expansion the schedules were built with.
pub struct PointExpander {
    /// Statement id → loop depth.
    depths: Vec<usize>,
    expansion: Expansion,
}

enum Expansion {
    /// Aggregated loop-level points `(group, prefix iteration, padding)`.
    Groups(LoopWalker),
    /// Loop-level points of a perfect nest with this many statements.
    Nest(usize),
    /// Statement-level points of the unified space.
    Unified(UnifiedDecoder),
}

impl PointExpander {
    /// The expander of `analysis`'s points at the parameter values
    /// `params`, which aggregated points need to expand their inner loops
    /// (unused for direct views).
    pub fn new(analysis: &DependenceAnalysis, params: &[i64]) -> Self {
        Self::for_program(&analysis.program, analysis.granularity, params)
    }

    /// The expander of the points of `program`'s analysis space at
    /// `granularity`.  The view follows from the program: loop level over
    /// an imperfect nest is the aggregated loop-group view, whose points
    /// need `params` to expand their inner loops.  No dependence analysis
    /// is involved.
    pub fn for_program(program: &Program, granularity: Granularity, params: &[i64]) -> Self {
        let depths = program.statement_depths();
        let expansion = match granularity {
            Granularity::LoopLevel if program.is_perfect_nest() => Expansion::Nest(depths.len()),
            Granularity::LoopLevel => Expansion::Groups(program.walker(params)),
            Granularity::StatementLevel => Expansion::Unified(program.unified_decoder()),
        };
        PointExpander { depths, expansion }
    }

    /// An empty schedule builder for this program's statements.
    pub fn builder(&self, name: &str) -> ScheduleBuilder {
        ScheduleBuilder::new(name, &self.depths)
    }

    /// Reserves room in `builder` for the items of `points` points (and
    /// their instances, where a point's instance count is fixed).
    pub fn reserve(&self, builder: &mut ScheduleBuilder, points: usize) {
        let per_point = match &self.expansion {
            Expansion::Groups(..) => 0,
            Expansion::Nest(statements) => *statements,
            Expansion::Unified(_) => 1,
        };
        builder.reserve(points * per_point, points);
    }

    /// Appends the work item of one partition point to `builder`.
    pub fn item(&self, point: &[i64], builder: &mut ScheduleBuilder) {
        builder.item();
        self.for_each_instance(point, |stmt, indices| builder.instance(stmt, indices));
    }

    /// Calls `f(statement id, loop indices)` for every instance of one
    /// partition point's work item, in execution order.
    // Panic-hygiene allow: partition points come from the same analysis the
    // expander was built from, so the instance lookup is an invariant.
    #[allow(clippy::expect_used)]
    pub fn for_each_instance(&self, point: &[i64], mut f: impl FnMut(usize, &[i64])) {
        match &self.expansion {
            // An aggregated point executes the whole body of one prefix
            // iteration in program order.
            Expansion::Groups(walker) => {
                walker.for_each_in_group(point[0] as usize, &point[1..], f)
            }
            // All statements of the nest execute at these indices, in order.
            Expansion::Nest(statements) => (0..*statements).for_each(|id| f(id, point)),
            Expansion::Unified(decoder) => {
                let (stmt, indices) = decoder
                    .decode(point)
                    .expect("partition point decodes to a statement instance");
                f(stmt, &indices);
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
        let indices: Vec<i64> = seq.instances().map(|(_, idx)| idx[0]).collect();
        assert_eq!(indices, (1..=20).collect::<Vec<_>>());
        assert!(seq.validate_coverage(&p, &[]).is_empty());
    }

    #[test]
    fn partition_schedule_for_figure2() {
        let p = figure2();
        let analysis = DependenceAnalysis::loop_level(&p);
        let part = concrete_partition(&analysis, &[]);
        let sched = Schedule::from_partition(&p, analysis.granularity, &[], &part, "figure2-rec");
        // Empty intermediate set: two DOALL phases.
        assert_eq!(sched.n_phases(), 2);
        assert_eq!(sched.n_items(), 20);
        assert_eq!(sched.critical_path(), 2);
        assert!(sched.validate_coverage(&p, &[]).is_empty());
        assert_eq!(sched.phase(0).kind(), PhaseKind::Doall);
        assert_eq!(sched.phase(0).n_items(), 12);
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
        let sched =
            Schedule::from_partition(&p, analysis.granularity, &[30, 40], &part, "example1-rec");
        assert_eq!(sched.n_items(), 30 * 40);
        assert!(sched.validate_coverage(&p, &[30, 40]).is_empty());
        assert_eq!(sched.n_phases(), 3);
        // phase 2 is the chain set and is deeper than one item
        assert_eq!(sched.phase(1).kind(), PhaseKind::ChainSet);
        assert!(sched.phase(1).depth() >= 2);
        // critical path well below the sequential length
        assert!(sched.critical_path() < 100);
    }

    /// A copy of a DOALL-only `sched` whose first phase's items are
    /// `edit`ed.
    fn edited(sched: &Schedule, edit: impl FnOnce(&mut Vec<WorkItem<'_>>)) -> Schedule {
        let mut builder = ScheduleBuilder::new(&sched.name, &sched.statement_depths());
        let mut edit = Some(edit);
        for phase in sched.phases() {
            builder.phase(phase.kind());
            let mut items: Vec<WorkItem> = phase.items().collect();
            if let Some(edit) = edit.take() {
                edit(&mut items);
            }
            for item in items {
                builder.item();
                for (stmt, indices) in item.instances() {
                    builder.instance(stmt, indices);
                }
            }
        }
        builder.finish()
    }

    #[test]
    fn coverage_validation_detects_missing_and_duplicate_items() {
        let p = figure2();
        let analysis = DependenceAnalysis::loop_level(&p);
        let part = concrete_partition(&analysis, &[]);
        let sched = Schedule::from_partition(&p, analysis.granularity, &[], &part, "broken");
        assert!(sched.validate_coverage(&p, &[]).is_empty());
        assert_eq!(edited(&sched, |_| {}), sched);
        // remove one item
        let missing = edited(&sched, |items| {
            items.pop();
        });
        assert_eq!(missing.validate_coverage(&p, &[]).len(), 1);
        // duplicate an item
        let duplicated = edited(&sched, |items| items.push(items[0].clone()));
        let problems = duplicated.validate_coverage(&p, &[]);
        assert_eq!(problems.len(), 1);
        assert!(
            problems[0].ends_with("scheduled 2 times, expected 1"),
            "{problems:?}"
        );
    }

    #[test]
    fn debug_text_is_the_nested_form() {
        // Two statements of depths 2 and 1; an empty item and an empty
        // chain keep their place.
        let mut b = ScheduleBuilder::new("s", &[2, 1]);
        b.phase(PhaseKind::Doall);
        b.single(0, &[1, 2]);
        b.item();
        b.phase(PhaseKind::ChainSet);
        b.chain();
        b.single(1, &[3]);
        b.item();
        b.instance(0, &[4, 5]);
        b.instance(1, &[4]);
        b.chain();
        let s = b.finish();
        assert_eq!(
            format!("{s:?}"),
            "Schedule { name: \"s\", phases: [Doall([WorkItem { instances: [(0, [1, 2])] }, \
             WorkItem { instances: [] }]), ChainSet([[WorkItem { instances: [(1, [3])] }, \
             WorkItem { instances: [(0, [4, 5]), (1, [4])] }], []])] }"
        );
        // Units and phases are contiguous instance ranges of the slab.
        assert_eq!((s.n_phases(), s.n_items(), s.n_instances()), (2, 4, 4));
        assert_eq!(s.phase(0).instance_range(), 0..1);
        assert_eq!(s.phase(1).instance_range(), 1..4);
        assert_eq!(s.phase(1).unit(0).instance_range(), 1..4);
        assert!(s.phase(1).unit(1).is_empty());
        assert_eq!((s.phase(0).depth(), s.phase(1).depth()), (1, 2));
        assert_eq!(s.critical_path(), 3);
        assert_eq!(s.instance(2), (0, &[4, 5][..]));
        assert_eq!(s.instance(3), (1, &[4][..]));
        // Each statement's box, which the `Debug` text leaves out.
        let boxes = s.statement_boxes();
        assert_eq!(
            (boxes[0].instances, &boxes[0].ranges[..]),
            (2, &[(1, 4), (2, 5)][..])
        );
        assert_eq!(
            (boxes[1].instances, &boxes[1].ranges[..]),
            (2, &[(3, 4)][..])
        );
    }
}
