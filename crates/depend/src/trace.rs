//! Dataflow levels from one streaming pass over the program's accesses.
//!
//! Algorithm 1's else-branch (successive dataflow partitioning) peels the
//! iterations without remaining predecessors, so the stage of a point is
//! its *level*: the number of edges on the longest dependence path that
//! ends in it.  Finding the levels does not need the dependence relation
//! `Rd`.  [`dataflow_levels`] walks the statement instances once, in
//! program order, and keeps two numbers per array element:
//!
//! * the level of the last point that wrote it, and
//! * the highest level of a point that read it since that write.
//!
//! A point's level is the larger of `last writer + 1` over all its
//! accesses and `highest reader + 1` over its writes, or 0 when neither
//! exists.  The element state is updated only once the level of the whole
//! point is known, so the accesses of one point never constrain each
//! other: `Rd` relates distinct points only.
//!
//! Points are the analysis's points, as the compiled loop walker lists
//! them ([`rcp_loopir::LoopWalker::for_each_point`]): at statement level
//! each instance is one point, at loop level over a perfect nest the
//! statements of one iteration form a point.  The walk is in program
//! order, which is `Φ`'s lexicographic order, so trace position `k` is
//! `Φ` id `k`.
//!
//! # Why the levels are `Rd`'s longest-path levels
//!
//! *Every constraint is a dependence.*  The last writer of an element and
//! its readers since that write are earlier points that touch the element,
//! and each pair they form with the current point has a write on one side:
//! a flow, anti or output dependence, which `Rd` holds because it relates
//! every pair of conflicting accesses, not only the nearest.  Deferring
//! the update to the end of a point keeps this true: a read that follows a
//! write of the same element inside one point still sees the previous
//! point's writer, and that pair is in `Rd` too.  So no level exceeds the
//! point's longest path in `Rd`.
//!
//! *Every dependence is dominated.*  Take `x ≺ y` in `Rd` through element
//! `e`.  The writers of `e` form a chain of strictly rising levels, since
//! each writer sees its predecessor as the last writer.  If `x` writes
//! `e`, the last writer `w` of `e` before `y` is `x` or follows `x` on the
//! chain, so `level(y) ≥ level(w) + 1 ≥ level(x) + 1`.  If `x` only reads
//! `e`, `y` writes it.  With no write of `e` strictly between the two, `y`
//! sees `x` among the readers.  Otherwise the first writer after `x` sees
//! it, and `y` follows that writer on the chain.  Either way
//! `level(y) ≥ level(x) + 1`.
//!
//! The two directions give exactly the longest-path levels of `Rd`, which
//! `rcp_core`'s `dataflow_partition` computes from `Rd`'s edges.  The walk
//! records no edges.
//!
//! # Where the state lives
//!
//! The walk keeps its two numbers per element in the program's
//! [`ElementLayout`], over the statement boxes its loop bounds give
//! ([`statement_boxes`]): one dense slab holds every laid-out array's box,
//! and an access is one dot product of its reference's flat row.  An
//! array whose box would pass the cell limit, such as a long diagonal,
//! keeps its touched elements in a hash table instead, so its memory
//! follows its touches.  A read outside every write's box, or of an array
//! nothing writes, touches an element no point writes: it constrains
//! nothing, and the walk skips it.

use crate::analysis::Granularity;
use crate::pairspace::statement_var_intervals;
use rcp_loopir::{Address, ArrayLayout, ElementLayout, Program, StatementBox};

/// Points traced between two guard checkpoints.
const TICK_POINTS: usize = 4096;

/// The dataflow level of every point of `program`'s direct analysis space
/// at the parameter values `values`: entry `k` is the level of `Φ` id `k`.
/// `granularity` picks the points: one statement instance each at
/// statement level, one iteration of the perfect nest (all its statements)
/// at loop level.  The aggregated loop-group view of an imperfect nest is
/// not a direct view and is not traced.
///
/// The walk is a guard checkpoint ([`rcp_guard::Stage::Partition`]), so a
/// budget bounds it like the partition it feeds.
pub fn dataflow_levels(program: &Program, values: &[i64], granularity: Granularity) -> Vec<u32> {
    let _span = rcp_trace::span!("depend.trace");
    let bound;
    let program = if values.is_empty() {
        program
    } else {
        bound = program.bind_params(values);
        &bound
    };
    let refs = program.compile_refs();
    let layout = ElementLayout::new(&refs, &statement_boxes(program));
    // Dense boxes first, in slot order; hashed elements join the slab as
    // their table interns them.
    let mut starts = Vec::with_capacity(layout.arrays().len());
    let mut dense = 0usize;
    for array in layout.arrays() {
        starts.push(dense);
        if let ArrayLayout::Dense(b) = array {
            dense += usize::try_from(b.cells()).unwrap_or(usize::MAX);
        }
    }
    let mut states = vec![ElementState::default(); dense];
    let mut tables: Vec<Option<ElementTable>> = refs
        .arrays
        .iter()
        .zip(layout.arrays())
        .map(|(&(_, rank), array)| {
            matches!(array, ArrayLayout::Hashed(_)).then(|| ElementTable::new(rank))
        })
        .collect();
    let max_rank = refs.arrays.iter().map(|a| a.1).max().unwrap_or(0);
    let mut subscript = vec![0i64; max_rank];
    // (slab index, is a write) of the current point's accesses.
    let mut touched: Vec<(usize, bool)> = Vec::new();
    let walker = program.walker(&[]);
    let loop_level = granularity == Granularity::LoopLevel;
    let points = walker.count_points(loop_level);
    let mut levels = Vec::with_capacity(points);
    walker.for_each_point(loop_level, |point| {
        if levels.len() % TICK_POINTS == 0 {
            let chunk = TICK_POINTS.min(points - levels.len());
            rcp_guard::tick(rcp_guard::Stage::Partition, chunk as u64);
        }
        let mut level = 0u32;
        point.for_each(|stmt, indices| {
            let rows = layout.statement(stmt);
            for (k, access) in refs.stmts[stmt].iter().enumerate() {
                let e = match rows.address(k, indices) {
                    Address::Cell(offset) => starts[access.slot] + offset,
                    Address::Unwritten => continue,
                    Address::Subscripts => {
                        let subscript = &mut subscript[..access.rank];
                        access.eval(indices, subscript);
                        match (&layout.arrays()[access.slot], &mut tables[access.slot]) {
                            (_, Some(table)) => table.id(subscript, &mut states),
                            (ArrayLayout::Dense(b), None) => match b.offset(subscript) {
                                Some(offset) => starts[access.slot] + offset,
                                None => continue,
                            },
                            _ => continue,
                        }
                    }
                };
                let state = states[e];
                level = level.max(state.writer);
                if access.write {
                    level = level.max(state.reader);
                }
                touched.push((e, access.write));
            }
        });
        for (e, write) in touched.drain(..) {
            let state = &mut states[e];
            if write {
                *state = ElementState {
                    writer: level + 1,
                    reader: 0,
                };
            } else {
                state.reader = state.reader.max(level + 1);
            }
        }
        levels.push(level);
    });
    levels
}

/// Every statement's box as its loop bounds give it, by interval
/// arithmetic ([`statement_var_intervals`]), with its number of instances:
/// the boxes the tracer lays its element state out from.  `program` must
/// have its parameters bound.  Every instance the program's walk visits
/// lies in its statement's box.
pub fn statement_boxes(program: &Program) -> Vec<StatementBox> {
    let counts = program.walker(&[]).statement_counts();
    program
        .statements()
        .iter()
        .zip(counts)
        .map(|(info, instances)| {
            let vars = statement_var_intervals(info, program);
            let ranges = info
                .loop_indices
                .iter()
                .map(|x| {
                    let interval = vars.get(x);
                    (
                        interval.and_then(|i| i.lo).unwrap_or(i64::MIN),
                        interval.and_then(|i| i.hi).unwrap_or(i64::MAX),
                    )
                })
                .collect();
            StatementBox { instances, ranges }
        })
        .collect()
}

/// What the walk knows about one array element.
#[derive(Clone, Copy, Default)]
struct ElementState {
    /// 1 + the level of the last writer (0: never written).
    writer: u32,
    /// 1 + the highest level that read it since that write (0: no such
    /// read).
    reader: u32,
}

/// A bucket holding no element.
const EMPTY: u32 = u32::MAX;

/// The touched elements of one hashed array.  An element is interned by
/// its subscripts into one flat arena, its state appended to the walk's
/// slab, and found through an open-addressing table, so memory follows the
/// elements the program touches, not their bounding box, and the walk
/// allocates only when the table grows.
struct ElementTable {
    rank: usize,
    /// Element `e`'s subscripts at `subscripts[e·rank .. (e+1)·rank]`.
    subscripts: Vec<i64>,
    /// Element `e`'s index in the walk's state slab.
    slab: Vec<usize>,
    /// Element ids by hash with linear probing; the length is a power of
    /// two, kept at least twice the element count.
    buckets: Vec<u32>,
    /// `64 − log2(buckets.len())`: the hash's top bits pick the bucket.
    shift: u32,
}

impl ElementTable {
    fn new(rank: usize) -> Self {
        ElementTable {
            rank,
            subscripts: Vec::new(),
            slab: Vec::new(),
            buckets: vec![EMPTY; 16],
            shift: 60,
        }
    }

    fn bucket(&self, subscript: &[i64]) -> usize {
        let hash = subscript.iter().fold(0u64, |h, &x| {
            (h.rotate_left(5) ^ x as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        (hash >> self.shift) as usize
    }

    fn key(&self, e: u32) -> &[i64] {
        let start = e as usize * self.rank;
        &self.subscripts[start..start + self.rank]
    }

    /// The slab index of the element at `subscript`, interned on first
    /// touch with a fresh state appended to `states`.
    fn id(&mut self, subscript: &[i64], states: &mut Vec<ElementState>) -> usize {
        let mask = self.buckets.len() - 1;
        let mut b = self.bucket(subscript);
        loop {
            match self.buckets[b] {
                EMPTY => break,
                e if self.key(e) == subscript => return self.slab[e as usize],
                _ => b = (b + 1) & mask,
            }
        }
        let e = self.slab.len() as u32;
        self.subscripts.extend_from_slice(subscript);
        self.slab.push(states.len());
        states.push(ElementState::default());
        self.buckets[b] = e;
        if 2 * self.slab.len() > self.buckets.len() {
            self.grow();
        }
        self.slab[e as usize]
    }

    /// Doubles the bucket array and re-inserts every element.
    fn grow(&mut self) {
        self.shift -= 1;
        self.buckets = vec![EMPTY; 2 * self.buckets.len()];
        let mask = self.buckets.len() - 1;
        for e in 0..self.slab.len() as u32 {
            let mut b = self.bucket(self.key(e));
            while self.buckets[b] != EMPTY {
                b = (b + 1) & mask;
            }
            self.buckets[b] = e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcp_loopir::expr::{c, v};
    use rcp_loopir::program::build::{loop_, stmt};
    use rcp_loopir::ArrayRef;

    fn single_loop(name: &str, refs: Vec<ArrayRef>) -> Program {
        Program::new(
            name,
            &["N"],
            vec![loop_("I", c(1), v("N"), vec![stmt("S", refs)])],
        )
    }

    #[test]
    fn a_uniform_chain_has_one_level_per_iteration() {
        let p = single_loop(
            "uniform",
            vec![
                ArrayRef::write("a", vec![v("I") + c(1)]),
                ArrayRef::read("a", vec![v("I")]),
            ],
        );
        let levels = dataflow_levels(&p, &[10], Granularity::LoopLevel);
        assert_eq!(levels, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn sparse_elements_cost_memory_per_touch_not_per_box() {
        // A diagonal write at a size whose bounding box could not be laid
        // out densely: the table holds the touched elements only.
        let p = single_loop(
            "diagonal",
            vec![
                ArrayRef::write("a", vec![v("I"), v("I")]),
                ArrayRef::read("a", vec![v("I") - c(1), v("I") - c(1)]),
            ],
        );
        let levels = dataflow_levels(&p, &[200_000], Granularity::LoopLevel);
        assert_eq!(levels.len(), 200_000);
        assert_eq!(levels[199_999], 199_999);
    }
}
