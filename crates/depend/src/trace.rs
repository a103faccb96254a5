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
//! Points are the analysis's points.  At statement level each instance is
//! one point; at loop level over a perfect nest the nest's `S` statements
//! of one iteration form a point.  The compiled loop walker lists
//! instances in program order, which is `Φ`'s lexicographic order, so
//! trace position `k` is `Φ` id `k`.
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
//! are the rounds of Kahn's algorithm over `Rd` (`rcp_core`'s
//! `dataflow_partition`), stage by stage.  The walk records no edges: it
//! holds one entry per touched element and costs one table probe per
//! access.

use crate::analysis::Granularity;
use rcp_loopir::{CompiledRefs, Program};

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
    let CompiledRefs { arrays, stmts } = program.compile_refs();
    let mut tables: Vec<ElementTable> = arrays
        .iter()
        .map(|&(_, rank)| ElementTable::new(rank))
        .collect();
    let per_point = match granularity {
        Granularity::StatementLevel => 1,
        Granularity::LoopLevel => stmts.len().max(1),
    };
    let max_rank = tables.iter().map(|t| t.rank).max().unwrap_or(0);
    let mut subscript = vec![0i64; max_rank];
    // (array slot, element id, is a write) of the current point's accesses.
    let mut touched: Vec<(usize, u32, bool)> = Vec::new();
    let walker = program.walker(&[]);
    let points = walker.count() / per_point;
    let mut levels = Vec::with_capacity(points);
    let mut level = 0u32;
    // Instances of the current point seen so far.
    let mut seen = 0;
    walker.for_each(|stmt, indices| {
        if seen == 0 && levels.len() % TICK_POINTS == 0 {
            let chunk = TICK_POINTS.min(points - levels.len());
            rcp_guard::tick(rcp_guard::Stage::Partition, chunk as u64);
        }
        for access in &stmts[stmt] {
            let table = &mut tables[access.slot];
            let subscript = &mut subscript[..table.rank];
            access.eval(indices, subscript);
            let e = table.id(subscript);
            let state = table.state[e as usize];
            level = level.max(state.writer);
            if access.write {
                level = level.max(state.reader);
            }
            touched.push((access.slot, e, access.write));
        }
        seen += 1;
        if seen < per_point {
            return;
        }
        for &(slot, e, write) in &touched {
            let state = &mut tables[slot].state[e as usize];
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
        touched.clear();
        level = 0;
        seen = 0;
    });
    levels
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

/// The touched elements of one array with their dependence state.  An
/// element is interned by its subscripts into one flat arena and found
/// through an open-addressing table, so memory follows the elements the
/// program touches, not their bounding box, and the walk allocates only
/// when the table grows.
struct ElementTable {
    rank: usize,
    /// Element `e`'s subscripts at `subscripts[e·rank .. (e+1)·rank]`.
    subscripts: Vec<i64>,
    /// Per element, its dependence state.
    state: Vec<ElementState>,
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
            state: Vec::new(),
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

    /// The id of the element at `subscript`, interned on first touch.
    fn id(&mut self, subscript: &[i64]) -> u32 {
        let mask = self.buckets.len() - 1;
        let mut b = self.bucket(subscript);
        loop {
            match self.buckets[b] {
                EMPTY => break,
                e if self.key(e) == subscript => return e,
                _ => b = (b + 1) & mask,
            }
        }
        let e = self.state.len() as u32;
        self.subscripts.extend_from_slice(subscript);
        self.state.push(ElementState::default());
        self.buckets[b] = e;
        if 2 * self.state.len() > self.buckets.len() {
            self.grow();
        }
        e
    }

    /// Doubles the bucket array and re-inserts every element.
    fn grow(&mut self) {
        self.shift -= 1;
        self.buckets = vec![EMPTY; 2 * self.buckets.len()];
        let mask = self.buckets.len() - 1;
        for e in 0..self.state.len() as u32 {
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
    use crate::analysis::DependenceAnalysis;
    use rcp_loopir::expr::{c, v};
    use rcp_loopir::program::build::{loop_, stmt};
    use rcp_loopir::ArrayRef;
    use rcp_presburger::{DenseRelation, DenseSet};

    /// The longest-path levels of `Rd` over `Φ` ids: the reference the
    /// trace must reproduce.  `Rd` points forward in id order, so one pass
    /// over the edges sorted by target suffices.
    fn rd_levels(program: &Program, values: &[i64], granularity: Granularity) -> Vec<u32> {
        let analysis = DependenceAnalysis::analyze(program, granularity);
        let (phi, relation) = analysis.bind_params(values);
        let phi = DenseSet::from_union(&phi);
        let mut edges = DenseRelation::from_relation(&relation).edges_within(&phi);
        edges.sort_unstable_by_key(|&(src, dst)| (dst, src));
        let mut levels = vec![0u32; phi.len()];
        for (src, dst) in edges {
            assert!(src < dst, "Rd points forward in program order");
            levels[dst as usize] = levels[dst as usize].max(levels[src as usize] + 1);
        }
        levels
    }

    fn single_loop(name: &str, refs: Vec<ArrayRef>) -> Program {
        Program::new(
            name,
            &["N"],
            vec![loop_("I", c(1), v("N"), vec![stmt("S", refs)])],
        )
    }

    #[test]
    fn levels_equal_the_longest_paths_of_rd() {
        let figure2 = single_loop(
            "figure2",
            vec![
                ArrayRef::write("a", vec![v("I") * 2]),
                ArrayRef::read("a", vec![c(21) - v("I")]),
            ],
        );
        // Read-modify-write of one element every iteration, plus a second
        // array: output, anti and flow dependences at every distance.
        let rmw = single_loop(
            "rmw",
            vec![
                ArrayRef::write("a", vec![v("I") * 2]),
                ArrayRef::read("a", vec![c(21) - v("I")]),
                ArrayRef::read("b", vec![c(1)]),
                ArrayRef::write("b", vec![c(1)]),
            ],
        );
        // Two statements per iteration: at loop level the write of `x`
        // and its read inside one iteration must not constrain the point.
        let pair = Program::new(
            "pair",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![
                    stmt(
                        "W",
                        vec![
                            ArrayRef::write("x", vec![v("I")]),
                            ArrayRef::read("y", vec![v("I") - c(2)]),
                        ],
                    ),
                    stmt(
                        "R",
                        vec![
                            ArrayRef::write("y", vec![v("I")]),
                            ArrayRef::read("x", vec![v("I")]),
                            ArrayRef::read("x", vec![c(10) - v("I")]),
                        ],
                    ),
                ],
            )],
        );
        // An imperfect nest, traced per statement instance.
        let imperfect = Program::new(
            "imperfect",
            &["N"],
            vec![
                loop_(
                    "I",
                    c(1),
                    v("N"),
                    vec![
                        stmt("W", vec![ArrayRef::write("x", vec![v("I")])]),
                        loop_(
                            "J",
                            c(1),
                            v("I"),
                            vec![stmt(
                                "R",
                                vec![
                                    ArrayRef::write("x", vec![v("J")]),
                                    ArrayRef::read("x", vec![v("I") - v("J") + c(1)]),
                                ],
                            )],
                        ),
                    ],
                ),
                loop_(
                    "K",
                    c(1),
                    v("N"),
                    vec![stmt("T", vec![ArrayRef::read("x", vec![v("K")])])],
                ),
            ],
        );
        for (program, values, granularity) in [
            (&figure2, 20, Granularity::LoopLevel),
            (&rmw, 15, Granularity::LoopLevel),
            (&pair, 12, Granularity::LoopLevel),
            (&pair, 12, Granularity::StatementLevel),
            (&imperfect, 7, Granularity::StatementLevel),
        ] {
            let traced = dataflow_levels(program, &[values], granularity);
            assert_eq!(
                traced,
                rd_levels(program, &[values], granularity),
                "{} at {granularity:?}",
                program.name
            );
            assert!(traced.iter().any(|&l| l > 0), "{}", program.name);
        }
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
