//! Direct interpretation of a loop nest: enumerate statement instances in
//! program (sequential) order.
//!
//! This is the one builder of program order: the sequential reference
//! schedule, the aggregated loop-level work items, the dataflow tracer,
//! the dataflow schedules and the schedule coverage check all take their
//! instances from a [`LoopWalker`].  [`Program::walker`] compiles the loop
//! tree once at concrete parameter values: every loop bound becomes an
//! affine row over the enclosing loop indices, with the parameters folded
//! into its constant, and every statement carries its id and depth.  A
//! walk then evaluates each bound once per loop entry, looks up no name,
//! copies no index vector and allocates nothing: the callback borrows the
//! walker's index stack.
//!
//! The statement-level analysis builds `Φ` as the unified space instead;
//! the test-suite checks on every bundled kernel and on generated nests
//! that the unified space, enumerated lexicographically and decoded, lists
//! the same instances in the same order.

use crate::expr::LinExpr;
use crate::program::{Node, Program};
use rcp_intlin::IVec;

/// A statement instance in execution order: `(statement id, loop index
/// values of its surrounding loops, outermost first)`.
pub type Instance = (usize, IVec);

impl Program {
    /// Compiles the loop tree at the parameter values `params` (see
    /// [`LoopWalker`]).
    ///
    /// # Panics
    /// Panics when `params` does not give one value per parameter, or when
    /// a loop bound mentions a variable that is neither an enclosing loop
    /// index nor a parameter (see [`Program::check_variables`]).
    pub fn walker(&self, params: &[i64]) -> LoopWalker {
        assert_eq!(params.len(), self.params.len(), "parameter count mismatch");
        let mut compiler = Compiler {
            params: self.params.iter().map(String::as_str).collect(),
            values: params,
            scope: Vec::new(),
            depths: Vec::new(),
            max_depth: 0,
        };
        let body = compiler.nodes(&self.body);
        LoopWalker {
            body,
            depths: compiler.depths,
            max_depth: compiler.max_depth,
        }
    }

    /// Calls `f(statement id, loop indices)` for every statement instance
    /// of the program in sequential execution order, at the given
    /// parameter values.  The indices are borrowed for the call only.
    pub fn for_each_instance(&self, params: &[i64], f: impl FnMut(usize, &[i64])) {
        self.walker(params).for_each(f);
    }

    /// Every statement instance of the program in sequential execution
    /// order for the given parameter values, each with its own index
    /// vector.  Prefer [`Self::for_each_instance`], which copies nothing.
    pub fn enumerate_instances(&self, params: &[i64]) -> Vec<Instance> {
        let mut out = Vec::new();
        self.for_each_instance(params, |stmt, indices| out.push((stmt, indices.to_vec())));
        out
    }

    /// Counts the statement instances without visiting them one by one:
    /// a loop whose body holds only statements adds its trip count times
    /// their number.
    pub fn count_instances(&self, params: &[i64]) -> usize {
        self.walker(params).count()
    }
}

/// A program's loop tree compiled at concrete parameter values, built by
/// [`Program::walker`]: walks the statement instances in program order.
#[derive(Clone, Debug)]
pub struct LoopWalker {
    body: Vec<WalkNode>,
    /// Statement id → number of surrounding loops.
    depths: Vec<usize>,
    /// The deepest loop's depth: the length of the index stack.
    max_depth: usize,
}

#[derive(Clone, Debug)]
enum WalkNode {
    Stmt { id: usize, depth: usize },
    Loop(WalkLoop),
}

#[derive(Clone, Debug)]
struct WalkLoop {
    /// The loop's position in the index stack (its number of enclosing
    /// loops).
    depth: usize,
    /// Bound rows of `depth + 1` entries each: the constant, then one
    /// coefficient per enclosing loop index, outermost first.  The lower
    /// bound is the rows' maximum, the upper bound their minimum.
    lower: Box<[i64]>,
    upper: Box<[i64]>,
    body: Vec<WalkNode>,
    /// True when `body` holds no loop.
    flat: bool,
}

impl WalkLoop {
    /// The loop's bounds under the enclosing indices `outer`.
    #[inline]
    fn bounds(&self, outer: &[i64]) -> (i64, i64) {
        let width = self.depth + 1;
        let eval = |row: &[i64]| {
            row[1..]
                .iter()
                .zip(outer)
                .fold(row[0], |acc, (c, i)| acc + c * i)
        };
        let lo = self.lower.chunks_exact(width).map(eval).max();
        let hi = self.upper.chunks_exact(width).map(eval).min();
        // A loop always has a bound on each side (the compiler checks).
        (lo.unwrap_or(i64::MAX), hi.unwrap_or(i64::MIN))
    }
}

impl LoopWalker {
    /// Statement id → the number of loops surrounding the statement.
    pub fn depths(&self) -> &[usize] {
        &self.depths
    }

    /// Calls `f(statement id, loop indices)` for every statement instance
    /// in program order.
    pub fn for_each(&self, mut f: impl FnMut(usize, &[i64])) {
        with_stack(self.max_depth, |stack| walk(&self.body, stack, &mut f));
    }

    /// Calls `f` for every statement instance that one iteration of a loop
    /// group's perfect prefix executes (the body of one loop-level
    /// aggregation point), in program order.  `group` is the nest's index
    /// among the top-level nodes, and `point` starts with the prefix loop
    /// values, outermost first; instance indices start with them, and
    /// entries past the prefix are ignored.
    pub fn for_each_in_group(&self, group: usize, point: &[i64], mut f: impl FnMut(usize, &[i64])) {
        with_stack(self.max_depth, |stack| {
            let mut body = std::slice::from_ref(&self.body[group]);
            while let [WalkNode::Loop(l)] = body {
                stack[l.depth] = point[l.depth];
                body = &l.body;
            }
            walk(body, stack, &mut f)
        });
    }

    /// The number of statement instances (see
    /// [`Program::count_instances`]).
    pub fn count(&self) -> usize {
        self.statement_counts().iter().sum::<u64>() as usize
    }

    /// Statement id → its number of instances, counted as
    /// [`Program::count_instances`] counts them.
    pub fn statement_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.depths.len()];
        with_stack(self.max_depth, |stack| {
            count(&self.body, stack, &mut counts)
        });
        counts
    }

    /// Calls `f` once per point of the program's analysis space, in
    /// program order, which is the order of the space's point ids.  At
    /// statement level (`loop_level` false) a point is one statement
    /// instance.  At loop level it is one iteration of a top-level nest's
    /// perfect prefix, the chain of single loops all the nest's statements
    /// sit under (a perfect nest's prefix is the whole nest); a point whose
    /// body runs no instance is still visited.
    pub fn for_each_point(&self, loop_level: bool, mut f: impl FnMut(Point<'_>)) {
        with_stack(self.max_depth, |stack| {
            if !loop_level {
                walk_stmts(&self.body, stack, &mut |node, stack| {
                    let body = std::slice::from_ref(node);
                    f(Point { body, stack })
                });
            } else if self.body.iter().all(|n| matches!(n, WalkNode::Loop(_))) {
                for node in &self.body {
                    prefix_points(std::slice::from_ref(node), stack, &mut f);
                }
            } else {
                // A perfect nest without loops: one point.
                f(Point {
                    body: &self.body,
                    stack,
                });
            }
        });
    }

    /// The number of points [`Self::for_each_point`] visits.
    pub fn count_points(&self, loop_level: bool) -> usize {
        if !loop_level {
            return self.count();
        }
        let mut n = 0;
        self.for_each_point(true, |_| n += 1);
        n
    }
}

/// One point of a [`LoopWalker::for_each_point`] walk: the body one
/// prefix iteration runs, or one statement, under the walk's loop indices.
pub struct Point<'w> {
    body: &'w [WalkNode],
    stack: &'w mut [i64],
}

impl Point<'_> {
    /// Calls `f(statement id, loop indices)` for every statement instance
    /// of the point, in program order.
    pub fn for_each(self, mut f: impl FnMut(usize, &[i64])) {
        walk(self.body, self.stack, &mut f);
    }
}

/// Loop level: one point per iteration of the perfect prefix of `nodes`.
fn prefix_points<F: FnMut(Point<'_>)>(nodes: &[WalkNode], stack: &mut [i64], f: &mut F) {
    match nodes {
        [WalkNode::Loop(l)] => {
            let (lo, hi) = l.bounds(&stack[..l.depth]);
            for value in lo..=hi {
                stack[l.depth] = value;
                prefix_points(&l.body, stack, f);
            }
        }
        body => f(Point { body, stack }),
    }
}

/// Index stacks up to this depth live on the stack.
const INLINE_DEPTH: usize = 16;

/// Runs `f` on a zeroed index stack of `depth` entries, allocating only
/// past [`INLINE_DEPTH`].
fn with_stack<R>(depth: usize, f: impl FnOnce(&mut [i64]) -> R) -> R {
    if depth <= INLINE_DEPTH {
        f(&mut [0i64; INLINE_DEPTH][..depth])
    } else {
        f(&mut vec![0i64; depth])
    }
}

fn walk<F: FnMut(usize, &[i64])>(nodes: &[WalkNode], stack: &mut [i64], f: &mut F) {
    walk_stmts(nodes, stack, &mut |node, stack| {
        if let WalkNode::Stmt { id, depth } = node {
            f(*id, &stack[..*depth]);
        }
    });
}

/// Calls `f(statement node, index stack)` for every statement instance
/// below `nodes`, in program order.
fn walk_stmts<F: FnMut(&WalkNode, &mut [i64])>(nodes: &[WalkNode], stack: &mut [i64], f: &mut F) {
    for node in nodes {
        match node {
            WalkNode::Stmt { .. } => f(node, stack),
            WalkNode::Loop(l) => {
                let (lo, hi) = l.bounds(&stack[..l.depth]);
                for value in lo..=hi {
                    stack[l.depth] = value;
                    walk_stmts(&l.body, stack, f);
                }
            }
        }
    }
}

fn count(nodes: &[WalkNode], stack: &mut [i64], counts: &mut [u64]) {
    for node in nodes {
        match node {
            WalkNode::Stmt { id, .. } => counts[*id] += 1,
            WalkNode::Loop(l) => {
                let (lo, hi) = l.bounds(&stack[..l.depth]);
                if lo > hi {
                    continue;
                }
                if l.flat {
                    for node in &l.body {
                        if let WalkNode::Stmt { id, .. } = node {
                            counts[*id] += (hi - lo + 1) as u64;
                        }
                    }
                } else {
                    for value in lo..=hi {
                        stack[l.depth] = value;
                        count(&l.body, stack, counts);
                    }
                }
            }
        }
    }
}

/// Compiles loop bounds to rows and numbers the statements.
struct Compiler<'p> {
    params: Vec<&'p str>,
    values: &'p [i64],
    /// The enclosing loop indices, outermost first.
    scope: Vec<&'p str>,
    depths: Vec<usize>,
    max_depth: usize,
}

impl<'p> Compiler<'p> {
    fn nodes(&mut self, nodes: &'p [Node]) -> Vec<WalkNode> {
        nodes
            .iter()
            .map(|node| match node {
                Node::Stmt(_) => {
                    let depth = self.scope.len();
                    self.depths.push(depth);
                    WalkNode::Stmt {
                        id: self.depths.len() - 1,
                        depth,
                    }
                }
                Node::Loop(l) => {
                    let depth = self.scope.len();
                    self.max_depth = self.max_depth.max(depth + 1);
                    let lower = self.rows(&l.lower, "lower");
                    let upper = self.rows(&l.upper, "upper");
                    self.scope.push(&l.index);
                    let body = self.nodes(&l.body);
                    self.scope.pop();
                    let flat = body.iter().all(|n| matches!(n, WalkNode::Stmt { .. }));
                    WalkNode::Loop(WalkLoop {
                        depth,
                        lower,
                        upper,
                        body,
                        flat,
                    })
                }
            })
            .collect()
    }

    /// The rows of one side's bound expressions.
    // Panic-hygiene allow: the parser never produces a loop without bound
    // expressions, so the panic guards a structural invariant.
    #[allow(clippy::panic)]
    fn rows(&self, exprs: &[LinExpr], side: &str) -> Box<[i64]> {
        if exprs.is_empty() {
            panic!("loop with no {side} bound");
        }
        // Innermost loop first, then the parameters: a name resolves to
        // its innermost binding.
        let names: Vec<&str> = self
            .scope
            .iter()
            .rev()
            .chain(&self.params)
            .copied()
            .collect();
        let depth = self.scope.len();
        let mut rows = Vec::with_capacity(exprs.len() * (depth + 1));
        for e in exprs {
            let (coeffs, constant) = e.resolve(&names);
            let (loops, params) = coeffs.split_at(depth);
            rows.push(
                constant
                    + params
                        .iter()
                        .zip(self.values)
                        .map(|(c, v)| c * v)
                        .sum::<i64>(),
            );
            rows.extend(loops.iter().rev());
        }
        rows.into_boxed_slice()
    }
}

#[cfg(test)]
mod tests {
    use crate::expr::{c, v};
    use crate::program::build::{loop_, loop_minmax, stmt};
    use crate::program::{ArrayRef, Program};

    fn example3() -> Program {
        Program::new(
            "example3",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![loop_(
                    "J",
                    c(1),
                    v("I"),
                    vec![
                        loop_(
                            "K",
                            v("J"),
                            v("I"),
                            vec![stmt(
                                "S1",
                                vec![ArrayRef::read(
                                    "a",
                                    vec![v("I") + v("K") * 2 + c(5), v("K") * 4 - v("J")],
                                )],
                            )],
                        ),
                        stmt(
                            "S2",
                            vec![ArrayRef::write("a", vec![v("I") - v("J"), v("I") + v("J")])],
                        ),
                    ],
                )],
            )],
        )
    }

    #[test]
    fn interpreter_matches_unified_space_enumeration() {
        let p = example3();
        let params = [4i64];
        // route 1: direct interpretation
        let direct = p.enumerate_instances(&params);
        // route 2: unified space enumeration + decode
        let phi = p.unified_iteration_space().bind_params(&params);
        let decoder = p.unified_decoder();
        let decoded: Vec<(usize, Vec<i64>)> = phi
            .enumerate()
            .iter()
            .map(|pt| decoder.decode(pt).expect("decodes"))
            .collect();
        assert_eq!(direct.len(), decoded.len());
        // Same multiset; the unified enumeration is lexicographic, which is
        // execution order, so both must agree element-wise.
        assert_eq!(direct, decoded);
    }

    #[test]
    fn instances_follow_program_order() {
        let p = example3();
        let inst = p.enumerate_instances(&[2]);
        // I=1: J=1: K=1 -> S1(1,1,1), then S2(1,1)
        // I=2: J=1: K=1,2 -> S1(2,1,1), S1(2,1,2), S2(2,1); J=2: K=2 -> S1(2,2,2), S2(2,2)
        let expected: Vec<(usize, Vec<i64>)> = vec![
            (0, vec![1, 1, 1]),
            (1, vec![1, 1]),
            (0, vec![2, 1, 1]),
            (0, vec![2, 1, 2]),
            (1, vec![2, 1]),
            (0, vec![2, 2, 2]),
            (1, vec![2, 2]),
        ];
        assert_eq!(inst, expected);
    }

    #[test]
    fn zero_trip_loops_are_skipped() {
        let p = Program::new(
            "zero",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![
                    loop_("J", c(1), v("I") - c(1), vec![stmt("A", vec![])]),
                    stmt("B", vec![]),
                ],
            )],
        );
        let inst = p.enumerate_instances(&[2]);
        // I=1: J loop is 1..0 (zero-trip) -> only B; I=2: J=1 -> A, then B.
        assert_eq!(inst, vec![(1, vec![1]), (0, vec![2, 1]), (1, vec![2])]);
        assert_eq!(p.count_instances(&[0]), 0);
    }

    #[test]
    fn counts_and_group_walks_agree_with_the_walk() {
        // Two top-level nests, the first imperfect below its I loop, with
        // a zero-trip inner loop at I = 1.
        let p = Program::new(
            "groups",
            &["N"],
            vec![
                loop_(
                    "I",
                    c(1),
                    v("N"),
                    vec![
                        loop_("J", c(1), v("I") - c(1), vec![stmt("A", vec![])]),
                        stmt("B", vec![]),
                    ],
                ),
                loop_(
                    "K",
                    c(0),
                    v("N"),
                    vec![loop_("L", v("K"), v("N"), vec![stmt("C", vec![])])],
                ),
            ],
        );
        for n in [0, 1, 4] {
            let walker = p.walker(&[n]);
            let all = p.enumerate_instances(&[n]);
            assert_eq!(walker.count(), all.len(), "N = {n}");
            assert_eq!(walker.depths(), &[2, 1, 2]);
            // The groups' prefix iterations, walked in order, list the
            // program's instances in program order.  A point's entries past
            // its group's prefix are padding.
            let mut bodies = Vec::new();
            for group in p.loop_groups().unwrap() {
                let (lo, hi) = if group.group == 0 { (1, n) } else { (0, n) };
                for x in lo..=hi {
                    let inner = if group.depth() == 2 { x..=n } else { 99..=99 };
                    for y in inner {
                        let mut body = Vec::new();
                        walker.for_each_in_group(group.group, &[x, y], |s, idx| {
                            body.push((s, idx.to_vec()))
                        });
                        bodies.push(body);
                    }
                }
            }
            assert_eq!(bodies.concat(), all, "N = {n}");
            // The loop-level point walk visits the same prefix iterations
            // with the same bodies; the statement-level walk has a point
            // per instance.
            let mut points = Vec::new();
            walker.for_each_point(true, |point| {
                let mut body = Vec::new();
                point.for_each(|s, idx| body.push((s, idx.to_vec())));
                points.push(body);
            });
            assert_eq!(points, bodies, "N = {n}");
            assert_eq!(walker.count_points(true), bodies.len());
            assert_eq!(walker.count_points(false), all.len());
        }
    }

    #[test]
    fn minmax_bounds_are_interpreted() {
        // DO I = max(-M, -J)…  pattern from the Cholesky kernel.
        let p = Program::new(
            "cholesky-slice",
            &["M", "N"],
            vec![loop_(
                "J",
                c(0),
                v("N"),
                vec![loop_minmax(
                    "I",
                    vec![-v("M"), -v("J")],
                    vec![c(-1)],
                    vec![stmt("S", vec![])],
                )],
            )],
        );
        let inst = p.enumerate_instances(&[2, 3]);
        // J=0: I from max(-2, 0)=0 to -1: empty; J=1: I=-1; J=2: I=-2..-1;
        // J=3: I = max(-2,-3) = -2..-1.
        let counts: Vec<usize> = (0..=3)
            .map(|j| inst.iter().filter(|(_, idx)| idx[0] == j).count())
            .collect();
        assert_eq!(counts, vec![0, 1, 2, 2]);
    }
}
