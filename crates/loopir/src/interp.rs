//! Direct interpretation of a loop nest: enumerate statement instances in
//! program (sequential) order.
//!
//! This is the one builder of program order: the sequential reference
//! schedule and the schedule coverage check both take their instances
//! from [`Program::enumerate_instances`], which walks the loop tree with
//! the symbolic parameters bound to concrete values.  The statement-level
//! analysis builds `Φ` as the unified space instead; the test-suite
//! checks on every bundled kernel and on generated nests that the
//! unified space, enumerated lexicographically and decoded, lists the
//! same instances in the same order.

use crate::expr::LinExpr;
use crate::program::{Node, Program};
use rcp_intlin::IVec;
use std::collections::BTreeMap;

/// A statement instance in execution order: `(statement id, loop index
/// values of its surrounding loops, outermost first)`.
pub type Instance = (usize, IVec);

impl Program {
    /// Enumerates every statement instance of the program in sequential
    /// execution order for the given parameter values.
    pub fn enumerate_instances(&self, params: &[i64]) -> Vec<Instance> {
        assert_eq!(params.len(), self.params.len(), "parameter count mismatch");
        let mut env: BTreeMap<String, i64> = BTreeMap::new();
        for (name, &value) in self.params.iter().zip(params) {
            env.insert(name.clone(), value);
        }
        let mut out = Vec::new();
        let mut indices = Vec::new();
        let mut stmt_counter = 0usize;
        walk(
            &self.body,
            &mut env,
            &mut indices,
            &mut stmt_counter,
            &mut out,
        );
        out
    }

    /// Counts the statement instances without materialising them.
    pub fn count_instances(&self, params: &[i64]) -> usize {
        self.enumerate_instances(params).len()
    }
}

// Panic-hygiene allow: the parser never produces a loop without bound
// expressions, so the `expect`s guard a structural invariant.
#[allow(clippy::expect_used)]
fn eval_bound(exprs: &[LinExpr], env: &BTreeMap<String, i64>, is_lower: bool) -> i64 {
    let values = exprs.iter().map(|e| e.eval(env));
    if is_lower {
        values.max().expect("loop with no lower bound")
    } else {
        values.min().expect("loop with no upper bound")
    }
}

/// The instance-enumeration core, shared with
/// [`Program::enumerate_group_instances`]: walks `nodes` with the
/// surrounding loop environment `env` and index prefix `indices` already
/// in place, assigning statement ids from `stmt_counter` onwards.
pub(crate) fn walk_nodes(
    nodes: &[Node],
    env: &mut BTreeMap<String, i64>,
    indices: &mut IVec,
    stmt_counter: &mut usize,
    out: &mut Vec<Instance>,
) {
    walk(nodes, env, indices, stmt_counter, out)
}

fn walk(
    nodes: &[Node],
    env: &mut BTreeMap<String, i64>,
    indices: &mut IVec,
    stmt_counter: &mut usize,
    out: &mut Vec<Instance>,
) {
    for node in nodes {
        match node {
            Node::Stmt(_) => {
                out.push((*stmt_counter, indices.clone()));
                *stmt_counter += 1;
            }
            Node::Loop(l) => {
                let lo = eval_bound(&l.lower, env, true);
                let hi = eval_bound(&l.upper, env, false);
                let stmts_in_subtree = count_statements(&l.body);
                if lo > hi {
                    // zero-trip loop: skip its statements but keep ids stable
                    *stmt_counter += stmts_in_subtree;
                    continue;
                }
                let saved_counter = *stmt_counter;
                for v in lo..=hi {
                    *stmt_counter = saved_counter;
                    env.insert(l.index.clone(), v);
                    indices.push(v);
                    walk(&l.body, env, indices, stmt_counter, out);
                    indices.pop();
                }
                env.remove(&l.index);
                *stmt_counter = saved_counter + stmts_in_subtree;
            }
        }
    }
}

fn count_statements(nodes: &[Node]) -> usize {
    nodes
        .iter()
        .map(|n| match n {
            Node::Stmt(_) => 1,
            Node::Loop(l) => count_statements(&l.body),
        })
        .sum()
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
