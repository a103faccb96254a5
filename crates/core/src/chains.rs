//! Monotonic dependence chains (Definition 1) and their construction.
//!
//! A *monotonic dependence chain* is a sequence of lexicographically ordered
//! iterations in which each iteration directly depends on a unique
//! immediate predecessor.  Under Lemma 1 (single coupled reference pair with
//! full-rank matrices) the chains inside the intermediate set `P2` are
//! disjoint and each can be executed sequentially as a WHILE loop with an
//! irregular stride, starting from the `W` set.
//!
//! Two constructions are provided:
//!
//! * [`chains_in_intermediate`] — the paper's WHILE chains: start at each
//!   `W` iteration, repeatedly step to the unique successor while it stays
//!   inside `P2`;
//! * [`monotonic_chains`] — the general decomposition of an arbitrary
//!   dependence relation into maximal monotonic chains (used for the
//!   figure-2 illustration where chains bifurcate and the intermediate set
//!   is empty).

use crate::three_set::DenseThreeSet;
use rcp_intlin::IVec;
use rcp_presburger::{DenseRelation, DenseSet};
use std::collections::BTreeSet;

/// A lexicographically increasing chain of directly dependent iterations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chain {
    /// The iterations of the chain in execution order.
    pub iterations: Vec<IVec>,
}

impl Chain {
    /// Number of iterations on the chain.
    pub fn len(&self) -> usize {
        self.iterations.len()
    }

    /// True when the chain has no iterations.
    pub fn is_empty(&self) -> bool {
        self.iterations.is_empty()
    }

    /// Checks that consecutive iterations are lexicographically increasing
    /// and directly dependent under `rd`.
    pub fn is_monotonic(&self, rd: &DenseRelation) -> bool {
        self.iterations
            .windows(2)
            .all(|w| w[0] < w[1] && rd.contains(&w[0], &w[1]))
    }
}

/// Builds the WHILE-loop chains of the intermediate set: one chain per `W`
/// iteration, following unique successors while the next iteration is still
/// intermediate.  The returned chains partition `P2` when Lemma 1 holds.
pub fn chains_in_intermediate(part: &DenseThreeSet, rd: &DenseRelation) -> Vec<Chain> {
    rcp_guard::tick(rcp_guard::Stage::ChainEnumeration, part.w.len() as u64 + 1);
    rcp_guard::fail_point("core::chains", rcp_guard::Stage::ChainEnumeration);
    let mut chains = Vec::new();
    for start in part.w.iter() {
        let mut chain = Vec::new();
        let mut current = start;
        while part.p2.contains(current) {
            chain.push(current.to_vec());
            // Unique successor inside the dependence relation.
            let mut succs = rd.successors(current);
            match succs.next() {
                Some(next) if succs.len() == 0 => current = next,
                _ => break,
            }
        }
        if !chain.is_empty() {
            chains.push(Chain { iterations: chain });
        }
    }
    chains
}

/// Builds chains as the connected components of the dependence graph
/// restricted to the intermediate set, each ordered lexicographically.
///
/// Unlike [`chains_in_intermediate`] this does not require unique
/// successors, so it tolerates the transitive edges of aggregated
/// loop-level relations (where `t → t+1` and `t → t+2` coexist).  The
/// result is only a valid chain partition when every component is totally
/// ordered with consecutive direct dependences — which
/// [`crate::try_chain_partition`] verifies before accepting it.
///
/// Components are found by union-find over the point ids of `p2`; chains
/// come out in the order of their first point.
pub fn component_chains(p2: &DenseSet, rd: &DenseRelation) -> Vec<Chain> {
    rcp_guard::tick(rcp_guard::Stage::ChainEnumeration, p2.len() as u64 + 1);
    rcp_guard::fail_point("core::chains", rcp_guard::Stage::ChainEnumeration);
    let n = p2.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn root(parent: &mut [usize], mut p: usize) -> usize {
        while parent[p] != p {
            parent[p] = parent[parent[p]];
            p = parent[p];
        }
        p
    }
    for (src, dst) in rd.edges_within(p2) {
        let (a, b) = (
            root(&mut parent, src as usize),
            root(&mut parent, dst as usize),
        );
        parent[a.max(b)] = a.min(b);
    }
    let mut chain_of = vec![usize::MAX; n];
    let mut chains: Vec<Chain> = Vec::new();
    for p in 0..n {
        let r = root(&mut parent, p);
        if chain_of[r] == usize::MAX {
            chain_of[r] = chains.len();
            chains.push(Chain {
                iterations: Vec::new(),
            });
        }
        chains[chain_of[r]].iterations.push(p2.point(p).to_vec());
    }
    chains
}

/// Decomposes an arbitrary dependence relation into maximal monotonic
/// chains: a chain starts at an iteration that has no predecessor, has a
/// predecessor with several successors, or has several predecessors, and
/// extends while both the current iteration has a unique successor and that
/// successor has a unique predecessor.
pub fn monotonic_chains(rd: &DenseRelation) -> Vec<Chain> {
    let nodes = rd.domain().union(&rd.range());
    let is_start = |p: &[i64]| -> bool {
        let mut preds = rd.predecessors(p);
        match (preds.next(), preds.len()) {
            (Some(pred), 0) => rd.successors(pred).len() > 1,
            _ => true,
        }
    };
    // True when the edges out of `p` are not one step of a longer chain.
    let branches = |p: &[i64]| -> bool {
        let succs = rd.successors(p);
        succs.len() != 1
            || rd
                .successors(p)
                .any(|next| rd.predecessors(next).len() != 1)
    };
    let mut chains = Vec::new();
    for node in nodes.iter().filter(|p| is_start(p)) {
        // Starting node: walk forward along unique-successor /
        // unique-predecessor edges.
        let mut chain = vec![node.to_vec()];
        let mut current = node;
        while !branches(current) {
            let Some(next) = rd.successors(current).next() else {
                break;
            };
            chain.push(next.to_vec());
            current = next;
        }
        if chain.len() >= 2 {
            chains.push(Chain { iterations: chain });
        }
        // Emit the bifurcating / merging edges out of `current` as separate
        // two-iteration monotonic chains.
        if branches(current) {
            for next in rd.successors(current) {
                chains.push(Chain {
                    iterations: vec![current.to_vec(), next.to_vec()],
                });
            }
        }
    }
    // Also emit edges into merge points whose source was consumed inside a
    // longer chain (the source had a unique successor but the target has
    // several predecessors and the source was not a start node).
    for (src, dst) in rd.iter() {
        if rd.predecessors(dst).len() > 1
            && rd.successors(src).len() == 1
            && !is_start(src)
            && !chains.iter().any(|c| contains_edge(c, src, dst))
        {
            chains.push(Chain {
                iterations: vec![src.to_vec(), dst.to_vec()],
            });
        }
    }
    chains.sort_by(|a, b| a.iterations.cmp(&b.iterations));
    chains.dedup();
    chains
}

fn contains_edge(chain: &Chain, src: &[i64], dst: &[i64]) -> bool {
    chain
        .iterations
        .windows(2)
        .any(|w| w[0] == src && w[1] == dst)
}

/// The length of the longest chain (the critical path of the intermediate
/// set), in iterations.
pub fn longest_chain(chains: &[Chain]) -> usize {
    chains.iter().map(|c| c.len()).max().unwrap_or(0)
}

/// Checks that the chains cover `P2` exactly once (the disjointness of
/// Lemma 1).  Returns violated invariants.
pub fn validate_chain_cover(chains: &[Chain], p2: &DenseSet) -> Vec<String> {
    let mut problems = Vec::new();
    // Chain iterations seen so far: P2 points by id, the rest by value.
    let mut seen = vec![false; p2.len()];
    let mut outside: BTreeSet<&[i64]> = BTreeSet::new();
    for c in chains {
        for it in &c.iterations {
            let repeated = match p2.index_of(it) {
                Some(id) => std::mem::replace(&mut seen[id], true),
                None => {
                    problems.push(format!("chain iteration {:?} is not intermediate", it));
                    !outside.insert(it)
                }
            };
            if repeated {
                problems.push(format!("iteration {:?} appears on two chains", it));
            }
        }
    }
    let covered = seen.iter().filter(|&&s| s).count() + outside.len();
    if covered != p2.len() {
        problems.push(format!(
            "chains cover {} of {} intermediate iterations",
            covered,
            p2.len()
        ));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::three_set::DenseThreeSet;
    use rcp_depend::DependenceAnalysis;
    use rcp_loopir::expr::{c, v};
    use rcp_loopir::program::build::{loop_, stmt};
    use rcp_loopir::{ArrayRef, Program};
    use rcp_presburger::DenseSet;

    fn figure2_relation() -> DenseRelation {
        let p = Program::new(
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
        );
        let analysis = DependenceAnalysis::loop_level(&p);
        let (_, rel) = analysis.bind_params(&[]);
        DenseRelation::from_relation(&rel)
    }

    #[test]
    fn figure2_monotonic_chain_splitting() {
        // The solution chain 6 -> 9 -> 3 -> 15 must be split into the
        // monotonic chains 6 -> 9, 3 -> 9 and 3 -> 15.
        let rd = figure2_relation();
        let chains = monotonic_chains(&rd);
        let as_pairs: Vec<Vec<i64>> = chains
            .iter()
            .map(|c| c.iterations.iter().map(|p| p[0]).collect())
            .collect();
        assert!(
            as_pairs.contains(&vec![6, 9]),
            "missing 6 -> 9 in {:?}",
            as_pairs
        );
        assert!(
            as_pairs.contains(&vec![3, 9]),
            "missing 3 -> 9 in {:?}",
            as_pairs
        );
        assert!(
            as_pairs.contains(&vec![3, 15]),
            "missing 3 -> 15 in {:?}",
            as_pairs
        );
        // every chain is monotonic and at most 2 long (paper: "each
        // monotonic chain has only two iterations")
        for c in &chains {
            assert!(c.is_monotonic(&rd));
            assert_eq!(c.len(), 2);
        }
        // all 9 forward dependence edges are covered
        let edges: usize = chains.iter().map(|c| c.len() - 1).sum();
        assert_eq!(edges, rd.len());
    }

    #[test]
    fn example1_intermediate_chains() {
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
        // Use a larger box so that chains of length > 1 exist in P2:
        // (4, j) -> (10, j+6) -> (28, j+24) needs N1 >= 28.
        let (phi, rel) = analysis.bind_params(&[30, 40]);
        let phi_d = DenseSet::from_union(&phi);
        let rd = DenseRelation::from_relation(&rel);
        let part = DenseThreeSet::compute(&phi_d, &rd);
        let chains = chains_in_intermediate(&part, &rd);
        assert!(!chains.is_empty());
        assert!(validate_chain_cover(&chains, &part.p2).is_empty());
        for c in &chains {
            assert!(c.is_monotonic(&rd));
        }
        // Every chain start is in W and directly depends on a P1 iteration.
        for chain in &chains {
            let start = &chain.iterations[0];
            assert!(part.w.contains(start));
            assert!(rd.predecessors(start).any(|p| part.p1.contains(p)));
        }
    }

    #[test]
    fn uniform_chain_is_single_while_loop() {
        // a(I+1) = a(I), N = 7: P2 = {2..6}, a single chain 2 -> 3 -> ... -> 6.
        let p = Program::new(
            "chain",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I") + c(1)]),
                        ArrayRef::read("a", vec![v("I")]),
                    ],
                )],
            )],
        );
        let analysis = DependenceAnalysis::loop_level(&p);
        let (phi, rel) = analysis.bind_params(&[7]);
        let phi_d = DenseSet::from_union(&phi);
        let rd = DenseRelation::from_relation(&rel);
        let part = DenseThreeSet::compute(&phi_d, &rd);
        let chains = chains_in_intermediate(&part, &rd);
        assert_eq!(chains.len(), 1);
        assert_eq!(
            chains[0].iterations,
            vec![vec![2], vec![3], vec![4], vec![5], vec![6]]
        );
        assert_eq!(longest_chain(&chains), 5);
    }

    #[test]
    fn empty_relation_has_no_chains() {
        let rd = DenseRelation::new(1, 1);
        assert!(monotonic_chains(&rd).is_empty());
        assert_eq!(longest_chain(&[]), 0);
    }
}
