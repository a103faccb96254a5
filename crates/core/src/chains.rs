//! Monotonic dependence chains (Definition 1) and their construction.
//!
//! A *monotonic dependence chain* is a sequence of lexicographically ordered
//! iterations in which each iteration directly depends on a unique
//! immediate predecessor.  Under Lemma 1 (single coupled reference pair with
//! full-rank matrices) the chains inside the intermediate set `P2` are
//! disjoint and each can be executed sequentially as a WHILE loop with an
//! irregular stride, starting from the `W` set.
//!
//! Three constructions are provided:
//!
//! * [`chains_in_intermediate`] — the paper's WHILE chains: start at each
//!   `W` iteration, repeatedly step to the unique successor while it stays
//!   inside `P2`;
//! * [`component_chains`] — the connected components of the dependence
//!   graph inside `P2`, for aggregated loop-level views;
//! * [`monotonic_chains`] — the general decomposition of an arbitrary
//!   dependence relation into maximal monotonic chains, as point paths
//!   (used for the figure-2 illustration where chains bifurcate and the
//!   intermediate set is empty).
//!
//! The first two return [`Chains`]: runs of ids into `P2`.

use crate::three_set::DenseThreeSet;
use rcp_intlin::IVec;
use rcp_presburger::{DenseRelation, DenseSet};

/// The chains of one partition, each a run of `u32` ids into its
/// intermediate set `P2` (`DenseThreeSet::p2`) in execution order.  The
/// ids rise strictly along a chain: `P2`'s rows are sorted and every
/// dependence points lexicographically forward.  All runs, none empty, lie
/// back to back in one vector, so a chain point costs one id and `P2` holds
/// its coordinates once.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Chains {
    /// Every chain's ids, chain after chain.
    ids: Vec<u32>,
    /// Where each chain's run ends in `ids`.
    ends: Vec<u32>,
}

/// The owner of a `P2` id that lies on no chain.
pub(crate) const NO_CHAIN: u32 = u32::MAX;

impl Chains {
    /// Number of chains.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when there is no chain.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every chain's ids, chain after chain: one per chain point.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The chains in execution order, each as its run of `P2` ids.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(s, &e)| &self.ids[s as usize..e as usize])
    }

    /// Appends the `P2` id `id` to the chain being built.  A `DenseSet`
    /// holds at most `u32::MAX` points, so every id fits.
    pub(crate) fn push(&mut self, id: usize) {
        self.ids.push(id as u32);
    }

    /// Ends the chain being built; an empty one is dropped.
    pub(crate) fn close(&mut self) {
        let end = self.ids.len() as u32;
        if self.ends.last().copied().unwrap_or(0) < end {
            self.ends.push(end);
        }
    }

    /// The chain that lists each of `n` `P2` ids, the last one when several
    /// do, and [`NO_CHAIN`] for an id on none.  Ids past `n` are skipped.
    pub(crate) fn owners(&self, n: usize) -> Vec<u32> {
        let mut owner = vec![NO_CHAIN; n];
        for (k, chain) in self.iter().enumerate() {
            for &id in chain {
                if let Some(o) = owner.get_mut(id as usize) {
                    *o = k as u32;
                }
            }
        }
        owner
    }
}

/// Builds the WHILE-loop chains of the intermediate set: one chain per `W`
/// iteration, following unique successors while the next iteration is still
/// intermediate.  The returned chains partition `P2` when Lemma 1 holds.
pub fn chains_in_intermediate(part: &DenseThreeSet, rd: &DenseRelation) -> Chains {
    rcp_guard::tick(rcp_guard::Stage::ChainEnumeration, part.w.len() as u64 + 1);
    rcp_guard::fail_point("core::chains", rcp_guard::Stage::ChainEnumeration);
    let mut chains = Chains::default();
    for start in part.w.iter() {
        let mut current = start;
        while let Some(id) = part.p2.index_of(current) {
            chains.push(id);
            // Unique successor inside the dependence relation.
            let mut succs = rd.successors(current);
            match succs.next() {
                Some(next) if succs.len() == 0 => current = next,
                _ => break,
            }
        }
        chains.close();
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
pub fn component_chains(p2: &DenseSet, rd: &DenseRelation) -> Chains {
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
    // A component's root is its first point, so sorting the ids stably by
    // root lists the chains in the order of their first points, and each
    // chain's ids rising.
    let roots: Vec<usize> = (0..n).map(|p| root(&mut parent, p)).collect();
    let mut ids: Vec<usize> = (0..n).collect();
    ids.sort_by_key(|&p| roots[p]);
    let mut chains = Chains::default();
    for chain in ids.chunk_by(|&a, &b| roots[a] == roots[b]) {
        chain.iter().for_each(|&p| chains.push(p));
        chains.close();
    }
    chains
}

/// Decomposes an arbitrary dependence relation into maximal monotonic
/// chains, each the path of its points: a chain starts at an iteration that
/// has no predecessor, has a predecessor with several successors, or has
/// several predecessors, and extends while both the current iteration has a
/// unique successor and that successor has a unique predecessor.
pub fn monotonic_chains(rd: &DenseRelation) -> Vec<Vec<IVec>> {
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
            chains.push(chain);
        }
        // Emit the bifurcating / merging edges out of `current` as separate
        // two-iteration monotonic chains.
        if branches(current) {
            for next in rd.successors(current) {
                chains.push(vec![current.to_vec(), next.to_vec()]);
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
            && !chains
                .iter()
                .any(|c| c.windows(2).any(|w| w[0] == src && w[1] == dst))
        {
            chains.push(vec![src.to_vec(), dst.to_vec()]);
        }
    }
    chains.sort();
    chains.dedup();
    chains
}

/// The length of the longest chain (the critical path of the intermediate
/// set), in iterations.
pub fn longest_chain(chains: &Chains) -> usize {
    chains.iter().map(<[u32]>::len).max().unwrap_or(0)
}

/// Checks that the chains cover `P2` exactly once (the disjointness of
/// Lemma 1), with one bitmap over `P2`'s ids and a range check for ids past
/// its end.  Returns violated invariants.
pub fn validate_chain_cover(chains: &Chains, p2: &DenseSet) -> Vec<String> {
    let mut problems = Vec::new();
    let mut seen = vec![false; p2.len()];
    for &id in chains.ids() {
        let Some(seen) = seen.get_mut(id as usize) else {
            let n = p2.len();
            problems.push(format!("chain id {id} is not intermediate (|P2| = {n})"));
            continue;
        };
        if std::mem::replace(seen, true) {
            let point = p2.point(id as usize);
            problems.push(format!("iteration {point:?} appears on two chains"));
        }
    }
    let covered = seen.iter().filter(|&&s| s).count();
    if covered != p2.len() {
        problems.push(format!(
            "chains cover {covered} of {} intermediate iterations",
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

    /// A uniform chain's three sets and relation: `a(I+1) = a(I)`, `I` in
    /// `1..=n`.
    fn uniform_chain(n: i64) -> (DenseThreeSet, DenseRelation) {
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
        let (phi, rel) = analysis.bind_params(&[n]);
        let rd = DenseRelation::from_relation(&rel);
        (DenseThreeSet::compute(&DenseSet::from_union(&phi), &rd), rd)
    }

    #[test]
    fn figure2_monotonic_chain_splitting() {
        // The solution chain 6 -> 9 -> 3 -> 15 must be split into the
        // monotonic chains 6 -> 9, 3 -> 9 and 3 -> 15.
        let rd = figure2_relation();
        let chains = monotonic_chains(&rd);
        let as_pairs: Vec<Vec<i64>> = chains
            .iter()
            .map(|c| c.iter().map(|p| p[0]).collect())
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
            assert!(c
                .windows(2)
                .all(|w| w[0] < w[1] && rd.contains(&w[0], &w[1])));
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
        assert!(longest_chain(&chains) > 1);
        assert!(validate_chain_cover(&chains, &part.p2).is_empty());
        let point = |id: &u32| part.p2.point(*id as usize);
        for chain in chains.iter() {
            // Ids rise along the chain, and consecutive ones are edges.
            for w in chain.windows(2) {
                assert!(w[0] < w[1] && rd.contains(point(&w[0]), point(&w[1])));
            }
            // Every chain starts in W and directly depends on a P1
            // iteration.
            let start = point(&chain[0]);
            assert!(part.w.contains(start));
            assert!(rd.predecessors(start).any(|p| part.p1.contains(p)));
        }
    }

    #[test]
    fn uniform_chain_is_single_while_loop() {
        // a(I+1) = a(I), N = 7: P2 = {2..6}, a single chain 2 -> 3 -> ... -> 6.
        let (part, rd) = uniform_chain(7);
        let chains = chains_in_intermediate(&part, &rd);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains.ids(), [0, 1, 2, 3, 4]);
        let points: Vec<&[i64]> = chains
            .ids()
            .iter()
            .map(|&id| part.p2.point(id as usize))
            .collect();
        assert_eq!(points, [[2], [3], [4], [5], [6]]);
        assert_eq!(longest_chain(&chains), 5);
        // The components of the same graph are the same chain.
        assert_eq!(component_chains(&part.p2, &rd), chains);
    }

    #[test]
    fn component_chains_list_each_component_in_id_order() {
        // Over P2 = {2..6}, the edges 2 -> 4 and 3 -> 5 -> 6 make the
        // components {2, 4} and {3, 5, 6}, listed by their first points.
        let p2 = DenseSet::from_points(1, (2..=6).map(|x| [x]));
        let rd = DenseRelation::from_pairs(
            1,
            1,
            [(vec![2], vec![4]), (vec![3], vec![5]), (vec![5], vec![6])],
        );
        let chains = component_chains(&p2, &rd);
        let runs: Vec<&[u32]> = chains.iter().collect();
        assert_eq!(runs, [&[0, 2][..], &[1, 3, 4]]);
        assert_eq!(chains.owners(p2.len()), [0, 1, 0, 1, 1]);
    }

    #[test]
    fn the_cover_check_reads_ids() {
        let (part, rd) = uniform_chain(7);
        let mut chains = chains_in_intermediate(&part, &rd);
        // One more chain that repeats id 2 and lists an id past P2's end.
        [2, 5].iter().for_each(|&id| chains.push(id));
        chains.close();
        assert_eq!(
            validate_chain_cover(&chains, &part.p2),
            [
                "iteration [4] appears on two chains",
                "chain id 5 is not intermediate (|P2| = 5)",
            ]
        );
        // An id on no chain leaves P2 uncovered.
        let mut short = Chains::default();
        (0..4).for_each(|id| short.push(id));
        short.close();
        assert_eq!(
            validate_chain_cover(&short, &part.p2),
            ["chains cover 4 of 5 intermediate iterations"]
        );
        assert_eq!(short.owners(5), [0, 0, 0, 0, NO_CHAIN]);
    }

    #[test]
    fn empty_relation_has_no_chains() {
        let rd = DenseRelation::new(1, 1);
        assert!(monotonic_chains(&rd).is_empty());
        assert_eq!(longest_chain(&Chains::default()), 0);
    }
}
