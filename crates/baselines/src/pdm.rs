//! The Pseudo Distance Matrix (PDM) baseline (Yu & D'Hollander, ICPP 2000).
//!
//! PDM replaces the non-uniform distance vectors by a small set of
//! lexicographically positive *pseudo distance vectors* whose non-negative
//! integer combinations cover every real dependence distance.  DOALL loop
//! transformations then treat the loop as if those pseudo distances were
//! ordinary uniform distances.  The price is the *artificial dependences*
//! the covering introduces: iterations that are not really dependent end up
//! on the same sequential chain.
//!
//! The implementation here works on the concrete distance set:
//!
//! 1. compute the distinct dependence distances,
//! 2. reduce them to a minimal covering set of lexicographically positive
//!    generators (the PDM),
//! 3. partition the iteration space into equivalence classes of the lattice
//!    generated by the PDM (iterations connected by pseudo distances), and
//! 4. schedule every class as a sequential chain, all classes in parallel —
//!    exactly the "outermost parallelism under uniformized dependences"
//!    that PDM exposes.
//!
//! Every real dependence is covered by construction (its distance is a
//! non-negative combination of PDM vectors, so its end points fall in the
//! same class and execute in lexicographic order), which the test-suite
//! verifies.

use rcp_codegen::{PhaseKind, PointExpander, Schedule};
use rcp_depend::{distance_set, DependenceAnalysis, Granularity};
use rcp_intlin::{add, is_lex_positive, neg, sub, IVec};
use rcp_presburger::{DenseRelation, DenseSet};
use std::collections::{BTreeMap, BTreeSet};

/// The pseudo distance vectors covering a distance set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PseudoDistanceMatrix {
    /// The lexicographically positive generator vectors.
    pub vectors: Vec<IVec>,
}

impl PseudoDistanceMatrix {
    /// Computes a covering set of pseudo distance vectors for the given
    /// distance set: start from the (lexicographically positive versions of
    /// the) distinct distances and drop every vector that is a non-negative
    /// integer combination of the remaining ones.
    pub fn from_distances(distances: &[IVec]) -> PseudoDistanceMatrix {
        let candidates: BTreeSet<IVec> = distances
            .iter()
            .filter(|d| d.iter().any(|&x| x != 0))
            .map(|d| {
                if is_lex_positive(d) {
                    d.clone()
                } else {
                    neg(d)
                }
            })
            .collect();
        // Greedily drop vectors representable by the others (e.g. (4,4) and
        // (6,6) are non-negative multiples of (2,2), so the PDM of Example 1
        // is the single vector (2,2)).
        let mut vectors: Vec<IVec> = candidates.into_iter().collect();
        vectors.sort_by_key(|d| (d.iter().map(|x| x.abs()).sum::<i64>(), d.clone()));
        let mut kept: Vec<IVec> = Vec::new();
        for (k, d) in vectors.iter().enumerate() {
            let others: Vec<&IVec> = kept.iter().chain(vectors[k + 1..].iter()).collect();
            if !is_non_negative_combination(d, &others) {
                kept.push(d.clone());
            }
        }
        // Make sure every original distance is covered by the kept set.
        for d in distances {
            let dd = if is_lex_positive(d) {
                d.clone()
            } else {
                neg(d)
            };
            let refs: Vec<&IVec> = kept.iter().collect();
            if !is_non_negative_combination(&dd, &refs) {
                kept.push(dd);
            }
        }
        PseudoDistanceMatrix { vectors: kept }
    }

    /// True when `d` is a non-negative integer combination of the PDM
    /// vectors.
    pub fn covers(&self, d: &[i64]) -> bool {
        let dd = if is_lex_positive(d) {
            d.to_vec()
        } else {
            neg(d)
        };
        let refs: Vec<&IVec> = self.vectors.iter().collect();
        is_non_negative_combination(&dd, &refs)
    }
}

/// Bounded search for a non-negative integer combination `target = Σ kᵢ·vᵢ`.
fn is_non_negative_combination(target: &IVec, vectors: &[&IVec]) -> bool {
    if target.iter().all(|&x| x == 0) {
        return true;
    }
    if vectors.is_empty() {
        return false;
    }
    // Depth-first search with a norm bound; the vectors involved are tiny.
    fn rec(target: &IVec, vectors: &[&IVec], depth: usize) -> bool {
        if target.iter().all(|&x| x == 0) {
            return true;
        }
        if depth == 0 {
            return false;
        }
        for v in vectors {
            // subtract v if it keeps the remaining target's norm shrinking
            let remaining = sub(target, v);
            let shrinks = remaining.iter().map(|x| x.abs()).sum::<i64>()
                < target.iter().map(|x| x.abs()).sum::<i64>();
            if shrinks && rec(&remaining, vectors, depth - 1) {
                return true;
            }
        }
        false
    }
    rec(target, vectors, 64)
}

/// The classes of `phi` connected by the given offsets (`i ~ i + v` for
/// every offset `v`), as point ids of `phi`: each class in increasing id
/// (lexicographic) order, the classes in the order of their union-find
/// roots.
pub(crate) fn offset_classes(phi: &DenseSet, offsets: &[IVec]) -> Vec<Vec<usize>> {
    let mut parent: Vec<usize> = (0..phi.len()).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for (k, p) in phi.iter().enumerate() {
        for v in offsets {
            if let Some(j) = phi.index_of(&add(p, v)) {
                let a = find(&mut parent, k);
                let b = find(&mut parent, j);
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }
    let mut classes: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for k in 0..phi.len() {
        let root = find(&mut parent, k);
        classes.entry(root).or_default().push(k);
    }
    classes.into_values().collect()
}

/// The PDM partitioning of a loop: iterations grouped into lattice classes,
/// each class a sequential chain, all classes in parallel.
pub fn pdm_schedule(
    analysis: &DependenceAnalysis,
    phi: &DenseSet,
    rd: &DenseRelation,
    name: &str,
) -> (PseudoDistanceMatrix, Schedule) {
    assert_eq!(
        analysis.granularity,
        Granularity::LoopLevel,
        "the PDM baseline operates on perfect loop nests"
    );
    let pdm = PseudoDistanceMatrix::from_distances(&distance_set(rd));
    let schedule = chain_classes(
        &PointExpander::new(analysis, &[]),
        phi,
        &offset_classes(phi, &pdm.vectors),
        name,
    );
    (pdm, schedule)
}

/// One chain-set phase: a chain per class of point ids of `phi`, in the
/// class's order.
pub(crate) fn chain_classes(
    expander: &PointExpander,
    phi: &DenseSet,
    classes: &[Vec<usize>],
    name: &str,
) -> Schedule {
    let mut builder = expander.builder(name);
    expander.reserve(&mut builder, phi.len());
    builder.phase(PhaseKind::ChainSet);
    for ids in classes {
        builder.chain();
        for &k in ids {
            expander.item(phi.point(k), &mut builder);
        }
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcp_presburger::DenseRelation;
    use rcp_workloads::{example1, example2};

    #[test]
    fn example1_pdm_is_the_single_vector_2_2() {
        let analysis = DependenceAnalysis::loop_level(&example1());
        let (_, rel) = analysis.bind_params(&[10, 10]);
        let rd = DenseRelation::from_relation(&rel);
        let pdm = PseudoDistanceMatrix::from_distances(&distance_set(&rd));
        assert_eq!(pdm.vectors, vec![vec![2, 2]]);
        assert!(pdm.covers(&[4, 4]));
        assert!(pdm.covers(&[6, 6]));
        assert!(!pdm.covers(&[3, 2]));
    }

    #[test]
    fn pdm_schedule_respects_all_real_dependences() {
        for (program, params) in [(example1(), vec![12i64, 15]), (example2(), vec![10])] {
            let analysis = DependenceAnalysis::loop_level(&program);
            let (phi, rel) = analysis.bind_params(&params);
            let phi_d = DenseSet::from_union(&phi);
            let rd = DenseRelation::from_relation(&rel);
            let (pdm, schedule) = pdm_schedule(&analysis, &phi_d, &rd, "pdm");
            // every real distance is covered
            for d in distance_set(&rd) {
                assert!(
                    pdm.covers(&d),
                    "distance {:?} not covered by {:?}",
                    d,
                    pdm.vectors
                );
            }
            // schedule covers every iteration exactly once
            assert!(schedule.validate_coverage(&program, &params).is_empty());
            // all dependent pairs are on the same chain, source first
            let phase = schedule.phase(0);
            if phase.kind() == PhaseKind::ChainSet {
                let position: BTreeMap<&[i64], (usize, usize)> = phase
                    .units()
                    .enumerate()
                    .flat_map(|(c, chain)| {
                        chain
                            .instances()
                            .enumerate()
                            .map(move |(k, (_, idx))| (idx, (c, k)))
                    })
                    .collect();
                for (src, dst) in rd.iter() {
                    let (cs, ks) = position[src];
                    let (cd, kd) = position[dst];
                    assert_eq!(
                        cs, cd,
                        "dependence {:?}->{:?} crosses PDM classes",
                        src, dst
                    );
                    assert!(
                        ks < kd,
                        "dependence {:?}->{:?} not in chain order",
                        src,
                        dst
                    );
                }
            } else {
                panic!("PDM schedule must be a single chain-set phase");
            }
        }
    }

    #[test]
    fn uniform_loop_pdm_matches_real_distance() {
        use rcp_workloads::uniform_chain;
        let analysis = DependenceAnalysis::loop_level(&uniform_chain());
        let (phi, rel) = analysis.bind_params(&[9]);
        let rd = DenseRelation::from_relation(&rel);
        let (pdm, schedule) =
            pdm_schedule(&analysis, &DenseSet::from_union(&phi), &rd, "pdm-uniform");
        assert_eq!(pdm.vectors, vec![vec![1]]);
        // a single chain of 9 iterations: PDM finds no parallelism here,
        // exactly like the real dependence structure.
        assert_eq!(schedule.n_items(), 9);
        assert_eq!(schedule.critical_path(), 9);
    }
}
