//! Successive dataflow partitioning (Algorithm 1, else-branch).
//!
//! When the loop has multiple pairs of coupled subscripts but the loop
//! bounds are known at compile time, the paper repeatedly peels the set of
//! iterations without remaining predecessors:
//!
//! ```text
//! do while (Φ is not empty)
//!     P1 = Φ \ ran Rd ;  Φ = Φ \ P1 ;  Rd = Rd restricted to Φ
//!     emit DOALL(P1)
//! end do
//! ```
//!
//! Every peeled set is fully parallel, barriers separate consecutive sets,
//! and the number of peels is the length of the longest dependence path
//! plus one — 238 steps for the Cholesky kernel at the paper's parameters.
//!
//! The implementation below computes the same layering in one topological
//! pass (Kahn levels) over the dependence edges between point ids (indices
//! into `Φ`'s sorted rows), which is equivalent to the repeated peeling but
//! runs in `O(V + E)` and never hashes a point.

use rcp_presburger::{DenseRelation, DenseSet};

/// The result of dataflow partitioning: a sequence of fully parallel
/// stages executed in order with a barrier after each.
#[derive(Clone, Debug, PartialEq)]
pub struct DataflowPartition {
    /// The stages in execution order; each stage is a fully parallel set.
    pub stages: Vec<DenseSet>,
}

impl DataflowPartition {
    /// The partition whose stage `k` holds the points of `phi` at level
    /// `k`, where `levels[id]` is the level of `phi`'s point `id` — the
    /// stages of [`dataflow_partition`] when the levels are the
    /// longest-path levels of the dependence relation, as
    /// `rcp_depend::dataflow_levels` computes them without the relation.
    pub fn from_levels(phi: &DenseSet, levels: &[u32]) -> DataflowPartition {
        debug_assert_eq!(levels.len(), phi.len(), "one level per point of phi");
        let n_stages = levels.iter().max().map_or(0, |&m| m as usize + 1);
        let mut ids: Vec<Vec<usize>> = vec![Vec::new(); n_stages];
        for (id, &level) in levels.iter().enumerate() {
            ids[level as usize].push(id);
        }
        DataflowPartition {
            stages: ids.into_iter().map(|ids| phi.subset(ids)).collect(),
        }
    }

    /// Number of partitioning steps (stages).
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total number of iterations across all stages.
    pub fn total_iterations(&self) -> usize {
        self.stages.iter().map(|s| s.len()).sum()
    }

    /// The largest stage size (determines the parallelism available).
    pub fn max_stage_size(&self) -> usize {
        self.stages.iter().map(|s| s.len()).max().unwrap_or(0)
    }

    /// Checks the structural invariants: stages are disjoint, cover `Φ`, no
    /// dependence stays within a stage, and no dependence points backwards.
    pub fn validate(&self, phi: &DenseSet, rd: &DenseRelation) -> Vec<String> {
        let mut problems = Vec::new();
        let staged = DenseSet::from_points(
            phi.dim(),
            self.stages
                .iter()
                .flat_map(|s| s.iter())
                .filter(|p| p.len() == phi.dim()),
        );
        // The stage of every staged point (the last stage listing it).
        let mut level = vec![0usize; staged.len()];
        let mut seen = vec![false; staged.len()];
        for (k, stage) in self.stages.iter().enumerate() {
            for p in stage.iter() {
                let Some(id) = staged.index_of(p) else {
                    continue;
                };
                if std::mem::replace(&mut seen[id], true) {
                    problems.push(format!("iteration {:?} appears in two stages", p));
                }
                level[id] = k;
            }
        }
        if staged.len() != phi.len() {
            problems.push(format!(
                "stages cover {} of {} iterations",
                staged.len(),
                phi.len()
            ));
        }
        for (src, dst) in rd.edges_within(&staged) {
            let (a, b) = (level[src as usize], level[dst as usize]);
            if a >= b {
                problems.push(format!(
                    "dependence {:?} (stage {a}) -> {:?} (stage {b}) not strictly forward",
                    staged.point(src as usize),
                    staged.point(dst as usize)
                ));
            }
        }
        problems
    }
}

/// Computes the dataflow partition of `phi` under the dependence relation
/// `rd` (restricted to `phi`).
///
/// Kahn's algorithm over point ids: round `r` releases exactly the points
/// whose longest chain of predecessors inside `phi` has `r` edges, so each
/// round is one stage.
///
/// # Panics
/// Panics when the relation restricted to `phi` has a cycle (forward
/// dependence relations are acyclic by construction).
pub fn dataflow_partition(phi: &DenseSet, rd: &DenseRelation) -> DataflowPartition {
    let n = phi.len();
    // Edges sorted by source: a CSR successor list once offsets are known.
    let edges = rd.edges_within(phi);
    let mut offsets = vec![0usize; n + 1];
    let mut indegree = vec![0u32; n];
    for &(src, dst) in &edges {
        offsets[src as usize + 1] += 1;
        indegree[dst as usize] += 1;
    }
    for k in 0..n {
        offsets[k + 1] += offsets[k];
    }
    let mut frontier: Vec<usize> = (0..n).filter(|&p| indegree[p] == 0).collect();
    let mut stages = Vec::new();
    let mut processed = 0usize;
    while !frontier.is_empty() {
        frontier.sort_unstable();
        stages.push(phi.subset(frontier.iter().copied()));
        let mut next = Vec::new();
        for &p in &frontier {
            processed += 1;
            for &(_, succ) in &edges[offsets[p]..offsets[p + 1]] {
                let e = &mut indegree[succ as usize];
                *e -= 1;
                if *e == 0 {
                    next.push(succ as usize);
                }
            }
        }
        frontier = next;
    }
    assert_eq!(
        processed, n,
        "dependence relation contains a cycle — forward relations are acyclic by construction"
    );
    DataflowPartition { stages }
}

/// The naive repeated-peeling formulation of the paper (used to
/// cross-validate the topological implementation in tests; `O(steps · E)`).
pub fn dataflow_partition_by_peeling(phi: &DenseSet, rd: &DenseRelation) -> DataflowPartition {
    let mut remaining = phi.clone();
    let mut stages = Vec::new();
    while !remaining.is_empty() {
        let restricted = rd.restrict_within(&remaining);
        let p1 = remaining.subtract(&restricted.range());
        assert!(!p1.is_empty(), "no progress: dependence cycle");
        stages.push(p1.clone());
        remaining = remaining.subtract(&p1);
    }
    DataflowPartition { stages }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_relation(n: i64) -> (DenseSet, DenseRelation) {
        let phi = DenseSet::from_points(1, (1..=n).map(|i| vec![i]));
        let rd = DenseRelation::from_pairs(1, 1, (1..n).map(|i| (vec![i], vec![i + 1])));
        (phi, rd)
    }

    #[test]
    fn chain_gives_one_stage_per_iteration() {
        let (phi, rd) = chain_relation(6);
        let part = dataflow_partition(&phi, &rd);
        assert_eq!(part.n_stages(), 6);
        assert_eq!(part.total_iterations(), 6);
        assert_eq!(part.max_stage_size(), 1);
        assert!(part.validate(&phi, &rd).is_empty());
    }

    #[test]
    fn independent_iterations_are_one_stage() {
        let phi = DenseSet::from_points(1, (1..=10).map(|i| vec![i]));
        let rd = DenseRelation::new(1, 1);
        let part = dataflow_partition(&phi, &rd);
        assert_eq!(part.n_stages(), 1);
        assert_eq!(part.max_stage_size(), 10);
        assert!(part.validate(&phi, &rd).is_empty());
    }

    #[test]
    fn peeling_and_topological_agree() {
        // A small diamond-shaped dependence graph plus isolated points.
        let phi = DenseSet::from_points(1, (0..=6).map(|i| vec![i]));
        let rd = DenseRelation::from_pairs(
            1,
            1,
            vec![
                (vec![0], vec![1]),
                (vec![0], vec![2]),
                (vec![1], vec![3]),
                (vec![2], vec![3]),
                (vec![3], vec![4]),
            ],
        );
        let a = dataflow_partition(&phi, &rd);
        let b = dataflow_partition_by_peeling(&phi, &rd);
        assert_eq!(a, b);
        assert_eq!(a.n_stages(), 4);
        assert!(a.validate(&phi, &rd).is_empty());
        // stage 0 holds 0, 5, 6 (no predecessors)
        assert_eq!(a.stages[0].len(), 3);
    }

    #[test]
    fn dependences_outside_phi_are_ignored() {
        let phi = DenseSet::from_points(1, (1..=3).map(|i| vec![i]));
        let rd = DenseRelation::from_pairs(
            1,
            1,
            vec![(vec![1], vec![2]), (vec![2], vec![9]), (vec![8], vec![3])],
        );
        let part = dataflow_partition(&phi, &rd);
        assert_eq!(part.n_stages(), 2);
        assert!(part.validate(&phi, &rd).is_empty());
    }

    #[test]
    fn stages_from_levels_match_kahn_rounds() {
        // The diamond of `peeling_and_topological_agree` with its
        // longest-path levels.
        let phi = DenseSet::from_points(1, (0..=6).map(|i| vec![i]));
        let rd = DenseRelation::from_pairs(
            1,
            1,
            vec![
                (vec![0], vec![1]),
                (vec![0], vec![2]),
                (vec![1], vec![3]),
                (vec![2], vec![3]),
                (vec![3], vec![4]),
            ],
        );
        let from_levels = DataflowPartition::from_levels(&phi, &[0, 1, 1, 2, 3, 0, 0]);
        assert_eq!(from_levels, dataflow_partition(&phi, &rd));
        assert!(from_levels.validate(&phi, &rd).is_empty());
        let empty = DenseSet::new(1);
        assert_eq!(DataflowPartition::from_levels(&empty, &[]).n_stages(), 0);
    }

    #[test]
    fn validation_detects_bad_layerings() {
        let (phi, rd) = chain_relation(3);
        let good = dataflow_partition(&phi, &rd);
        assert!(good.validate(&phi, &rd).is_empty());
        // put everything in one stage: dependences stay inside the stage
        let bad = DataflowPartition {
            stages: vec![phi.clone()],
        };
        assert!(!bad.validate(&phi, &rd).is_empty());
        // drop an iteration: coverage violated
        let partial = DataflowPartition {
            stages: vec![
                DenseSet::from_points(1, vec![vec![1]]),
                DenseSet::from_points(1, vec![vec![2]]),
            ],
        };
        assert!(!partial.validate(&phi, &rd).is_empty());
    }
}
