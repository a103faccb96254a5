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
//! The stage of a point is therefore its *level*, the number of edges on
//! the longest dependence path that ends in it, and a partition is one
//! level per point id (index into `Φ`'s sorted rows).  `Rd` points forward
//! in id order at every view, because its pieces are cut by strict
//! lexicographic order, so one forward pass over the edges sorted by
//! source computes the levels in `O(V + E)` without hashing a point.

use rcp_presburger::{DenseRelation, DenseSet};

/// The result of dataflow partitioning: fully parallel stages executed in
/// order with a barrier after each, held as the stage of every point.
#[derive(Clone, Debug, PartialEq)]
pub struct DataflowPartition {
    /// Per point id of `Φ`, the stage that executes it.
    pub levels: Vec<u32>,
}

impl DataflowPartition {
    /// Number of partitioning steps (stages).
    pub fn n_stages(&self) -> usize {
        self.levels.iter().max().map_or(0, |&m| m as usize + 1)
    }

    /// Total number of iterations across all stages.
    pub fn total_iterations(&self) -> usize {
        self.levels.len()
    }

    /// The number of points of every stage, in stage order.
    pub fn stage_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0; self.n_stages()];
        for &level in &self.levels {
            sizes[level as usize] += 1;
        }
        sizes
    }

    /// The largest stage size (determines the parallelism available).
    pub fn max_stage_size(&self) -> usize {
        self.stage_sizes().into_iter().max().unwrap_or(0)
    }

    /// Checks the structural invariants: one stage per point of `Φ`, and
    /// every dependence rises to a later stage.
    pub fn validate(&self, phi: &DenseSet, rd: &DenseRelation) -> Vec<String> {
        if self.levels.len() != phi.len() {
            return vec![format!(
                "stages cover {} of {} iterations",
                self.levels.len(),
                phi.len()
            )];
        }
        let mut problems = Vec::new();
        for (src, dst) in rd.edges_within(phi) {
            let (a, b) = (self.levels[src as usize], self.levels[dst as usize]);
            if a >= b {
                problems.push(format!(
                    "dependence {:?} (stage {a}) -> {:?} (stage {b}) not strictly forward",
                    phi.point(src as usize),
                    phi.point(dst as usize)
                ));
            }
        }
        problems
    }
}

/// Computes the dataflow partition of `phi` under the dependence relation
/// `rd` (restricted to `phi`): every point's longest-path level, in one
/// pass over the edges sorted by source.  Since every edge points forward
/// in id order, a source's level is final before its first edge is read.
pub fn dataflow_partition(phi: &DenseSet, rd: &DenseRelation) -> DataflowPartition {
    let mut levels = vec![0u32; phi.len()];
    for (src, dst) in rd.edges_within(phi) {
        debug_assert!(src < dst, "Rd points forward in id order");
        levels[dst as usize] = levels[dst as usize].max(levels[src as usize] + 1);
    }
    DataflowPartition { levels }
}

/// The naive repeated-peeling formulation of the paper (used to
/// cross-validate the forward pass in tests; `O(steps · E)`).
pub fn dataflow_partition_by_peeling(phi: &DenseSet, rd: &DenseRelation) -> DataflowPartition {
    let mut remaining = phi.clone();
    let mut levels = vec![0u32; phi.len()];
    let mut level = 0;
    while !remaining.is_empty() {
        let restricted = rd.restrict_within(&remaining);
        let p1 = remaining.subtract(&restricted.range());
        assert!(!p1.is_empty(), "no progress: dependence cycle");
        for p in p1.iter() {
            if let Some(id) = phi.index_of(p) {
                levels[id] = level;
            }
        }
        remaining = remaining.subtract(&p1);
        level += 1;
    }
    DataflowPartition { levels }
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
        assert_eq!(a.levels, vec![0, 1, 1, 2, 3, 0, 0]);
        assert!(a.validate(&phi, &rd).is_empty());
        // stage 0 holds 0, 5, 6 (no predecessors)
        assert_eq!(a.stage_sizes(), vec![3, 2, 1, 1]);
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
    fn validation_detects_bad_layerings() {
        let (phi, rd) = chain_relation(3);
        let good = dataflow_partition(&phi, &rd);
        assert!(good.validate(&phi, &rd).is_empty());
        // put everything in one stage: dependences stay inside the stage
        let bad = DataflowPartition { levels: vec![0; 3] };
        assert_eq!(bad.validate(&phi, &rd).len(), 2);
        // a dependence that points back a stage
        let backwards = DataflowPartition {
            levels: vec![0, 2, 1],
        };
        assert_eq!(
            backwards.validate(&phi, &rd),
            vec!["dependence [2] (stage 2) -> [3] (stage 1) not strictly forward".to_string()]
        );
        // drop an iteration: coverage violated
        let partial = DataflowPartition { levels: vec![0, 1] };
        assert_eq!(
            partial.validate(&phi, &rd),
            vec!["stages cover 2 of 3 iterations".to_string()]
        );
    }
}
