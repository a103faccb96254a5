//! Finite unions of convex integer sets.
//!
//! The partition sets of the paper (`P1`, `P2`, `P3`, `W`) are unions of
//! convex sets: "each of them can be specified by a union of convex sets
//! which is the logical conjunctive normal form where each logical operand
//! is a linear inequality" (§3.2).  This module provides the `∩`, `∪`, `\`
//! operations on such unions, plus enumeration and the disjoint splitting
//! required before code generation.

use crate::constraint::Constraint;
use crate::convex::ConvexSet;
use crate::dense::DenseSet;
use crate::space::Space;

/// A finite union of [`ConvexSet`] pieces over a common [`Space`].
///
/// Pieces may overlap; [`UnionSet::make_disjoint`] produces an equivalent
/// union with pairwise-disjoint pieces (needed for DOALL code generation,
/// where every iteration must be emitted exactly once).
#[derive(Clone)]
pub struct UnionSet {
    space: Space,
    pieces: Vec<ConvexSet>,
}

impl UnionSet {
    /// The empty union.
    pub fn empty(space: Space) -> Self {
        UnionSet {
            space,
            pieces: Vec::new(),
        }
    }

    /// The whole space as a single piece.
    pub fn universe(space: Space) -> Self {
        UnionSet {
            space: space.clone(),
            pieces: vec![ConvexSet::universe(space)],
        }
    }

    /// A union with a single convex piece.
    pub fn from_convex(set: ConvexSet) -> Self {
        let space = set.space().clone();
        let mut u = UnionSet {
            space,
            pieces: vec![set],
        };
        u.coalesce();
        u
    }

    /// A union from several convex pieces over the same space.
    pub fn from_pieces(space: Space, pieces: Vec<ConvexSet>) -> Self {
        for p in &pieces {
            assert_eq!(p.space().total(), space.total(), "piece space mismatch");
        }
        let mut u = UnionSet { space, pieces };
        u.coalesce();
        u
    }

    /// The space of the union.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The convex pieces.
    pub fn pieces(&self) -> &[ConvexSet] {
        &self.pieces
    }

    /// Number of convex pieces.
    pub fn n_pieces(&self) -> usize {
        self.pieces.len()
    }

    /// True when any piece is flagged as a possible over-approximation.
    pub fn is_approximate(&self) -> bool {
        self.pieces.iter().any(|p| p.is_approximate())
    }

    /// True when the union was proved empty.
    pub fn is_certainly_empty(&self) -> bool {
        self.pieces.iter().all(|p| p.is_certainly_empty())
    }

    /// Membership test with parameter values.
    pub fn contains(&self, dims: &[i64], params: &[i64]) -> bool {
        self.pieces.iter().any(|p| p.contains(dims, params))
    }

    /// Membership test for a full `[dims..., params...]` assignment.
    pub fn contains_full(&self, point: &[i64]) -> bool {
        self.pieces.iter().any(|p| p.contains_full(point))
    }

    /// Union of two unions over the same space.
    pub fn union(&self, other: &UnionSet) -> UnionSet {
        assert_eq!(self.space.total(), other.space.total(), "space mismatch");
        let mut pieces = self.pieces.clone();
        pieces.extend(other.pieces.iter().cloned());
        let mut u = UnionSet {
            space: self.space.clone(),
            pieces,
        };
        u.coalesce();
        u
    }

    /// Intersection of two unions (pairwise piece intersection).
    pub fn intersect(&self, other: &UnionSet) -> UnionSet {
        assert_eq!(self.space.total(), other.space.total(), "space mismatch");
        let mut pieces = Vec::new();
        for a in &self.pieces {
            for b in &other.pieces {
                let c = a.intersect(b);
                if !c.is_certainly_empty() {
                    pieces.push(c);
                }
            }
        }
        UnionSet {
            space: self.space.clone(),
            pieces,
        }
    }

    /// Intersection with a single convex set.
    pub fn intersect_convex(&self, other: &ConvexSet) -> UnionSet {
        self.intersect(&UnionSet::from_convex(other.clone()))
    }

    /// Set difference `self \ other`.
    pub fn subtract(&self, other: &UnionSet) -> UnionSet {
        assert_eq!(self.space.total(), other.space.total(), "space mismatch");
        let mut current = self.pieces.clone();
        for b in &other.pieces {
            let mut next = Vec::new();
            for piece in &current {
                next.extend(piece.subtract(b));
            }
            current = next;
            if current.is_empty() {
                break;
            }
        }
        let mut u = UnionSet {
            space: self.space.clone(),
            pieces: current,
        };
        u.coalesce();
        u
    }

    /// Adds a constraint to every piece.
    pub fn with_constraint(&self, c: Constraint) -> UnionSet {
        let pieces = self.pieces.iter().map(|p| p.with(c.clone())).collect();
        let mut u = UnionSet {
            space: self.space.clone(),
            pieces,
        };
        u.coalesce();
        u
    }

    /// Projects out `count` set dimensions starting at `from` from every
    /// piece.
    pub fn project_out(&self, from: usize, count: usize) -> UnionSet {
        let pieces: Vec<ConvexSet> = self
            .pieces
            .iter()
            .map(|p| p.project_out(from, count))
            .collect();
        let space = pieces
            .first()
            .map(|p| p.space().clone())
            .unwrap_or_else(|| {
                // Build the reduced space from scratch for an empty union.
                let names: Vec<&str> = self
                    .space
                    .dim_names()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i < from || *i >= from + count)
                    .map(|(_, n)| n.as_str())
                    .collect();
                let params: Vec<&str> = self
                    .space
                    .param_names()
                    .iter()
                    .map(|s| s.as_str())
                    .collect();
                Space::with_names(&names, &params)
            });
        let mut u = UnionSet { space, pieces };
        u.coalesce();
        u
    }

    /// Binds the parameters of every piece to concrete values.
    pub fn bind_params(&self, values: &[i64]) -> UnionSet {
        let pieces: Vec<ConvexSet> = self.pieces.iter().map(|p| p.bind_params(values)).collect();
        let space = pieces
            .first()
            .map(|p| p.space().clone())
            .unwrap_or_else(|| {
                let names: Vec<&str> = self.space.dim_names().iter().map(|s| s.as_str()).collect();
                Space::with_names(&names, &[])
            });
        let mut u = UnionSet { space, pieces };
        u.coalesce();
        u
    }

    /// Inserts fresh unconstrained dimensions into every piece.
    pub fn insert_dims(&self, at: usize, count: usize) -> UnionSet {
        let pieces: Vec<ConvexSet> = self
            .pieces
            .iter()
            .map(|p| p.insert_dims(at, count))
            .collect();
        let space = pieces
            .first()
            .map(|p| p.space().clone())
            .unwrap_or_else(|| {
                let mut names: Vec<String> = self.space.dim_names().to_vec();
                for k in 0..count {
                    names.insert(at + k, format!("t{}", at + k));
                }
                let names_ref: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
                let params: Vec<&str> = self
                    .space
                    .param_names()
                    .iter()
                    .map(|s| s.as_str())
                    .collect();
                Space::with_names(&names_ref, &params)
            });
        UnionSet { space, pieces }
    }

    /// Rewrites the union so that its pieces are pairwise disjoint
    /// (`Dₖ = Cₖ \ (C₁ ∪ … ∪ Cₖ₋₁)`), as required before DOALL loop
    /// generation so no iteration is executed twice.
    pub fn make_disjoint(&self) -> UnionSet {
        let mut disjoint: Vec<ConvexSet> = Vec::new();
        let mut seen = UnionSet::empty(self.space.clone());
        for piece in &self.pieces {
            if piece.is_certainly_empty() {
                continue;
            }
            let fresh = UnionSet::from_convex(piece.clone()).subtract(&seen);
            for p in fresh.pieces {
                if !p.is_certainly_empty() {
                    disjoint.push(p.clone());
                    seen.pieces.push(p);
                }
            }
        }
        UnionSet {
            space: self.space.clone(),
            pieces: disjoint,
        }
    }

    /// Enumerates all integer points (parameters must be bound), removing
    /// duplicates coming from overlapping pieces.  Points are returned in
    /// lexicographic order: each piece's scan is already sorted, so the
    /// pieces are merged ([`DenseSet::union_all`]), dropping duplicates on
    /// the way.
    pub fn enumerate(&self) -> DenseSet {
        let pieces = self.pieces.iter().map(ConvexSet::enumerate).collect();
        DenseSet::union_all(pieces).unwrap_or_else(|| DenseSet::new(self.space.dim()))
    }

    /// Number of distinct integer points (parameters must be bound).
    pub fn count(&self) -> usize {
        self.enumerate().len()
    }

    /// Drops pieces that are certainly empty.
    fn coalesce(&mut self) {
        self.pieces.retain(|p| !p.is_certainly_empty());
    }

    /// Renders the union as readable text.
    pub fn display(&self) -> String {
        if self.pieces.is_empty() {
            return "{ } (empty union)".to_string();
        }
        self.pieces
            .iter()
            .map(|p| p.display())
            .collect::<Vec<_>>()
            .join("  ∪  ")
    }
}

impl std::fmt::Debug for UnionSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::Affine;

    fn interval(space: &Space, var: usize, lo: i64, hi: i64) -> ConvexSet {
        ConvexSet::universe(space.clone()).with_all(vec![
            Constraint::geq(Affine::var(space.total(), var).offset(-lo)),
            Constraint::geq(Affine::var(space.total(), var).neg().offset(hi)),
        ])
    }

    fn line_space() -> Space {
        Space::with_names(&["x"], &[])
    }

    #[test]
    fn union_and_count() {
        let s = line_space();
        let a = interval(&s, 0, 1, 5);
        let b = interval(&s, 0, 4, 8);
        let u = UnionSet::from_convex(a).union(&UnionSet::from_convex(b));
        assert_eq!(u.count(), 8); // 1..8, overlap deduplicated
        assert!(u.contains(&[4], &[]));
        assert!(!u.contains(&[9], &[]));
    }

    #[test]
    fn intersect_unions() {
        let s = line_space();
        let a = UnionSet::from_pieces(
            s.clone(),
            vec![interval(&s, 0, 1, 3), interval(&s, 0, 10, 12)],
        );
        let b = UnionSet::from_convex(interval(&s, 0, 2, 11));
        let i = a.intersect(&b);
        let pts: Vec<i64> = i.enumerate().iter().map(|p| p[0]).collect();
        assert_eq!(pts, vec![2, 3, 10, 11]);
    }

    #[test]
    fn subtract_unions() {
        let s = line_space();
        let a = UnionSet::from_convex(interval(&s, 0, 1, 10));
        let b = UnionSet::from_pieces(
            s.clone(),
            vec![interval(&s, 0, 3, 4), interval(&s, 0, 7, 8)],
        );
        let d = a.subtract(&b);
        let pts: Vec<i64> = d.enumerate().iter().map(|p| p[0]).collect();
        assert_eq!(pts, vec![1, 2, 5, 6, 9, 10]);
    }

    #[test]
    fn subtract_then_union_partitions() {
        // (A \ B) ∪ (A ∩ B) == A  measured point-wise
        let s = line_space();
        let a = UnionSet::from_convex(interval(&s, 0, 1, 20));
        let b = UnionSet::from_convex(interval(&s, 0, 5, 30));
        let rebuilt = a.subtract(&b).union(&a.intersect(&b));
        assert_eq!(rebuilt.enumerate(), a.enumerate());
    }

    #[test]
    fn make_disjoint_preserves_points() {
        let s = line_space();
        let u = UnionSet::from_pieces(
            s.clone(),
            vec![
                interval(&s, 0, 1, 6),
                interval(&s, 0, 4, 9),
                interval(&s, 0, 8, 12),
            ],
        );
        let d = u.make_disjoint();
        assert_eq!(d.enumerate(), u.enumerate());
        // disjoint: sum of piece cardinalities equals distinct point count
        let total: usize = d.pieces().iter().map(|p| p.enumerate().len()).sum();
        assert_eq!(total, u.count());
    }

    #[test]
    fn empty_behaviour() {
        let s = line_space();
        let e = UnionSet::empty(s.clone());
        assert!(e.is_certainly_empty());
        assert_eq!(e.count(), 0);
        let a = UnionSet::from_convex(interval(&s, 0, 1, 3));
        assert_eq!(a.subtract(&a).count(), 0);
        assert_eq!(a.union(&e).count(), 3);
        assert_eq!(a.intersect(&e).count(), 0);
    }

    #[test]
    fn two_dimensional_subtract() {
        let space = Space::with_names(&["i", "j"], &[]);
        let square = ConvexSet::universe(space.clone()).with_all(vec![
            Constraint::geq(Affine::new(vec![1, 0], -1)),
            Constraint::geq(Affine::new(vec![-1, 0], 4)),
            Constraint::geq(Affine::new(vec![0, 1], -1)),
            Constraint::geq(Affine::new(vec![0, -1], 4)),
        ]);
        let diag =
            ConvexSet::universe(space.clone()).with(Constraint::eq(Affine::new(vec![1, -1], 0)));
        let u = UnionSet::from_convex(square.clone()).subtract(&UnionSet::from_convex(diag));
        assert_eq!(u.count(), 16 - 4);
        assert!(!u.contains(&[2, 2], &[]));
        assert!(u.contains(&[2, 3], &[]));
    }

    #[test]
    fn projection_of_union() {
        let space = Space::with_names(&["i", "j"], &[]);
        let square = ConvexSet::universe(space.clone()).with_all(vec![
            Constraint::geq(Affine::new(vec![1, 0], -1)),
            Constraint::geq(Affine::new(vec![-1, 0], 3)),
            Constraint::geq(Affine::new(vec![0, 1], -5)),
            Constraint::geq(Affine::new(vec![0, -1], 7)),
        ]);
        let u = UnionSet::from_convex(square);
        let proj = u.project_out(1, 1); // keep i
        let pts: Vec<i64> = proj.enumerate().iter().map(|p| p[0]).collect();
        assert_eq!(pts, vec![1, 2, 3]);
    }

    #[test]
    fn bind_params_in_union() {
        let space = Space::with_names(&["x"], &["N"]);
        let piece = ConvexSet::universe(space.clone()).with_all(vec![
            Constraint::geq(Affine::new(vec![1, 0], -1)),
            Constraint::geq(Affine::new(vec![-1, 1], 0)),
        ]);
        let u = UnionSet::from_convex(piece);
        assert_eq!(u.bind_params(&[6]).count(), 6);
        assert_eq!(u.bind_params(&[0]).count(), 0);
    }
}
