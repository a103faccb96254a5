//! Integer relations: unions of convex sets over pairs of iteration vectors.
//!
//! The exact dependence relation of the paper (eq. 4),
//! `Rd = {j → i | i·A + a = j·B + b, j ≺ i} ∪ {i → j | …, i ≺ j}`,
//! is a relation between iteration vectors.  A [`Relation`] stores it as a
//! [`UnionSet`] over the product space `[in-dims..., out-dims..., params...]`
//! and provides `dom`, `ran`, inverse, restriction and the lexicographic
//! order constructors used to build `Rd`.

use crate::affine::Affine;
use crate::constraint::Constraint;
use crate::convex::ConvexSet;
use crate::space::Space;
use crate::union::UnionSet;

/// A relation from `in_dim`-dimensional points to `out_dim`-dimensional
/// points, sharing symbolic parameters.
#[derive(Clone)]
pub struct Relation {
    in_dim: usize,
    out_dim: usize,
    set: UnionSet,
}

impl Relation {
    /// Wraps a union set over the product space as a relation.
    ///
    /// # Panics
    /// Panics unless `set.space().dim() == in_dim + out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, set: UnionSet) -> Self {
        assert_eq!(
            set.space().dim(),
            in_dim + out_dim,
            "relation arity mismatch"
        );
        Relation {
            in_dim,
            out_dim,
            set,
        }
    }

    /// The empty relation over the given pair space.
    pub fn empty(in_dim: usize, out_dim: usize, pair_space: Space) -> Self {
        Relation::new(in_dim, out_dim, UnionSet::empty(pair_space))
    }

    /// Number of input dimensions.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Number of output dimensions.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The underlying union set over `[in..., out..., params...]`.
    pub fn as_set(&self) -> &UnionSet {
        &self.set
    }

    /// True when the relation was proved empty.
    pub fn is_certainly_empty(&self) -> bool {
        self.set.is_certainly_empty()
    }

    /// True when any piece may over-approximate.
    pub fn is_approximate(&self) -> bool {
        self.set.is_approximate()
    }

    /// Membership test for a pair with parameter values.
    pub fn contains_pair(&self, input: &[i64], output: &[i64], params: &[i64]) -> bool {
        assert_eq!(input.len(), self.in_dim);
        assert_eq!(output.len(), self.out_dim);
        let mut dims = input.to_vec();
        dims.extend_from_slice(output);
        self.set.contains(&dims, params)
    }

    /// `dom R = {x | (x → y) ∈ R}` as a union set over the input space.
    pub fn domain(&self) -> UnionSet {
        self.set.project_out(self.in_dim, self.out_dim)
    }

    /// `ran R = {y | (x → y) ∈ R}` as a union set over the output space.
    pub fn range(&self) -> UnionSet {
        self.set.project_out(0, self.in_dim)
    }

    /// The inverse relation (swaps input and output tuples).
    pub fn inverse(&self) -> Relation {
        let pieces: Vec<ConvexSet> = self
            .set
            .pieces()
            .iter()
            .map(|p| swap_tuples(p, self.in_dim, self.out_dim))
            .collect();
        let space = pieces
            .first()
            .map(|p| p.space().clone())
            .unwrap_or_else(|| self.set.space().clone());
        Relation::new(
            self.out_dim,
            self.in_dim,
            UnionSet::from_pieces(space, pieces),
        )
    }

    /// Union of two relations with the same arity.
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!((self.in_dim, self.out_dim), (other.in_dim, other.out_dim));
        Relation::new(self.in_dim, self.out_dim, self.set.union(&other.set))
    }

    /// Intersection of two relations with the same arity.
    pub fn intersect(&self, other: &Relation) -> Relation {
        assert_eq!((self.in_dim, self.out_dim), (other.in_dim, other.out_dim));
        Relation::new(self.in_dim, self.out_dim, self.set.intersect(&other.set))
    }

    /// Difference of two relations with the same arity.
    pub fn subtract(&self, other: &Relation) -> Relation {
        assert_eq!((self.in_dim, self.out_dim), (other.in_dim, other.out_dim));
        Relation::new(self.in_dim, self.out_dim, self.set.subtract(&other.set))
    }

    /// Restricts the relation to pairs whose *input* lies in `dom_set`
    /// (a union set over the input space).
    pub fn restrict_domain(&self, dom_set: &UnionSet) -> Relation {
        assert_eq!(
            dom_set.space().dim(),
            self.in_dim,
            "domain restriction arity mismatch"
        );
        let lifted = dom_set.insert_dims(self.in_dim, self.out_dim);
        Relation::new(self.in_dim, self.out_dim, self.set.intersect(&lifted))
    }

    /// Restricts the relation to pairs whose *output* lies in `ran_set`.
    pub fn restrict_range(&self, ran_set: &UnionSet) -> Relation {
        assert_eq!(
            ran_set.space().dim(),
            self.out_dim,
            "range restriction arity mismatch"
        );
        let lifted = ran_set.insert_dims(0, self.in_dim);
        Relation::new(self.in_dim, self.out_dim, self.set.intersect(&lifted))
    }

    /// Binds the symbolic parameters of the relation.
    pub fn bind_params(&self, values: &[i64]) -> Relation {
        Relation::new(self.in_dim, self.out_dim, self.set.bind_params(values))
    }

    /// Builds the constraint pieces of the strict lexicographic order
    /// `input ≺ output` over a pair space with `dim` input and `dim` output
    /// dimensions (`total` counts all variables of the pair space including
    /// parameters): one convex piece per position `k` with
    /// `in₁ = out₁, …, in_{k-1} = out_{k-1}, in_k ≤ out_k − 1`.
    pub fn lex_lt_pieces(total: usize, dim: usize) -> Vec<Vec<Constraint>> {
        let mut pieces = Vec::with_capacity(dim);
        for k in 0..dim {
            let mut cs = Vec::with_capacity(k + 1);
            for e in 0..k {
                // in_e - out_e = 0
                let mut expr = Affine::zero(total);
                *expr.coeff_mut(e) = 1;
                *expr.coeff_mut(dim + e) = -1;
                cs.push(Constraint::eq(expr));
            }
            // out_k - in_k - 1 >= 0
            let mut expr = Affine::zero(total);
            *expr.coeff_mut(dim + k) = 1;
            *expr.coeff_mut(k) = -1;
            cs.push(Constraint::geq(expr.offset(-1)));
            pieces.push(cs);
        }
        pieces
    }

    /// The lexicographic-order relation `{(i, j) | i ≺ j}` over `dim`-dimensional
    /// points in a given pair space.
    pub fn lex_lt(pair_space: Space, dim: usize) -> Relation {
        assert_eq!(
            pair_space.dim(),
            2 * dim,
            "pair space must have 2*dim dimensions"
        );
        let total = pair_space.total();
        let pieces: Vec<ConvexSet> = Relation::lex_lt_pieces(total, dim)
            .into_iter()
            .map(|cs| ConvexSet::from_constraints(pair_space.clone(), cs))
            .collect();
        Relation::new(dim, dim, UnionSet::from_pieces(pair_space, pieces))
    }

    /// Renders the relation as readable text.
    pub fn display(&self) -> String {
        self.set.display()
    }
}

/// Swaps the input and output tuples of a convex piece of a relation.
fn swap_tuples(piece: &ConvexSet, in_dim: usize, out_dim: usize) -> ConvexSet {
    let space = piece.space();
    let total = space.total();
    let dim = in_dim + out_dim;
    // new variable v corresponds to old variable perm[v]
    let mut perm: Vec<usize> = Vec::with_capacity(total);
    for v in 0..out_dim {
        perm.push(in_dim + v);
    }
    for v in 0..in_dim {
        perm.push(v);
    }
    for p in dim..total {
        perm.push(p);
    }
    // Build the swapped space names.
    let out_names: Vec<&str> = (0..out_dim).map(|v| space.dim_name(in_dim + v)).collect();
    let in_names: Vec<&str> = (0..in_dim).map(|v| space.dim_name(v)).collect();
    let mut names = out_names;
    names.extend(in_names);
    let params: Vec<&str> = space.param_names().iter().map(|s| s.as_str()).collect();
    let new_space = Space::with_names(&names, &params);

    let constraints = piece
        .constraints()
        .iter()
        .map(|c| {
            let mut coeffs = vec![0i64; total];
            for (new_v, &old_v) in perm.iter().enumerate() {
                coeffs[new_v] = c.expr.coeff(old_v);
            }
            Constraint {
                expr: Affine::new(coeffs, c.expr.constant_term()),
                kind: c.kind,
            }
        })
        .collect();
    let mut out = ConvexSet::from_constraints(new_space, constraints);
    out.set_approximate(piece.is_approximate());
    out
}

impl std::fmt::Debug for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Relation({} -> {}): {}",
            self.in_dim,
            self.out_dim,
            self.display()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseRelation;

    /// The figure-2 relation {i -> j | 2i + j = 21, 1 <= i,j <= 20} without
    /// the lexicographic split.
    fn figure2_relation() -> Relation {
        let pair = Space::with_names(&["i", "j"], &[]);
        let cs = vec![
            Constraint::eq(Affine::new(vec![2, 1], -21)),
            Constraint::geq(Affine::new(vec![1, 0], -1)),
            Constraint::geq(Affine::new(vec![-1, 0], 20)),
            Constraint::geq(Affine::new(vec![0, 1], -1)),
            Constraint::geq(Affine::new(vec![0, -1], 20)),
        ];
        Relation::new(
            1,
            1,
            UnionSet::from_convex(ConvexSet::from_constraints(pair, cs)),
        )
    }

    #[test]
    fn membership_and_enumeration() {
        let r = figure2_relation();
        assert!(r.contains_pair(&[6], &[9], &[]));
        assert!(r.contains_pair(&[1], &[19], &[]));
        assert!(!r.contains_pair(&[6], &[10], &[]));
        let pairs = DenseRelation::from_relation(&r);
        // i in [1, 10] gives j = 21 - 2i in [1, 19]
        assert_eq!(pairs.len(), 10);
        assert!(pairs.iter().all(|(i, j)| 2 * i[0] + j[0] == 21));
    }

    #[test]
    fn domain_and_range() {
        let r = figure2_relation();
        let dom: Vec<i64> = r.domain().enumerate().iter().map(|p| p[0]).collect();
        assert_eq!(dom, (1..=10).collect::<Vec<_>>());
        let ran: Vec<i64> = r.range().enumerate().iter().map(|p| p[0]).collect();
        let expected: Vec<i64> = (1..=19).filter(|j| j % 2 == 1).collect();
        assert_eq!(ran, expected);
    }

    #[test]
    fn inverse_swaps() {
        let r = figure2_relation();
        let inv = r.inverse();
        assert!(inv.contains_pair(&[9], &[6], &[]));
        assert!(!inv.contains_pair(&[6], &[9], &[]));
        assert_eq!(inv.domain().enumerate(), r.range().enumerate());
        assert_eq!(inv.range().enumerate(), r.domain().enumerate());
    }

    #[test]
    fn restriction() {
        let r = figure2_relation();
        // Restrict the domain to i <= 3.
        let space = Space::with_names(&["i"], &[]);
        let small = UnionSet::from_convex(ConvexSet::universe(space).with_all(vec![
            Constraint::geq(Affine::new(vec![1], -1)),
            Constraint::geq(Affine::new(vec![-1], 3)),
        ]));
        let restricted = r.restrict_domain(&small);
        let pairs = DenseRelation::from_relation(&restricted);
        assert_eq!(pairs.len(), 3);
        assert!(pairs.iter().all(|(i, _)| i[0] <= 3));
        // Range restriction
        let restricted = r.restrict_range(&small);
        let pairs = DenseRelation::from_relation(&restricted);
        assert!(pairs.iter().all(|(_, j)| j[0] <= 3));
        assert_eq!(pairs.len(), 2); // j in {1, 3}
    }

    #[test]
    fn set_algebra_on_relations() {
        let r = figure2_relation();
        let all = r.union(&r);
        let count = |r: &Relation| DenseRelation::from_relation(r).len();
        assert_eq!(count(&all), count(&r));
        assert!(r.subtract(&r).is_certainly_empty() || count(&r.subtract(&r)) == 0);
        assert_eq!(count(&r.intersect(&r)), count(&r));
    }

    #[test]
    fn lexicographic_relation() {
        // 2-dimensional lexicographic order on a 3x3 box.
        let pair = Space::with_names(&["i1", "i2", "j1", "j2"], &[]);
        let lex = Relation::lex_lt(pair.clone(), 2);
        // Intersect with a box to enumerate.
        let box_cs: Vec<Constraint> = (0..4)
            .flat_map(|v| {
                vec![
                    Constraint::geq(Affine::var(4, v).offset(-1)),
                    Constraint::geq(Affine::var(4, v).neg().offset(3)),
                ]
            })
            .collect();
        let boxed = lex.intersect(&Relation::new(
            2,
            2,
            UnionSet::from_convex(ConvexSet::from_constraints(pair, box_cs)),
        ));
        let pairs = DenseRelation::from_relation(&boxed);
        // all 9*9 ordered pairs with i ≺ j: (81 - 9) / 2 = 36
        assert_eq!(pairs.len(), 36);
        assert!(pairs
            .iter()
            .all(|(i, j)| rcp_intlin::lex_cmp(i, j) == std::cmp::Ordering::Less));
    }

    #[test]
    fn lex_pieces_structure() {
        let pieces = Relation::lex_lt_pieces(4, 2);
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0].len(), 1);
        assert_eq!(pieces[1].len(), 2);
    }
}
