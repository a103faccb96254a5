//! Convex integer sets: conjunctions of affine constraints.

use crate::cache::rationally_feasible_cached;
use crate::constraint::{Constraint, ConstraintKind, Folded};
use crate::dense::{DenseSet, Rows};
use crate::fm::eliminate_dim;
use crate::space::Space;

/// A convex integer set: the points of a [`Space`] satisfying a conjunction
/// of equalities, inequalities and congruences.
///
/// A `ConvexSet` may additionally be flagged [`approximate`] when it was
/// produced by a projection whose integer exactness could not be
/// guaranteed (see [`crate::fm`]); all sets built directly from constraints
/// are exact.
///
/// [`approximate`]: ConvexSet::is_approximate
#[derive(Clone, PartialEq, Eq)]
pub struct ConvexSet {
    space: Space,
    constraints: Vec<Constraint>,
    known_empty: bool,
    approximate: bool,
}

impl ConvexSet {
    /// The universe set of a space (no constraints).
    pub fn universe(space: Space) -> Self {
        ConvexSet {
            space,
            constraints: Vec::new(),
            known_empty: false,
            approximate: false,
        }
    }

    /// The empty set of a space.
    pub fn empty(space: Space) -> Self {
        ConvexSet {
            space,
            constraints: Vec::new(),
            known_empty: true,
            approximate: false,
        }
    }

    /// Builds a set from constraints.
    pub fn from_constraints(space: Space, constraints: Vec<Constraint>) -> Self {
        for c in &constraints {
            assert_eq!(c.expr.total(), space.total(), "constraint arity mismatch");
        }
        let mut s = ConvexSet {
            space,
            constraints,
            known_empty: false,
            approximate: false,
        };
        s.normalize();
        s
    }

    /// The space of this set.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The constraints (after normalization).
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// True if any projection on the way to this set may have
    /// over-approximated the integer points.
    pub fn is_approximate(&self) -> bool {
        self.approximate
    }

    /// Marks the set as approximate (used by projection).
    pub(crate) fn set_approximate(&mut self, approx: bool) {
        self.approximate = self.approximate || approx;
    }

    /// Adds a constraint, returning the refined set.
    pub fn with(&self, c: Constraint) -> Self {
        assert_eq!(
            c.expr.total(),
            self.space.total(),
            "constraint arity mismatch"
        );
        let mut out = self.clone();
        out.constraints.push(c);
        out.normalize();
        out
    }

    /// Adds several constraints.
    pub fn with_all(&self, cs: impl IntoIterator<Item = Constraint>) -> Self {
        let mut out = self.clone();
        for c in cs {
            assert_eq!(
                c.expr.total(),
                self.space.total(),
                "constraint arity mismatch"
            );
            out.constraints.push(c);
        }
        out.normalize();
        out
    }

    /// Intersection with another convex set over the same space.
    pub fn intersect(&self, other: &ConvexSet) -> ConvexSet {
        assert_eq!(self.space.total(), other.space.total(), "space mismatch");
        let mut out = self.clone();
        out.constraints.extend(other.constraints.iter().cloned());
        out.known_empty = self.known_empty || other.known_empty;
        out.approximate = self.approximate || other.approximate;
        out.normalize();
        out
    }

    /// True when the set was *proved* empty (trivially or by rational
    /// Fourier-Motzkin).  A `false` answer is not a guarantee of
    /// non-emptiness for parametric sets; for concrete sets use
    /// [`ConvexSet::enumerate`] or the dense engine.
    ///
    /// The Fourier-Motzkin feasibility test is memoised process-wide (see
    /// [`crate::cache`]): the constraints are normalized before the check,
    /// so the repeated conjunctions of corpus sweeps and re-analyses are
    /// answered without re-eliminating anything.
    pub fn is_certainly_empty(&self) -> bool {
        if self.known_empty {
            return true;
        }
        !rationally_feasible_cached(&self.constraints, self.space.dim() + self.space.n_params())
    }

    /// True if the full assignment `[dims..., params...]` satisfies every
    /// constraint.
    pub fn contains_full(&self, point: &[i64]) -> bool {
        if self.known_empty {
            return false;
        }
        assert_eq!(point.len(), self.space.total(), "point arity mismatch");
        self.constraints.iter().all(|c| c.satisfied(point))
    }

    /// True if the set-dimension point `dims` (with parameter values
    /// `params`) lies in the set.
    pub fn contains(&self, dims: &[i64], params: &[i64]) -> bool {
        if self.known_empty {
            return false;
        }
        assert_eq!(
            dims.len() + params.len(),
            self.space.total(),
            "point arity mismatch"
        );
        let dot =
            |coeffs: &[i64], xs: &[i64]| coeffs.iter().zip(xs).map(|(c, x)| c * x).sum::<i64>();
        self.constraints.iter().all(|c| {
            let (on_dims, on_params) = c.expr.coeffs().split_at(dims.len());
            let value = c.expr.constant_term() + dot(on_dims, dims) + dot(on_params, params);
            c.kind.holds(value)
        })
    }

    /// Substitutes concrete values for all parameters, producing a set
    /// without parameters.
    pub fn bind_params(&self, values: &[i64]) -> ConvexSet {
        assert_eq!(
            values.len(),
            self.space.n_params(),
            "parameter count mismatch"
        );
        let dim = self.space.dim();
        let mut constraints = self.constraints.clone();
        // Bind parameters from the last one to keep indices stable.
        for (p, &val) in values.iter().enumerate().rev() {
            let v = dim + p;
            constraints = constraints
                .iter()
                .map(|c| c.bind(v, val).drop_var(v))
                .collect();
        }
        let new_space = Space::with_names(
            &self
                .space
                .dim_names()
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>(),
            &[],
        );
        let mut out = ConvexSet {
            space: new_space,
            constraints,
            known_empty: self.known_empty,
            approximate: self.approximate,
        };
        out.normalize();
        out
    }

    /// Projects out `count` set dimensions starting at `from`, keeping the
    /// remaining dimensions in order.  Returns the projected set; the result
    /// is flagged approximate when integer exactness could not be
    /// guaranteed.
    pub fn project_out(&self, from: usize, count: usize) -> ConvexSet {
        assert!(from + count <= self.space.dim(), "projection out of range");
        if self.known_empty {
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
            return ConvexSet::empty(Space::with_names(&names, &params));
        }
        let mut constraints = self.constraints.clone();
        let mut approx = self.approximate;
        let mut infeasible = false;
        // Eliminate the dimensions one at a time (highest index first so the
        // remaining target indices stay valid).
        for v in (from..from + count).rev() {
            let elim = eliminate_dim(&constraints, v);
            if elim.infeasible {
                infeasible = true;
                constraints = Vec::new();
                break;
            }
            approx = approx || !elim.exact;
            constraints = elim.constraints.iter().map(|c| c.drop_var(v)).collect();
        }
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
        let space = Space::with_names(&names, &params);
        if infeasible {
            return ConvexSet::empty(space);
        }
        let mut out = ConvexSet {
            space,
            constraints,
            known_empty: false,
            approximate: approx,
        };
        out.normalize();
        out
    }

    /// Inserts `count` fresh unconstrained set dimensions at position `at`
    /// (before the parameters).
    pub fn insert_dims(&self, at: usize, count: usize) -> ConvexSet {
        assert!(at <= self.space.dim(), "insertion point out of range");
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
        ConvexSet {
            space: Space::with_names(&names_ref, &params),
            constraints: self
                .constraints
                .iter()
                .map(|c| c.insert_vars(at, count))
                .collect(),
            known_empty: self.known_empty,
            approximate: self.approximate,
        }
    }

    /// The negation of this convex set as a list of convex sets whose union
    /// is the complement, pairwise disjoint.
    ///
    /// Uses the standard prefix expansion: the complement of
    /// `c₁ ∧ c₂ ∧ … ∧ cₙ` is `⋃ₖ (c₁ ∧ … ∧ cₖ₋₁ ∧ ¬cₖ)`.
    pub fn complement_pieces(&self) -> Vec<ConvexSet> {
        if self.known_empty {
            return vec![ConvexSet::universe(self.space.clone())];
        }
        let mut pieces = Vec::new();
        for (k, ck) in self.constraints.iter().enumerate() {
            let prefix: Vec<Constraint> = self.constraints[..k].to_vec();
            for neg in ck.negated() {
                let mut cs = prefix.clone();
                cs.push(neg);
                let piece = ConvexSet::from_constraints(self.space.clone(), cs);
                if !piece.is_certainly_empty() {
                    pieces.push(piece);
                }
            }
        }
        pieces
    }

    /// Set difference `self \ other` (both convex), returned as disjoint
    /// convex pieces.
    pub fn subtract(&self, other: &ConvexSet) -> Vec<ConvexSet> {
        other
            .complement_pieces()
            .into_iter()
            .map(|piece| self.intersect(&piece))
            .filter(|s| !s.is_certainly_empty())
            .collect()
    }

    /// Computes integer lower/upper bounds of set dimension `v` valid for
    /// the whole set (parameters must be bound), by projecting away every
    /// other set dimension.  Returns `None` for an unbounded or empty
    /// direction.
    pub fn dim_bounds(&self, v: usize) -> Option<(i64, i64)> {
        assert_eq!(
            self.space.n_params(),
            0,
            "bind parameters before querying bounds"
        );
        // project out all other dims
        let mut s = self.clone();
        // eliminate dims after v, then dims before v
        if v + 1 < self.space.dim() {
            s = s.project_out(v + 1, self.space.dim() - v - 1);
        }
        if v > 0 {
            s = s.project_out(0, v);
        }
        // Now s is one-dimensional in the projected variable (index 0).
        let level = Level::compile(&s.constraints, 0);
        let mut rests = vec![0; level.coeff.len()];
        level.rests(&[], &mut rests);
        level.bounds(&rests)
    }

    /// Enumerates every integer point of the set, in lexicographic order.
    /// All parameters must have been bound (see [`ConvexSet::bind_params`])
    /// and the set must be bounded in every dimension.
    ///
    /// The scan is compiled once per call.  Level `k` bounds dimension `k`
    /// given fixed values of dimensions `0..k`, from the rows of the prefix
    /// set over dimensions `0..=k` that mention `k`.  The prefixes are
    /// built incrementally: prefix `k` is prefix `k + 1` with dimension
    /// `k + 1` projected out, so a `d`-dimensional set costs `d - 1`
    /// eliminations.  At the leaf every point is checked against the set's
    /// full constraint system (the rows that do not mention the innermost
    /// dimension once per innermost run, since they do not change along
    /// it).  That check makes the result exact whatever the projections
    /// give: each Fourier-Motzkin shadow is a superset of the true
    /// projection, so a loose prefix only widens the scan, never drops a
    /// point.  The walk reuses one point buffer and one row-value buffer
    /// per level, and appends rows to one flat buffer; it allocates nothing
    /// per visited point.
    ///
    /// # Panics
    /// Panics if parameters remain.  An unbounded dimension yields no
    /// points.
    pub fn enumerate(&self) -> DenseSet {
        assert_eq!(
            self.space.n_params(),
            0,
            "bind parameters before enumerating"
        );
        let dim = self.space.dim();
        if self.known_empty {
            return DenseSet::new(dim);
        }
        if dim == 0 {
            let n = usize::from(self.constraints.iter().all(|c| c.satisfied(&[])));
            return DenseSet::from_sorted_rows(Rows::from_flat(0, n, Vec::new()));
        }
        // Prefix constraint systems, innermost first: prefix `k` is prefix
        // `k + 1` with dimension `k + 1` eliminated (what
        // `project_out(k + 1, 1)` computes, without building its space).
        let mut levels: Vec<Level> = Vec::with_capacity(dim);
        let mut prefix = self.constraints.clone();
        for k in (0..dim).rev() {
            levels.push(Level::compile(&prefix, k));
            if k > 0 {
                let elim = eliminate_dim(&prefix, k);
                if elim.infeasible {
                    return DenseSet::new(dim);
                }
                prefix.clear();
                for c in elim.constraints {
                    let c = c.drop_var(k);
                    if !prefix.contains(&c) {
                        prefix.push(c);
                    }
                }
            }
        }
        levels.reverse();
        // The leaf check's rows that do not mention the innermost
        // dimension; the innermost level holds the ones that do.
        let mut carried = SparseRows::new();
        for c in self
            .constraints
            .iter()
            .filter(|c| c.expr.coeff(dim - 1) == 0)
        {
            carried.push(c, dim - 1);
        }
        let mut scan = Scan {
            rests: levels.iter().map(|l| vec![0; l.coeff.len()]).collect(),
            levels: &levels,
            carried: &carried,
            point: vec![0; dim],
            rows: Vec::new(),
            len: 0,
        };
        scan.visit(0);
        DenseSet::from_sorted_rows(Rows::from_flat(dim, scan.len, scan.rows))
    }

    /// Renders the set as a readable constraint list.
    pub fn display(&self) -> String {
        if self.known_empty {
            return "{ } (empty)".to_string();
        }
        let cs: Vec<String> = self
            .constraints
            .iter()
            .map(|c| c.display(&self.space))
            .collect();
        format!(
            "{{ [{}] : {} }}",
            self.space.dim_names().join(", "),
            if cs.is_empty() {
                "true".to_string()
            } else {
                cs.join(" and ")
            }
        )
    }

    /// Normalizes constraints in place: gcd tightening, removal of
    /// tautologies, detection of trivial infeasibility, de-duplication.
    fn normalize(&mut self) {
        if self.known_empty {
            self.constraints.clear();
            return;
        }
        let mut seen: Vec<Constraint> = Vec::with_capacity(self.constraints.len());
        for c in &self.constraints {
            match c.normalized() {
                Ok(n) => {
                    if !seen.contains(&n) {
                        seen.push(n);
                    }
                }
                Err(Folded::True) => {}
                Err(_) => {
                    self.known_empty = true;
                    self.constraints.clear();
                    return;
                }
            }
        }
        self.constraints = seen;
    }
}

/// Affine rows in sparse form: row `r` is
/// `consts[r] + Σ coeff·point[dim]` over `terms[starts[r]..starts[r + 1]]`.
struct SparseRows {
    starts: Vec<usize>,
    terms: Vec<(usize, i64)>,
    consts: Vec<i64>,
    kinds: Vec<ConstraintKind>,
}

impl SparseRows {
    fn new() -> SparseRows {
        SparseRows {
            starts: vec![0],
            terms: Vec::new(),
            consts: Vec::new(),
            kinds: Vec::new(),
        }
    }

    /// Appends the row of `c` over dimensions `0..width`.
    fn push(&mut self, c: &Constraint, width: usize) {
        let coeffs = &c.expr.coeffs()[..width];
        self.terms.extend(
            coeffs
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a != 0)
                .map(|(d, &a)| (d, a)),
        );
        self.starts.push(self.terms.len());
        self.consts.push(c.expr.constant_term());
        self.kinds.push(c.kind);
    }

    fn len(&self) -> usize {
        self.kinds.len()
    }

    fn value(&self, r: usize, point: &[i64]) -> i64 {
        self.terms[self.starts[r]..self.starts[r + 1]]
            .iter()
            .fold(self.consts[r], |acc, &(d, a)| acc + a * point[d])
    }

    /// True when every row holds at `point`.
    fn hold(&self, point: &[i64]) -> bool {
        (0..self.len()).all(|r| self.kinds[r].holds(self.value(r, point)))
    }
}

/// One level of the compiled scanner: the rows of the prefix set over
/// dimensions `0..=k` that mention dimension `k`, each split into its
/// coefficient of `k` and the rest over dimensions `0..k`.  A row that
/// does not mention `k` is carried unchanged into the prefix above
/// (elimination keeps it), so it is enforced at the level of its last
/// dimension and needs no row here.
struct Level {
    coeff: Vec<i64>,
    rest: SparseRows,
    /// True when a congruence mentions `k`, so values must be checked
    /// one by one.
    strided: bool,
}

impl Level {
    fn compile(constraints: &[Constraint], k: usize) -> Level {
        let mut level = Level {
            coeff: Vec::new(),
            rest: SparseRows::new(),
            strided: false,
        };
        for c in constraints.iter().filter(|c| c.expr.coeff(k) != 0) {
            level.coeff.push(c.expr.coeff(k));
            level.rest.push(c, k);
            level.strided |= matches!(c.kind, ConstraintKind::Mod(_));
        }
        level
    }

    /// Each row's value with dimension `k` at zero, given the values of
    /// dimensions `0..k`.
    fn rests(&self, fixed: &[i64], out: &mut [i64]) {
        for (r, rest) in out.iter_mut().enumerate() {
            *rest = self.rest.value(r, fixed);
        }
    }

    /// The interval of dimension `k` allowed by the level's inequalities
    /// and equalities, given the rows' `rests`; `None` when it is empty or
    /// unbounded.
    fn bounds(&self, rests: &[i64]) -> Option<(i64, i64)> {
        let mut lower: Option<i64> = None;
        let mut upper: Option<i64> = None;
        for ((&a, &rest), kind) in self.coeff.iter().zip(rests).zip(&self.rest.kinds) {
            match kind {
                ConstraintKind::Geq if a > 0 => {
                    // a·x + rest >= 0  ->  x >= ceil(-rest / a)
                    let b = (-rest).div_euclid(a) + i64::from((-rest).rem_euclid(a) > 0);
                    lower = Some(lower.map_or(b, |cur| cur.max(b)));
                }
                ConstraintKind::Geq => {
                    let b = rest.div_euclid(-a);
                    upper = Some(upper.map_or(b, |cur| cur.min(b)));
                }
                ConstraintKind::Eq => {
                    // a·x + rest = 0 pins x to a single value (or nothing).
                    if rest.rem_euclid(a.abs()) != 0 {
                        return None;
                    }
                    let v = -rest / a;
                    lower = Some(lower.map_or(v, |cur| cur.max(v)));
                    upper = Some(upper.map_or(v, |cur| cur.min(v)));
                }
                ConstraintKind::Mod(_) => {}
            }
        }
        match (lower, upper) {
            (Some(l), Some(u)) if l <= u => Some((l, u)),
            _ => None,
        }
    }

    /// True when every row of the level holds at `point[k] = v`; with
    /// `congruences_only`, just the congruences (bounds cover the rest).
    fn hold_at(&self, rests: &[i64], v: i64, congruences_only: bool) -> bool {
        self.coeff
            .iter()
            .zip(rests)
            .zip(&self.rest.kinds)
            .all(|((&a, &rest), &kind)| {
                (congruences_only && !matches!(kind, ConstraintKind::Mod(_)))
                    || kind.holds(a * v + rest)
            })
    }
}

/// The state of one enumeration: the compiled levels with one reusable
/// buffer of row values each, the leaf check's carried rows, the point
/// being built, and the flat output rows.
struct Scan<'a> {
    levels: &'a [Level],
    rests: Vec<Vec<i64>>,
    carried: &'a SparseRows,
    point: Vec<i64>,
    rows: Vec<i64>,
    len: usize,
}

impl Scan<'_> {
    fn visit(&mut self, k: usize) {
        let level = &self.levels[k];
        let mut rests = std::mem::take(&mut self.rests[k]);
        level.rests(&self.point[..k], &mut rests);
        if let Some((lo, hi)) = level.bounds(&rests) {
            if k + 1 < self.levels.len() {
                for v in lo..=hi {
                    if !level.strided || level.hold_at(&rests, v, true) {
                        self.point[k] = v;
                        self.visit(k + 1);
                    }
                }
            } else {
                // The leaf check: every constraint of the set at every
                // emitted point.  The innermost level's rows are the ones
                // that mention this dimension; the carried rows do not
                // change along it, so they are evaluated once, on the
                // first candidate.
                let mut carried_hold = None;
                for v in lo..=hi {
                    if level.hold_at(&rests, v, false)
                        && *carried_hold.get_or_insert_with(|| self.carried.hold(&self.point))
                    {
                        self.point[k] = v;
                        self.rows.extend_from_slice(&self.point);
                        self.len += 1;
                    }
                }
            }
        }
        self.rests[k] = rests;
    }
}

impl std::fmt::Debug for ConvexSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::Affine;
    use rcp_intlin::IVec;

    /// A rectangle 1 <= x <= nx, 1 <= y <= ny.
    fn rect(nx: i64, ny: i64) -> ConvexSet {
        let space = Space::with_names(&["x", "y"], &[]);
        ConvexSet::from_constraints(
            space,
            vec![
                Constraint::geq(Affine::new(vec![1, 0], -1)),
                Constraint::geq(Affine::new(vec![-1, 0], nx)),
                Constraint::geq(Affine::new(vec![0, 1], -1)),
                Constraint::geq(Affine::new(vec![0, -1], ny)),
            ],
        )
    }

    #[test]
    fn containment_and_enumeration() {
        let r = rect(3, 2);
        assert!(r.contains(&[1, 1], &[]));
        assert!(r.contains(&[3, 2], &[]));
        assert!(!r.contains(&[0, 1], &[]));
        assert!(!r.contains(&[4, 1], &[]));
        let pts = r.enumerate();
        assert_eq!(pts.len(), 6);
        assert!(pts.contains(&[2, 1]));
    }

    #[test]
    fn empty_and_universe() {
        let space = Space::new(2);
        assert!(ConvexSet::empty(space.clone()).is_certainly_empty());
        assert!(!ConvexSet::universe(space.clone()).is_certainly_empty());
        assert!(ConvexSet::empty(space).enumerate().is_empty());
    }

    #[test]
    fn intersection() {
        let r = rect(5, 5);
        // x >= y
        let tri = ConvexSet::from_constraints(
            r.space().clone(),
            vec![Constraint::geq(Affine::new(vec![1, -1], 0))],
        );
        let inter = r.intersect(&tri);
        let pts = inter.enumerate();
        assert_eq!(pts.len(), 15); // 5+4+3+2+1
        assert!(pts.iter().all(|p| p[0] >= p[1]));
    }

    #[test]
    fn infeasible_equality_detected() {
        let space = Space::new(1);
        let s = ConvexSet::from_constraints(
            space,
            vec![Constraint::eq(Affine::new(vec![2], -3))], // 2x = 3
        );
        assert!(s.is_certainly_empty());
    }

    #[test]
    fn projection_with_congruence_is_exact() {
        // { (i, j) | 2i + j = 21, 1 <= i <= 20, 1 <= j <= 20 } projected on j
        // yields odd j in [1, 19]  (j = 21 - 2i with i in [1, 10]).
        let space = Space::with_names(&["i", "j"], &[]);
        let s = ConvexSet::from_constraints(
            space,
            vec![
                Constraint::eq(Affine::new(vec![2, 1], -21)),
                Constraint::geq(Affine::new(vec![1, 0], -1)),
                Constraint::geq(Affine::new(vec![-1, 0], 20)),
                Constraint::geq(Affine::new(vec![0, 1], -1)),
                Constraint::geq(Affine::new(vec![0, -1], 20)),
            ],
        );
        let proj = s.project_out(0, 1);
        assert!(!proj.is_approximate());
        let pts: Vec<i64> = proj.enumerate().iter().map(|p| p[0]).collect();
        let expected: Vec<i64> = (1..=19).filter(|j| j % 2 == 1).collect();
        assert_eq!(pts, expected);
    }

    #[test]
    fn projection_matches_enumeration_on_rect() {
        let r = rect(4, 7);
        let proj = r.project_out(0, 1); // keep y
        let ys: Vec<i64> = proj.enumerate().iter().map(|p| p[0]).collect();
        assert_eq!(ys, (1..=7).collect::<Vec<_>>());
    }

    #[test]
    fn complement_and_subtract() {
        let r = rect(4, 4);
        let inner = rect(2, 4); // x in [1,2]
        let diff = r.subtract(&inner);
        let mut pts: Vec<IVec> = diff.iter().flat_map(|s| s.enumerate().to_vec()).collect();
        pts.sort();
        pts.dedup();
        // difference should be x in [3,4], y in [1,4]
        assert_eq!(pts.len(), 8);
        assert!(pts.iter().all(|p| p[0] >= 3));
        // disjointness of pieces
        let total: usize = diff.iter().map(|s| s.enumerate().len()).sum();
        assert_eq!(total, pts.len(), "subtract pieces must be disjoint");
    }

    #[test]
    fn subtract_with_congruence() {
        // [1,10] minus the even numbers = odd numbers
        let space = Space::with_names(&["x"], &[]);
        let line = ConvexSet::from_constraints(
            space.clone(),
            vec![
                Constraint::geq(Affine::new(vec![1], -1)),
                Constraint::geq(Affine::new(vec![-1], 10)),
            ],
        );
        let evens = line.with(Constraint::congruent(Affine::new(vec![1], 0), 2));
        let odds: Vec<i64> = line
            .subtract(&evens)
            .iter()
            .flat_map(|s| s.enumerate().to_vec())
            .map(|p| p[0])
            .collect();
        let mut odds_sorted = odds.clone();
        odds_sorted.sort();
        assert_eq!(odds_sorted, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn parameters_bind() {
        // { x | 1 <= x <= N } with N a parameter
        let space = Space::with_names(&["x"], &["N"]);
        let s = ConvexSet::from_constraints(
            space,
            vec![
                Constraint::geq(Affine::new(vec![1, 0], -1)),
                Constraint::geq(Affine::new(vec![-1, 1], 0)), // N - x >= 0
            ],
        );
        assert!(s.contains(&[3], &[5]));
        assert!(!s.contains(&[6], &[5]));
        let bound = s.bind_params(&[4]);
        assert_eq!(bound.space().n_params(), 0);
        assert_eq!(bound.enumerate().len(), 4);
    }

    #[test]
    fn dim_bounds_query() {
        let r = rect(3, 9);
        assert_eq!(r.dim_bounds(0), Some((1, 3)));
        assert_eq!(r.dim_bounds(1), Some((1, 9)));
        let space = Space::new(1);
        let unbounded =
            ConvexSet::from_constraints(space, vec![Constraint::geq(Affine::new(vec![1], 0))]);
        assert_eq!(unbounded.dim_bounds(0), None);
    }

    #[test]
    fn insert_dims_preserves_semantics() {
        let r = rect(3, 3);
        let wide = r.insert_dims(1, 1); // (x, t, y)
        assert!(wide.contains(&[2, 99, 3], &[]));
        assert!(!wide.contains(&[4, 0, 1], &[]));
        assert_eq!(wide.space().dim(), 3);
    }

    #[test]
    fn display_is_readable() {
        let r = rect(2, 2);
        let text = r.display();
        assert!(text.contains("x"));
        assert!(text.contains(">= 0"));
    }

    #[test]
    fn triangle_enumeration_with_dependent_bounds() {
        // { (i, j) | 1 <= i <= 4, 1 <= j <= i } — a triangular nest like
        // Example 3's J loop.
        let space = Space::with_names(&["i", "j"], &[]);
        let s = ConvexSet::from_constraints(
            space,
            vec![
                Constraint::geq(Affine::new(vec![1, 0], -1)),
                Constraint::geq(Affine::new(vec![-1, 0], 4)),
                Constraint::geq(Affine::new(vec![0, 1], -1)),
                Constraint::geq(Affine::new(vec![1, -1], 0)), // i - j >= 0
            ],
        );
        let pts = s.enumerate();
        assert_eq!(pts.len(), 1 + 2 + 3 + 4);
    }
}
