//! Linear constraints: equalities, inequalities and congruences.

use crate::affine::Affine;
use crate::space::Space;
use rcp_intlin::gcd;
use std::fmt;

/// The kind of a [`Constraint`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ConstraintKind {
    /// `expr = 0`.
    Eq,
    /// `expr ≥ 0`.
    Geq,
    /// `expr ≡ 0 (mod m)` with `m ≥ 2` — the Omega library's "stride"
    /// constraints, needed to keep projections of equality-defined
    /// dependence relations exact.
    Mod(i64),
}

impl ConstraintKind {
    /// True if a constraint of this kind holds where its affine left-hand
    /// side evaluates to `value`.
    pub fn holds(self, value: i64) -> bool {
        match self {
            ConstraintKind::Eq => value == 0,
            ConstraintKind::Geq => value >= 0,
            ConstraintKind::Mod(m) => value.rem_euclid(m) == 0,
        }
    }
}

/// A single linear constraint over a [`Space`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// The affine left-hand side.
    pub expr: Affine,
    /// The constraint kind.
    pub kind: ConstraintKind,
}

/// Result of constant-folding a constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Folded {
    /// The constraint is satisfied by every point.
    True,
    /// The constraint is violated by every point.
    False,
    /// The constraint genuinely depends on the variables.
    Open,
}

impl Constraint {
    /// `expr = 0`.
    pub fn eq(expr: Affine) -> Self {
        Constraint {
            expr,
            kind: ConstraintKind::Eq,
        }
    }

    /// `expr ≥ 0`.
    pub fn geq(expr: Affine) -> Self {
        Constraint {
            expr,
            kind: ConstraintKind::Geq,
        }
    }

    /// `expr ≤ 0`, stored as `-expr ≥ 0`.
    pub fn leq(expr: Affine) -> Self {
        Constraint {
            expr: expr.neg(),
            kind: ConstraintKind::Geq,
        }
    }

    /// `expr ≡ 0 (mod m)`.
    ///
    /// # Panics
    /// Panics unless `m ≥ 2`.
    pub fn congruent(expr: Affine, m: i64) -> Self {
        assert!(m >= 2, "modulus must be at least 2");
        Constraint {
            expr,
            kind: ConstraintKind::Mod(m),
        }
    }

    /// `lhs = rhs`.
    pub fn eq_of(lhs: Affine, rhs: &Affine) -> Self {
        Constraint::eq(lhs.sub(rhs))
    }

    /// `lhs ≥ rhs`.
    pub fn geq_of(lhs: Affine, rhs: &Affine) -> Self {
        Constraint::geq(lhs.sub(rhs))
    }

    /// True if the constraint is satisfied at the full assignment `point`
    /// (`[dims..., params...]`).
    pub fn satisfied(&self, point: &[i64]) -> bool {
        self.kind.holds(self.expr.eval(point))
    }

    /// Constant-folds the constraint when the expression has no variables.
    pub fn fold(&self) -> Folded {
        if !self.expr.is_constant() {
            return Folded::Open;
        }
        if self.kind.holds(self.expr.constant_term()) {
            Folded::True
        } else {
            Folded::False
        }
    }

    /// Normalizes the constraint:
    ///
    /// * `Geq`: divides through by the gcd of the variable coefficients and
    ///   *floors* the constant — an exact integer tightening.
    /// * `Eq`: divides by the gcd; returns `None` (infeasible) when the gcd
    ///   does not divide the constant.
    /// * `Mod(m)`: reduces coefficients and constant modulo `m`; collapses
    ///   to `True`/`False` when no variable remains effective.
    ///
    /// Returns `Ok(constraint)` with the simplified constraint, or
    /// `Err(folded)` when the constraint folded to a constant truth value
    /// (`Folded::True` can be dropped, `Folded::False` empties the set).
    pub fn normalized(&self) -> Result<Constraint, Folded> {
        match self.kind {
            ConstraintKind::Geq => {
                let g = self.expr.coeff_gcd();
                if g == 0 {
                    return Err(self.fold());
                }
                if g == 1 {
                    return Ok(self.clone());
                }
                let coeffs: Vec<i64> = self.expr.coeffs().iter().map(|c| c / g).collect();
                let constant = self.expr.constant_term().div_euclid(g);
                Ok(Constraint::geq(Affine::new(coeffs, constant)))
            }
            ConstraintKind::Eq => {
                let g = self.expr.coeff_gcd();
                if g == 0 {
                    return Err(self.fold());
                }
                if self.expr.constant_term() % g != 0 {
                    return Err(Folded::False);
                }
                if g == 1 {
                    return Ok(self.clone());
                }
                let coeffs: Vec<i64> = self.expr.coeffs().iter().map(|c| c / g).collect();
                let constant = self.expr.constant_term() / g;
                Ok(Constraint::eq(Affine::new(coeffs, constant)))
            }
            ConstraintKind::Mod(m) => {
                let coeffs: Vec<i64> = self.expr.coeffs().iter().map(|c| c.rem_euclid(m)).collect();
                let constant = self.expr.constant_term().rem_euclid(m);
                let reduced = Constraint::congruent(Affine::new(coeffs, constant), m);
                if reduced.expr.is_constant() {
                    return Err(reduced.fold());
                }
                // If all coefficients share a factor g with m, the constraint
                // is equivalent to expr/g ≡ 0 (mod m/g) when g also divides
                // the constant, and infeasible otherwise... only safe when g
                // divides every coefficient *and* m.
                let g = gcd(reduced.expr.coeff_gcd(), m);
                if g > 1 {
                    if constant % g != 0 {
                        return Err(Folded::False);
                    }
                    let coeffs: Vec<i64> = reduced.expr.coeffs().iter().map(|c| c / g).collect();
                    let m2 = m / g;
                    if m2 == 1 {
                        return Err(Folded::True);
                    }
                    return Ok(Constraint::congruent(Affine::new(coeffs, constant / g), m2));
                }
                Ok(reduced)
            }
        }
    }

    /// The negation of this constraint as a disjunction of constraints
    /// (each returned constraint is one disjunct).
    pub fn negated(&self) -> Vec<Constraint> {
        match self.kind {
            // ¬(e ≥ 0)  ⇔  -e - 1 ≥ 0
            ConstraintKind::Geq => vec![Constraint::geq(self.expr.neg().offset(-1))],
            // ¬(e = 0)  ⇔  e ≥ 1  ∨  e ≤ -1
            ConstraintKind::Eq => vec![
                Constraint::geq(self.expr.offset(-1)),
                Constraint::geq(self.expr.neg().offset(-1)),
            ],
            // ¬(e ≡ 0 mod m)  ⇔  ∨_{r=1}^{m-1} (e - r ≡ 0 mod m)
            ConstraintKind::Mod(m) => (1..m)
                .map(|r| Constraint::congruent(self.expr.offset(-r), m))
                .collect(),
        }
    }

    /// Substitutes variable `v` with an affine expression.
    pub fn substitute(&self, v: usize, replacement: &Affine) -> Constraint {
        Constraint {
            expr: self.expr.substitute(v, replacement),
            kind: self.kind,
        }
    }

    /// Binds variable `v` to a concrete value.
    pub fn bind(&self, v: usize, value: i64) -> Constraint {
        Constraint {
            expr: self.expr.bind(v, value),
            kind: self.kind,
        }
    }

    /// Drops a variable whose coefficient is zero.
    pub fn drop_var(&self, v: usize) -> Constraint {
        Constraint {
            expr: self.expr.drop_var(v),
            kind: self.kind,
        }
    }

    /// Inserts fresh zero-coefficient variables at `at`.
    pub fn insert_vars(&self, at: usize, count: usize) -> Constraint {
        Constraint {
            expr: self.expr.insert_vars(at, count),
            kind: self.kind,
        }
    }

    /// Renders the constraint with names from `space`.
    pub fn display(&self, space: &Space) -> String {
        match self.kind {
            ConstraintKind::Eq => format!("{} = 0", self.expr.display(space)),
            ConstraintKind::Geq => format!("{} >= 0", self.expr.display(space)),
            ConstraintKind::Mod(m) => format!("{} ≡ 0 (mod {m})", self.expr.display(space)),
        }
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ConstraintKind::Eq => write!(f, "{:?} = 0", self.expr),
            ConstraintKind::Geq => write!(f, "{:?} >= 0", self.expr),
            ConstraintKind::Mod(m) => write!(f, "{:?} = 0 mod {m}", self.expr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satisfaction() {
        // i - j >= 0 over (i, j)
        let c = Constraint::geq(Affine::new(vec![1, -1], 0));
        assert!(c.satisfied(&[3, 2]));
        assert!(c.satisfied(&[2, 2]));
        assert!(!c.satisfied(&[1, 2]));
        let e = Constraint::eq(Affine::new(vec![2, 1], -21));
        assert!(e.satisfied(&[6, 9])); // figure 2: 2i + j = 21
        assert!(!e.satisfied(&[6, 10]));
        let m = Constraint::congruent(Affine::new(vec![1, 0], -1), 3);
        assert!(m.satisfied(&[4, 0])); // 4 ≡ 1 (mod 3)
        assert!(!m.satisfied(&[5, 0]));
    }

    #[test]
    fn folding() {
        assert_eq!(Constraint::geq(Affine::constant(2, 0)).fold(), Folded::True);
        assert_eq!(
            Constraint::geq(Affine::constant(2, -1)).fold(),
            Folded::False
        );
        assert_eq!(Constraint::eq(Affine::constant(2, 0)).fold(), Folded::True);
        assert_eq!(Constraint::eq(Affine::constant(2, 3)).fold(), Folded::False);
        assert_eq!(
            Constraint::congruent(Affine::constant(2, 6), 3).fold(),
            Folded::True
        );
        assert_eq!(
            Constraint::congruent(Affine::constant(2, 7), 3).fold(),
            Folded::False
        );
        assert_eq!(Constraint::geq(Affine::var(2, 0)).fold(), Folded::Open);
    }

    #[test]
    fn normalization_tightens_inequalities() {
        // 2x - 3 >= 0  =>  x - 2 >= 0 (floor(-3/2) = -2), i.e. x >= 2: exact
        // integer tightening of x >= 1.5.
        let c = Constraint::geq(Affine::new(vec![2], -3));
        let n = c.normalized().unwrap();
        assert_eq!(n.expr, Affine::new(vec![1], -2));
    }

    #[test]
    fn normalization_detects_infeasible_equality() {
        // 2x + 4y = 3 has no integer solutions.
        let c = Constraint::eq(Affine::new(vec![2, 4], -3));
        assert_eq!(c.normalized().unwrap_err(), Folded::False);
        // 2x + 4y = 6  =>  x + 2y = 3
        let c = Constraint::eq(Affine::new(vec![2, 4], -6));
        assert_eq!(c.normalized().unwrap().expr, Affine::new(vec![1, 2], -3));
    }

    #[test]
    fn normalization_of_congruences() {
        // 4x + 6y ≡ 0 (mod 2) is trivially... 4,6 ≡ 0 mod 2 → constant 0 → True
        let c = Constraint::congruent(Affine::new(vec![4, 6], 0), 2);
        assert_eq!(c.normalized().unwrap_err(), Folded::True);
        // 2x ≡ 0 (mod 4)  =>  x ≡ 0 (mod 2)
        let c = Constraint::congruent(Affine::new(vec![2], 0), 4);
        let n = c.normalized().unwrap();
        assert_eq!(n.kind, ConstraintKind::Mod(2));
        assert_eq!(n.expr, Affine::new(vec![1], 0));
        // 2x + 1 ≡ 0 (mod 4) → 2x ≡ 3 mod 4: gcd(2,4)=2 does not divide 3 → False
        let c = Constraint::congruent(Affine::new(vec![2], 1), 4);
        assert_eq!(c.normalized().unwrap_err(), Folded::False);
    }

    #[test]
    fn negation_covers_complement() {
        let space_points: Vec<Vec<i64>> = (-4..=4).map(|x| vec![x]).collect();
        let cases = vec![
            Constraint::geq(Affine::new(vec![1], -2)),         // x >= 2
            Constraint::eq(Affine::new(vec![1], -1)),          // x = 1
            Constraint::congruent(Affine::new(vec![1], 0), 3), // x ≡ 0 mod 3
        ];
        for c in cases {
            let neg = c.negated();
            for p in &space_points {
                let original = c.satisfied(p);
                let negated = neg.iter().any(|d| d.satisfied(p));
                assert_ne!(
                    original, negated,
                    "negation incorrect at {:?} for {:?}",
                    p, c
                );
            }
        }
    }

    #[test]
    fn builders() {
        let lhs = Affine::new(vec![1, 0], 0);
        let rhs = Affine::new(vec![0, 1], 0);
        let c = Constraint::geq_of(lhs.clone(), &rhs); // x >= y
        assert!(c.satisfied(&[3, 2]));
        assert!(!c.satisfied(&[2, 3]));
        let e = Constraint::eq_of(lhs, &rhs);
        assert!(e.satisfied(&[2, 2]));
        let l = Constraint::leq(Affine::new(vec![1, -1], 0)); // x - y <= 0
        assert!(l.satisfied(&[2, 3]));
        assert!(!l.satisfied(&[3, 2]));
    }

    #[test]
    fn display() {
        let space = Space::with_names(&["i", "j"], &["N"]);
        let c = Constraint::geq(Affine::new(vec![1, 0, -1], 0));
        assert_eq!(c.display(&space), "i - N >= 0");
    }
}
