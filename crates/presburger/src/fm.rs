//! Variable elimination: exact equality substitution and Fourier-Motzkin
//! elimination with integer tightening.
//!
//! Projection (`dom`, `ran`, loop-bound extraction) removes variables from a
//! conjunction of constraints.  Three cases arise:
//!
//! 1. The variable occurs in an *equality* `c·v + e = 0`.  Substituting
//!    `v = -e/c` everywhere is exact, provided the divisibility side
//!    condition `e ≡ 0 (mod |c|)` is recorded as a congruence constraint —
//!    this is the Omega library's treatment of strides and is what produces
//!    the `mod`-style guards in the paper's generated code.
//! 2. The variable occurs only in *inequalities*.  Fourier-Motzkin
//!    elimination combines every lower bound with every upper bound.  Over
//!    the integers this is exact whenever one of the two coefficients is 1
//!    (the common case for loop bounds and lexicographic-order constraints);
//!    otherwise the real shadow is an over-approximation and the result is
//!    flagged as approximate.
//! 3. The variable occurs in a congruence but in no equality.  The
//!    congruence is dropped (over-approximation) and the result flagged.
//!
//! The approximate flag is threaded through [`crate::ConvexSet`] and
//! [`crate::UnionSet`]; the test-suite cross-validates every projection used
//! by the partitioning algorithms against the dense enumeration engine.

use crate::affine::Affine;
use crate::constraint::{Constraint, ConstraintKind, Folded};

/// The outcome of eliminating one variable from a conjunction of
/// constraints.
#[derive(Clone, Debug)]
pub struct Eliminated {
    /// Constraints no longer mentioning the eliminated variable (the
    /// variable's coefficient is zero in every constraint; the caller is
    /// expected to drop the column).
    pub constraints: Vec<Constraint>,
    /// False when the integer projection may be an over-approximation.
    pub exact: bool,
    /// True when the elimination discovered the conjunction to be
    /// infeasible.
    pub infeasible: bool,
}

/// Eliminates variable `v` from the conjunction `constraints`.
pub fn eliminate_dim(constraints: &[Constraint], v: usize) -> Eliminated {
    // Normalize first: gcd-tighten, drop trivial constraints.
    let mut work: Vec<Constraint> = Vec::with_capacity(constraints.len());
    for c in constraints {
        match c.normalized() {
            Ok(n) => work.push(n),
            Err(Folded::True) => {}
            Err(Folded::False) | Err(Folded::Open) => {
                return Eliminated {
                    constraints: vec![],
                    exact: true,
                    infeasible: true,
                }
            }
        }
    }

    // Case 1: equality substitution.
    if let Some(pos) = work
        .iter()
        .position(|c| c.kind == ConstraintKind::Eq && c.expr.coeff(v) != 0)
    {
        return eliminate_by_equality(&work, v, pos);
    }

    let mentions_mod = work
        .iter()
        .any(|c| matches!(c.kind, ConstraintKind::Mod(_)) && c.expr.coeff(v) != 0);

    // Case 2/3: Fourier-Motzkin over the inequalities.
    let mut lowers: Vec<&Constraint> = Vec::new(); // coeff(v) > 0
    let mut uppers: Vec<&Constraint> = Vec::new(); // coeff(v) < 0
    let mut rest: Vec<Constraint> = Vec::new();
    for c in &work {
        let a = c.expr.coeff(v);
        match c.kind {
            ConstraintKind::Geq if a > 0 => lowers.push(c),
            ConstraintKind::Geq if a < 0 => uppers.push(c),
            ConstraintKind::Mod(_) if a != 0 => { /* dropped, see below */ }
            _ => rest.push(c.clone()),
        }
    }

    let mut exact = !mentions_mod;
    for lo in &lowers {
        for up in &uppers {
            let a_l = lo.expr.coeff(v); // > 0
            let b_u = -up.expr.coeff(v); // > 0
                                         // lo: a_l·v + e_l ≥ 0  →  v ≥ ⌈-e_l / a_l⌉
                                         // up: -b_u·v + e_u ≥ 0 →  v ≤ ⌊ e_u / b_u⌋
                                         // combined (real shadow): a_l·e_u + b_u·e_l ≥ 0
            let coeffs = up
                .expr
                .coeffs()
                .iter()
                .zip(lo.expr.coeffs())
                .enumerate()
                .map(|(i, (&u, &l))| if i == v { 0 } else { a_l * u + b_u * l })
                .collect();
            let constant = a_l * up.expr.constant_term() + b_u * lo.expr.constant_term();
            rest.push(Constraint::geq(Affine::new(coeffs, constant)));
            if a_l > 1 && b_u > 1 {
                // Real shadow may admit spurious integer points (dark shadow
                // would subtract (a_l-1)(b_u-1)); flag as approximate.
                exact = false;
            }
        }
    }

    // Re-normalize the result and detect trivial infeasibility.
    let mut out: Vec<Constraint> = Vec::with_capacity(rest.len());
    for c in rest {
        match c.normalized() {
            Ok(n) => out.push(n),
            Err(Folded::True) => {}
            Err(_) => {
                return Eliminated {
                    constraints: vec![],
                    exact,
                    infeasible: true,
                }
            }
        }
    }
    Eliminated {
        constraints: out,
        exact,
        infeasible: false,
    }
}

fn eliminate_by_equality(work: &[Constraint], v: usize, eq_pos: usize) -> Eliminated {
    let eq = &work[eq_pos];
    let c = eq.expr.coeff(v);
    let abs_c = c.abs();
    let sign = if c > 0 { 1 } else { -1 };
    // c·v + e = 0  with  e = expr − c·v
    let e = eq.expr.bind(v, 0);

    let mut out: Vec<Constraint> = Vec::new();
    // Divisibility side condition (only needed when |c| > 1).
    if abs_c > 1 {
        out.push(Constraint::congruent(e.clone(), abs_c));
    }
    for (idx, other) in work.iter().enumerate() {
        if idx == eq_pos {
            continue;
        }
        let a = other.expr.coeff(v);
        if a == 0 {
            out.push(other.clone());
            continue;
        }
        // other: a·v + f (op) 0.  Multiply by |c| (positive, preserves the
        // relation) and substitute |c|·a·v = a·sign·(c·v) = -a·sign·e:
        //   -a·sign·e + |c|·f (op·|c|) 0
        let f = other.expr.bind(v, 0);
        let new_expr = e.scale(-a * sign).add(&f.scale(abs_c));
        let new_constraint = match other.kind {
            ConstraintKind::Eq => Constraint::eq(new_expr),
            ConstraintKind::Geq => Constraint::geq(new_expr),
            ConstraintKind::Mod(m) => Constraint::congruent(new_expr, m * abs_c),
        };
        out.push(new_constraint);
    }

    // Normalize.
    let mut normalized = Vec::with_capacity(out.len());
    for c in out {
        match c.normalized() {
            Ok(n) => normalized.push(n),
            Err(Folded::True) => {}
            Err(_) => {
                return Eliminated {
                    constraints: vec![],
                    exact: true,
                    infeasible: true,
                }
            }
        }
    }
    Eliminated {
        constraints: normalized,
        exact: true,
        infeasible: false,
    }
}

/// Checks rational (linear-programming) feasibility of a conjunction of
/// constraints over `total` variables by eliminating every variable with
/// Fourier-Motzkin and inspecting the resulting constant constraints.
///
/// Returns `false` only when the constraints are certainly infeasible over
/// the rationals (hence over the integers); congruence constraints are
/// ignored except for trivially-false ones.
pub fn rationally_feasible(constraints: &[Constraint], total: usize) -> bool {
    let mut work: Vec<Constraint> = Vec::new();
    for c in constraints {
        match c.normalized() {
            Ok(n) => work.push(n),
            Err(Folded::True) => {}
            Err(_) => return false,
        }
    }
    for v in 0..total {
        // Charge the budget per eliminated variable, weighted by the live
        // constraint count: FM's cost (and blow-up risk) is in the working
        // set, so adversarial nests burn budget proportionally faster.
        rcp_guard::tick(rcp_guard::Stage::FmProjection, 1 + work.len() as u64);
        rcp_guard::fail_point("presburger::fm", rcp_guard::Stage::FmProjection);
        let elim = eliminate_dim(&work, v);
        if elim.infeasible {
            return false;
        }
        work = elim.constraints;
        // Guard against pathological constraint blow-up: FM is worst-case
        // exponential; the sets in this domain are tiny, but stay safe.
        if work.len() > 4096 {
            return true; // give up: assume feasible (sound for emptiness tests)
        }
    }
    // All variables eliminated: every remaining constraint is constant.
    work.iter().all(|c| c.fold() != Folded::False)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::Affine;

    fn geq(coeffs: Vec<i64>, k: i64) -> Constraint {
        Constraint::geq(Affine::new(coeffs, k))
    }
    fn eq(coeffs: Vec<i64>, k: i64) -> Constraint {
        Constraint::eq(Affine::new(coeffs, k))
    }

    #[test]
    fn fm_simple_projection() {
        // { (x, y) | 1 <= x <= 5, x <= y <= x + 2 }, eliminate x:
        // expect 1 <= y (from x>=1, y>=x) and y <= 7 (from x<=5, y<=x+2).
        let cs = vec![
            geq(vec![1, 0], -1), // x - 1 >= 0
            geq(vec![-1, 0], 5), // 5 - x >= 0
            geq(vec![-1, 1], 0), // y - x >= 0
            geq(vec![1, -1], 2), // x + 2 - y >= 0
        ];
        let elim = eliminate_dim(&cs, 0);
        assert!(elim.exact);
        assert!(!elim.infeasible);
        // Check with sample points on y: y in [1, 7] should be feasible,
        // y = 0 and y = 8 infeasible.
        let sat = |y: i64| elim.constraints.iter().all(|c| c.satisfied(&[0, y]));
        assert!(!sat(0));
        assert!(sat(1));
        assert!(sat(7));
        assert!(!sat(8));
    }

    #[test]
    fn equality_substitution_unit_coefficient() {
        // { x = y + 1, 1 <= x <= 4 }, eliminate x -> 1 <= y + 1 <= 4
        let cs = vec![
            eq(vec![1, -1], -1),
            geq(vec![1, 0], -1),
            geq(vec![-1, 0], 4),
        ];
        let elim = eliminate_dim(&cs, 0);
        assert!(elim.exact);
        let sat = |y: i64| elim.constraints.iter().all(|c| c.satisfied(&[0, y]));
        assert!(sat(0));
        assert!(sat(3));
        assert!(!sat(-1));
        assert!(!sat(4));
    }

    #[test]
    fn equality_substitution_introduces_congruence() {
        // Figure 2 relation restricted: { (i, j) | 2i + j = 21 }, eliminate i:
        // j must satisfy 21 - j ≡ 0 (mod 2), i.e. j odd.
        let cs = vec![eq(vec![2, 1], -21)];
        let elim = eliminate_dim(&cs, 0);
        assert!(elim.exact);
        let sat = |j: i64| elim.constraints.iter().all(|c| c.satisfied(&[0, j]));
        assert!(sat(9));
        assert!(sat(21));
        assert!(!sat(10));
    }

    #[test]
    fn equality_substitution_negative_coefficient() {
        // { -3x + y = 0, y <= 9, y >= -9 } eliminate x: y ≡ 0 (mod 3)
        let cs = vec![eq(vec![-3, 1], 0), geq(vec![0, -1], 9), geq(vec![0, 1], 9)];
        let elim = eliminate_dim(&cs, 0);
        assert!(elim.exact);
        let sat = |j: i64| elim.constraints.iter().all(|c| c.satisfied(&[0, j]));
        assert!(sat(6));
        assert!(sat(-6));
        assert!(!sat(5));
        assert!(!sat(12)); // violates y <= 9
    }

    #[test]
    fn fm_detects_infeasibility() {
        // x >= 5 and x <= 3
        let cs = vec![geq(vec![1], -5), geq(vec![-1], 3)];
        let elim = eliminate_dim(&cs, 0);
        assert!(elim.infeasible);
    }

    #[test]
    fn fm_flags_approximate_pairs() {
        // Eliminate x from { 2x - y >= 0, -3x + y + 1 >= 0 }: both bound
        // coefficients exceed 1, so the real shadow (y <= 2) may admit
        // values of y (e.g. y = 1) with no integer x — the elimination must
        // be flagged as approximate.
        let cs = vec![geq(vec![2, -1], 0), geq(vec![-3, 1], 1)];
        let elim = eliminate_dim(&cs, 0);
        assert!(!elim.infeasible);
        assert!(!elim.exact);
    }

    #[test]
    fn rational_feasibility() {
        assert!(rationally_feasible(
            &[geq(vec![1, 0], 0), geq(vec![0, 1], 0)],
            2
        ));
        assert!(!rationally_feasible(
            &[geq(vec![1], -5), geq(vec![-1], 3)],
            1
        ));
        // equality infeasible over integers is caught by normalization
        assert!(!rationally_feasible(&[eq(vec![2, 4], -3)], 2));
        // empty constraint list = universe
        assert!(rationally_feasible(&[], 3));
    }
}
