//! Exact solution of systems of linear diophantine equations.
//!
//! The dependence equation of the paper, `i·A + a = j·B + b`, is a system
//! of linear diophantine equations in the combined unknown vector
//! `(i, j)`.  This module solves the generic problem `M·y = c` (column
//! convention) and `x·A = b` (the paper's row convention) exactly over the
//! integers, returning a particular solution together with a basis of the
//! lattice of homogeneous solutions; the full solution set is
//! `particular + Z·basis₁ + … + Z·basisₖ`.

use crate::hnf::hermite_normal_form;
use crate::matrix::IMat;
use crate::vector::IVec;

/// The solution set of a linear diophantine system.
///
/// Every integer solution has the form
/// `particular + Σ tₖ · basis[k]` with `tₖ ∈ Z`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiophantineSolution {
    /// One particular integer solution.
    pub particular: IVec,
    /// Basis vectors of the homogeneous solution lattice (possibly empty,
    /// in which case the solution is unique).
    pub basis: Vec<IVec>,
}

impl DiophantineSolution {
    /// True when the system has exactly one integer solution.
    pub fn is_unique(&self) -> bool {
        self.basis.is_empty()
    }

    /// Evaluates the parametric solution at the given lattice coordinates.
    ///
    /// # Panics
    /// Panics if `params.len() != self.basis.len()`.
    pub fn at(&self, params: &[i64]) -> IVec {
        assert_eq!(params.len(), self.basis.len(), "parameter count mismatch");
        let mut out = self.particular.clone();
        for (t, b) in params.iter().zip(&self.basis) {
            for (o, v) in out.iter_mut().zip(b) {
                *o += t * v;
            }
        }
        out
    }
}

/// Solves `M · y = c` over the integers, where `y` is a column vector with
/// `M.cols()` components and `c` has `M.rows()` components.
///
/// Returns `None` when the system has no integer solution.
pub fn solve_linear_system(m: &IMat, c: &[i64]) -> Option<DiophantineSolution> {
    solve_with_hnf(m, c, &hermite_normal_form(m))
}

/// [`solve_linear_system`] with the Hermite normal form of `m` supplied by
/// the caller — the HNF depends only on the coefficient matrix, so one
/// (possibly memoised) decomposition serves every right-hand side.
// Panic-hygiene allow: the `expect` is a documented overflow abort — a
// solution component outside i64 is a hard arithmetic limit, not a
// recoverable condition.
#[allow(clippy::expect_used)]
pub fn solve_with_hnf(
    m: &IMat,
    c: &[i64],
    res: &crate::hnf::HnfResult,
) -> Option<DiophantineSolution> {
    assert_eq!(c.len(), m.rows(), "right-hand side dimension mismatch");
    // Column-style HNF: M · U = H with H in column echelon form.  Writing
    // y = U·z the system becomes H·z = c, which is solved by forward
    // substitution row by row; columns of H that never serve as pivots are
    // free parameters whose images under U span the homogeneous lattice.
    let h = &res.h;
    let u = &res.u;
    let cols = m.cols();
    let mut z = vec![0i64; cols];
    let mut pivot_cols = vec![false; cols];

    for r in 0..m.rows() {
        match res.pivots[r] {
            Some(pc) => {
                pivot_cols[pc] = true;
                // residual = c[r] - Σ_{c<pc} H[r,c]·z[c]
                let mut residual = c[r] as i128;
                for cc in 0..pc {
                    residual -= h[(r, cc)] as i128 * z[cc] as i128;
                }
                let pivot = h[(r, pc)] as i128;
                if residual % pivot != 0 {
                    return None; // no integer solution for this equation
                }
                z[pc] = i64::try_from(residual / pivot).expect("diophantine solution overflow");
            }
            None => {
                // Row r of H is entirely determined by earlier pivots;
                // verify consistency of the equation.
                let mut lhs = 0i128;
                for cc in 0..cols {
                    lhs += h[(r, cc)] as i128 * z[cc] as i128;
                }
                if lhs != c[r] as i128 {
                    return None;
                }
            }
        }
    }

    // particular solution y = U·z
    let particular: IVec = (0..cols)
        .map(|row| (0..cols).map(|k| u[(row, k)] * z[k]).sum())
        .collect();

    // homogeneous basis: columns of U for the non-pivot columns of H.
    let basis: Vec<IVec> = (0..cols)
        .filter(|&cidx| !pivot_cols[cidx])
        .map(|cidx| u.col(cidx))
        .collect();

    Some(DiophantineSolution { particular, basis })
}

/// Solves `x · A = b` over the integers (the paper's row-vector
/// convention), where `x` has `A.rows()` components.
pub fn solve_row_system(a: &IMat, b: &[i64]) -> Option<DiophantineSolution> {
    solve_linear_system(&a.transpose(), b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verify(m: &IMat, c: &[i64], sol: &DiophantineSolution) {
        // particular solution satisfies the system
        let apply = |y: &[i64]| -> IVec {
            (0..m.rows())
                .map(|r| (0..m.cols()).map(|cc| m[(r, cc)] * y[cc]).sum())
                .collect()
        };
        assert_eq!(
            apply(&sol.particular),
            c.to_vec(),
            "particular not a solution"
        );
        for b in &sol.basis {
            assert_eq!(apply(b), vec![0; m.rows()], "basis vector not homogeneous");
        }
    }

    #[test]
    fn single_equation() {
        // 3x + 5y = 7
        let m = IMat::from_rows(&[vec![3, 5]]);
        let sol = solve_linear_system(&m, &[7]).unwrap();
        verify(&m, &[7], &sol);
        assert_eq!(sol.basis.len(), 1);
        // no solution when gcd does not divide rhs
        let m2 = IMat::from_rows(&[vec![4, 6]]);
        assert!(solve_linear_system(&m2, &[7]).is_none());
    }

    #[test]
    fn square_unique_solution() {
        // x + 2y = 5, 3x + 4y = 11  ->  x = 1, y = 2
        let m = IMat::from_rows(&[vec![1, 2], vec![3, 4]]);
        let sol = solve_linear_system(&m, &[5, 11]).unwrap();
        verify(&m, &[5, 11], &sol);
        assert!(sol.is_unique());
        assert_eq!(sol.particular, vec![1, 2]);
    }

    #[test]
    fn square_no_integer_solution() {
        // 2x = 1 has no integer solution
        let m = IMat::from_rows(&[vec![2, 0], vec![0, 1]]);
        assert!(solve_linear_system(&m, &[1, 0]).is_none());
    }

    #[test]
    fn inconsistent_system() {
        // x + y = 1, 2x + 2y = 3 is inconsistent
        let m = IMat::from_rows(&[vec![1, 1], vec![2, 2]]);
        assert!(solve_linear_system(&m, &[1, 3]).is_none());
    }

    #[test]
    fn underdetermined_system_parametric() {
        // x + y + z = 6 : two free parameters
        let m = IMat::from_rows(&[vec![1, 1, 1]]);
        let sol = solve_linear_system(&m, &[6]).unwrap();
        verify(&m, &[6], &sol);
        assert_eq!(sol.basis.len(), 2);
        // every instantiation satisfies the system
        for t in [-2i64, 0, 3] {
            for s in [-1i64, 1, 4] {
                let y = sol.at(&[t, s]);
                assert_eq!(y.iter().sum::<i64>(), 6);
            }
        }
    }

    #[test]
    fn paper_example1_dependence_equation() {
        // Example 1 (eq. 3):  3 i1 + 1 = j1 + 3,  2 i1 + i2 - 1 = j2 + 1
        // as a system over (i1, i2, j1, j2):
        //   3 i1            - j1      = 2
        //   2 i1 + i2            - j2 = 2
        let m = IMat::from_rows(&[vec![3, 0, -1, 0], vec![2, 1, 0, -1]]);
        let sol = solve_linear_system(&m, &[2, 2]).unwrap();
        verify(&m, &[2, 2], &sol);
        assert_eq!(sol.basis.len(), 2);
        // The solutions satisfy j = (3*i1 - 2, 2*i1 + i2 - 2), so
        // (2,2) -> (4,4) is a direct dependence with distance (2,2) — one of
        // the d=2 arrows of Figure 1.  (The prose example "(1,2)->(3,4)" in
        // the paper does not satisfy its own equation (3): 3·1 + 1 = 4,
        // but 3 + 3 = 6.)
        let mut found = false;
        for t in -30..=30 {
            for s in -30..=30 {
                if sol.at(&[t, s]) == vec![2, 2, 4, 4] {
                    found = true;
                }
            }
        }
        assert!(found, "dependence (2,2)->(4,4) must be a solution of eq. 3");
    }

    #[test]
    fn figure2_dependence_equation() {
        // Figure 2: a(2I) = a(21-I)  =>  2 i = 21 - j  =>  2 i + j = 21.
        let m = IMat::from_rows(&[vec![2, 1]]);
        let sol = solve_linear_system(&m, &[21]).unwrap();
        verify(&m, &[21], &sol);
        // 6 -> 9 is a solution (2*6 = 12 = 21 - 9).
        let mut found = false;
        for t in -60..=60 {
            if sol.at(&[t]) == vec![6, 9] {
                found = true;
            }
        }
        assert!(found);
    }

    #[test]
    fn row_convention_wrapper() {
        // x·A = b with A = [[3,2],[0,1]] and b = (3,4) -> x = (1,2)
        let a = IMat::from_rows(&[vec![3, 2], vec![0, 1]]);
        let sol = solve_row_system(&a, &[3, 4]).unwrap();
        assert!(sol.is_unique());
        assert_eq!(sol.particular, vec![1, 2]);
    }

    #[test]
    fn zero_matrix_cases() {
        let m = IMat::zeros(2, 3);
        // homogeneous: every vector is a solution
        let sol = solve_linear_system(&m, &[0, 0]).unwrap();
        assert_eq!(sol.basis.len(), 3);
        // inconsistent
        assert!(solve_linear_system(&m, &[1, 0]).is_none());
    }
}
