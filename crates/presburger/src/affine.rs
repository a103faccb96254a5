//! Integer affine expressions over a [`Space`].

use crate::space::Space;
use rcp_intlin::gcd_slice;
use std::fmt;

/// An affine expression `Σ cᵥ·xᵥ + Σ dₚ·Nₚ + k` over the set dimensions
/// `xᵥ` and parameters `Nₚ` of a [`Space`].
///
/// Coefficients are stored as one flat vector in `[dims..., params...]`
/// order, matching [`Space::var_name`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Affine {
    /// Coefficients for set dimensions then parameters.
    coeffs: Vec<i64>,
    /// Constant term.
    constant: i64,
}

impl Affine {
    /// The zero expression in a space with `total` variables.
    pub fn zero(total: usize) -> Self {
        Affine {
            coeffs: vec![0; total],
            constant: 0,
        }
    }

    /// A constant expression.
    pub fn constant(total: usize, k: i64) -> Self {
        Affine {
            coeffs: vec![0; total],
            constant: k,
        }
    }

    /// The expression consisting of variable `v` alone.
    pub fn var(total: usize, v: usize) -> Self {
        let mut coeffs = vec![0; total];
        coeffs[v] = 1;
        Affine {
            coeffs,
            constant: 0,
        }
    }

    /// Builds an expression from explicit coefficients and constant.
    pub fn new(coeffs: Vec<i64>, constant: i64) -> Self {
        Affine { coeffs, constant }
    }

    /// Number of variables this expression ranges over.
    pub fn total(&self) -> usize {
        self.coeffs.len()
    }

    /// Coefficient of variable `v`.
    pub fn coeff(&self, v: usize) -> i64 {
        self.coeffs[v]
    }

    /// Mutable access to the coefficient of variable `v`.
    pub fn coeff_mut(&mut self, v: usize) -> &mut i64 {
        &mut self.coeffs[v]
    }

    /// All coefficients.
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    /// Constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// True if every coefficient is zero.
    pub fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// Sum of two expressions.
    pub fn add(&self, other: &Affine) -> Affine {
        assert_eq!(self.total(), other.total(), "space mismatch");
        Affine {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(a, b)| a + b)
                .collect(),
            constant: self.constant + other.constant,
        }
    }

    /// Difference of two expressions.
    pub fn sub(&self, other: &Affine) -> Affine {
        assert_eq!(self.total(), other.total(), "space mismatch");
        Affine {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(a, b)| a - b)
                .collect(),
            constant: self.constant - other.constant,
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, k: i64) -> Affine {
        Affine {
            coeffs: self.coeffs.iter().map(|c| c * k).collect(),
            constant: self.constant * k,
        }
    }

    /// Negation.
    pub fn neg(&self) -> Affine {
        self.scale(-1)
    }

    /// Adds `k` to the constant term.
    pub fn offset(&self, k: i64) -> Affine {
        let mut out = self.clone();
        out.constant += k;
        out
    }

    /// Evaluates the expression at a full assignment
    /// `[dims..., params...]`.
    pub fn eval(&self, point: &[i64]) -> i64 {
        assert_eq!(point.len(), self.coeffs.len(), "point arity mismatch");
        self.constant
            + self
                .coeffs
                .iter()
                .zip(point)
                .map(|(c, x)| c * x)
                .sum::<i64>()
    }

    /// Substitutes variable `v` with the affine expression `replacement`
    /// (over the same space).  The coefficient of `v` in the result is the
    /// coefficient `replacement` assigns to `v` (normally zero).
    pub fn substitute(&self, v: usize, replacement: &Affine) -> Affine {
        assert_eq!(self.total(), replacement.total(), "space mismatch");
        let cv = self.coeffs[v];
        let mut out = self.clone();
        out.coeffs[v] = 0;
        out.add(&replacement.scale(cv))
    }

    /// Substitutes variable `v` with the integer value `value`.
    pub fn bind(&self, v: usize, value: i64) -> Affine {
        let mut out = self.clone();
        out.constant += out.coeffs[v] * value;
        out.coeffs[v] = 0;
        out
    }

    /// Removes variable `v` from the coefficient vector entirely (the
    /// coefficient must already be zero), shrinking the expression's space
    /// by one variable.
    pub fn drop_var(&self, v: usize) -> Affine {
        assert_eq!(
            self.coeffs[v], 0,
            "dropping a variable with non-zero coefficient"
        );
        let mut coeffs = self.coeffs.clone();
        coeffs.remove(v);
        Affine {
            coeffs,
            constant: self.constant,
        }
    }

    /// Inserts `count` fresh variables with zero coefficient at position
    /// `at`, growing the expression's space.
    pub fn insert_vars(&self, at: usize, count: usize) -> Affine {
        let mut coeffs = self.coeffs.clone();
        for _ in 0..count {
            coeffs.insert(at, 0);
        }
        Affine {
            coeffs,
            constant: self.constant,
        }
    }

    /// The gcd of all variable coefficients (0 for a constant expression).
    pub fn coeff_gcd(&self) -> i64 {
        gcd_slice(&self.coeffs)
    }

    /// Renders the expression using variable names from `space`.
    pub fn display(&self, space: &Space) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (v, &c) in self.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let name = space.var_name(v);
            let term = match c {
                1 => name.to_string(),
                -1 => format!("-{name}"),
                _ => format!("{c}*{name}"),
            };
            parts.push(term);
        }
        if self.constant != 0 || parts.is_empty() {
            parts.push(self.constant.to_string());
        }
        let mut out = String::new();
        for (k, p) in parts.iter().enumerate() {
            if k == 0 {
                out.push_str(p);
            } else if let Some(stripped) = p.strip_prefix('-') {
                out.push_str(" - ");
                out.push_str(stripped);
            } else {
                out.push_str(" + ");
                out.push_str(p);
            }
        }
        out
    }
}

impl fmt::Debug for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Affine({:?} + {})", self.coeffs, self.constant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_eval() {
        let e = Affine::new(vec![2, -1, 0], 5); // 2x - y + 5
        assert_eq!(e.eval(&[3, 4, 100]), 2 * 3 - 4 + 5);
        assert!(!e.is_constant());
        assert!(Affine::constant(3, 7).is_constant());
        assert_eq!(Affine::var(3, 1).eval(&[9, 8, 7]), 8);
    }

    #[test]
    fn algebra() {
        let a = Affine::new(vec![1, 2], 3);
        let b = Affine::new(vec![4, -2], 1);
        assert_eq!(a.add(&b), Affine::new(vec![5, 0], 4));
        assert_eq!(a.sub(&b), Affine::new(vec![-3, 4], 2));
        assert_eq!(a.scale(2), Affine::new(vec![2, 4], 6));
        assert_eq!(a.neg(), Affine::new(vec![-1, -2], -3));
        assert_eq!(a.offset(7), Affine::new(vec![1, 2], 10));
    }

    #[test]
    fn substitution() {
        // e = 2x + y + 1 ; substitute x := 3y - 2  =>  2(3y - 2) + y + 1 = 7y - 3
        let e = Affine::new(vec![2, 1], 1);
        let r = Affine::new(vec![0, 3], -2);
        assert_eq!(e.substitute(0, &r), Affine::new(vec![0, 7], -3));
        // bind y := 5 in e  =>  2x + 6
        assert_eq!(e.bind(1, 5), Affine::new(vec![2, 0], 6));
    }

    #[test]
    fn variable_insertion_and_removal() {
        let e = Affine::new(vec![1, 2], 3);
        let wider = e.insert_vars(1, 2);
        assert_eq!(wider, Affine::new(vec![1, 0, 0, 2], 3));
        let back = wider.drop_var(1).drop_var(1);
        assert_eq!(back, e);
    }

    #[test]
    #[should_panic]
    fn dropping_used_variable_panics() {
        let e = Affine::new(vec![1, 2], 3);
        let _ = e.drop_var(0);
    }

    #[test]
    fn display_with_names() {
        let space = Space::with_names(&["i", "j"], &["N"]);
        let e = Affine::new(vec![2, -1, 1], -3); // 2i - j + N - 3
        assert_eq!(e.display(&space), "2*i - j + N - 3");
        assert_eq!(Affine::zero(3).display(&space), "0");
    }

    #[test]
    fn coefficient_gcd() {
        assert_eq!(Affine::new(vec![4, 6, 8], 3).coeff_gcd(), 2);
        assert_eq!(Affine::constant(2, 5).coeff_gcd(), 0);
    }
}
