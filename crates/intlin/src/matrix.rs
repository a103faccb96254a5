//! Dense integer and rational matrices.
//!
//! The matrices in this problem domain are tiny (loop depth × subscript
//! dimension, i.e. at most a handful of rows and columns), so a simple
//! row-major `Vec` representation with exact arithmetic is both adequate
//! and easy to audit.  `IMat` is the integer matrix used for subscript
//! coefficients `A`, `B`; `RatMat` is the rational matrix used for the
//! recurrence matrix `T = B·A⁻¹` and its inverse.

use crate::rational::Rational;
use crate::vector::IVec;
use std::fmt;

/// A dense integer matrix in row-major order.
///
/// Following the paper's convention, a matrix with `rows == m` maps an
/// `m`-dimensional row vector `i` to `i · M` of dimension `cols`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IMat {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl IMat {
    /// Creates a matrix from a row-major data slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<i64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        IMat { rows, cols, data }
    }

    /// Creates a matrix from nested rows.
    pub fn from_rows(rows: &[Vec<i64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        for row in rows {
            assert_eq!(row.len(), c, "ragged matrix rows");
        }
        IMat {
            rows: r,
            cols: c,
            data: rows.concat(),
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = IMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// The `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        IMat {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns row `r` as a vector.
    pub fn row(&self, r: usize) -> IVec {
        self.data[r * self.cols..(r + 1) * self.cols].to_vec()
    }

    /// Returns column `c` as a vector.
    pub fn col(&self, c: usize) -> IVec {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// The transpose.
    pub fn transpose(&self) -> IMat {
        let mut t = IMat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn mul(&self, other: &IMat) -> IMat {
        assert_eq!(self.cols, other.rows, "matrix dimension mismatch");
        let mut out = IMat::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0 {
                    continue;
                }
                for c in 0..other.cols {
                    out[(r, c)] += a * other[(k, c)];
                }
            }
        }
        out
    }

    /// Row-vector-times-matrix product `v · self` (the paper's `i·A`).
    pub fn apply_row(&self, v: &[i64]) -> IVec {
        assert_eq!(v.len(), self.rows, "vector/matrix dimension mismatch");
        (0..self.cols)
            .map(|c| (0..self.rows).map(|r| v[r] * self[(r, c)]).sum())
            .collect()
    }

    /// Exact determinant via the fraction-free Bareiss algorithm.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    // Panic-hygiene allow: documented overflow abort — a determinant outside
    // i64 is a hard arithmetic limit, not a recoverable condition.
    #[allow(clippy::expect_used)]
    pub fn det(&self) -> i64 {
        assert!(self.is_square(), "determinant of non-square matrix");
        let n = self.rows;
        if n == 0 {
            return 1;
        }
        let mut m: Vec<Vec<i128>> = (0..n)
            .map(|r| self.row(r).iter().map(|&x| x as i128).collect())
            .collect();
        let mut sign = 1i128;
        let mut prev = 1i128;
        for k in 0..n - 1 {
            if m[k][k] == 0 {
                // pivot: find a row below with a non-zero entry in column k
                let swap = (k + 1..n).find(|&r| m[r][k] != 0);
                match swap {
                    Some(r) => {
                        m.swap(k, r);
                        sign = -sign;
                    }
                    None => return 0,
                }
            }
            for i in k + 1..n {
                for j in k + 1..n {
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev;
                }
                m[i][k] = 0;
            }
            prev = m[k][k];
        }
        let d = sign * m[n - 1][n - 1];
        i64::try_from(d).expect("determinant overflows i64")
    }

    /// Rank of the matrix (over the rationals).
    pub fn rank(&self) -> usize {
        self.to_rational().rank()
    }

    /// True if the matrix is square with full rank.
    pub fn is_full_rank(&self) -> bool {
        self.is_square() && self.det() != 0
    }

    /// True if the matrix is unimodular (square, determinant ±1).
    pub fn is_unimodular(&self) -> bool {
        self.is_square() && self.det().abs() == 1
    }

    /// Converts to a rational matrix.
    pub fn to_rational(&self) -> RatMat {
        RatMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| Rational::from_int(x)).collect(),
        }
    }

    /// Exact inverse as a rational matrix, or `None` if singular.
    pub fn inverse(&self) -> Option<RatMat> {
        self.to_rational().inverse()
    }
}

impl std::ops::Index<(usize, usize)> for IMat {
    type Output = i64;
    fn index(&self, (r, c): (usize, usize)) -> &i64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for IMat {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut i64 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for IMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IMat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

/// A dense rational matrix in row-major order.
#[derive(Clone, PartialEq, Eq)]
pub struct RatMat {
    rows: usize,
    cols: usize,
    data: Vec<Rational>,
}

impl RatMat {
    /// Creates a matrix from a row-major data vector.
    pub fn new(rows: usize, cols: usize, data: Vec<Rational>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        RatMat { rows, cols, data }
    }

    /// The `n × n` rational identity.
    pub fn identity(n: usize) -> Self {
        let mut m = RatMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Rational::ONE;
        }
        m
    }

    /// The zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        RatMat {
            rows,
            cols,
            data: vec![Rational::ZERO; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix product.
    pub fn mul(&self, other: &RatMat) -> RatMat {
        assert_eq!(self.cols, other.rows, "matrix dimension mismatch");
        let mut out = RatMat::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a.is_zero() {
                    continue;
                }
                for c in 0..other.cols {
                    out[(r, c)] += a * other[(k, c)];
                }
            }
        }
        out
    }

    /// Row-vector-times-matrix product with a rational row vector.
    pub fn apply_row(&self, v: &[Rational]) -> Vec<Rational> {
        assert_eq!(v.len(), self.rows, "vector/matrix dimension mismatch");
        (0..self.cols)
            .map(|c| (0..self.rows).fold(Rational::ZERO, |acc, r| acc + v[r] * self[(r, c)]))
            .collect()
    }

    /// Determinant by Gaussian elimination with exact rationals.
    pub fn det(&self) -> Rational {
        assert_eq!(self.rows, self.cols, "determinant of non-square matrix");
        let n = self.rows;
        let mut m = self.clone();
        let mut det = Rational::ONE;
        for k in 0..n {
            // pivot
            let pivot = (k..n).find(|&r| !m[(r, k)].is_zero());
            let pr = match pivot {
                Some(pr) => pr,
                None => return Rational::ZERO,
            };
            if pr != k {
                m.swap_rows(pr, k);
                det = -det;
            }
            det = det * m[(k, k)];
            let inv = m[(k, k)].recip();
            for r in k + 1..n {
                let factor = m[(r, k)] * inv;
                if factor.is_zero() {
                    continue;
                }
                for c in k..n {
                    let v = m[(k, c)];
                    m[(r, c)] = m[(r, c)] - factor * v;
                }
            }
        }
        det
    }

    /// Rank by Gaussian elimination.
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        let mut rank = 0;
        let mut row = 0;
        for col in 0..m.cols {
            if row >= m.rows {
                break;
            }
            let pivot = (row..m.rows).find(|&r| !m[(r, col)].is_zero());
            let pr = match pivot {
                Some(pr) => pr,
                None => continue,
            };
            m.swap_rows(pr, row);
            let inv = m[(row, col)].recip();
            for r in 0..m.rows {
                if r == row || m[(r, col)].is_zero() {
                    continue;
                }
                let factor = m[(r, col)] * inv;
                for c in col..m.cols {
                    let v = m[(row, c)];
                    m[(r, c)] = m[(r, c)] - factor * v;
                }
            }
            row += 1;
            rank += 1;
        }
        rank
    }

    /// Exact inverse via Gauss-Jordan, or `None` when singular.
    pub fn inverse(&self) -> Option<RatMat> {
        assert_eq!(self.rows, self.cols, "inverse of non-square matrix");
        let n = self.rows;
        let mut m = self.clone();
        let mut inv = RatMat::identity(n);
        for k in 0..n {
            let pivot = (k..n).find(|&r| !m[(r, k)].is_zero())?;
            m.swap_rows(pivot, k);
            inv.swap_rows(pivot, k);
            let p = m[(k, k)].recip();
            for c in 0..n {
                m[(k, c)] = m[(k, c)] * p;
                inv[(k, c)] = inv[(k, c)] * p;
            }
            for r in 0..n {
                if r == k || m[(r, k)].is_zero() {
                    continue;
                }
                let factor = m[(r, k)];
                for c in 0..n {
                    let mv = m[(k, c)];
                    let iv = inv[(k, c)];
                    m[(r, c)] = m[(r, c)] - factor * mv;
                    inv[(r, c)] = inv[(r, c)] - factor * iv;
                }
            }
        }
        Some(inv)
    }

    /// True if every entry is an integer.
    pub fn is_integral(&self) -> bool {
        self.data.iter().all(|r| r.is_integer())
    }

    /// Converts to an integer matrix when every entry is integral.
    // Panic-hygiene allow: the `unwrap` is guarded by the `is_integral`
    // check above it — every entry is known to be an integer.
    #[allow(clippy::unwrap_used)]
    pub fn to_integer(&self) -> Option<IMat> {
        if !self.is_integral() {
            return None;
        }
        Some(IMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|r| r.as_integer().unwrap()).collect(),
        })
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            let ia = a * self.cols + c;
            let ib = b * self.cols + c;
            self.data.swap(ia, ib);
        }
    }
}

impl std::ops::Index<(usize, usize)> for RatMat {
    type Output = Rational;
    fn index(&self, (r, c): (usize, usize)) -> &Rational {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for RatMat {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Rational {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for RatMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RatMat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            let row: Vec<String> = (0..self.cols).map(|c| self[(r, c)].to_string()).collect();
            writeln!(f, "  [{}]", row.join(", "))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = IMat::from_rows(&[vec![1, 2], vec![3, 4]]);
        assert_eq!(m[(0, 1)], 2);
        assert_eq!(m.row(1), vec![3, 4]);
        assert_eq!(m.col(0), vec![1, 3]);
        assert_eq!(m.transpose().row(0), vec![1, 3]);
    }

    #[test]
    fn identity_and_multiplication() {
        let m = IMat::from_rows(&[vec![1, 2], vec![3, 4]]);
        let i = IMat::identity(2);
        assert_eq!(m.mul(&i), m);
        assert_eq!(i.mul(&m), m);
        let p = m.mul(&m);
        assert_eq!(p, IMat::from_rows(&[vec![7, 10], vec![15, 22]]));
    }

    #[test]
    fn row_application_matches_paper_convention() {
        // Example 1 of the paper: reference a(3*I1+1, 2*I1+I2-1) has
        //   A = [[3,2],[0,1]], a = (1,-1); iteration (1,2) maps to (4,3).
        let a = IMat::from_rows(&[vec![3, 2], vec![0, 1]]);
        assert_eq!(a.apply_row(&[1, 2]), vec![3, 4]);
    }

    #[test]
    fn determinants() {
        assert_eq!(IMat::from_rows(&[vec![3, 2], vec![0, 1]]).det(), 3);
        assert_eq!(IMat::from_rows(&[vec![1, 2], vec![2, 4]]).det(), 0);
        assert_eq!(IMat::identity(3).det(), 1);
        let m = IMat::from_rows(&[vec![0, 1, 2], vec![1, 0, 3], vec![4, -3, 8]]);
        assert_eq!(m.det(), -2);
        assert_eq!(IMat::new(0, 0, vec![]).det(), 1);
    }

    #[test]
    fn rank_and_full_rank() {
        assert_eq!(IMat::from_rows(&[vec![1, 2], vec![2, 4]]).rank(), 1);
        assert_eq!(IMat::from_rows(&[vec![1, 2], vec![3, 4]]).rank(), 2);
        assert!(IMat::from_rows(&[vec![1, 2], vec![3, 4]]).is_full_rank());
        assert!(!IMat::from_rows(&[vec![1, 2], vec![2, 4]]).is_full_rank());
        assert_eq!(IMat::zeros(2, 3).rank(), 0);
    }

    #[test]
    fn unimodularity() {
        assert!(IMat::identity(3).is_unimodular());
        assert!(IMat::from_rows(&[vec![1, 1], vec![0, 1]]).is_unimodular());
        assert!(!IMat::from_rows(&[vec![2, 0], vec![0, 1]]).is_unimodular());
    }

    #[test]
    fn rational_inverse_round_trip() {
        let a = IMat::from_rows(&[vec![3, 2], vec![0, 1]]);
        let inv = a.inverse().unwrap();
        let prod = a.to_rational().mul(&inv);
        assert_eq!(prod, RatMat::identity(2));
        assert!(IMat::from_rows(&[vec![1, 2], vec![2, 4]])
            .inverse()
            .is_none());
    }

    #[test]
    fn example1_recurrence_matrix() {
        // T = B·A⁻¹ for example 1: A=[[3,2],[0,1]], B=[[1,0],[0,1]], so
        // T = A⁻¹ and det(T) = 1/3 — the paper uses T = B·A⁻¹ with
        // |det(T⁻¹)| = 3 driving the Theorem-1 bound.
        let a = IMat::from_rows(&[vec![3, 2], vec![0, 1]]);
        let b = IMat::identity(2);
        let t = b.to_rational().mul(&a.inverse().unwrap());
        assert_eq!(t.det(), Rational::new(1, 3));
        let tinv = t.inverse().unwrap();
        assert_eq!(tinv.det(), Rational::from_int(3));
    }

    #[test]
    fn rational_matrix_rank() {
        let m = RatMat::new(
            2,
            3,
            vec![
                Rational::new(1, 2),
                Rational::ONE,
                Rational::ZERO,
                Rational::ONE,
                Rational::from_int(2),
                Rational::ZERO,
            ],
        );
        assert_eq!(m.rank(), 1);
    }

    #[test]
    fn integral_conversion() {
        let m = IMat::from_rows(&[vec![2, 0], vec![0, 2]]);
        let r = m.to_rational();
        assert!(r.is_integral());
        assert_eq!(r.to_integer().unwrap(), m);
        let half = RatMat::new(1, 1, vec![Rational::new(1, 2)]);
        assert!(half.to_integer().is_none());
    }
}
