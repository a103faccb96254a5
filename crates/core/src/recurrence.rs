//! The recurrence equation behind a single pair of coupled references.
//!
//! With one coupled reference pair `X[i·A + a] = X[j·B + b]` and full-rank
//! `A`, `B` (Lemma 1), the dependence equation can be rewritten as the
//! recurrence
//!
//! ```text
//! i = j·T + u      with  T = B·A⁻¹,  u = (b − a)·A⁻¹
//! ```
//!
//! so every iteration has at most one predecessor and one successor and the
//! monotonic dependence chains in the intermediate set are disjoint.  This
//! module computes `T`, `u`, their inverses, follows the recurrence in both
//! directions (exactly, over one common denominator, so non-integral
//! neighbours are rejected), and evaluates the Theorem-1 critical-path bound
//! `l ≤ ⌈log_α(L)⌉ + 1` with `α = max(|det T|, |det T⁻¹|)`.

use rcp_depend::CoupledPair;
use rcp_intlin::{IVec, RatMat, Rational};

/// The recurrence `counterpart(x) = x·T + u` derived from a coupled
/// reference pair, together with its inverse map.
#[derive(Clone, Debug)]
pub struct Recurrence {
    /// `T = B·A⁻¹`.
    pub t: RatMat,
    /// `u = (b − a)·A⁻¹`.
    pub u: Vec<Rational>,
    /// `T⁻¹ = A·B⁻¹`.
    pub t_inv: RatMat,
    /// `u' = (a − b)·B⁻¹`, the offset of the inverse map.
    pub u_inv: Vec<Rational>,
    /// `x ↦ x·T + u` over a common denominator, for [`Self::apply`].
    forward: ScaledMap,
    /// `x ↦ x·T⁻¹ + u'` over a common denominator, for
    /// [`Self::apply_inverse`].
    backward: ScaledMap,
}

impl Recurrence {
    /// Builds the recurrence from a coupled reference pair.
    ///
    /// Returns `None` when either access matrix is singular (Lemma 1 does
    /// not apply and the dataflow partitioning must be used instead).
    pub fn from_pair(pair: &CoupledPair) -> Option<Recurrence> {
        let a = &pair.write.matrix;
        let b = &pair.read.matrix;
        if !a.is_full_rank() || !b.is_full_rank() {
            return None;
        }
        let a_inv = a.inverse()?;
        let b_inv = b.inverse()?;
        let t = b.to_rational().mul(&a_inv);
        let t_inv = a.to_rational().mul(&b_inv);
        let diff: Vec<Rational> = pair
            .read
            .offset
            .iter()
            .zip(&pair.write.offset)
            .map(|(&bo, &ao)| Rational::from_int(bo - ao))
            .collect();
        let u = a_inv.apply_row(&transpose_vec(&diff, &a_inv));
        let diff_neg: Vec<Rational> = diff.iter().map(|r| -*r).collect();
        let u_inv = b_inv.apply_row(&transpose_vec(&diff_neg, &b_inv));
        Some(Recurrence {
            forward: ScaledMap::new(&t, &u)?,
            backward: ScaledMap::new(&t_inv, &u_inv)?,
            t,
            u,
            t_inv,
            u_inv,
        })
    }

    /// The dimension of the iteration vectors.
    pub fn dim(&self) -> usize {
        self.t.rows()
    }

    /// Applies the forward map `x ↦ x·T + u` (the *i-role* counterpart of an
    /// iteration playing the *j* role in the dependence equation).  Returns
    /// `None` when the image is not an integer point.
    pub fn apply(&self, x: &[i64]) -> Option<IVec> {
        self.forward.apply(x)
    }

    /// Applies the inverse map `x ↦ (x − u)·T⁻¹ = x·T⁻¹ + u'`.
    pub fn apply_inverse(&self, x: &[i64]) -> Option<IVec> {
        self.backward.apply(x)
    }

    /// `α = max(|det T|, |det T⁻¹|)`, the chain contraction/expansion factor
    /// of Theorem 1.
    pub fn alpha(&self) -> Rational {
        let d = self.t.det().abs();
        let d_inv = self.t_inv.det().abs();
        if d >= d_inv {
            d
        } else {
            d_inv
        }
    }

    /// The Theorem-1 upper bound on the number of iterations of any
    /// recurrence chain inside an iteration space whose maximum Euclidean
    /// distance between two points is `max_distance`:
    /// `l ≤ ⌈log_α(L)⌉ + 1` (only meaningful when `α > 1`).
    ///
    /// Returns `None` when `α ≤ 1`, in which case the theorem gives no
    /// bound.
    pub fn critical_path_bound(&self, max_distance: f64) -> Option<usize> {
        let alpha = self.alpha().to_f64();
        if alpha <= 1.0 {
            return None;
        }
        if max_distance <= 1.0 {
            return Some(1);
        }
        let l = max_distance.ln() / alpha.ln();
        Some(l.ceil() as usize + 1)
    }

    /// The distance vector produced after `k` steps starting from a chain
    /// whose first distance is `d0`: `d_k = d0·Tᵏ` (eq. 6).  Exposed for the
    /// Theorem-1 experiments.
    pub fn distance_after(&self, d0: &[i64], k: usize) -> Vec<Rational> {
        let mut d: Vec<Rational> = d0.iter().map(|&x| Rational::from_int(x)).collect();
        for _ in 0..k {
            d = self.t.apply_row(&d);
        }
        d
    }
}

/// Helper: `apply_row` needs a rational row vector; this converts while
/// checking the dimension against the matrix.
fn transpose_vec(v: &[Rational], m: &RatMat) -> Vec<Rational> {
    assert_eq!(v.len(), m.rows(), "offset dimension mismatch");
    v.to_vec()
}

/// An affine map `x ↦ x·T + u` with rational `T` and `u`, scaled to one
/// common denominator: `num` is `T·den` (row-major) and `off` is `u·den`.
/// An image is then integer arithmetic and one divisibility test per
/// coordinate, with the same result as the exact rational evaluation.
#[derive(Clone, Debug)]
struct ScaledMap {
    rows: usize,
    cols: usize,
    num: Vec<i128>,
    off: Vec<i128>,
    den: i128,
}

impl ScaledMap {
    /// `None` only if scaling overflows `i128`.  The denominators all
    /// divide `det A` (or `det B`), an `i64`, so it does not for any
    /// recurrence whose inverse could be computed.
    fn new(t: &RatMat, u: &[Rational]) -> Option<ScaledMap> {
        let entries: Vec<Rational> = (0..t.rows())
            .flat_map(|r| (0..t.cols()).map(move |c| t[(r, c)]))
            .collect();
        let den = entries
            .iter()
            .chain(u)
            .try_fold(1i128, |acc, q| lcm128(acc, q.den()))?;
        let scale = |q: &Rational| q.num().checked_mul(den / q.den());
        Some(ScaledMap {
            rows: t.rows(),
            cols: t.cols(),
            num: entries.iter().map(scale).collect::<Option<_>>()?,
            off: u.iter().map(scale).collect::<Option<_>>()?,
            den,
        })
    }

    /// The image of `x`, or `None` when it is not an integer point (or
    /// leaves the `i64` range).
    fn apply(&self, x: &[i64]) -> Option<IVec> {
        assert_eq!(x.len(), self.rows, "vector/matrix dimension mismatch");
        (0..self.cols)
            .map(|c| {
                let scaled = x
                    .iter()
                    .enumerate()
                    .try_fold(self.off[c], |acc, (r, &xr)| {
                        acc.checked_add(self.num[r * self.cols + c].checked_mul(i128::from(xr))?)
                    })?;
                if scaled % self.den != 0 {
                    return None;
                }
                i64::try_from(scaled / self.den).ok()
            })
            .collect()
    }
}

fn lcm128(a: i128, b: i128) -> Option<i128> {
    let (mut x, mut y) = (a.abs(), b.abs());
    while y != 0 {
        (x, y) = (y, x % y);
    }
    (a / x).checked_mul(b).map(i128::abs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcp_depend::DependenceAnalysis;
    use rcp_loopir::expr::{c, v};
    use rcp_loopir::program::build::{loop_, stmt};
    use rcp_loopir::{ArrayRef, Program};

    fn example1() -> Program {
        Program::new(
            "example1",
            &["N1", "N2"],
            vec![loop_(
                "I1",
                c(1),
                v("N1"),
                vec![loop_(
                    "I2",
                    c(1),
                    v("N2"),
                    vec![stmt(
                        "S",
                        vec![
                            ArrayRef::write(
                                "a",
                                vec![v("I1") * 3 + c(1), v("I1") * 2 + v("I2") - c(1)],
                            ),
                            ArrayRef::read("a", vec![v("I1") + c(3), v("I2") + c(1)]),
                        ],
                    )],
                )],
            )],
        )
    }

    fn figure2() -> Program {
        Program::new(
            "figure2",
            &[],
            vec![loop_(
                "I",
                c(1),
                c(20),
                vec![stmt(
                    "S",
                    vec![
                        ArrayRef::write("a", vec![v("I") * 2]),
                        ArrayRef::read("a", vec![c(21) - v("I")]),
                    ],
                )],
            )],
        )
    }

    fn recurrence_of(p: &Program) -> Recurrence {
        let analysis = DependenceAnalysis::loop_level(p);
        Recurrence::from_pair(&analysis.single_coupled_pair().unwrap()).unwrap()
    }

    #[test]
    fn example1_recurrence_maps() {
        let rec = recurrence_of(&example1());
        assert_eq!(rec.dim(), 2);
        // α = max(|det T|, |det T⁻¹|) = max(1/3, 3) = 3
        assert_eq!(rec.alpha(), Rational::from_int(3));
        // The dependence (2,2) -> (4,4): the write at (2,2) equals the read
        // at (4,4), so the *predecessor* (i-role counterpart) of (4,4) is
        // (2,2): apply() maps j to i.
        assert_eq!(rec.apply(&[4, 4]), Some(vec![2, 2]));
        // and the inverse map goes forward: i -> j.
        assert_eq!(rec.apply_inverse(&[2, 2]), Some(vec![4, 4]));
        // (3,1) -> (7,5) from figure 1.
        assert_eq!(rec.apply_inverse(&[3, 1]), Some(vec![7, 5]));
        // Points whose counterpart is not integral are rejected:
        // i = (j - u)·T⁻¹ requires j1 ≡ 1 (mod 3).
        assert_eq!(rec.apply(&[5, 4]), None);
    }

    #[test]
    fn figure2_recurrence_maps() {
        let rec = recurrence_of(&figure2());
        assert_eq!(rec.dim(), 1);
        // T = B·A⁻¹ = (-1)·(1/2) = -1/2 ; α = max(1/2, 2) = 2.
        assert_eq!(rec.alpha(), Rational::from_int(2));
        // The write at i=6 (element 12) equals the read at j=9 (element
        // 21-9=12): the predecessor of 9 is 6.
        assert_eq!(rec.apply(&[9]), Some(vec![6]));
        assert_eq!(rec.apply_inverse(&[6]), Some(vec![9]));
        // The WHILE-style update of the paper, i' = 21 - 2i, is the inverse
        // map here: 3 -> 15.
        assert_eq!(rec.apply_inverse(&[3]), Some(vec![15]));
        // odd i has no integral forward image under apply() (i = (21-j)/2).
        assert_eq!(rec.apply(&[10]), None);
    }

    #[test]
    fn round_trip_is_identity_where_defined() {
        let rec = recurrence_of(&example1());
        for x in [[4i64, 4], [7, 5], [10, 10], [4, 9]] {
            if let Some(y) = rec.apply(&x) {
                assert_eq!(rec.apply_inverse(&y), Some(x.to_vec()));
            }
        }
    }

    #[test]
    fn theorem1_bound_values() {
        let rec = recurrence_of(&example1());
        // Example 1 text: at most 1 + ⌈log3(sqrt(N1² + N2²))⌉ iterations.
        let l = (300.0f64 * 300.0 + 1000.0 * 1000.0).sqrt();
        let bound = rec.critical_path_bound(l).unwrap();
        assert_eq!(bound, (l.ln() / 3.0f64.ln()).ceil() as usize + 1);
        assert!(bound <= 8);
        // Figure 2 with α = 2 and L = 19.
        let rec2 = recurrence_of(&figure2());
        let bound2 = rec2.critical_path_bound(19.0).unwrap();
        assert_eq!(bound2, 6); // ceil(log2(19)) + 1 = 5 + 1
    }

    #[test]
    fn distances_scale_by_t() {
        // eq. 6: d_k = d0 · T^k.  For example 1, T has det 1/3 and the
        // forward chains (under the inverse map) stretch distances by 3 in
        // the first coordinate.
        let rec = recurrence_of(&example1());
        let d1 = rec.distance_after(&[2, 2], 1);
        // d0·T = (2,2)·T ; T = B·A⁻¹ = A⁻¹ = [[1/3, -2/3], [0, 1]]
        assert_eq!(d1[0], Rational::new(2, 3));
        assert_eq!(d1[1], Rational::new(2, 3));
    }

    #[test]
    fn singular_pair_gives_no_recurrence() {
        // a(I+J, 2I+2J) has a singular access matrix.
        let p = Program::new(
            "singular",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![loop_(
                    "J",
                    c(1),
                    v("N"),
                    vec![stmt(
                        "S",
                        vec![
                            ArrayRef::write("a", vec![v("I") + v("J"), (v("I") + v("J")) * 2]),
                            ArrayRef::read("a", vec![v("I"), v("J")]),
                        ],
                    )],
                )],
            )],
        );
        let analysis = DependenceAnalysis::loop_level(&p);
        // single_coupled_pair already rejects the singular matrix
        assert!(analysis.single_coupled_pair().is_none());
    }
}
