//! Symbolic linear expressions used when *building* loop nests.
//!
//! Loop bounds and array subscripts are written by name
//! (`LinExpr::var("I1") * 2 + 1`) and later resolved against the loop nest's
//! index variables and parameters into positional [`rcp_presburger::Affine`]
//! expressions.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A variable that could not be resolved or evaluated: it is neither an
/// in-scope loop index nor a declared parameter (resolution), or it has no
/// binding (evaluation).
///
/// This is what user input (a hand-built [`crate::Program`], an
/// out-of-contract call) produces instead of a panic; the session layer
/// wraps it into its typed error so `rcp analyze` prints a diagnostic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnknownVariable {
    /// The offending variable name.
    pub name: String,
    /// The expression it occurred in, rendered.
    pub expr: String,
}

impl fmt::Display for UnknownVariable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown variable `{}` in expression `{}`",
            self.name, self.expr
        )
    }
}

impl std::error::Error for UnknownVariable {}

/// A symbolic linear expression: an integer constant plus integer multiples
/// of named variables (loop indices or symbolic parameters).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LinExpr {
    /// Coefficients per variable name (absent = 0).
    pub terms: BTreeMap<String, i64>,
    /// Constant term.
    pub constant: i64,
}

impl LinExpr {
    /// The constant expression `k`.
    pub fn c(k: i64) -> Self {
        LinExpr {
            terms: BTreeMap::new(),
            constant: k,
        }
    }

    /// The expression consisting of a single variable.
    pub fn var(name: &str) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(name.to_string(), 1);
        LinExpr { terms, constant: 0 }
    }

    /// `coeff * name`.
    pub fn term(coeff: i64, name: &str) -> Self {
        let mut terms = BTreeMap::new();
        if coeff != 0 {
            terms.insert(name.to_string(), coeff);
        }
        LinExpr { terms, constant: 0 }
    }

    /// The coefficient of a named variable.
    pub fn coeff_of(&self, name: &str) -> i64 {
        self.terms.get(name).copied().unwrap_or(0)
    }

    /// The variable names with non-zero coefficients.
    pub fn variables(&self) -> Vec<&str> {
        self.terms
            .iter()
            .filter(|(_, &c)| c != 0)
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// True if the expression is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.terms.values().all(|&c| c == 0)
    }

    /// Resolves the expression to positional coefficients given an ordered
    /// list of variable names (loop indices then parameters).
    ///
    /// # Panics
    /// Panics when the expression mentions a variable not in `names`; use
    /// [`Self::try_resolve`] on unvalidated input.
    // Panic-hygiene allow: documented panicking convenience over the
    // fallible `try_resolve`, for callers holding validated programs.
    #[allow(clippy::panic)]
    pub fn resolve(&self, names: &[&str]) -> (Vec<i64>, i64) {
        self.try_resolve(names).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::resolve`]: reports the first variable not in
    /// `names` instead of panicking.
    pub fn try_resolve(&self, names: &[&str]) -> Result<(Vec<i64>, i64), UnknownVariable> {
        let mut coeffs = vec![0i64; names.len()];
        for (name, &c) in &self.terms {
            if c == 0 {
                continue;
            }
            let pos = names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| UnknownVariable {
                    name: name.clone(),
                    expr: self.to_string(),
                })?;
            coeffs[pos] += c;
        }
        Ok((coeffs, self.constant))
    }

    /// Substitutes a concrete value for one named variable, folding it into
    /// the constant term.
    pub fn bind(&self, name: &str, value: i64) -> LinExpr {
        let mut out = self.clone();
        if let Some(coeff) = out.terms.remove(name) {
            out.constant += coeff * value;
        }
        out
    }
}

impl From<i64> for LinExpr {
    fn from(k: i64) -> Self {
        LinExpr::c(k)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        let mut out = self;
        for (n, c) in rhs.terms {
            *out.terms.entry(n).or_insert(0) += c;
        }
        out.constant += rhs.constant;
        out
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + (-rhs)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        LinExpr {
            terms: self.terms.into_iter().map(|(n, c)| (n, -c)).collect(),
            constant: -self.constant,
        }
    }
}

impl Mul<i64> for LinExpr {
    type Output = LinExpr;
    fn mul(self, k: i64) -> LinExpr {
        LinExpr {
            terms: self.terms.into_iter().map(|(n, c)| (n, c * k)).collect(),
            constant: self.constant * k,
        }
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (n, &c) in &self.terms {
            if c == 0 {
                continue;
            }
            if first {
                match c {
                    1 => write!(f, "{n}")?,
                    -1 => write!(f, "-{n}")?,
                    _ => write!(f, "{c}*{n}")?,
                }
                first = false;
            } else if c > 0 {
                if c == 1 {
                    write!(f, " + {n}")?;
                } else {
                    write!(f, " + {c}*{n}")?;
                }
            } else if c == -1 {
                write!(f, " - {n}")?;
            } else {
                write!(f, " - {}*{n}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

/// Shorthand for [`LinExpr::var`].
pub fn v(name: &str) -> LinExpr {
    LinExpr::var(name)
}

/// Shorthand for [`LinExpr::c`].
pub fn c(k: i64) -> LinExpr {
    LinExpr::c(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn building_and_resolving() {
        // 3*I1 + 1
        let e = v("I1") * 3 + c(1);
        assert_eq!(e.coeff_of("I1"), 3);
        assert_eq!(e.coeff_of("I2"), 0);
        let (coeffs, k) = e.resolve(&["I1", "I2", "N"]);
        assert_eq!(coeffs, vec![3, 0, 0]);
        assert_eq!(k, 1);
        // 2*I1 + I2 - 1
        let e = v("I1") * 2 + v("I2") - c(1);
        let (coeffs, k) = e.resolve(&["I1", "I2"]);
        assert_eq!(coeffs, vec![2, 1]);
        assert_eq!(k, -1);
    }

    #[test]
    fn arithmetic_identities() {
        let e = v("i") * 2 - v("i");
        assert_eq!(e.coeff_of("i"), 1);
        let z = v("j") - v("j");
        assert_eq!(z.coeff_of("j"), 0);
        assert!(z.is_constant());
        assert_eq!((-v("k")).coeff_of("k"), -1);
        assert_eq!((c(3) * 4).constant, 12);
    }

    #[test]
    fn evaluation() {
        let e = v("i") * 2 + v("j") - c(1);
        assert_eq!(e.resolve(&["j", "i"]), (vec![1, 2], -1));
        let bound = e.bind("i", 3).bind("j", 5);
        assert!(bound.is_constant());
        assert_eq!(bound.constant, 10);
    }

    #[test]
    #[should_panic]
    fn unknown_variable_panics() {
        let e = v("q");
        let _ = e.resolve(&["i", "j"]);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", v("i") * 2 + v("j") - c(1)), "2*i + j - 1");
        assert_eq!(format!("{}", c(0)), "0");
        assert_eq!(format!("{}", c(21) - v("i")), "-i + 21");
    }

    #[test]
    #[allow(clippy::erasing_op)] // the zero coefficient is the point
    fn variables_listing() {
        let e = v("a") + v("b") * 0 + v("c") * 2;
        assert_eq!(e.variables(), vec!["a", "c"]);
    }
}
