//! Variable spaces: set dimensions plus symbolic parameters.

use std::fmt;

/// The space a set or expression lives in: `dim` integer set dimensions
/// (iteration or statement index variables) followed by `params` named
/// symbolic parameters (loop bounds unknown at compile time).
///
/// Affine expressions over a space have one coefficient per set dimension,
/// then one per parameter, then a constant.  Set dimensions can be
/// projected away or enumerated; parameters are never projected and must be
/// bound to concrete values (see [`crate::ConvexSet::bind_params`]) before a
/// set can be enumerated.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Space {
    dim_names: Vec<String>,
    param_names: Vec<String>,
}

impl Space {
    /// Creates a space with `dim` anonymous set dimensions and no parameters.
    pub fn new(dim: usize) -> Self {
        Space {
            dim_names: (0..dim).map(|i| format!("x{i}")).collect(),
            param_names: Vec::new(),
        }
    }

    /// Creates a space with named set dimensions and named parameters.
    pub fn with_names(dims: &[&str], params: &[&str]) -> Self {
        Space {
            dim_names: dims.iter().map(|s| s.to_string()).collect(),
            param_names: params.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Creates a space with `dim` anonymous set dimensions and the given
    /// parameter names.
    pub fn with_params(dim: usize, params: &[&str]) -> Self {
        Space {
            dim_names: (0..dim).map(|i| format!("x{i}")).collect(),
            param_names: params.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Number of set dimensions.
    pub fn dim(&self) -> usize {
        self.dim_names.len()
    }

    /// Number of symbolic parameters.
    pub fn n_params(&self) -> usize {
        self.param_names.len()
    }

    /// Total number of variables (set dimensions + parameters).
    pub fn total(&self) -> usize {
        self.dim() + self.n_params()
    }

    /// Name of set dimension `i`.
    pub fn dim_name(&self, i: usize) -> &str {
        &self.dim_names[i]
    }

    /// Name of parameter `p`.
    pub fn param_name(&self, p: usize) -> &str {
        &self.param_names[p]
    }

    /// All parameter names.
    pub fn param_names(&self) -> &[String] {
        &self.param_names
    }

    /// All dimension names.
    pub fn dim_names(&self) -> &[String] {
        &self.dim_names
    }

    /// Index of the named parameter, if present.
    pub fn param_index(&self, name: &str) -> Option<usize> {
        self.param_names.iter().position(|p| p == name)
    }

    /// Name of the variable at position `v` in `[dims..., params...]` order.
    pub fn var_name(&self, v: usize) -> &str {
        if v < self.dim() {
            self.dim_name(v)
        } else {
            self.param_name(v - self.dim())
        }
    }

    /// The space describing pairs `(in, out)` used by relations: the set
    /// dimensions of `self` twice (input copy then output copy), keeping the
    /// parameters.
    pub fn product(&self, out: &Space) -> Space {
        assert_eq!(
            self.param_names, out.param_names,
            "relation spaces must share parameters"
        );
        let mut dim_names: Vec<String> = self.dim_names.iter().map(|n| n.to_string()).collect();
        dim_names.extend(out.dim_names.iter().map(|n| format!("{n}'")));
        Space {
            dim_names,
            param_names: self.param_names.clone(),
        }
    }

    /// Returns a space identical to this one but with renamed dimensions.
    pub fn renamed(&self, dims: &[&str]) -> Space {
        assert_eq!(dims.len(), self.dim(), "rename arity mismatch");
        Space {
            dim_names: dims.iter().map(|s| s.to_string()).collect(),
            param_names: self.param_names.clone(),
        }
    }
}

impl fmt::Debug for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.dim_names.join(", "))?;
        if !self.param_names.is_empty() {
            write!(f, " params [{}]", self.param_names.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let s = Space::new(3);
        assert_eq!(s.dim(), 3);
        assert_eq!(s.n_params(), 0);
        assert_eq!(s.total(), 3);
        let s = Space::with_names(&["i", "j"], &["N"]);
        assert_eq!(s.dim(), 2);
        assert_eq!(s.n_params(), 1);
        assert_eq!(s.dim_name(1), "j");
        assert_eq!(s.param_name(0), "N");
        assert_eq!(s.var_name(2), "N");
        assert_eq!(s.param_index("N"), Some(0));
        assert_eq!(s.param_index("M"), None);
    }

    #[test]
    fn product_space() {
        let s = Space::with_names(&["i1", "i2"], &["N"]);
        let p = s.product(&s);
        assert_eq!(p.dim(), 4);
        assert_eq!(p.n_params(), 1);
        assert_eq!(p.dim_name(2), "i1'");
    }

    #[test]
    #[should_panic]
    fn product_param_mismatch_panics() {
        let a = Space::with_names(&["i"], &["N"]);
        let b = Space::with_names(&["j"], &["M"]);
        let _ = a.product(&b);
    }

    #[test]
    fn renaming() {
        let s = Space::new(2).renamed(&["a", "b"]);
        assert_eq!(s.dim_name(0), "a");
        assert_eq!(s.dim_name(1), "b");
    }
}
