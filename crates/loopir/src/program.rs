//! The loop-nest program structure: loops, statements and array references.
//!
//! This is the program model of §2 of the paper: `m` nested loops,
//! normalized to unit stride, whose bounds are affine functions of outer
//! loop indices and symbolic parameters, containing statements whose array
//! references have affine subscripts `X[I·A + a]`.  Imperfect nesting and
//! multiple statements per body are allowed (§3.3 extends the iteration
//! space to statement level for exactly this case).

use crate::expr::{LinExpr, UnknownVariable};
use std::fmt;

/// An undeclared variable found while validating a [`Program`]: the
/// variable is neither an enclosing loop index nor a declared parameter.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnboundVariable {
    /// The offending variable.
    pub variable: UnknownVariable,
    /// Where it occurred (statement / bound context, human-readable).
    pub context: String,
}

impl fmt::Display for UnboundVariable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.variable, self.context)
    }
}

impl std::error::Error for UnboundVariable {}

/// How an array reference accesses memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// The reference reads the element.
    Read,
    /// The reference writes the element.
    Write,
}

/// An affine array reference `X[e₁, e₂, …]` inside a statement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArrayRef {
    /// The array name.
    pub array: String,
    /// One affine subscript expression per array dimension.
    pub subscripts: Vec<LinExpr>,
    /// Read or write.
    pub kind: AccessKind,
}

impl ArrayRef {
    /// A read reference.
    pub fn read(array: &str, subscripts: Vec<LinExpr>) -> Self {
        ArrayRef {
            array: array.to_string(),
            subscripts,
            kind: AccessKind::Read,
        }
    }

    /// A write reference.
    pub fn write(array: &str, subscripts: Vec<LinExpr>) -> Self {
        ArrayRef {
            array: array.to_string(),
            subscripts,
            kind: AccessKind::Write,
        }
    }

    /// True for write references.
    pub fn is_write(&self) -> bool {
        self.kind == AccessKind::Write
    }

    /// The array rank (number of subscript dimensions).
    pub fn rank(&self) -> usize {
        self.subscripts.len()
    }
}

impl fmt::Display for ArrayRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let subs: Vec<String> = self.subscripts.iter().map(|s| s.to_string()).collect();
        write!(f, "{}({})", self.array, subs.join(", "))
    }
}

/// A statement: a named loop-body element with its array references.
///
/// The actual computation performed by the statement lives in the runtime
/// crate as a kernel closure; for dependence analysis only the references
/// matter.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Statement {
    /// Human-readable statement name (`S1`, `chain`, …).
    pub name: String,
    /// The statement's array references.
    pub refs: Vec<ArrayRef>,
}

impl Statement {
    /// Creates a statement.
    pub fn new(name: &str, refs: Vec<ArrayRef>) -> Self {
        Statement {
            name: name.to_string(),
            refs,
        }
    }

    /// The write references of the statement.
    pub fn writes(&self) -> impl Iterator<Item = &ArrayRef> {
        self.refs.iter().filter(|r| r.is_write())
    }

    /// The read references of the statement.
    pub fn reads(&self) -> impl Iterator<Item = &ArrayRef> {
        self.refs.iter().filter(|r| !r.is_write())
    }

    /// The statement in canonical reference order: writes first, then
    /// reads, the original relative order preserved within each side.
    ///
    /// Reference order inside a statement carries no semantics — every
    /// read observes the pre-statement store (the trace walker and the
    /// runtime kernels apply all reads before all writes) — so this is a
    /// pure normalisation, used by the `.loop` pretty-printer's total
    /// round-trip guarantee.
    pub fn canonicalized(&self) -> Statement {
        let mut refs: Vec<ArrayRef> = self.writes().cloned().collect();
        refs.extend(self.reads().cloned());
        Statement {
            name: self.name.clone(),
            refs,
        }
    }
}

/// A `DO` loop with unit stride: `DO index = max(lower), min(upper)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Loop {
    /// The loop index variable name.
    pub index: String,
    /// Lower bound expressions; the effective bound is their maximum.
    pub lower: Vec<LinExpr>,
    /// Upper bound expressions; the effective bound is their minimum.
    pub upper: Vec<LinExpr>,
    /// The loop body in program order.
    pub body: Vec<Node>,
}

/// A node of a loop body: either a nested loop or a statement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Node {
    /// A nested loop.
    Loop(Loop),
    /// A statement.
    Stmt(Statement),
}

/// A whole (possibly imperfectly nested) loop program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    /// Program name (used in reports).
    pub name: String,
    /// Symbolic parameters (loop bounds unknown at compile time).
    pub params: Vec<String>,
    /// Top-level nodes in program order.
    pub body: Vec<Node>,
}

/// One top-level loop nest of a (possibly imperfect) program, reduced to
/// its **maximal perfect prefix**: the chain of singleton loops from the
/// group's root downwards, which every statement of the group sits under.
/// Produced by [`Program::loop_groups`]; this is the structural basis of
/// the loop-level granularity view of imperfect nests (one aggregation
/// point per iteration of the prefix, executing the whole body below it
/// in program order).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LoopGroup {
    /// Index of the group's root among the program's top-level nodes.
    pub group: usize,
    /// The prefix chain's loop index names, outermost first (length ≥ 1).
    pub indices: Vec<String>,
    /// Bounds of the prefix chain's loops, outermost first.
    pub bounds: Vec<(Vec<LinExpr>, Vec<LinExpr>)>,
    /// Statement ids (program order) living inside this group.
    pub statements: Vec<usize>,
}

impl LoopGroup {
    /// Depth of the perfect prefix.
    pub fn depth(&self) -> usize {
        self.indices.len()
    }
}

/// A statement together with its nesting context, produced by
/// [`Program::statements`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StatementInfo {
    /// Statement id: index in program (lexical) order.
    pub id: usize,
    /// The statement itself.
    pub stmt: Statement,
    /// Names of the surrounding loop indices, outermost first.
    pub loop_indices: Vec<String>,
    /// Bounds of the surrounding loops, outermost first:
    /// `(lower exprs, upper exprs)`.
    pub bounds: Vec<(Vec<LinExpr>, Vec<LinExpr>)>,
    /// The statement position vector `(s₀, s₁, …, s_l)` of §3.3: `s₀` is the
    /// position of the outermost enclosing construct in the program, `sₖ`
    /// the position of the next construct inside loop `k`, and `s_l` the
    /// position of the statement itself in its innermost loop.
    pub positions: Vec<i64>,
}

impl StatementInfo {
    /// Nesting depth (number of surrounding loops).
    pub fn depth(&self) -> usize {
        self.loop_indices.len()
    }
}

impl Program {
    /// Creates a program.
    pub fn new(name: &str, params: &[&str], body: Vec<Node>) -> Self {
        Program {
            name: name.to_string(),
            params: params.iter().map(|s| s.to_string()).collect(),
            body,
        }
    }

    /// All statements with their nesting context, in program order.
    pub fn statements(&self) -> Vec<StatementInfo> {
        let mut out = Vec::new();
        let mut ctx = Vec::new();
        collect_statements(&self.body, &mut ctx, &mut vec![], &mut out);
        out
    }

    /// Statement id → the number of loops surrounding the statement.
    pub fn statement_depths(&self) -> Vec<usize> {
        fn collect(nodes: &[Node], depth: usize, out: &mut Vec<usize>) {
            for node in nodes {
                match node {
                    Node::Stmt(_) => out.push(depth),
                    Node::Loop(l) => collect(&l.body, depth + 1, out),
                }
            }
        }
        let mut out = Vec::new();
        collect(&self.body, 0, &mut out);
        out
    }

    /// Maximum loop nesting depth over all statements.
    pub fn max_depth(&self) -> usize {
        self.statements()
            .iter()
            .map(|s| s.depth())
            .max()
            .unwrap_or(0)
    }

    /// All distinct array names referenced by the program.
    pub fn arrays(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .statements()
            .iter()
            .flat_map(|s| s.stmt.refs.iter().map(|r| r.array.clone()))
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// True when the program is a single perfect loop nest: one chain of
    /// loops with all statements directly inside the innermost loop.
    pub fn is_perfect_nest(&self) -> bool {
        let mut nodes = &self.body;
        loop {
            let loops: Vec<&Loop> = nodes
                .iter()
                .filter_map(|n| if let Node::Loop(l) = n { Some(l) } else { None })
                .collect();
            let stmts = nodes.iter().filter(|n| matches!(n, Node::Stmt(_))).count();
            match (loops.len(), stmts) {
                (0, _) => return true,            // innermost level: only statements
                (1, 0) => nodes = &loops[0].body, // descend the single loop
                _ => return false,                // siblings mix loops/statements
            }
        }
    }

    /// For a perfect nest: the loop index names, outermost first.
    ///
    /// # Panics
    /// Panics if the program is not a perfect nest.
    pub fn perfect_nest_indices(&self) -> Vec<String> {
        assert!(self.is_perfect_nest(), "not a perfect loop nest");
        let mut names = Vec::new();
        let mut nodes = &self.body;
        loop {
            let loops: Vec<&Loop> = nodes
                .iter()
                .filter_map(|n| if let Node::Loop(l) = n { Some(l) } else { None })
                .collect();
            if loops.is_empty() {
                return names;
            }
            names.push(loops[0].index.clone());
            nodes = &loops[0].body;
        }
    }

    /// Decomposes the program into its top-level loop groups, each with
    /// its maximal perfect loop prefix — the structure behind loop-level
    /// granularity for imperfect nests.  Returns `None` when a top-level
    /// node is a bare statement (no loop to aggregate under) or when the
    /// program has no loops at all.
    pub fn loop_groups(&self) -> Option<Vec<LoopGroup>> {
        fn count_stmts(nodes: &[Node]) -> usize {
            nodes
                .iter()
                .map(|n| match n {
                    Node::Stmt(_) => 1,
                    Node::Loop(l) => count_stmts(&l.body),
                })
                .sum()
        }
        if self.body.is_empty() {
            return None;
        }
        let mut groups = Vec::new();
        let mut stmt_cursor = 0usize;
        for (gidx, node) in self.body.iter().enumerate() {
            let Node::Loop(root) = node else {
                return None;
            };
            let mut indices = vec![root.index.clone()];
            let mut bounds = vec![(root.lower.clone(), root.upper.clone())];
            let mut body = &root.body;
            while let [Node::Loop(l)] = body.as_slice() {
                indices.push(l.index.clone());
                bounds.push((l.lower.clone(), l.upper.clone()));
                body = &l.body;
            }
            let n = count_stmts(&root.body);
            groups.push(LoopGroup {
                group: gidx,
                indices,
                bounds,
                statements: (stmt_cursor..stmt_cursor + n).collect(),
            });
            stmt_cursor += n;
        }
        Some(groups)
    }

    /// Substitutes concrete values for all symbolic parameters, producing an
    /// equivalent parameter-free program (all loop bounds and subscripts
    /// become affine in the loop indices alone).
    ///
    /// This is how workloads whose subscripts mention a parameter (e.g. the
    /// normalised descending sweep of the Cholesky kernel, where
    /// `K = N − KD`) are prepared for tracing and execution.
    pub fn bind_params(&self, values: &[i64]) -> Program {
        assert_eq!(values.len(), self.params.len(), "parameter count mismatch");
        let bind_expr = |e: &LinExpr| -> LinExpr {
            let mut out = e.clone();
            for (name, &value) in self.params.iter().zip(values) {
                out = out.bind(name, value);
            }
            out
        };
        fn bind_nodes(nodes: &[Node], bind_expr: &dyn Fn(&LinExpr) -> LinExpr) -> Vec<Node> {
            nodes
                .iter()
                .map(|node| match node {
                    Node::Stmt(s) => Node::Stmt(Statement {
                        name: s.name.clone(),
                        refs: s
                            .refs
                            .iter()
                            .map(|r| ArrayRef {
                                array: r.array.clone(),
                                subscripts: r.subscripts.iter().map(bind_expr).collect(),
                                kind: r.kind,
                            })
                            .collect(),
                    }),
                    Node::Loop(l) => Node::Loop(Loop {
                        index: l.index.clone(),
                        lower: l.lower.iter().map(bind_expr).collect(),
                        upper: l.upper.iter().map(bind_expr).collect(),
                        body: bind_nodes(&l.body, bind_expr),
                    }),
                })
                .collect()
        }
        Program {
            name: format!("{}-bound", self.name),
            params: Vec::new(),
            body: bind_nodes(&self.body, &bind_expr),
        }
    }

    /// The program with every statement in canonical reference order
    /// (writes first — see [`Statement::canonicalized`]).  Idempotent;
    /// the identity on programs the `.loop` parser produces.
    pub fn canonicalized(&self) -> Program {
        fn canon_nodes(nodes: &[Node]) -> Vec<Node> {
            nodes
                .iter()
                .map(|node| match node {
                    Node::Stmt(s) => Node::Stmt(s.canonicalized()),
                    Node::Loop(l) => Node::Loop(Loop {
                        index: l.index.clone(),
                        lower: l.lower.clone(),
                        upper: l.upper.clone(),
                        body: canon_nodes(&l.body),
                    }),
                })
                .collect()
        }
        Program {
            name: self.name.clone(),
            params: self.params.clone(),
            body: canon_nodes(&self.body),
        }
    }

    /// Validates that every variable mentioned by a loop bound or array
    /// subscript is an enclosing loop index or a declared parameter — the
    /// precondition of every `resolve`/`eval` the analysis pipeline runs.
    ///
    /// The `.loop` parser enforces this at parse time with source
    /// positions; this check covers hand-built programs, so the session
    /// layer can report a typed error instead of panicking deep inside
    /// the space construction.
    pub fn check_variables(&self) -> Result<(), UnboundVariable> {
        fn check_expr(
            e: &LinExpr,
            scope: &[&str],
            context: impl Fn() -> String,
        ) -> Result<(), UnboundVariable> {
            e.try_resolve(scope)
                .map(|_| ())
                .map_err(|variable| UnboundVariable {
                    variable,
                    context: context(),
                })
        }
        fn check_nodes<'p>(
            nodes: &'p [Node],
            scope: &mut Vec<&'p str>,
            params: &[&str],
        ) -> Result<(), UnboundVariable> {
            for node in nodes {
                match node {
                    Node::Loop(l) => {
                        // Bounds resolve against the *outer* scope.
                        let mut visible: Vec<&str> = scope.clone();
                        visible.extend(params.iter().copied());
                        for (side, exprs) in [("lower", &l.lower), ("upper", &l.upper)] {
                            for e in exprs {
                                check_expr(e, &visible, || {
                                    format!("{side} bound of loop `{}`", l.index)
                                })?;
                            }
                        }
                        scope.push(&l.index);
                        check_nodes(&l.body, scope, params)?;
                        scope.pop();
                    }
                    Node::Stmt(s) => {
                        let mut visible: Vec<&str> = scope.clone();
                        visible.extend(params.iter().copied());
                        for r in &s.refs {
                            for (d, sub) in r.subscripts.iter().enumerate() {
                                check_expr(sub, &visible, || {
                                    format!(
                                        "subscript {} of `{}` in statement `{}`",
                                        d + 1,
                                        r.array,
                                        s.name
                                    )
                                })?;
                            }
                        }
                    }
                }
            }
            Ok(())
        }
        let params: Vec<&str> = self.params.iter().map(|s| s.as_str()).collect();
        check_nodes(&self.body, &mut Vec::new(), &params)
    }

    /// Renders the program as pseudo-Fortran source (for documentation and
    /// examples).
    pub fn to_pseudo_code(&self) -> String {
        let mut out = String::new();
        render_nodes(&self.body, 0, &mut out);
        out
    }
}

fn collect_statements(
    nodes: &[Node],
    loops: &mut Vec<(String, Vec<LinExpr>, Vec<LinExpr>)>,
    positions: &mut Vec<i64>,
    out: &mut Vec<StatementInfo>,
) {
    for (pos0, node) in nodes.iter().enumerate() {
        let pos = (pos0 + 1) as i64;
        match node {
            Node::Stmt(stmt) => {
                let mut position_vec = positions.clone();
                position_vec.push(pos);
                out.push(StatementInfo {
                    id: out.len(),
                    stmt: stmt.clone(),
                    loop_indices: loops.iter().map(|(n, _, _)| n.clone()).collect(),
                    bounds: loops
                        .iter()
                        .map(|(_, lo, up)| (lo.clone(), up.clone()))
                        .collect(),
                    positions: position_vec,
                });
            }
            Node::Loop(l) => {
                loops.push((l.index.clone(), l.lower.clone(), l.upper.clone()));
                positions.push(pos);
                collect_statements(&l.body, loops, positions, out);
                positions.pop();
                loops.pop();
            }
        }
    }
}

fn render_nodes(nodes: &[Node], indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    for node in nodes {
        match node {
            Node::Loop(l) => {
                let lo: Vec<String> = l.lower.iter().map(|e| e.to_string()).collect();
                let up: Vec<String> = l.upper.iter().map(|e| e.to_string()).collect();
                let lo = if lo.len() == 1 {
                    lo[0].clone()
                } else {
                    format!("max({})", lo.join(", "))
                };
                let up = if up.len() == 1 {
                    up[0].clone()
                } else {
                    format!("min({})", up.join(", "))
                };
                out.push_str(&format!("{pad}DO {} = {}, {}\n", l.index, lo, up));
                render_nodes(&l.body, indent + 1, out);
                out.push_str(&format!("{pad}ENDDO\n"));
            }
            Node::Stmt(s) => {
                let writes: Vec<String> = s.writes().map(|r| r.to_string()).collect();
                let reads: Vec<String> = s.reads().map(|r| r.to_string()).collect();
                let lhs = if writes.is_empty() {
                    "...".to_string()
                } else {
                    writes.join(", ")
                };
                let rhs = if reads.is_empty() {
                    "...".to_string()
                } else {
                    reads.join(", ")
                };
                out.push_str(&format!("{pad}{}: {} = {}\n", s.name, lhs, rhs));
            }
        }
    }
}

/// Convenience builders for loop nests.
pub mod build {
    use super::*;

    /// A loop node with a single lower and upper bound.
    pub fn loop_(index: &str, lower: LinExpr, upper: LinExpr, body: Vec<Node>) -> Node {
        Node::Loop(Loop {
            index: index.to_string(),
            lower: vec![lower],
            upper: vec![upper],
            body,
        })
    }

    /// A loop node whose bounds are `max(lowers)` and `min(uppers)`.
    pub fn loop_minmax(
        index: &str,
        lowers: Vec<LinExpr>,
        uppers: Vec<LinExpr>,
        body: Vec<Node>,
    ) -> Node {
        Node::Loop(Loop {
            index: index.to_string(),
            lower: lowers,
            upper: uppers,
            body,
        })
    }

    /// A statement node.
    pub fn stmt(name: &str, refs: Vec<ArrayRef>) -> Node {
        Node::Stmt(Statement::new(name, refs))
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;
    use crate::expr::{c, v};

    /// The Example-1 loop of the paper (figure 1).
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

    /// The imperfectly nested Example-3 loop (Chen et al.).
    fn example3() -> Program {
        Program::new(
            "example3",
            &["N"],
            vec![loop_(
                "I",
                c(1),
                v("N"),
                vec![loop_(
                    "J",
                    c(1),
                    v("I"),
                    vec![
                        loop_(
                            "K",
                            v("J"),
                            v("I"),
                            vec![stmt(
                                "S1",
                                vec![ArrayRef::read(
                                    "a",
                                    vec![v("I") + v("K") * 2 + c(5), v("K") * 4 - v("J")],
                                )],
                            )],
                        ),
                        stmt(
                            "S2",
                            vec![ArrayRef::write("a", vec![v("I") - v("J"), v("I") + v("J")])],
                        ),
                    ],
                )],
            )],
        )
    }

    #[test]
    fn statement_collection_perfect_nest() {
        let p = example1();
        assert!(p.is_perfect_nest());
        assert_eq!(p.max_depth(), 2);
        let stmts = p.statements();
        assert_eq!(stmts.len(), 1);
        let s = &stmts[0];
        assert_eq!(s.loop_indices, vec!["I1", "I2"]);
        assert_eq!(s.positions, vec![1, 1, 1]);
        assert_eq!(s.depth(), 2);
        assert_eq!(p.perfect_nest_indices(), vec!["I1", "I2"]);
        assert_eq!(p.arrays(), vec!["a"]);
    }

    #[test]
    fn statement_collection_imperfect_nest() {
        let p = example3();
        assert!(!p.is_perfect_nest());
        assert_eq!(p.max_depth(), 3);
        let stmts = p.statements();
        assert_eq!(stmts.len(), 2);
        // S1 is nested in I, J, K at positions (1, 1, 1, 1)
        assert_eq!(stmts[0].stmt.name, "S1");
        assert_eq!(stmts[0].loop_indices, vec!["I", "J", "K"]);
        assert_eq!(stmts[0].positions, vec![1, 1, 1, 1]);
        // S2 is nested in I, J at positions (1, 1, 2)
        assert_eq!(stmts[1].stmt.name, "S2");
        assert_eq!(stmts[1].loop_indices, vec!["I", "J"]);
        assert_eq!(stmts[1].positions, vec![1, 1, 2]);
    }

    #[test]
    fn reads_and_writes() {
        let p = example1();
        let s = &p.statements()[0].stmt;
        assert_eq!(s.writes().count(), 1);
        assert_eq!(s.reads().count(), 1);
        assert!(s.refs[0].is_write());
        assert_eq!(s.refs[0].rank(), 2);
    }

    #[test]
    fn pseudo_code_rendering() {
        let p = example3();
        let code = p.to_pseudo_code();
        assert!(code.contains("DO I = 1, N"));
        assert!(code.contains("DO K = J, I"));
        assert!(code.contains("S2"));
        assert!(code.matches("ENDDO").count() == 3);
    }

    #[test]
    fn multiple_top_level_nests() {
        let p = Program::new(
            "two-nests",
            &["N"],
            vec![
                loop_("I", c(0), v("N"), vec![stmt("A", vec![])]),
                loop_("K", c(0), v("N"), vec![stmt("B", vec![])]),
            ],
        );
        assert!(!p.is_perfect_nest());
        let stmts = p.statements();
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0].positions, vec![1, 1]);
        assert_eq!(stmts[1].positions, vec![2, 1]);
    }

    #[test]
    fn bind_params_removes_symbolic_names() {
        let p = Program::new(
            "bind",
            &["N", "M"],
            vec![loop_(
                "I",
                c(0),
                v("N"),
                vec![stmt(
                    "S",
                    vec![ArrayRef::write("a", vec![v("N") - v("I"), v("M") + c(1)])],
                )],
            )],
        );
        let b = p.bind_params(&[7, 3]);
        assert!(b.params.is_empty());
        let stmts = b.statements();
        let s = &stmts[0];
        // subscript N - I becomes 7 - I, M + 1 becomes 4
        assert_eq!(s.stmt.refs[0].subscripts[0], c(7) - v("I"));
        assert_eq!(s.stmt.refs[0].subscripts[1], c(4));
        // bounds bound too: iteration count is 8 at N = 7
        assert_eq!(b.count_instances(&[]), 8);
        assert_eq!(p.count_instances(&[7, 3]), 8);
    }

    #[test]
    fn minmax_bounds() {
        // DO I = max(-M, -J), -1  (Cholesky's I0 lower bound)
        let node = loop_minmax(
            "I",
            vec![-v("M"), -v("J")],
            vec![c(-1)],
            vec![stmt("S", vec![])],
        );
        if let Node::Loop(l) = &node {
            assert_eq!(l.lower.len(), 2);
            assert_eq!(l.upper.len(), 1);
        } else {
            panic!("expected loop node");
        }
    }
}
