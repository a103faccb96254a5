//! Pseudo-Fortran DOALL / WHILE code generation from symbolic partitions.
//!
//! The paper's Examples 1–3 show the generated OpenMP Fortran: DOALL nests
//! whose bounds are `min`/`max`/floor-division expressions over the outer
//! indices and the symbolic loop bounds, guard `IF`s encoding stride
//! (congruence) constraints, and a WHILE subroutine following the recurrence
//! chains.  This module reproduces those listings from the symbolic
//! three-set partition: each partition set (a union of convex sets) is made
//! disjoint and every piece becomes one DOALL nest; the recurrence `T`, `u`
//! becomes the WHILE chain subroutine.
//!
//! The generated text is *documentation-faithful* output (what the compiler
//! would emit); actual execution goes through [`crate::schedule::Schedule`].

use rcp_core::{Recurrence, SymbolicPlan};
use rcp_presburger::{ConstraintKind, ConvexSet, UnionSet};
use std::fmt::Write as _;

/// Pretty-prints a union set as a sequence of DOALL loop nests, one per
/// disjoint convex piece.
pub fn doall_nests(set: &UnionSet, header: &str) -> String {
    const MAX_PRINTED_PIECES: usize = 12;
    let mut out = String::new();
    let _ = writeln!(out, "C {header}");
    // Splitting a union into disjoint pieces (`UnionSet::make_disjoint`) is
    // exponential in the number of overlapping, constraint-heavy pieces, so
    // the listing prints the convex pieces as-is: the executable schedule
    // always deduplicates iterations, so only the listing — never the
    // execution — could observe an overlap.
    if set.pieces().is_empty() {
        let _ = writeln!(out, "C   (empty set)");
        return out;
    }
    if set.n_pieces() > 1 {
        let _ = writeln!(out, "C   ({} convex pieces)", set.n_pieces());
    }
    for piece in set.pieces().iter().take(MAX_PRINTED_PIECES) {
        out.push_str(&doall_nest(piece));
    }
    if set.n_pieces() > MAX_PRINTED_PIECES {
        let _ = writeln!(
            out,
            "C   ... ({} further convex pieces elided)",
            set.n_pieces() - MAX_PRINTED_PIECES
        );
    }
    out
}

/// Pretty-prints a single convex piece as one DOALL nest with guard `IF`s
/// for congruence constraints.
pub fn doall_nest(piece: &ConvexSet) -> String {
    let space = piece.space();
    let dim = space.dim();
    let mut out = String::new();
    let mut indent = 0usize;
    let mut guards: Vec<String> = Vec::new();

    for v in 0..dim {
        // Bounds for dimension v come from constraints whose later
        // dimensions have zero coefficients (i.e. constraints of the
        // projection prefix).  Project the piece onto dims [0, v].
        let prefix = if v + 1 < dim {
            piece.project_out(v + 1, dim - v - 1)
        } else {
            piece.clone()
        };
        // Bounds derived from the prefix must be rendered against the
        // prefix's own space (its dimensions are the first v+1 original
        // dimensions followed by the parameters).
        let pspace = prefix.space();
        let mut lowers: Vec<String> = Vec::new();
        let mut uppers: Vec<String> = Vec::new();
        let mut eq_value: Option<String> = None;
        for c in prefix.constraints() {
            let a = c.expr.coeff(v);
            if a == 0 {
                continue;
            }
            match c.kind {
                ConstraintKind::Geq => {
                    let rest = c.expr.bind(v, 0);
                    if a > 0 {
                        lowers.push(ceil_div_expr(&rest.neg(), a, pspace));
                    } else {
                        uppers.push(floor_div_expr(&rest, -a, pspace));
                    }
                }
                ConstraintKind::Eq => {
                    let rest = c.expr.bind(v, 0);
                    if a == 1 {
                        eq_value = Some(rest.neg().display(pspace));
                    } else if a == -1 {
                        eq_value = Some(rest.display(pspace));
                    } else {
                        lowers.push(ceil_div_expr(&rest.neg(), a.abs(), pspace));
                        uppers.push(floor_div_expr(&rest.neg(), a.abs(), pspace));
                        guards.push(congruence_guard(&rest, a.abs(), pspace));
                    }
                }
                ConstraintKind::Mod(m) => {
                    guards.push(congruence_guard(&c.expr, m, pspace));
                }
            }
        }
        let pad = "  ".repeat(indent);
        let name = space.dim_name(v);
        if let Some(value) = eq_value {
            let _ = writeln!(out, "{pad}{name} = {value}");
        } else {
            let lo = combine(&lowers, "max");
            let hi = combine(&uppers, "min");
            let _ = writeln!(out, "{pad}DOALL {name} = {lo}, {hi}");
            indent += 1;
        }
    }
    // Remaining congruence guards of the full piece (those mentioning the
    // innermost dimension were not emitted as loop strides).
    for c in piece.constraints() {
        if let ConstraintKind::Mod(m) = c.kind {
            let guard = congruence_guard(&c.expr, m, space);
            if !guards.contains(&guard) {
                guards.push(guard);
            }
        }
    }
    let pad = "  ".repeat(indent);
    if guards.is_empty() {
        let _ = writeln!(out, "{pad}s({})", space.dim_names().join(", "));
    } else {
        let _ = writeln!(out, "{pad}IF ({}) THEN", guards.join(" .AND. "));
        let _ = writeln!(out, "{pad}  s({})", space.dim_names().join(", "));
        let _ = writeln!(out, "{pad}ENDIF");
    }
    for k in (0..indent).rev() {
        let _ = writeln!(out, "{}ENDDOALL", "  ".repeat(k));
    }
    out
}

/// Emits the WHILE chain subroutine of Algorithm 1 for a recurrence.
pub fn while_chain_subroutine(recurrence: &Recurrence, dim_names: &[String]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "SUBROUTINE chain({})", dim_names.join(", "));
    let _ = writeln!(
        out,
        "  DO WHILE (iteration is inside PHI and has a successor)"
    );
    let _ = writeln!(out, "    s({})", dim_names.join(", "));
    // I' = I * T^-1 + u'  (the forward/successor direction)
    for (col, name) in dim_names.iter().enumerate() {
        let mut terms: Vec<String> = Vec::new();
        for (row, src) in dim_names.iter().enumerate() {
            let c = recurrence.t_inv[(row, col)];
            if !c.is_zero() {
                terms.push(format!("({c})*{src}"));
            }
        }
        let off = recurrence.u_inv[col];
        if !off.is_zero() {
            terms.push(format!("({off})"));
        }
        let rhs = if terms.is_empty() {
            "0".to_string()
        } else {
            terms.join(" + ")
        };
        let _ = writeln!(out, "    {name}p = {rhs}");
    }
    for name in dim_names {
        let _ = writeln!(out, "    {name} = {name}p");
    }
    let _ = writeln!(out, "  ENDDO");
    let _ = writeln!(out, "END");
    out
}

/// Generates the full pseudo-Fortran listing of a symbolic plan: the three
/// partition sets as DOALL nests plus the WHILE chain subroutine.
pub fn generate_listing(plan: &SymbolicPlan, workload: &str) -> String {
    let partition = plan.partition();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "C ===== recurrence-chain partitioning of {workload} ====="
    );
    out.push_str(&doall_nests(&partition.p1, "initial partition P1 (DOALL)"));
    out.push_str(&doall_nests(
        &partition.w,
        "intermediate partition: WHILE chain starts W (DOALL over chains)",
    ));
    out.push_str(&doall_nests(&partition.p3, "final partition P3 (DOALL)"));
    let dim_names: Vec<String> = partition
        .p1
        .space()
        .dim_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    out.push_str(&while_chain_subroutine(&plan.recurrence, &dim_names));
    out
}

fn combine(parts: &[String], op: &str) -> String {
    match parts.len() {
        0 => "(unbounded)".to_string(),
        1 => parts[0].clone(),
        _ => format!("{op}({})", parts.join(", ")),
    }
}

fn ceil_div_expr(expr: &rcp_presburger::Affine, div: i64, space: &rcp_presburger::Space) -> String {
    if div == 1 {
        return expr.display(space).to_string();
    }
    // ceil(e / d) = floor((e + d - 1) / d) for d > 0
    format!("({} + {})/{}", expr.display(space), div - 1, div)
}

fn floor_div_expr(
    expr: &rcp_presburger::Affine,
    div: i64,
    space: &rcp_presburger::Space,
) -> String {
    if div == 1 {
        return expr.display(space).to_string();
    }
    format!("({})/{}", expr.display(space), div)
}

fn congruence_guard(
    expr: &rcp_presburger::Affine,
    m: i64,
    space: &rcp_presburger::Space,
) -> String {
    format!("mod({}, {m}) .EQ. 0", expr.display(space))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcp_core::symbolic_plan;
    use rcp_depend::DependenceAnalysis;
    use rcp_loopir::expr::{c, v};
    use rcp_loopir::program::build::{loop_, stmt};
    use rcp_loopir::{ArrayRef, Program};
    use rcp_presburger::{Affine, Constraint, Space};

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

    #[test]
    fn simple_box_nest() {
        let space = Space::with_names(&["i", "j"], &["N"]);
        let set = ConvexSet::from_constraints(
            space,
            vec![
                Constraint::geq(Affine::new(vec![1, 0, 0], -1)),
                Constraint::geq(Affine::new(vec![-1, 0, 1], 0)),
                Constraint::geq(Affine::new(vec![0, 1, 0], -1)),
                Constraint::geq(Affine::new(vec![0, -1, 1], 0)),
            ],
        );
        let text = doall_nest(&set);
        assert!(text.contains("DOALL i = 1, N"));
        assert!(text.contains("DOALL j = 1, N"));
        assert!(text.contains("s(i, j)"));
        assert_eq!(text.matches("ENDDOALL").count(), 2);
    }

    #[test]
    fn congruence_becomes_guard() {
        let space = Space::with_names(&["i"], &[]);
        let set = ConvexSet::from_constraints(
            space,
            vec![
                Constraint::geq(Affine::new(vec![1], -1)),
                Constraint::geq(Affine::new(vec![-1], 12)),
                Constraint::congruent(Affine::new(vec![1], -1), 3),
            ],
        );
        let text = doall_nest(&set);
        // Constraint normalization stores `i - 1 ≡ 0 (mod 3)` as
        // `i + 2 ≡ 0 (mod 3)`; either spelling is the same stride guard.
        assert!(
            text.contains("mod(i + 2, 3) .EQ. 0") || text.contains("mod(i - 1, 3) .EQ. 0"),
            "missing stride guard in\n{text}"
        );
    }

    #[test]
    fn example1_full_listing() {
        let analysis = DependenceAnalysis::loop_level(&example1());
        let plan = symbolic_plan(&analysis).unwrap();
        let listing = generate_listing(&plan, "example1");
        // Structure of the paper's listing: three partition comments, DOALL
        // nests over I1/I2, and a chain subroutine.
        assert!(listing.contains("initial partition"));
        assert!(listing.contains("final partition"));
        assert!(listing.contains("SUBROUTINE chain(I1, I2)"));
        assert!(listing.contains("DOALL I1"));
        assert!(listing.contains("DOALL I2"));
        // The recurrence update of Example 1 is I1' = 3*I1 - 2,
        // I2' = 2*I1 + I2 - 2 (the paper's lines ip = 3*i-2, jp = 2*i+j-2).
        assert!(
            listing.contains("I1p = (3)*I1 + (-2)"),
            "listing was\n{listing}"
        );
        assert!(
            listing.contains("I2p = (2)*I1 + (1)*I2 + (-2)"),
            "listing was\n{listing}"
        );
    }

    #[test]
    fn empty_set_renders_placeholder() {
        let space = Space::with_names(&["i"], &[]);
        let set = UnionSet::empty(space);
        let text = doall_nests(&set, "empty partition");
        assert!(text.contains("(empty set)"));
    }
}
