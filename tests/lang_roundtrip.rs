//! Round-trip property tests for `rcp-lang` and golden rejection
//! diagnostics.
//!
//! The round-trip contract is **total**:
//! `parse(pretty(p)) == p.canonicalized()` for *every* program — the
//! printer normalises each statement to canonical reference order
//! (writes first), which is the order the parser produces by
//! construction.  For programs already canonical (the paper's examples
//! 1–4, the figure-2 loop, the Cholesky kernel, the synthetic corpus)
//! this degenerates to `parse(pretty(p)) == p`, and canonical sources
//! are fixed points of `pretty ∘ parse`.

mod common;

use common::assert_interpreter_matches_unified_space;
use recurrence_chains::lang::{parse_program, pretty, SourcePos};
use recurrence_chains::loopir::{Node, Program};
use recurrence_chains::workloads::{self, SmallRng, BUNDLED_LOOPS};

fn assert_round_trips(p: &Program) {
    let text = pretty(p);
    let reparsed = parse_program(&text)
        .unwrap_or_else(|e| panic!("{}: canonical text does not parse: {e}\n{text}", p.name));
    assert_eq!(&reparsed, p, "{}: parse(pretty(p)) != p", p.name);
    assert_eq!(
        pretty(&reparsed),
        text,
        "{}: pretty is not a fixed point on its own output",
        p.name
    );
}

/// The total round trip on a program in *any* reference order: printing
/// then parsing lands exactly on the canonical form.
fn assert_total_round_trip(p: &Program) {
    let canonical = p.canonicalized();
    let text = pretty(p);
    let reparsed = parse_program(&text)
        .unwrap_or_else(|e| panic!("{}: printed text does not parse: {e}\n{text}", p.name));
    assert_eq!(
        reparsed, canonical,
        "{}: parse(pretty(p)) != canonicalize(p)",
        p.name
    );
    assert_eq!(
        canonical.canonicalized(),
        canonical,
        "{}: canonicalisation must be idempotent",
        p.name
    );
    assert_eq!(
        pretty(&canonical),
        text,
        "{}: pretty must not depend on the pre-canonical ref order",
        p.name
    );
}

/// Rotates every statement's reference list by `k` positions, producing
/// programs in arbitrary (non-writes-first) reference orders.
fn rotate_refs(p: &Program, k: usize) -> Program {
    fn rotate_nodes(nodes: &[Node], k: usize) -> Vec<Node> {
        nodes
            .iter()
            .map(|node| match node {
                Node::Stmt(s) => {
                    let mut s = s.clone();
                    let n = s.refs.len();
                    if n > 0 {
                        s.refs.rotate_left(k % n);
                    }
                    Node::Stmt(s)
                }
                Node::Loop(l) => {
                    let mut l = l.clone();
                    l.body = rotate_nodes(&l.body, k);
                    Node::Loop(l)
                }
            })
            .collect()
    }
    Program {
        name: p.name.clone(),
        params: p.params.clone(),
        body: rotate_nodes(&p.body, k),
    }
}

#[test]
fn paper_workloads_round_trip() {
    assert_round_trips(&workloads::example1());
    assert_round_trips(&workloads::example2());
    assert_round_trips(&workloads::example3());
    assert_round_trips(&workloads::figure2());
    assert_round_trips(&workloads::figure2_n(7));
    assert_round_trips(&workloads::example4_cholesky());
    assert_round_trips(&workloads::uniform_chain());
}

#[test]
fn synthetic_corpus_round_trips() {
    // The corpus generator drives the same property across hundreds of
    // random nests, mixing coupled and uncoupled subscripts.
    let mut rng = SmallRng::seed_from_u64(2026);
    for id in 0..200 {
        let coupled_fraction = (id % 5) as f64 / 4.0;
        let p = workloads::random_nest(&mut rng, coupled_fraction, id);
        assert_round_trips(&p);
    }
}

#[test]
fn arbitrary_reference_orders_round_trip_to_canonical_form() {
    // Every paper workload and a corpus sample, with each statement's
    // references rotated into every possible order: the round trip is
    // total and always lands on the canonical (writes-first) program.
    let mut programs = vec![
        workloads::example1(),
        workloads::example2(),
        workloads::example3(),
        workloads::figure2(),
        workloads::example4_cholesky(),
        workloads::uniform_chain(),
    ];
    let mut rng = SmallRng::seed_from_u64(77);
    for id in 0..60 {
        programs.push(workloads::random_nest(&mut rng, 0.5, id));
    }
    for p in &programs {
        for k in 0..4 {
            assert_total_round_trip(&rotate_refs(p, k));
        }
    }
}

#[test]
fn parameter_bound_programs_round_trip() {
    // bind_params folds parameters into constants; the result must still
    // round-trip (its name gains a `-bound` suffix, kept by the header).
    let bound = workloads::example1().bind_params(&[6, 9]);
    assert_round_trips(&bound);
    let cholesky = workloads::example4_cholesky().bind_params(&[4, 4, 10, 2]);
    assert_round_trips(&cholesky);
}

#[test]
fn bundled_sources_are_canonical_fixed_points() {
    for bundled in BUNDLED_LOOPS {
        let program = bundled.program();
        assert_round_trips(&program);
        let values: Vec<i64> = bundled.survey_params.iter().map(|(_, v)| *v).collect();
        assert_interpreter_matches_unified_space(&program, &values, bundled.name);
    }
}

/// Golden rejection diagnostics: the exact message and position are part
/// of the front end's contract.
#[test]
fn rejection_diagnostics_are_stable() {
    let cases: &[(&str, &str, usize, usize, &str)] = &[
        (
            "bad lower bound",
            "PROGRAM p\nDO I = , 9\nENDDO\nEND\n",
            2,
            8,
            "expected an affine expression, found `,`",
        ),
        (
            "missing upper bound",
            "PROGRAM p\nDO I = 1\nENDDO\nEND\n",
            2,
            9,
            "expected `,` between the loop bounds, found end of line",
        ),
        (
            "non-affine subscript",
            "PROGRAM p\nDO I = 1, 9\n  DO J = 1, 9\n    S: a(I*J) = ...\n  ENDDO\nENDDO\nEND\n",
            4,
            12,
            "non-affine term: expected an integer coefficient after `*`",
        ),
        (
            "unbalanced extra ENDDO",
            "PROGRAM p\nDO I = 1, 9\nENDDO\nENDDO\nEND\n",
            4,
            1,
            "ENDDO without a matching DO",
        ),
        (
            "unbalanced missing ENDDO",
            "PROGRAM p\nDO I = 1, 9\n  DO J = 1, I\n  ENDDO\nEND\n",
            5,
            1,
            "END with 1 unclosed DO loop(s): missing ENDDO",
        ),
        (
            "unknown variable",
            "PROGRAM p\nPARAM N\nDO I = 1, N\n  S: a(K) = ...\nENDDO\nEND\n",
            4,
            8,
            "unknown variable `K`: not a declared PARAM or an enclosing loop index",
        ),
        (
            "missing END",
            "PROGRAM p\nDO I = 1, 9\nENDDO\n",
            4,
            1,
            "missing END",
        ),
        (
            "content after END",
            "PROGRAM p\nEND\nDO I = 1, 9\n",
            3,
            1,
            "content after END",
        ),
        (
            "misplaced min as lower bound",
            "PROGRAM p\nDO I = min(1, 2), 9\nENDDO\nEND\n",
            2,
            8,
            "`min(...)` is only valid as an upper bound",
        ),
        (
            "duplicate parameter",
            "PROGRAM p\nPARAM N, N\nEND\n",
            2,
            10,
            "duplicate parameter `N`",
        ),
        (
            "loop index shadows an enclosing loop",
            "PROGRAM p\nDO I = 1, 9\n  DO I = 1, 9\n  ENDDO\nENDDO\nEND\n",
            3,
            6,
            "loop index `I` shadows an enclosing loop",
        ),
        (
            "statement missing `=`",
            "PROGRAM p\nDO I = 1, 9\n  S: a(I)\nENDDO\nEND\n",
            3,
            10,
            "expected `=` between the write and read references, found end of line",
        ),
    ];
    for (what, src, line, col, message) in cases {
        let err = parse_program(src)
            .map(|p| panic!("{what}: expected a parse error, got program `{}`", p.name))
            .unwrap_err();
        assert_eq!(
            err.pos,
            SourcePos {
                line: *line,
                col: *col
            },
            "{what}: wrong position in {err}"
        );
        assert_eq!(&err.message, message, "{what}");
        // The Display form is what CLI users see.
        assert_eq!(
            err.to_string(),
            format!("line {line}, column {col}: {message}"),
            "{what}"
        );
    }
}
