//! Checks shared by the root integration tests.

use recurrence_chains::loopir::Program;

/// The interpreter is the one builder of program order; the statement-level
/// analysis builds `Φ` as the unified space.  Enumerated lexicographically
/// and decoded, that space must list the interpreter's instances in the
/// interpreter's order.
pub fn assert_interpreter_matches_unified_space(p: &Program, values: &[i64], what: &str) {
    let decoder = p.unified_decoder();
    let decoded: Vec<_> = p
        .unified_iteration_space()
        .bind_params(values)
        .enumerate()
        .iter()
        .map(|point| {
            decoder
                .decode(point)
                .unwrap_or_else(|| panic!("{what}: {point:?} decodes to no statement"))
        })
        .collect();
    assert_eq!(
        p.enumerate_instances(values),
        decoded,
        "{what}: interpreter and unified space disagree"
    );
}
