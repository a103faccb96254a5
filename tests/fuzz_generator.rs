//! Properties of the fuzz generator: every emitted program is accepted by
//! `rcp-lang` verbatim (the fuzzer can never trip the parser instead of
//! the analysis), and generation plus the whole campaign are deterministic
//! from the seed.

mod common;

use common::assert_interpreter_matches_unified_space;
use recurrence_chains::fuzz::{case_seed, generate, run_campaign, CampaignConfig};
use recurrence_chains::lang::{parse_program, pretty};

/// Satellite property: `parse(pretty(generate(seed))) ==
/// canonicalize(generate(seed))` over 200 seeds, and the interpreter
/// agrees with the unified space on each at its binding.
#[test]
fn generator_emits_only_parseable_canonical_programs() {
    for seed in 0..200u64 {
        let case = generate(seed, 0);
        let printed = pretty(&case.program);
        let reparsed = parse_program(&printed).unwrap_or_else(|e| {
            panic!("seed {seed}: generated program does not parse: {e}\n{printed}")
        });
        assert_eq!(
            reparsed,
            case.program.canonicalized(),
            "seed {seed}: parse(pretty(p)) != canonicalize(p)\n{printed}"
        );
        case.program
            .check_variables()
            .unwrap_or_else(|e| panic!("seed {seed}: unbound variable: {e}"));
        assert_interpreter_matches_unified_space(
            &case.program,
            &case.values(),
            &format!("seed {seed}"),
        );
    }
}

#[test]
fn case_seeds_are_independent_of_count() {
    // Case 7 of a 10-case campaign and case 7 of a 50-case campaign are the
    // same nest: ids map to seeds without looking at the campaign size.
    assert_eq!(case_seed(0xC0FFEE, 7), case_seed(0xC0FFEE, 7));
    let a = generate(0xC0FFEE, 7);
    let b = generate(0xC0FFEE, 7);
    assert_eq!(a.program, b.program);
    assert_ne!(
        generate(0xC0FFEE, 7).program,
        generate(0xC0FFEE, 8).program,
        "different case ids should draw different nests"
    );
}

#[test]
fn campaigns_are_deterministic_and_clean_on_the_pinned_seed() {
    let config = CampaignConfig {
        seed: 0xC0FFEE,
        count: 10,
        minimize: false,
    };
    let first = run_campaign(&config);
    let second = run_campaign(&config);
    assert!(
        first.errors.is_empty(),
        "generated nests must load: {:?}",
        first.errors
    );
    assert!(
        first.counterexamples.is_empty(),
        "pinned-seed campaign must be discrepancy-free: {:?}",
        first
            .counterexamples
            .iter()
            .map(|c| (&c.discrepancy.scheme, c.case_id))
            .collect::<Vec<_>>()
    );
    for (a, b) in first.stats.iter().zip(second.stats.iter()) {
        assert_eq!(a.scheme, b.scheme);
        assert_eq!(
            a.passed, b.passed,
            "{}: passed tally must be stable",
            a.scheme
        );
        assert_eq!(
            a.under_synchronised, b.under_synchronised,
            "{}: under-synchronised tally must be stable",
            a.scheme
        );
        assert_eq!(
            a.not_applicable, b.not_applicable,
            "{}: not-applicable tally must be stable",
            a.scheme
        );
    }
    // The default scheme must actually be exercised by the campaign.
    let rc = first
        .stats
        .iter()
        .find(|s| s.scheme == "recurrence-chains")
        .expect("default scheme is registered");
    assert!(rc.passed > 0, "recurrence-chains should pass some cases");
}
