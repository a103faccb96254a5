//! Profile determinism: two identical `rcp analyze --profile-json` runs
//! must produce **identical** profiles once the (timing-only) `wall_ms`
//! fields are scrubbed — counters, span structure, span counts and gauges
//! are all deterministic for a fixed single-threaded workload.  The
//! schema itself is pinned by the committed golden
//! `tests/golden/example1_profile.json`, which CI also diffs against the
//! real binary's output (docs/OBSERVABILITY.md).
//!
//! The workload is example 1 at N1=N2=10: two reference pairs, below the
//! parallel-analysis threshold, so the whole pipeline is single-threaded
//! and every counter is machine-independent.

use rcp_json::Json;
use recurrence_chains::cli::{run_command, scrub_profile, Options};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Each profiled run resets and reads the process-global trace registry,
/// so the tests of this file hold this lock across their profiled calls:
/// under the parallel test runner they would otherwise count each other's
/// spans and counters.
fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A test that panicked while holding the lock leaves nothing to repair:
    // every profiled run starts by resetting the registry.
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn example1() -> (String, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/loops/example1.loop");
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    (source, "example1.loop".to_string())
}

/// One full profiled `analyze` from a cold start: global caches emptied
/// (their counters are part of the profile) and the trace state cleared,
/// exactly what a fresh process running `rcp analyze --profile-json` sees.
fn profiled_analyze() -> Json {
    recurrence_chains::intlin::reset_solver_cache();
    recurrence_chains::presburger::reset_emptiness_cache();
    recurrence_chains::trace::reset();
    let (source, origin) = example1();
    let opts = Options {
        params: vec![("N1".to_string(), 10), ("N2".to_string(), 10)],
        profile: true,
        ..Options::default()
    };
    let report = run_command("analyze", &source, &origin, &opts).expect("analyze succeeds");
    assert!(!report.failed, "{}", report.text);
    let Json::Object(fields) = &report.data else {
        panic!("analyze report must be an object");
    };
    fields
        .iter()
        .find(|(k, _)| k == "profile")
        .map(|(_, v)| v.clone())
        .expect("--profile must attach a profile to the report")
}

#[test]
fn scrubbed_profiles_are_identical_across_runs_and_match_the_golden() {
    let (first, second) = {
        let _lock = trace_lock();
        (
            scrub_profile(&profiled_analyze()),
            scrub_profile(&profiled_analyze()),
        )
    };
    assert_eq!(
        first.pretty(),
        second.pretty(),
        "two identical profiled runs must produce identical scrubbed profiles"
    );

    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/example1_profile.json");
    if std::env::var_os("RCP_BLESS").is_some() {
        std::fs::write(&golden_path, format!("{}\n", first.pretty()))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", golden_path.display()));
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", golden_path.display()));
    assert_eq!(
        first.pretty().trim(),
        golden.trim(),
        "the profile schema drifted from tests/golden/example1_profile.json; \
         if the change is intentional, regenerate with\n  \
         RCP_BLESS=1 cargo test --test profile_determinism\n\
         (equivalently: the scrubbed `profile` member of\n  \
         rcp analyze examples/loops/example1.loop --param N1=10 --param N2=10 \
         --profile-json\nwith every wall_ms replaced by 0)"
    );
}

#[test]
fn scrub_only_touches_wall_ms() {
    let profile = {
        let _lock = trace_lock();
        profiled_analyze()
    };
    let scrubbed = scrub_profile(&profile);
    // Counters and gauges survive scrubbing bit-for-bit.
    for section in ["counters", "gauges"] {
        assert_eq!(
            profile[section].pretty(),
            scrubbed[section].pretty(),
            "{section} must not be scrubbed"
        );
    }
    // Spans keep name/count structure; only wall_ms is zeroed.
    fn assert_zeroed(node: &Json) {
        assert_eq!(
            node["wall_ms"].as_f64(),
            Some(0.0),
            "wall_ms must be scrubbed"
        );
        if let Some(children) = node["children"].as_array() {
            for child in children {
                assert_zeroed(child);
            }
        }
    }
    for node in scrubbed["spans"].as_array().expect("spans array") {
        assert_zeroed(node);
    }
}
