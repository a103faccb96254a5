//! The dense engine's output, pinned.
//!
//! Every registry scheme schedules every bundled kernel at a small binding,
//! and the FNV-1a digest of the schedule's `Debug` text must equal the
//! digest recorded below.  A scheme that refuses a kernel records its error
//! text instead.  The table was generated before the dense engine (Φ/Rd
//! enumeration, `DenseSet`/`DenseRelation`, the dense Algorithm 1) was
//! rewritten, so any change to a schedule — and hence to what the executor
//! runs — shows up here.
//!
//! Rows named `kernel@loop` pin the aggregated loop-level view
//! (`GranularityChoice::Loop` over an imperfect nest), which automatic
//! granularity never picks: lu falls back to dataflow stages there, and
//! `empty_prefix` is a hand-built nest whose first prefix iteration has an
//! empty body, so its dataflow schedule holds an empty work item.
//!
//! Regenerate (only when a schedule is *meant* to change):
//! `RCP_BLESS=1 cargo test --test dense_engine -- --nocapture` prints the
//! table.
//!
//! A second check holds the enumerated dependence relation to its
//! definition: on every bundled kernel, `DenseRelation::from_relation`
//! must list exactly the pairs of `Φ × Φ` that `Relation::contains_pair`
//! accepts.

use recurrence_chains::loopir::Program;
use recurrence_chains::presburger::{DenseRelation, DenseSet};
use recurrence_chains::session::{scheme_names, Config, GranularityChoice, Session};
use recurrence_chains::workloads::{bundled_loop, BUNDLED_LOOPS};

/// What one (kernel, scheme) pair must produce.
enum Expect {
    /// FNV-1a of `format!("{:?}", scheduled.schedule())`.
    Digest(u64),
    /// The scheme's error text.
    Refused(&'static str),
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The survey binding, except for Cholesky, whose survey size makes the
/// debug build slow.
fn binding(kernel: &str, survey: Vec<i64>) -> Vec<i64> {
    if kernel == "cholesky" {
        vec![3, 3, 6, 2]
    } else {
        survey
    }
}

/// An imperfect nest whose perfect prefix `(I, J)` runs an empty body at
/// `I = J = 1`, with a wavefront of dependences between prefix
/// iterations, so the aggregated view falls back to dataflow stages.
const EMPTY_PREFIX: &str = "PROGRAM empty_prefix
PARAM N
DO I = 1, N
  DO J = 1, N
    DO K = 1, J - 1
      S1: a(I, J) = a(I - 1, J), a(I, J - 1), b(K)
    ENDDO
    DO L = 1, I - 1
      S2: c(I, J) = a(I, J), c(I, J - 1)
    ENDDO
  ENDDO
ENDDO
END
";

/// The programs scheduled at loop granularity (the aggregated view), each
/// with its binding: lu at N = 16, the others at their survey binding.
fn loop_views() -> Vec<(&'static str, Program, Vec<i64>)> {
    let mut views: Vec<(&'static str, Program, Vec<i64>)> = [
        ("lu@loop", "lu"),
        ("mvt@loop", "mvt"),
        ("jacobi1d@loop", "jacobi1d"),
        ("example3@loop", "example3"),
        ("tomcatv@loop", "tomcatv"),
    ]
    .into_iter()
    .map(|(label, name)| {
        let bundled = bundled_loop(name).unwrap_or_else(|| panic!("{name} is bundled"));
        let values = match name {
            "lu" => vec![16],
            _ => bundled.survey_values(),
        };
        (label, bundled.program(), values)
    })
    .collect();
    let empty = recurrence_chains::lang::parse_program(EMPTY_PREFIX)
        .unwrap_or_else(|e| panic!("empty_prefix: {e}"));
    views.push(("empty_prefix@loop", empty, vec![5]));
    views
}

/// Schedules every (kernel, scheme) pair: `Ok(digest)` or `Err(error)`.
fn outcomes() -> Vec<(&'static str, &'static str, Result<u64, String>)> {
    let auto = BUNDLED_LOOPS.iter().map(|bundled| {
        let values = binding(bundled.name, bundled.survey_values());
        (bundled.name, bundled.program(), values, Session::new())
    });
    let loop_level = Session::with_config(Config::new().with_granularity(GranularityChoice::Loop));
    let aggregated = loop_views()
        .into_iter()
        .map(|(label, program, values)| (label, program, values, loop_level.clone()));
    let mut out = Vec::new();
    for (kernel, program, values, session) in auto.chain(aggregated) {
        let analyzed = session
            .load(program)
            .unwrap_or_else(|e| panic!("{kernel}: {e}"));
        let partitioned = analyzed
            .partition_values(&values)
            .unwrap_or_else(|e| panic!("{kernel}: {e}"));
        for scheme in scheme_names() {
            let outcome = partitioned
                .schedule_with(scheme)
                .map(|s| format!("{:?}", s.schedule()))
                .map_err(|e| e.to_string());
            if (kernel, scheme) == ("empty_prefix@loop", "recurrence-chains") {
                let text = outcome.as_deref().unwrap_or_default();
                assert!(
                    text.contains("WorkItem { instances: [] }"),
                    "{kernel}: the empty prefix iteration keeps its work item"
                );
            }
            out.push((kernel, scheme, outcome.map(|text| fnv1a(text.as_bytes()))));
        }
    }
    out
}

#[test]
fn schedules_match_the_pinned_digests() {
    let got = outcomes();
    if std::env::var_os("RCP_BLESS").is_some() {
        for (kernel, scheme, outcome) in &got {
            match outcome {
                Ok(d) => println!("    ({kernel:?}, {scheme:?}, Expect::Digest({d:#018x})),"),
                Err(e) => println!("    ({kernel:?}, {scheme:?}, Expect::Refused({e:?})),"),
            }
        }
        return;
    }
    assert_eq!(got.len(), PINNED.len(), "kernel or scheme set changed");
    for ((kernel, scheme, outcome), (pk, ps, expect)) in got.iter().zip(PINNED) {
        assert_eq!((kernel, scheme), (pk, ps), "table order changed");
        match (outcome, expect) {
            (Ok(d), Expect::Digest(want)) => {
                assert_eq!(d, want, "{kernel}/{scheme}: schedule changed")
            }
            (Err(e), Expect::Refused(want)) => {
                assert_eq!(e, want, "{kernel}/{scheme}: refusal changed")
            }
            (Ok(_), Expect::Refused(want)) => {
                panic!("{kernel}/{scheme}: scheduled, but used to refuse with {want:?}")
            }
            (Err(e), Expect::Digest(_)) => {
                panic!("{kernel}/{scheme}: refused with {e:?}, but used to schedule")
            }
        }
    }
}

#[test]
fn enumerated_relations_equal_the_brute_force_pair_scan() {
    let session = Session::new();
    let mut pairs = 0;
    for bundled in BUNDLED_LOOPS {
        // The scan is quadratic in |Φ|, so Cholesky runs much smaller.
        let values = match bundled.name {
            "cholesky" => vec![1, 2, 3, 1],
            _ => bundled.survey_values(),
        };
        let partitioned = session
            .load(bundled.program())
            .and_then(|a| a.partition_values(&values))
            .unwrap_or_else(|e| panic!("{}: {e}", bundled.name));
        // The analysis the partition was built from, at its own binding
        // (a deferred analysis is already bound).
        let (phi, rel) = partitioned
            .analysis()
            .bind_params(partitioned.runtime_values());
        let phi = DenseSet::from_union(&phi);
        let rd = DenseRelation::from_relation(&rel);
        let mut brute = Vec::new();
        for x in phi.iter() {
            for y in phi.iter() {
                if rel.contains_pair(x, y, &[]) {
                    brute.push((x, y));
                }
            }
        }
        pairs += rd.len();
        assert_eq!(
            rd.iter().collect::<Vec<_>>(),
            brute,
            "{}: enumerated Rd differs from the Φ×Φ scan",
            bundled.name
        );
    }
    assert!(pairs > 1000, "only {pairs} dependence pairs checked");
}

#[rustfmt::skip]
const PINNED: &[(&str, &str, Expect)] = &[
    ("applu", "recurrence-chains", Expect::Digest(0xb4f596d700c713c9)),
    ("applu", "pdm", Expect::Digest(0xcb48f4c384ae3b5e)),
    ("applu", "pl", Expect::Digest(0x8eda0eb051944181)),
    ("applu", "unique", Expect::Digest(0x06d8a18f0bc27bf8)),
    ("applu", "doacross", Expect::Digest(0x204243c082b293a9)),
    ("applu", "inner-parallel", Expect::Digest(0x4df7fba701fa1ae3)),
    ("cholesky", "recurrence-chains", Expect::Digest(0x8db41d700e5033c2)),
    ("cholesky", "pdm", Expect::Refused("scheme `pdm` does not apply: the scheme operates on perfect loop nests at loop-level granularity")),
    ("cholesky", "pl", Expect::Refused("scheme `pl` does not apply: the scheme operates on perfect loop nests at loop-level granularity")),
    ("cholesky", "unique", Expect::Refused("scheme `unique` does not apply: the scheme operates on perfect loop nests at loop-level granularity")),
    ("cholesky", "doacross", Expect::Digest(0xdff52d3ca6c60b4e)),
    ("cholesky", "inner-parallel", Expect::Digest(0xeb13a46be0180c0c)),
    ("example1", "recurrence-chains", Expect::Digest(0x7161263d5cda0a46)),
    ("example1", "pdm", Expect::Digest(0x5fc105b1e479c88c)),
    ("example1", "pl", Expect::Digest(0x94333bf393219e75)),
    ("example1", "unique", Expect::Digest(0x15778fd153682cb2)),
    ("example1", "doacross", Expect::Digest(0x737f1837a2ba7ce5)),
    ("example1", "inner-parallel", Expect::Digest(0x7b56ce3878f334a0)),
    ("example2", "recurrence-chains", Expect::Digest(0x40f476eafaa8347f)),
    ("example2", "pdm", Expect::Digest(0x01a5963d5d12ec97)),
    ("example2", "pl", Expect::Digest(0xa508ef98a24734d6)),
    ("example2", "unique", Expect::Digest(0x5119d1b26bce0b80)),
    ("example2", "doacross", Expect::Digest(0x7e80d5575d810bf2)),
    ("example2", "inner-parallel", Expect::Digest(0xcf07e73287ebc579)),
    ("example3", "recurrence-chains", Expect::Digest(0xa5f6c00508c7db09)),
    ("example3", "pdm", Expect::Refused("scheme `pdm` does not apply: the scheme operates on perfect loop nests at loop-level granularity")),
    ("example3", "pl", Expect::Refused("scheme `pl` does not apply: the scheme operates on perfect loop nests at loop-level granularity")),
    ("example3", "unique", Expect::Refused("scheme `unique` does not apply: the scheme operates on perfect loop nests at loop-level granularity")),
    ("example3", "doacross", Expect::Digest(0x9293593d0543de9f)),
    ("example3", "inner-parallel", Expect::Digest(0x390326b8a53bd842)),
    ("figure2", "recurrence-chains", Expect::Digest(0x762c2bb5652171e9)),
    ("figure2", "pdm", Expect::Digest(0x02199ed53ac85d87)),
    ("figure2", "pl", Expect::Digest(0xb9d06230b3ba545c)),
    ("figure2", "unique", Expect::Digest(0x846ca19abf5aff49)),
    ("figure2", "doacross", Expect::Digest(0xe26be2c1d24d3558)),
    ("figure2", "inner-parallel", Expect::Digest(0x5e458a07770ae8c3)),
    ("jacobi1d", "recurrence-chains", Expect::Digest(0xf504e4ba6612e302)),
    ("jacobi1d", "pdm", Expect::Refused("scheme `pdm` does not apply: the scheme operates on perfect loop nests at loop-level granularity")),
    ("jacobi1d", "pl", Expect::Refused("scheme `pl` does not apply: the scheme operates on perfect loop nests at loop-level granularity")),
    ("jacobi1d", "unique", Expect::Refused("scheme `unique` does not apply: the scheme operates on perfect loop nests at loop-level granularity")),
    ("jacobi1d", "doacross", Expect::Digest(0x21ab641f97513cdd)),
    ("jacobi1d", "inner-parallel", Expect::Digest(0x075a827de486d61f)),
    ("lu", "recurrence-chains", Expect::Digest(0x33723ee8d6b1a3bc)),
    ("lu", "pdm", Expect::Refused("scheme `pdm` does not apply: the scheme operates on perfect loop nests at loop-level granularity")),
    ("lu", "pl", Expect::Refused("scheme `pl` does not apply: the scheme operates on perfect loop nests at loop-level granularity")),
    ("lu", "unique", Expect::Refused("scheme `unique` does not apply: the scheme operates on perfect loop nests at loop-level granularity")),
    ("lu", "doacross", Expect::Digest(0x562706cfef9ef361)),
    ("lu", "inner-parallel", Expect::Digest(0x05fc3102756127bb)),
    ("mvt", "recurrence-chains", Expect::Digest(0x1cdf13d32f282104)),
    ("mvt", "pdm", Expect::Refused("scheme `pdm` does not apply: the scheme operates on perfect loop nests at loop-level granularity")),
    ("mvt", "pl", Expect::Refused("scheme `pl` does not apply: the scheme operates on perfect loop nests at loop-level granularity")),
    ("mvt", "unique", Expect::Refused("scheme `unique` does not apply: the scheme operates on perfect loop nests at loop-level granularity")),
    ("mvt", "doacross", Expect::Digest(0x0ab466183254cd17)),
    ("mvt", "inner-parallel", Expect::Digest(0xa048d74b5228e3da)),
    ("swim", "recurrence-chains", Expect::Digest(0xa24c0ad55eb55224)),
    ("swim", "pdm", Expect::Digest(0xa20a3c2d6f5b4f11)),
    ("swim", "pl", Expect::Digest(0x418ea2b4b180b3df)),
    ("swim", "unique", Expect::Digest(0xdd2eaeec4c88990c)),
    ("swim", "doacross", Expect::Digest(0xdb09295c4403bbf2)),
    ("swim", "inner-parallel", Expect::Digest(0x82ed11c0f31a2b2b)),
    ("syr2k", "recurrence-chains", Expect::Digest(0xa63366eabe637938)),
    ("syr2k", "pdm", Expect::Digest(0x67851b46297b5aea)),
    ("syr2k", "pl", Expect::Digest(0xdf1caac2563117a3)),
    ("syr2k", "unique", Expect::Digest(0xe20d3546768ad73a)),
    ("syr2k", "doacross", Expect::Digest(0x7b7dd1065455b3ef)),
    ("syr2k", "inner-parallel", Expect::Digest(0x1697c71065a04664)),
    ("tomcatv", "recurrence-chains", Expect::Digest(0x8cc95771f0ce9c8f)),
    ("tomcatv", "pdm", Expect::Refused("scheme `pdm` does not apply: the scheme operates on perfect loop nests at loop-level granularity")),
    ("tomcatv", "pl", Expect::Refused("scheme `pl` does not apply: the scheme operates on perfect loop nests at loop-level granularity")),
    ("tomcatv", "unique", Expect::Refused("scheme `unique` does not apply: the scheme operates on perfect loop nests at loop-level granularity")),
    ("tomcatv", "doacross", Expect::Digest(0x2a63a0bfae0913ac)),
    ("tomcatv", "inner-parallel", Expect::Digest(0xd800fcec0ab496b5)),
    ("uniform_chain", "recurrence-chains", Expect::Digest(0xef420cabeba3a7f0)),
    ("uniform_chain", "pdm", Expect::Digest(0x1af6242cf3d77efc)),
    ("uniform_chain", "pl", Expect::Digest(0x27ee02b3174e0205)),
    ("uniform_chain", "unique", Expect::Digest(0x0f0733693072fdc8)),
    ("uniform_chain", "doacross", Expect::Digest(0x3910377b6c332235)),
    ("uniform_chain", "inner-parallel", Expect::Digest(0xd9a2fb36fc9c8f00)),
    ("wavefront", "recurrence-chains", Expect::Digest(0x5d2ce5d502dadc67)),
    ("wavefront", "pdm", Expect::Digest(0xa63282bbe1773940)),
    ("wavefront", "pl", Expect::Digest(0x1a9644dd063ffd79)),
    ("wavefront", "unique", Expect::Digest(0x5c57020ce41927f2)),
    ("wavefront", "doacross", Expect::Digest(0xae9d4405a96358b1)),
    ("wavefront", "inner-parallel", Expect::Digest(0x42f7a29c880f4943)),    ("lu@loop", "recurrence-chains", Expect::Digest(0x67ab48c0cfda5aa1)),
    ("lu@loop", "pdm", Expect::Refused("scheme `pdm` does not apply: the scheme's lattice construction is defined on perfect nests, not on the aggregated loop-group view of an imperfect nest")),
    ("lu@loop", "pl", Expect::Refused("scheme `pl` does not apply: the scheme's lattice construction is defined on perfect nests, not on the aggregated loop-group view of an imperfect nest")),
    ("lu@loop", "unique", Expect::Refused("scheme `unique` does not apply: the scheme's lattice construction is defined on perfect nests, not on the aggregated loop-group view of an imperfect nest")),
    ("lu@loop", "doacross", Expect::Digest(0xb5ba8e53a5bb7db1)),
    ("lu@loop", "inner-parallel", Expect::Digest(0x3d8dff6adcaf1447)),
    ("mvt@loop", "recurrence-chains", Expect::Digest(0xc086bfa2ed780876)),
    ("mvt@loop", "pdm", Expect::Refused("scheme `pdm` does not apply: the scheme's lattice construction is defined on perfect nests, not on the aggregated loop-group view of an imperfect nest")),
    ("mvt@loop", "pl", Expect::Refused("scheme `pl` does not apply: the scheme's lattice construction is defined on perfect nests, not on the aggregated loop-group view of an imperfect nest")),
    ("mvt@loop", "unique", Expect::Refused("scheme `unique` does not apply: the scheme's lattice construction is defined on perfect nests, not on the aggregated loop-group view of an imperfect nest")),
    ("mvt@loop", "doacross", Expect::Digest(0x0ab466183254cd17)),
    ("mvt@loop", "inner-parallel", Expect::Digest(0xa048d74b5228e3da)),
    ("jacobi1d@loop", "recurrence-chains", Expect::Digest(0xe48dc2a5aa7c0c86)),
    ("jacobi1d@loop", "pdm", Expect::Refused("scheme `pdm` does not apply: the scheme's lattice construction is defined on perfect nests, not on the aggregated loop-group view of an imperfect nest")),
    ("jacobi1d@loop", "pl", Expect::Refused("scheme `pl` does not apply: the scheme's lattice construction is defined on perfect nests, not on the aggregated loop-group view of an imperfect nest")),
    ("jacobi1d@loop", "unique", Expect::Refused("scheme `unique` does not apply: the scheme's lattice construction is defined on perfect nests, not on the aggregated loop-group view of an imperfect nest")),
    ("jacobi1d@loop", "doacross", Expect::Digest(0x21ab641f97513cdd)),
    ("jacobi1d@loop", "inner-parallel", Expect::Digest(0x075a827de486d61f)),
    ("example3@loop", "recurrence-chains", Expect::Digest(0x7294a943caec0f71)),
    ("example3@loop", "pdm", Expect::Refused("scheme `pdm` does not apply: the scheme's lattice construction is defined on perfect nests, not on the aggregated loop-group view of an imperfect nest")),
    ("example3@loop", "pl", Expect::Refused("scheme `pl` does not apply: the scheme's lattice construction is defined on perfect nests, not on the aggregated loop-group view of an imperfect nest")),
    ("example3@loop", "unique", Expect::Refused("scheme `unique` does not apply: the scheme's lattice construction is defined on perfect nests, not on the aggregated loop-group view of an imperfect nest")),
    ("example3@loop", "doacross", Expect::Digest(0x9293593d0543de9f)),
    ("example3@loop", "inner-parallel", Expect::Digest(0x390326b8a53bd842)),
    ("tomcatv@loop", "recurrence-chains", Expect::Digest(0x98e386dfa1700bdf)),
    ("tomcatv@loop", "pdm", Expect::Refused("scheme `pdm` does not apply: the scheme's lattice construction is defined on perfect nests, not on the aggregated loop-group view of an imperfect nest")),
    ("tomcatv@loop", "pl", Expect::Refused("scheme `pl` does not apply: the scheme's lattice construction is defined on perfect nests, not on the aggregated loop-group view of an imperfect nest")),
    ("tomcatv@loop", "unique", Expect::Refused("scheme `unique` does not apply: the scheme's lattice construction is defined on perfect nests, not on the aggregated loop-group view of an imperfect nest")),
    ("tomcatv@loop", "doacross", Expect::Digest(0x2a63a0bfae0913ac)),
    ("tomcatv@loop", "inner-parallel", Expect::Digest(0xd800fcec0ab496b5)),
    ("empty_prefix@loop", "recurrence-chains", Expect::Digest(0xf47422b45b89dfcd)),
    ("empty_prefix@loop", "pdm", Expect::Refused("scheme `pdm` does not apply: the scheme's lattice construction is defined on perfect nests, not on the aggregated loop-group view of an imperfect nest")),
    ("empty_prefix@loop", "pl", Expect::Refused("scheme `pl` does not apply: the scheme's lattice construction is defined on perfect nests, not on the aggregated loop-group view of an imperfect nest")),
    ("empty_prefix@loop", "unique", Expect::Refused("scheme `unique` does not apply: the scheme's lattice construction is defined on perfect nests, not on the aggregated loop-group view of an imperfect nest")),
    ("empty_prefix@loop", "doacross", Expect::Digest(0xa8f4c9085dd5dea0)),
    ("empty_prefix@loop", "inner-parallel", Expect::Digest(0xc600a663a0399186)),
];
