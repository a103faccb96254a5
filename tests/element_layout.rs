//! The element layout is sound for its two consumers: every access of
//! every instance the runtime runs, or the tracer walks, lies in its
//! array's box at the row-major offset of its per-dimension subscripts,
//! unless the layout leaves the read outside the box or reads an array no
//! instance writes.  Every write has a flat row.  Checked on every
//! bundled kernel at two bindings and both granularities, on generated
//! nests, and on a hand-built schedule whose points lie outside the
//! program's loop bounds.

use recurrence_chains::codegen::{PhaseKind, Schedule, ScheduleBuilder};
use recurrence_chains::depend::statement_boxes;
use recurrence_chains::loopir::expr::{c, v};
use recurrence_chains::loopir::program::build::{loop_, stmt};
use recurrence_chains::loopir::{Address, ArrayLayout, ArrayRef, ElementLayout, Program};
use recurrence_chains::runtime::{execute_sequential, ArrayStore, Kernel, RefKernel};
use recurrence_chains::session::{Config, GranularityChoice, RcpError, Session};
use recurrence_chains::workloads::rng::SmallRng;
use recurrence_chains::workloads::{random_nest, BUNDLED_LOOPS};

/// Checks every access of `instances` (statement id, loop indices) against
/// `layout`; returns how many went by flat offset.
fn check_accesses<'a>(
    program: &Program,
    layout: &ElementLayout,
    instances: impl IntoIterator<Item = (usize, &'a [i64])>,
    what: &str,
) -> usize {
    let refs = program.compile_refs();
    let mut flat = 0;
    for (s, indices) in instances {
        for (k, r) in refs.stmts[s].iter().enumerate() {
            let mut subscripts = vec![0i64; r.rank];
            r.eval(indices, &mut subscripts);
            let address = layout.statement(s).address(k, indices);
            match (address, &layout.arrays()[r.slot]) {
                (Address::Cell(offset), ArrayLayout::Dense(array)) => {
                    assert_eq!(
                        array.offset(&subscripts),
                        Some(offset),
                        "{what}: statement {s} reference {k} at {indices:?}"
                    );
                    flat += 1;
                }
                (Address::Subscripts, ArrayLayout::Dense(_))
                | (Address::Unwritten, ArrayLayout::Unwritten) => {
                    assert!(!r.write, "{what}: a write without a flat row");
                }
                (address, array) => panic!("{what}: {address:?} into {array:?}"),
            }
        }
    }
    flat
}

/// Checks the runtime's layout of `schedule` and the tracer's layout of
/// `bound`, the program with its parameters bound, which lists the same
/// instances.
fn check_both(bound: &Program, schedule: &Schedule, what: &str) {
    let refs = bound.compile_refs();
    let runtime = ElementLayout::new(&refs, schedule.statement_boxes());
    let flat = check_accesses(bound, &runtime, schedule.instances(), what);
    assert!(flat > 0 || schedule.n_instances() == 0, "{what}");
    let boxes = statement_boxes(bound);
    let tracer = ElementLayout::new(&refs, &boxes);
    let mut walked = Vec::new();
    bound.for_each_instance(&[], |s, indices| {
        let ranges = &boxes[s].ranges;
        let inside = ranges.len() == indices.len()
            && ranges
                .iter()
                .zip(indices)
                .all(|(&(lo, hi), &x)| lo <= x && x <= hi);
        assert!(inside, "{what}: {indices:?} escapes its box");
        walked.push((s, indices.to_vec()));
    });
    check_accesses(
        bound,
        &tracer,
        walked.iter().map(|(s, i)| (*s, &i[..])),
        what,
    );
}

#[test]
fn every_bundled_kernel_is_laid_out_soundly() {
    let mut checked = 0;
    for bundled in BUNDLED_LOOPS {
        let survey = bundled.survey_values();
        let bindings = match bundled.name {
            "cholesky" => vec![vec![2, 2, 6, 1], vec![3, 3, 8, 2]],
            _ if survey.is_empty() => vec![survey],
            _ => vec![survey.iter().map(|v| v + 2).collect(), survey],
        };
        for choice in [GranularityChoice::Statement, GranularityChoice::Loop] {
            let analyzed = match Session::with_config(Config::new().with_granularity(choice))
                .load(bundled.program())
            {
                Ok(analyzed) => analyzed,
                Err(RcpError::GranularityUnavailable { .. }) => continue,
                Err(e) => panic!("{}: {e}", bundled.name),
            };
            for values in &bindings {
                let what = format!("{} at {choice:?}, {values:?}", bundled.name);
                let stage = analyzed
                    .partition_values(values)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let scheduled = stage.schedule().unwrap_or_else(|e| panic!("{what}: {e}"));
                let bound = stage.runtime_program().bind_params(stage.runtime_values());
                check_both(&bound, scheduled.schedule(), &what);
                check_both(
                    &bound,
                    scheduled.sequential(),
                    &format!("{what}, sequential"),
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 30, "only {checked} stages checked");
}

#[test]
fn generated_nests_are_laid_out_soundly() {
    let mut rng = SmallRng::seed_from_u64(0x1a70);
    for id in 0..240 {
        let program = random_nest(&mut rng, 0.6, id);
        let n = rng.gen_range(2..=9);
        let bound = program.bind_params(&[n]);
        let what = format!("{} at N = {n}", program.name);
        check_both(&bound, &Schedule::sequential(&bound, &[]), &what);
    }
}

#[test]
fn schedules_outside_the_loop_bounds_are_laid_out_from_their_own_boxes() {
    // Figure 2's a(2I) = a(21 - I) runs I = 1..20, but the schedule runs
    // instances the loop never does, on either side of its bounds, and in
    // an order of its own.
    let program = Program::new(
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
    );
    let at = [-7, 3, 40, 0, 25, -7, 12];
    let mut builder = ScheduleBuilder::new("outside", &[1]);
    builder.phase(PhaseKind::ChainSet);
    builder.chain();
    for i in at {
        builder.single(0, &[i]);
    }
    let schedule = builder.finish();
    assert_eq!(schedule.statement_boxes()[0].ranges, vec![(-7, 40)]);
    let layout = ElementLayout::new(&program.compile_refs(), schedule.statement_boxes());
    let flat = check_accesses(&program, &layout, schedule.instances(), "outside");
    assert_eq!(flat, 2 * at.len());
    // The run reaches every element by its flat offset and computes what
    // the instances computed one by one by subscripts do.
    let kernel = RefKernel::new(&program);
    let mut want = ArrayStore::new();
    for (s, indices) in schedule.instances() {
        kernel.execute(s, indices, &mut want);
    }
    assert!(execute_sequential(&schedule, &kernel) == want);
}

#[test]
fn a_band_whose_interval_box_passes_the_limit_runs_from_its_written_box() {
    // Band storage: DO I = 1, N; DO J = I, I + 1 writes a(J - I, I), 2·N
    // elements in a 2 by N box.  Over the statement box (I in 1..N, J in
    // 1..N + 1) the interval box of a(J - I, I) spans 2·N² cells, past the
    // limit for 2·N writes at N = 1 000: the kernel reserves the box of
    // the schedule's writes instead.
    let n = 1000;
    let source = "PROGRAM band\nPARAM N\nDO I = 1, N\n  DO J = I, I + 1\n    \
                  S: a(J - I, I) = a(J - I, I - 1)\n  ENDDO\nENDDO\nEND\n";
    let stage = Session::with_config(Config::new().with_param("N", n))
        .parse(source, "band.loop")
        .unwrap()
        .partition()
        .unwrap();
    let scheduled = stage.schedule().unwrap();
    let sequential = scheduled.sequential();
    let bound = stage.runtime_program().bind_params(stage.runtime_values());
    let layout = ElementLayout::new(&bound.compile_refs(), sequential.statement_boxes());
    assert!(
        matches!(&layout.arrays()[0], ArrayLayout::Hashed(b) if b.cells() == 2 * n as u64 * n as u64),
        "{:?}",
        layout.arrays()
    );
    let kernel = scheduled.kernel();
    let mut want = ArrayStore::new();
    for (s, indices) in sequential.instances() {
        kernel.execute(s, indices, &mut want);
    }
    let got = execute_sequential(sequential, &kernel);
    assert_eq!(got.written_len(), 2 * n as usize);
    assert!(got == want);
    // The run `rcp run` makes: the parallel schedule against the
    // sequential one, bit for bit.
    let verification = scheduled.verify_checked().unwrap();
    assert!(verification.passed(), "{verification:?}");
}
