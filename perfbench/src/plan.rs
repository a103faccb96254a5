//! The seeded op lists.  Every list is a pure function of `(seed,
//! seconds)`: `seconds` sets its length from the nominal op costs below
//! (measured at the commit that introduced the benchmark on a 2-vCPU
//! x86-64 box), and the seed draws the bindings, classes and order.  A run
//! stops when its list is done, never on a clock, so a faster commit does
//! the same work in less time.  README.md says why each kernel, range and
//! share was chosen.

use rcp_workloads::SmallRng;
use std::collections::HashSet;

/// An independent random stream per workload, so one seed's compile list
/// does not shift when the serve list changes.
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn unit(rng: &mut SmallRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

pub fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i as i64) as usize;
        items.swap(i, j);
    }
}

/// A bundled kernel with one `(lo, hi)` range per declared parameter.
pub struct Sweep {
    pub kernel: &'static str,
    pub ranges: &'static [(i64, i64)],
}

impl Sweep {
    /// Every parameter at the same relative size `t` in `[0, 1]`, so op
    /// cost grows monotonically with `t`.
    fn at(&self, t: f64) -> Vec<i64> {
        self.ranges
            .iter()
            .map(|&(lo, hi)| lo + ((hi - lo) as f64 * t.clamp(0.0, 1.0)).round() as i64)
            .collect()
    }

    /// Every binding in the ranges.
    fn all(&self) -> Vec<Vec<i64>> {
        self.ranges
            .iter()
            .fold(vec![Vec::new()], |prefixes, &(lo, hi)| {
                prefixes
                    .iter()
                    .flat_map(|prefix| {
                        (lo..=hi).map(move |v| {
                            let mut binding = prefix.clone();
                            binding.push(v);
                            binding
                        })
                    })
                    .collect()
            })
    }
}

// ---------------------------------------------------------------------------
// compile
// ---------------------------------------------------------------------------

/// The compile kernels: every bundled `.loop` kernel but `figure2` (no
/// parameters), capped so one op takes about 0.05–0.6 s.
pub const COMPILE_SWEEPS: &[Sweep] = &[
    Sweep {
        kernel: "applu",
        ranges: &[(10, 16)],
    },
    Sweep {
        kernel: "cholesky",
        ranges: &[(1, 2), (3, 4), (7, 8), (1, 2)],
    },
    Sweep {
        kernel: "example1",
        ranges: &[(50, 110), (80, 170)],
    },
    Sweep {
        kernel: "example2",
        ranges: &[(60, 130)],
    },
    Sweep {
        kernel: "example3",
        ranges: &[(20, 36)],
    },
    Sweep {
        kernel: "jacobi1d",
        ranges: &[(6, 14), (30, 55)],
    },
    Sweep {
        kernel: "lu",
        ranges: &[(10, 18)],
    },
    Sweep {
        kernel: "mvt",
        ranges: &[(16, 30)],
    },
    Sweep {
        kernel: "swim",
        ranges: &[(20, 40), (20, 40)],
    },
    Sweep {
        kernel: "syr2k",
        ranges: &[(14, 24), (8, 12)],
    },
    Sweep {
        kernel: "tomcatv",
        ranges: &[(16, 28)],
    },
    Sweep {
        kernel: "uniform_chain",
        ranges: &[(3000, 12000)],
    },
    Sweep {
        kernel: "wavefront",
        ranges: &[(50, 100)],
    },
];

/// Nominal seconds of one compile round (each kernel once).  Many short
/// ops rather than a few long ones keep the rank statistics steady.
const COMPILE_ROUND_S: f64 = 1.7;

/// How far a compile op's size level strays from its stratum centre, as
/// a share of the stratum.
const COMPILE_JITTER: f64 = 0.1;

#[derive(Clone, Debug, PartialEq)]
pub struct CompileOp {
    pub kernel: &'static str,
    pub values: Vec<i64>,
}

/// `rounds` ops per kernel at stratified size levels (one per stratum of
/// the kernel's range, jittered), in seeded order.
pub fn compile_ops(seed: u64, seconds: u64) -> Vec<CompileOp> {
    let rounds = ((seconds as f64 / COMPILE_ROUND_S).round() as usize).max(1);
    let mut rng = rng(seed, 1);
    let mut ops = Vec::new();
    for sweep in COMPILE_SWEEPS {
        for stratum in 0..rounds {
            let jitter = (unit(&mut rng) - 0.5) * 2.0 * COMPILE_JITTER;
            let t = (stratum as f64 + 0.5 + jitter) / rounds as f64;
            ops.push(CompileOp {
                kernel: sweep.kernel,
                values: sweep.at(t),
            });
        }
    }
    shuffle(&mut rng, &mut ops);
    ops
}

// ---------------------------------------------------------------------------
// execute
// ---------------------------------------------------------------------------

/// A family of schedules `execute` compiles once in set-up: one kernel at
/// several sizes.
pub struct ExecSpec {
    pub name: &'static str,
    pub kernel: &'static str,
    /// The bindings, spread so op costs cover a range rather than a point.
    pub sizes: &'static [&'static [i64]],
    /// Analyse at loop granularity (the aggregated view of an imperfect
    /// nest) instead of the automatic choice.
    pub loop_level: bool,
    /// One-thread runs of each size per 15 s of `--seconds`.
    pub runs: usize,
}

/// On the 2-vCPU box the benchmark was built on, a run of one schedule
/// takes either its fast time or about twice that, switching every few
/// seconds with the machine's state.  A rank that fell among many runs of
/// one schedule would therefore jump between the two times; so the sizes
/// spread each family's costs over a range, and the families overlap.
/// Fast-state costs: jacobi1d 0.6–3.2 ms, example2 1.9–6.7 ms, mvt 2.3 ms,
/// Cholesky 4.3 ms, example1 3.8–10.5 ms and uniform_chain 16–32 ms.  The
/// median rank falls among the jacobi1d and example2 runs near 3 ms, and
/// the tail rank among the uniform_chain runs, whose 2x size range covers
/// both states.
pub const EXEC_SCHEDULES: &[ExecSpec] = &[
    ExecSpec {
        name: "ex1",
        kernel: "example1",
        sizes: &[
            &[90, 150],
            &[105, 175],
            &[120, 200],
            &[135, 225],
            &[150, 250],
        ],
        loop_level: false,
        runs: 47,
    },
    ExecSpec {
        name: "ex2",
        kernel: "example2",
        sizes: &[&[80], &[92], &[104], &[116], &[128], &[140], &[152]],
        loop_level: false,
        runs: 65,
    },
    ExecSpec {
        name: "cholesky",
        kernel: "cholesky",
        sizes: &[&[10, 4, 20, 2]],
        loop_level: false,
        runs: 292,
    },
    ExecSpec {
        name: "mvt",
        kernel: "mvt",
        sizes: &[&[60]],
        loop_level: true,
        runs: 195,
    },
    ExecSpec {
        name: "jacobi1d",
        kernel: "jacobi1d",
        sizes: &[
            &[20, 60],
            &[20, 90],
            &[20, 120],
            &[20, 150],
            &[20, 180],
            &[20, 210],
            &[20, 240],
            &[20, 270],
            &[20, 300],
        ],
        loop_level: true,
        runs: 78,
    },
    ExecSpec {
        name: "uniform_chain",
        kernel: "uniform_chain",
        sizes: &[
            &[48000],
            &[56000],
            &[64000],
            &[72000],
            &[80000],
            &[88000],
            &[96000],
        ],
        loop_level: false,
        runs: 8,
    },
];

/// Every schedule of [`EXEC_SCHEDULES`]: each family at each of its sizes.
pub fn exec_schedules() -> Vec<(&'static ExecSpec, &'static [i64])> {
    EXEC_SCHEDULES
        .iter()
        .flat_map(|spec| spec.sizes.iter().map(move |&size| (spec, size)))
        .collect()
}

/// Parallel runs per schedule in the parallel pass of a traced run, per
/// 15 s of `--seconds`.
const EXEC_PARALLEL_RUNS: usize = 8;

fn scaled(runs: usize, seconds: u64) -> usize {
    ((runs as u64 * seconds) as f64 / 15.0).round().max(1.0) as usize
}

fn schedule_order(seed: u64, stream: u64, runs: impl Fn(&ExecSpec) -> usize) -> Vec<usize> {
    let mut order = Vec::new();
    for (k, (spec, _)) in exec_schedules().into_iter().enumerate() {
        order.extend(std::iter::repeat_n(k, runs(spec)));
    }
    shuffle(&mut rng(seed, stream), &mut order);
    order
}

/// The timed ops: indices into [`exec_schedules`] of the one-thread runs.
/// The multiset is fixed by `seconds`; the seed draws only the order.
pub fn execute_ops(seed: u64, seconds: u64) -> Vec<usize> {
    schedule_order(seed, 2, |spec| scaled(spec.runs, seconds))
}

/// The parallel pass of a traced run: the same number of runs of every
/// schedule, in seeded order.
pub fn parallel_ops(seed: u64, seconds: u64) -> Vec<usize> {
    schedule_order(seed, 4, |_| scaled(EXEC_PARALLEL_RUNS, seconds))
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Hit,
    Bind,
    Enumerate,
    Run,
    Miss,
    Deferred,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::Hit,
        Class::Bind,
        Class::Enumerate,
        Class::Run,
        Class::Miss,
        Class::Deferred,
    ];

    /// The name of the client-side span a traced run records.
    pub fn span(self) -> &'static str {
        match self {
            Class::Hit => "serve.hit",
            Class::Bind => "serve.bind",
            Class::Enumerate => "serve.enumerate",
            Class::Run => "serve.run",
            Class::Miss => "serve.miss",
            Class::Deferred => "serve.deferred",
        }
    }

    /// The class name, as the output labels it.
    pub fn name(self) -> &'static str {
        &self.span()["serve.".len()..]
    }
}

/// The programs `hit` requests touch; every program of the other warm
/// classes is among them, so each block keeps the whole warm set recent
/// in the server's LRU.
pub const HIT_PROGRAMS: &[&str] = &[
    "applu",
    "example1",
    "example2",
    "example3",
    "figure2",
    "jacobi1d",
    "lu",
    "mvt",
    "swim",
    "syr2k",
    "tomcatv",
    "uniform_chain",
    "wavefront",
];

/// `bind`: partitions at fresh bindings of instantiable programs.  The
/// example1 range is disjoint from the `enumerate` and `run` ranges.
const BIND_SWEEPS: &[Sweep] = &[
    Sweep {
        kernel: "example1",
        ranges: &[(10, 52), (39, 62)],
    },
    Sweep {
        kernel: "uniform_chain",
        ranges: &[(50, 3000)],
    },
];

/// `enumerate`: analyses (dense Φ/Rd for the uniformity verdict) at fresh
/// bindings of an instantiable and a concrete-fallback program.
const ENUMERATE_SWEEPS: &[Sweep] = &[
    Sweep {
        kernel: "example1",
        ranges: &[(6, 38), (6, 38)],
    },
    Sweep {
        kernel: "swim",
        ranges: &[(13, 44), (13, 44)],
    },
];

/// `run`: verified runs at small bindings the set-up warms, so a run
/// request rebuilds the schedule, the sequential reference and the
/// execution but never the partition.
const RUN_SWEEPS: &[Sweep] = &[
    Sweep {
        kernel: "example1",
        ranges: &[(6, 34), (6, 34)],
    },
    Sweep {
        kernel: "example2",
        ranges: &[(8, 30)],
    },
    Sweep {
        kernel: "swim",
        ranges: &[(4, 12), (4, 12)],
    },
    Sweep {
        kernel: "wavefront",
        ranges: &[(10, 30)],
    },
];

/// Evenly spaced size levels per `run` program (fixed, so the slowest
/// runs, which hold the tail rank, cost the same for every seed).
const RUN_LEVELS: usize = 6;

/// `deferred`: Cholesky bindings the set-up warms.
const DEFERRED_BINDINGS: &[[i64; 4]] = &[[1, 2, 5, 1], [2, 2, 6, 1], [2, 3, 6, 1]];

/// `miss`: generated nests are bound at `N` in this range.
const MISS_N: (i64, i64) = (6, 16);

/// Nominal seconds of one block on each connection (both run at once).
const SERVE_BLOCK_S: f64 = 0.030;

#[derive(Clone, Debug, PartialEq)]
pub struct ServeOp {
    pub class: Class,
    pub command: &'static str,
    /// A bundled workload name, or `None` for a generated inline source.
    pub workload: Option<&'static str>,
    pub source: Option<String>,
    pub params: Vec<(String, i64)>,
}

impl ServeOp {
    fn bundled(class: Class, command: &'static str, kernel: &'static str, values: &[i64]) -> Self {
        let names = rcp_workloads::bundled_loop(kernel)
            .map(|b| b.survey_params)
            .unwrap_or_default();
        ServeOp {
            class,
            command,
            workload: Some(kernel),
            source: None,
            params: names
                .iter()
                .zip(values)
                .map(|((name, _), v)| (name.to_string(), *v))
                .collect(),
        }
    }
}

/// The survey binding of a bundled kernel: what `hit` requests use.
fn survey(kernel: &str) -> Vec<i64> {
    rcp_workloads::bundled_loop(kernel).map_or_else(Vec::new, |b| b.survey_values())
}

fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..=items.len() as i64 - 1) as usize]
}

/// `per_sweep` fresh bindings of each sweep, in seeded order: each drawn
/// from the bindings set-up does not serve, so a request class's mix of
/// programs is the same at every run length.
fn fresh(
    rng: &mut SmallRng,
    sweeps: &[Sweep],
    served: &HashSet<(&str, Vec<i64>)>,
    per_sweep: usize,
) -> Vec<(&'static str, Vec<i64>)> {
    let mut drawn = Vec::new();
    for sweep in sweeps {
        let mut pool: Vec<Vec<i64>> = sweep
            .all()
            .into_iter()
            .filter(|values| !served.contains(&(sweep.kernel, values.clone())))
            .collect();
        // Up to `MAX_SECONDS` the pools hold enough (a test checks it);
        // past it `parse_args` refuses the run.
        assert!(
            pool.len() >= per_sweep,
            "{}: {} fresh bindings, {per_sweep} needed",
            sweep.kernel,
            pool.len()
        );
        shuffle(rng, &mut pool);
        drawn.extend(pool.into_iter().take(per_sweep).map(|v| (sweep.kernel, v)));
    }
    shuffle(rng, &mut drawn);
    drawn
}

/// The serve workload: requests the set-up sends to fill the cache, then
/// one closed-loop op list per client connection.
#[derive(Debug, PartialEq)]
pub struct ServePlan {
    pub warm: Vec<ServeOp>,
    pub lists: [Vec<ServeOp>; 2],
}

/// The longest `--seconds` the fresh-binding sweeps can supply (each
/// block draws one `bind` and one `enumerate` binding per connection).
/// `run.py` holds the same number.
pub const MAX_SECONDS: u64 = 30;

/// Each connection runs blocks of one `hit` per program in
/// [`HIT_PROGRAMS`] (command drawn at random) and one each of `bind`,
/// `enumerate`, `run`, `miss` and `deferred`, shuffled within the block.
/// Fresh bindings are unique across both lists, so which connection gets
/// to a binding first never changes what the server caches.
/// `seconds` must be at most [`MAX_SECONDS`].
pub fn serve_plan(seed: u64, seconds: u64) -> ServePlan {
    let blocks = ((seconds as f64 / SERVE_BLOCK_S).round() as usize).max(1);
    let mut rng = rng(seed, 3);
    let mut runs = Vec::new();
    for sweep in RUN_SWEEPS {
        for level in 0..RUN_LEVELS {
            let t = (level as f64 + 0.5) / RUN_LEVELS as f64;
            runs.push((sweep.kernel, sweep.at(t)));
        }
    }
    let mut warm = Vec::new();
    for &program in HIT_PROGRAMS {
        for command in ["analyze", "partition", "codegen"] {
            warm.push(ServeOp::bundled(
                Class::Hit,
                command,
                program,
                &survey(program),
            ));
        }
    }
    for binding in DEFERRED_BINDINGS {
        warm.push(ServeOp::bundled(
            Class::Deferred,
            "analyze",
            "cholesky",
            binding,
        ));
    }
    for (kernel, values) in &runs {
        warm.push(ServeOp::bundled(Class::Run, "run", kernel, values));
    }
    // Served bindings are not fresh.
    let served: HashSet<(&str, Vec<i64>)> = warm
        .iter()
        .filter_map(|op| Some((op.workload?, op.params.iter().map(|(_, v)| *v).collect())))
        .collect();
    // One `bind` and one `enumerate` per block, 2 × `blocks` blocks in
    // all; each class has two sweeps.
    let binds = fresh(&mut rng, BIND_SWEEPS, &served, blocks);
    let enumerates = fresh(&mut rng, ENUMERATE_SWEEPS, &served, blocks);
    let mut lists: [Vec<ServeOp>; 2] = [Vec::new(), Vec::new()];
    for (k, (bind, enumerate)) in binds.into_iter().zip(enumerates).enumerate() {
        let mut block = Vec::new();
        for &program in HIT_PROGRAMS {
            let command = *pick(&mut rng, &["analyze", "partition", "codegen"]);
            block.push(ServeOp::bundled(
                Class::Hit,
                command,
                program,
                &survey(program),
            ));
        }
        block.push(ServeOp::bundled(Class::Bind, "partition", bind.0, &bind.1));
        block.push(ServeOp::bundled(
            Class::Enumerate,
            "analyze",
            enumerate.0,
            &enumerate.1,
        ));
        let (kernel, values) = pick(&mut rng, &runs);
        block.push(ServeOp::bundled(Class::Run, "run", kernel, values));
        let binding = pick(&mut rng, DEFERRED_BINDINGS);
        block.push(ServeOp::bundled(
            Class::Deferred,
            "analyze",
            "cholesky",
            binding,
        ));
        let nest = rcp_workloads::random_nest(&mut rng, 0.45, k);
        block.push(ServeOp {
            class: Class::Miss,
            command: "analyze",
            workload: None,
            source: Some(rcp_lang::pretty(&nest)),
            params: vec![("N".to_string(), rng.gen_range(MISS_N.0..=MISS_N.1))],
        });
        shuffle(&mut rng, &mut block);
        // The connections take blocks in turn.
        lists[k % 2].extend(block);
    }
    ServePlan { warm, lists }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_lists_are_a_pure_function_of_the_seed() {
        assert_eq!(compile_ops(7, 10), compile_ops(7, 10));
        assert_ne!(compile_ops(7, 10), compile_ops(8, 10));
        assert_eq!(execute_ops(7, 10), execute_ops(7, 10));
        assert_ne!(execute_ops(7, 10), execute_ops(8, 10));
        assert_eq!(serve_plan(7, 2), serve_plan(7, 2));
        assert_ne!(serve_plan(7, 2), serve_plan(8, 2));
    }

    #[test]
    fn compile_ops_cover_every_kernel_within_its_range() {
        let ops = compile_ops(3, 10);
        for sweep in COMPILE_SWEEPS {
            let mine: Vec<_> = ops.iter().filter(|op| op.kernel == sweep.kernel).collect();
            assert_eq!(mine.len(), 6, "{}", sweep.kernel);
            for op in mine {
                for (v, (lo, hi)) in op.values.iter().zip(sweep.ranges) {
                    assert!((lo..=hi).contains(&v), "{} {:?}", sweep.kernel, op.values);
                }
            }
        }
    }

    #[test]
    fn execute_ops_keep_a_fixed_multiset() {
        let count = |ops: Vec<usize>| {
            let mut n = vec![0; exec_schedules().len()];
            for k in ops {
                n[k] += 1;
            }
            n
        };
        let runs: Vec<usize> = exec_schedules().iter().map(|(s, _)| s.runs).collect();
        assert_eq!(count(execute_ops(1, 15)), runs);
        assert_eq!(count(execute_ops(2, 15)), runs);
        assert_eq!(
            count(parallel_ops(1, 15)),
            vec![EXEC_PARALLEL_RUNS; runs.len()]
        );
    }

    #[test]
    fn run_py_refuses_the_same_run_lengths() {
        let script = include_str!("../run.py");
        assert!(script.contains(&format!("\nMAX_SECONDS = {MAX_SECONDS}\n")));
    }

    #[test]
    fn serve_plans_reach_the_longest_supported_run() {
        let plan = serve_plan(9, MAX_SECONDS);
        let blocks = (MAX_SECONDS as f64 / SERVE_BLOCK_S).round() as usize;
        for (class, sweeps) in [
            (Class::Bind, BIND_SWEEPS),
            (Class::Enumerate, ENUMERATE_SWEEPS),
        ] {
            let kernels: Vec<_> = plan
                .lists
                .iter()
                .flatten()
                .filter(|op| op.class == class)
                .filter_map(|op| op.workload)
                .collect();
            assert_eq!(kernels.len(), 2 * blocks);
            for sweep in sweeps {
                let mine = kernels.iter().filter(|&&k| k == sweep.kernel).count();
                assert_eq!(mine, blocks, "{}", sweep.kernel);
            }
        }
    }

    #[test]
    fn serve_fresh_bindings_are_disjoint_between_connections() {
        let plan = serve_plan(5, 2);
        let [a, b] = &plan.lists;
        type Binding<'a> = (Option<&'a str>, Vec<(String, i64)>);
        let fresh = |ops: &[ServeOp]| -> HashSet<Binding> {
            ops.iter()
                .filter(|op| matches!(op.class, Class::Bind | Class::Enumerate))
                .map(|op| (op.workload, op.params.clone()))
                .collect()
        };
        let (fa, fb) = (fresh(a), fresh(b));
        assert!(!fa.is_empty());
        assert!(fa.is_disjoint(&fb));
        let warm: HashSet<_> = plan
            .warm
            .iter()
            .map(|op| (op.workload, op.params.clone()))
            .collect();
        assert!(fa.is_disjoint(&warm));
        for class in Class::ALL {
            assert!(a.iter().any(|op| op.class == class), "{}", class.name());
        }
    }
}
