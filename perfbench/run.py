#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload compile|execute|serve --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds the `perfbench` package
(release, offline) into $CARGO_TARGET_DIR (default `.bench_build`), then:

* --trace 0: runs the workload once with tracing off, plus set-up-only
  runs of it before that run and, when set-up is short, during it
  (between timed ops, while the run waits) and after it, and reports the
  end-to-end metrics, with `setup_s` the median of all those set-ups;
* --trace 1: runs all three workloads traced (spans go to `.bench_out/`)
  and the named workload once untraced, each for half of --seconds, and
  reports every per-layer metric plus `trace.ops_per_s_ratio`, the traced
  over the untraced throughput of the named workload.

The last line of standard output is the JSON result.  Metric names and
units come from BENCHMARK.json.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("compile", "execute", "serve")
# The longest run the serve sweeps can supply: plan.rs's MAX_SECONDS (a
# test there keeps the two in step).
MAX_SECONDS = 30
# Each invocation must finish within 180 s once the benchmark is built.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 850.0
# Seconds of set-up-only runs per measured run, and their count limits.
SETUP_SAMPLE_S = 4.0
SETUP_SAMPLES = (1, 10)
# Workloads that run one op at a time and can pause between ops.
PAUSABLE = ("compile", "execute")


class BenchError(Exception):
    pass


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_BUDGET_S)
    except subprocess.TimeoutExpired:
        raise BenchError("build timed out")
    if done.returncode != 0:
        raise BenchError("build failed")
    return os.path.join(target, "release", "perfbench")


def run_one(binary, args, deadline, on_pause=None):
    """Runs the benchmark binary once; returns its JSON result line.

    When the binary prints `pause`, calls `on_pause` and then lets it go on.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(args))
    lines = []
    expired = threading.Event()
    with subprocess.Popen([binary] + args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as proc:
        def expire():
            expired.set()
            proc.kill()
        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            for line in proc.stdout:
                if line == "pause\n" and on_pause is not None:
                    on_pause()
                    proc.stdin.write("\n")
                    proc.stdin.flush()
                else:
                    lines.append(line.rstrip("\n"))
            proc.wait()
        except BaseException:
            proc.kill()
            if not expired.is_set():
                raise
        finally:
            timer.cancel()
    if expired.is_set():
        raise BenchError("timed out: " + " ".join(args))
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise BenchError("perfbench %s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def untraced(binary, workload, seed, seconds, deadline):
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []

    def setup_only():
        setups.append(run_one(binary, base + ["--setup-only"], deadline)["setup_s"])

    # About SETUP_SAMPLE_S seconds of set-up-only runs, spread over the
    # measured run so their median does not hang on one moment of the
    # machine: one before it, then, if set-up is short enough for more, one
    # after it and the rest, for the workloads that run one op at a time,
    # at evenly spaced pauses between its ops.  A long set-up averages over
    # its own seconds; one more sample is enough.
    setup_only()
    extra = min(max(round(SETUP_SAMPLE_S / setups[0]), SETUP_SAMPLES[0]), SETUP_SAMPLES[1])
    pauses = max(extra - 2, 0) if workload in PAUSABLE else 0
    main = run_one(binary, base + ["--pauses", str(pauses)], deadline, setup_only)
    while len(setups) < extra:
        setup_only()
    setups.append(main["setup_s"])
    main["setup_s"] = statistics.median(setups)
    print("%s: set-up %s s (median %.4f s, the measured run's last); threads %d, rcpd workers "
          "%d, connections %d, run-request threads 1, nproc %d"
          % (workload, ", ".join("%.4f" % s for s in setups), main["setup_s"], 2, 2, 2,
             os.cpu_count() or 0))
    return [main]


def traced(binary, workload, seed, seconds, deadline, root):
    seconds = max(1, seconds // 2)
    results = []
    for name in WORKLOADS:
        spans = os.path.join(root, ".bench_out", "spans-%s-seed%d.jsonl" % (name, seed))
        results.append(run_one(binary, ["--workload", name, "--seed", str(seed),
                                        "--seconds", str(seconds), "--trace", "--spans", spans],
                               deadline))
    plain = run_one(binary, ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds)], deadline)
    mine = results[WORKLOADS.index(workload)]
    ratio = mine["ops_per_s"] / plain["ops_per_s"]
    print("tracing overhead (%s): traced %.4f ops/s, untraced %.4f ops/s, ratio %.4f (%+.2f%%)"
          % (workload, mine["ops_per_s"], plain["ops_per_s"], ratio, 100.0 * (ratio - 1.0)))
    for r in results:
        r["layers"]["trace.ops_per_s_ratio"] = {"value": ratio, "unit": "ratio"}
    return results + [plain]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error("--seconds must be from 1 to %d: longer runs need more fresh "
                     "serve bindings than the sweeps in perfbench/src/plan.rs hold"
                     % MAX_SECONDS)

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        if not os.path.isdir(os.path.join(root, "crates")):
            raise BenchError("run from the repository root: no crates/ directory here")
        binary = build(root)
        deadline = time.monotonic() + RUN_BUDGET_S
        if args.trace:
            results = traced(binary, args.workload, args.seed, args.seconds, deadline, root)
            declared = spec["per_layer"]
            values = {}
            for r in results:
                values.update(r["layers"])
        else:
            results = untraced(binary, args.workload, args.seed, args.seconds, deadline)
            declared = spec["end_to_end"]
            values = {m["name"]: {"value": results[0][m["name"]], "unit": m["unit"]}
                      for m in declared if m["name"] in results[0]}
        metrics = {}
        for m in declared:
            if m["name"] not in values:
                raise BenchError("metric %s was not measured" % m["name"])
            value = values[m["name"]]["value"]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print("  %-36s %16.6f %s" % (m["name"], value, m["unit"]))
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
