#!/usr/bin/env python3
"""splitcayley benchmark: one workload per process, outputs checked, metrics printed.

    python3 benchmark/run.py --workload hexagon-q3 --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json and workloads.py): hexagon-q3, quadric-q3.
The load is one client in a closed loop: the next job starts when the
previous one has returned.

--trace 0 splits --seconds of job time over WORKERS fresh interpreters, run
one after another.  Each builds the stack (timed: one set-up sample),
generates the seeded inputs, then runs jobs until its share of the job time
would pass.  A fixed reference loop runs beside every set-up and after every
job, and each time is scaled by it to a host of fixed speed (see
REF_LOOP_S).  The metrics are setup_s (mean of the scaled samples),
job_mean_s (scaled mean job time) and peak RSS; a summary line adds the raw
times: jobs per second, the first (cold) job, the median job, the highest
usable percentile, and the error rate.

--trace 1 runs a fixed job sequence four times, each on a freshly built
stack: traced with one `cli.main` call (A), untraced (U1), traced (B),
untraced (U2).  It prints per-function calls and self time of pass A, the
work counts read from the reports, the time no span covers, and the tracing
overhead B - (U1 + U2) / 2.  Counts must repeat exactly between the two
traced passes.  Spans are written to benchmark/traces/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when every job and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"
# A --trace 0 run spreads its jobs over this many fresh interpreters, one
# after another, so that set-up gets as many samples and the job rate
# averages over as many process memory layouts.
WORKERS = 4
# Times are scaled to a host on which reference_loop() takes REF_LOOP_S.
# After each job the reference loop runs for REF_SHARE of the job's time, so
# its mean follows the host's phases rather than its faster jitter; a job is
# scaled by the reference times just before and just after it.
REF_LOOP_S, REF_SHARE = 0.05, 0.1
# Jobs per pass of the traced run.
TRACE_JOBS = 2

# ROADMAP.md baseline table at q=3 (seconds per layer, single runs), keyed
# by the traced function that covers the row.
ROADMAP_BASELINE = {
    "hermitian.HermitianSurface": 0.03,
    "unitary.UnitaryAction": 0.07,
    "unitary.UnitaryAction.classes": 0.05,
    "hexagon.build_hexagon": 0.005,
    "hexagon.certify_generalized_polygon": 0.33,
    "quadric.ParabolicQuadric": 1.74,
    "quadric.certify_split_cayley": 1.34,
}

PAYLOAD_COUNTS = ("hexagon.vertices", "unitary.pencil_checked",
                  "unitary.join_checked", "quadric.pairs_checked",
                  "quadric.lines", "quadric.planes")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", type=int, default=None,
                   help=argparse.SUPPRESS)  # internal: one worker's share
    return p.parse_args(argv)


def run_record(args) -> dict:
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            loadavg = fh.read().strip()
    except OSError:
        loadavg = "unavailable"
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "git_rev": rev,
            "python": sys.version.split()[0], "cpu_count": os.cpu_count(),
            "loadavg_at_start": loadavg}


class UsageError(Exception):
    pass


def load_workload(name):
    """(workloads module, workload), importing splitcayley from SRC only."""
    import splitcayley
    if not Path(splitcayley.__file__).resolve().is_relative_to(SRC):
        raise UsageError(f"imported {splitcayley.__file__}, not the sources "
                         f"under {SRC}")
    import workloads as wl
    if name not in wl.WORKLOADS:
        raise UsageError(f"unknown workload {name!r}; choose from "
                         f"{sorted(wl.WORKLOADS)}")
    return wl, wl.WORKLOADS[name]


def timed_setup(name):
    """(seconds from `import splitcayley` to a built stack, modules, workload, stack)."""
    t0 = time.perf_counter()
    wl, w = load_workload(name)
    stack = wl.build_stack(w.q, w.with_quadric)
    return time.perf_counter() - t0, wl, w, stack


def high_percentile(durations):
    """Highest nearest-rank percentile above the median with at least ten
    samples beyond it, or None when the run holds too few jobs."""
    n = len(durations)
    rank = n - 10  # 1-based; ten samples lie beyond it
    if 2 * rank <= n:
        return None
    return round(100.0 * rank / n, 2), sorted(durations)[rank - 1]


def report_failures(failures):
    for msg in failures:
        sys.stderr.write(f"FAIL: {msg}\n")


# -- --trace 0: end-to-end metrics ----------------------------------------------


def reference_loop() -> float:
    """Seconds one pass of a fixed arithmetic loop takes now.  No change to
    splitcayley can touch it, so it measures only the host's current speed."""
    t = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += (i * i) % 7
    return time.perf_counter() - t


def worker_run(args) -> dict:
    """One worker: a timed set-up between reference loops, the seeded inputs,
    then jobs, each followed by reference loops, until the job time would
    pass --seconds.  Worker i starts at input i, so the cold first jobs of a
    run cover different inputs."""
    setup_refs = [reference_loop() for _ in range(3)]
    setup_s, wl, w, stack = timed_setup(args.workload)
    setup_refs += [reference_loop() for _ in range(3)]
    import tracing
    rng = random.Random(args.seed)
    inputs = w.make_inputs(stack, rng, rng.randrange(w.q + 1))
    exp = wl.FROZEN[w.q]
    # gaps[i] is the mean reference time just before job i, gaps[i + 1]
    # just after it.
    durations, gaps, failed = [], [reference_loop()], 0
    while not durations or (sum(durations) + statistics.median(durations)
                            <= args.seconds):
        inp = inputs[(args.worker + len(durations)) % len(inputs)]
        t = time.perf_counter()
        failures, _ = wl.run_job(w, stack, inp, exp)
        durations.append(time.perf_counter() - t)
        refs = [reference_loop()]
        while sum(refs) < REF_SHARE * durations[-1]:
            refs.append(reference_loop())
        gaps.append(statistics.fmean(refs))
        if failures:
            failed += 1
            report_failures(failures)
    return {"setup_s": setup_s, "setup_ref_s": statistics.fmean(setup_refs),
            "durations": durations, "gaps": gaps, "failed": failed,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "leaked": tracing.traced_bindings()}


def run_worker(args, index) -> dict:
    """worker_run in a fresh interpreter; waits for it to end."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(index),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds / WORKERS)],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def timed_run(args) -> dict:
    wl, _ = load_workload(args.workload)
    workers = [run_worker(args, i) for i in range(WORKERS)]
    durations = [d for wk in workers for d in wk["durations"]]
    failed = sum(wk["failed"] for wk in workers)
    leaked = sorted({b for wk in workers for b in wk["leaked"]})
    problems = wl.self_test(lambda: random.Random(args.seed))
    report_failures(problems + [f"traced binding in an untraced run: {b}"
                                for b in leaked])

    # On a shared host the speed of the same code drifts by up to 1.8x in
    # phases of seconds to minutes, longer than a run.  So each time is
    # scaled to a host on which the reference loop takes REF_LOOP_S:
    # t * REF_LOOP_S / (reference time measured beside t).  The raw times
    # are reported here.
    scaled_jobs = [d * REF_LOOP_S / ((g[i] + g[i + 1]) / 2)
                   for wk in workers for g in [wk["gaps"]]
                   for i, d in enumerate(wk["durations"])]
    setups = [wk["setup_s"] for wk in workers]
    pct = high_percentile(durations)
    print(json.dumps({"summary": {
        "jobs": len(durations), "failed_jobs": failed,
        "error_rate": failed / len(durations),
        "raw_jobs_per_s": len(durations) / sum(durations),
        "raw_first_job_s": statistics.fmean(wk["durations"][0]
                                            for wk in workers),
        "raw_job_p50_s": statistics.median(durations),
        "raw_job_high_percentile": (
            {"percentile": pct[0], "seconds": pct[1]} if pct else
            f"none: {len(durations)} jobs, a percentile above the median "
            "with ten samples beyond it needs at least 21"),
        "raw_job_durations_s": [[round(d, 4) for d in wk["durations"]]
                                for wk in workers],
        "raw_setup_samples_s": setups,
        "reference_loop_mean_s": statistics.fmean(
            g for wk in workers for g in wk["gaps"]),
        "self_test_q2": "ok" if not problems else problems,
        "untraced_bindings_original": not leaked,
    }}))
    return {
        "correct": failed == 0 and not problems and not leaked,
        "attempted": len(durations),
        "failed": failed,
        "metrics": {
            "setup_s": {"value": statistics.fmean(
                wk["setup_s"] * REF_LOOP_S / wk["setup_ref_s"]
                for wk in workers), "unit": "s"},
            "job_mean_s": {"value": statistics.fmean(scaled_jobs),
                           "unit": "s"},
            "peak_rss_mb": {"value": max(wk["peak_rss_mb"] for wk in workers),
                            "unit": "MB"},
        },
    }


# -- --trace 1: per-layer metrics -----------------------------------------------


def phase_of(label):
    return "jobs" if label.startswith("job") else label


def run_pass(wl, w, seed, tracer, cli_dir):
    """setup, inputs, the fixed jobs, [one cli.main call], the q=2 self-test.

    Returns (wall, failed jobs, failure messages, work counts).
    """
    label = tracer.set_job if tracer else (lambda _label: None)
    failed, failures = 0, []
    counts = dict.fromkeys(PAYLOAD_COUNTS, 0)
    t0 = time.perf_counter()
    label("setup")
    stack = wl.build_stack(w.q, w.with_quadric)
    label("inputs")
    rng = random.Random(seed)
    inputs = w.make_inputs(stack, rng, rng.randrange(w.q + 1))
    for j in range(TRACE_JOBS):
        label(f"job{j}")
        job_failures, job_counts = wl.run_job(
            w, stack, inputs[j % len(inputs)], wl.FROZEN[w.q])
        failed += bool(job_failures)
        failures += job_failures
        for key, value in job_counts.items():
            counts[key] += value
    if cli_dir is not None:
        label("cli")
        code, report = wl.run_cli(w.cli_args(stack, inputs, cli_dir))
        if code != 0 or not report.get("passed"):
            failed += 1
            failures.append(f"cli.main exited {code}")
    label("selftest")
    failures += wl.self_test(lambda: random.Random(seed))
    wall = time.perf_counter() - t0
    if stack.bcs is not None:
        counts["quadric.lines"] = len(stack.bcs.quadric.lines)
        counts["quadric.planes"] = len(stack.bcs.quadric.planes)
    return wall, failed, failures, counts


def traced_pass(wl, w, seed, cli_dir=None):
    """run_pass with the tracer installed; (tracer, run_pass result, leftovers)."""
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run_pass(wl, w, seed, tracer, cli_dir)
    finally:
        tracer.uninstall()
    return tracer, result, [f"binding not restored: {b}"
                            for b in tracing.traced_bindings()]


def traced_run(args) -> dict:
    wl, w = load_workload(args.workload)
    import tracing
    failures = [f"traced binding before tracing: {b}"
                for b in tracing.traced_bindings()]

    TRACE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TRACE_DIR) as cli_dir:
        tracer_a, pass_a, leftovers_a = traced_pass(wl, w, args.seed, cli_dir)
    # B sits between two untraced passes, so the overhead compares
    # neighbours rather than a cold pass with a warm one.
    pass_u1 = run_pass(wl, w, args.seed, None, None)
    tracer_b, pass_b, leftovers_b = traced_pass(wl, w, args.seed)
    pass_u2 = run_pass(wl, w, args.seed, None, None)
    wall_a, failed_a, fail_a, counts_a = pass_a
    wall_b, failed_b, fail_b, counts_b = pass_b
    untraced_wall = (pass_u1[0] + pass_u2[0]) / 2
    failures += (fail_a + fail_b + pass_u1[2] + pass_u2[2]
                 + leftovers_a + leftovers_b)

    # determinism gate: the traced passes must agree call for call
    calls_a = {k: v for k, v in tracer_a.calls_by_phase(phase_of).items()
               if k[0] != "cli"}
    calls_b = tracer_b.calls_by_phase(phase_of)
    for key in sorted(set(calls_a) | set(calls_b)):
        if calls_a.get(key, 0) != calls_b.get(key, 0):
            failures.append(f"calls differ between traced passes at {key}: "
                            f"{calls_a.get(key, 0)} != {calls_b.get(key, 0)}")
    all_counts = (counts_a, pass_u1[3], counts_b, pass_u2[3])
    for key in PAYLOAD_COUNTS:
        if len({counts[key] for counts in all_counts}) != 1:
            failures.append(f"{key} differs between passes A, U1, B, U2: "
                            f"{[counts[key] for counts in all_counts]}")

    # accounting: self times plus the uncovered remainder give the wall time
    per_fn = tracer_a.calls_and_self()
    self_total = sum(s for _, s in per_fn.values())
    unattributed = wall_a - tracer_a.covered_time()
    if abs(self_total + unattributed - wall_a) > 1e-6 + 1e-9 * len(tracer_a.starts):
        failures.append(f"self times {self_total} + uncovered {unattributed} "
                        f"!= wall {wall_a}")
    report_failures(failures)

    print_breakdown(tracer_a, w)
    tracer_a.write(TRACE_DIR / f"{w.name}-seed{args.seed}.tsv.gz")

    metrics = {}
    for name, (calls, self_s) in per_fn.items():
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    for key in PAYLOAD_COUNTS:
        metrics[key] = {"value": counts_a[key], "unit": "count"}
    metrics["trace.wall_s"] = {"value": wall_a, "unit": "s"}
    metrics["trace.unattributed_s"] = {"value": unattributed, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": wall_b - untraced_wall,
                                   "unit": "s"}
    return {"correct": not failures,
            "attempted": 4 * TRACE_JOBS + 1,  # the jobs of four passes + cli
            "failed": failed_a + failed_b + pass_u1[1] + pass_u2[1],
            "metrics": metrics}


def print_breakdown(tracer, w):
    """Calls per phase, and the layer times beside ROADMAP's baseline rows."""
    calls = tracer.calls_by_phase(phase_of)
    phases = sorted({phase for phase, _ in calls})
    table = {}
    for (phase, name), n in calls.items():
        table.setdefault(name, {})[phase] = n
    print(json.dumps({"calls_by_phase": table, "phases": phases}))
    for name, base in ROADMAP_BASELINE.items():
        durations = tracer.durations(name, ("setup", "jobs"), phase_of)
        if not durations:
            print(f"roadmap q=3 {name}: baseline {base} s, not run here")
            continue
        here = max(durations)
        verdict = "agrees" if 0.5 <= here / base <= 2.0 else "DISAGREES"
        print(f"roadmap q=3 {name}: traced {here:.4f} s (slowest of "
              f"{len(durations)}, inclusive), baseline {base} s, {verdict}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "splitcayley" / "__init__.py").is_file():
        sys.stderr.write(f"error: splitcayley sources not found at {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.worker is not None:
            print(json.dumps(worker_run(args)))
            return 0
        print(json.dumps({"record": run_record(args)}))
        result = traced_run(args) if args.trace else timed_run(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
