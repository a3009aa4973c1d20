#!/usr/bin/env python3
"""marketclear benchmark: one workload per process, one JSON line out.

    python3 perfbench/run.py --workload {clear,sweep,audit} --seed S \
        --seconds T --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src. With --trace 0 the run measures set-up time in fresh processes,
repeats untraced passes of the workload for T seconds and reports the
end-to-end metrics. With --trace 1 it spends T/2 seconds on untraced
passes and T/2 on traced passes, runs the per-layer probes and reports
the per-layer metrics. Outputs of every pass are checked; the last line
of stdout is {"correct", "attempted", "failed", "metrics"}. Results,
the environment record, spans and the per-layer self-time table are
written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# one client, no extra threads: pin BLAS pools unless the caller set them
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
# passes shorter than this that start within this many seconds of the
# first one warm up allocations and caches and are not counted
WARMUP_S = 1.0

# name -> unit of every metric the run can print; BENCHMARK.json names a
# subset of them, the rest are printed in the table for reference
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
EXTRA_UNITS = {
    "op_ms_p75": "ms",
    "failed_frac": "ratio",
    "solve_ms_p50": "ms",
    "solve_ms_p75": "ms",
    "points_per_s": "1/s",
    "passes": "count",
    "warmup_passes": "count",
    "ops_per_pass": "count",
}
PROBE_UNITS = {
    "market.ter_us": "us",
    "market.ter_gradient_us": "us",
    "market.ter_ns_per_pt": "ns/pt",
    "market.ter_gradient_ns_per_pt": "ns/pt",
    "market.single_over_batched": "ratio",
    "nested_logit.surplus_us": "us",
    "nested_logit.choice_probabilities_us": "us",
    "nested_logit.surplus_ns_per_pt": "ns/pt",
    "nested_logit.choice_probabilities_ns_per_pt": "ns/pt",
    "supply.best_response_us": "us",
    "supply.profit_us": "us",
    "sampling.choice_samples_per_s": "1/s",
    "sampling.moment_samples_per_s": "1/s",
    "specio.generate_ms": "ms",
    "specio.parse_ms": "ms",
    "solvers.us_per_iter.basic": "us",
    "solvers.us_per_iter.accelerated": "us",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    src = ROOT / "src"
    if not (src / "marketclear" / "__init__.py").is_file():
        fail(f"no marketclear sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import marketclear

    if Path(marketclear.__file__).resolve().parent != (src / "marketclear").resolve():
        fail(f"imported marketclear from {marketclear.__file__}, not from {src}")
    return marketclear


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            models = [line.split(":", 1)[1].strip() for line in f
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def measure_setup(args) -> list[tuple[float, float]]:
    """(calibrated, raw) wall time of fresh processes until
    `import marketclear` and the workload's inputs are ready."""
    from speed import Speed

    speed = Speed()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]

    def start_until_ready():
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            fail(f"set-up process exited with {code}")

    # imports and market generation do both kinds of work; no probes while
    # the child runs, they would share its CPU
    return [speed.timed(start_until_ready, "both", inside=False)[:2]
            for _ in range(SETUP_REPEATS)]


def run_passes(workloads, inp, budget: float, check, speed, rec=None) -> dict:
    """Repeat passes while another one fits in `budget` seconds."""
    pass_fn = workloads.PASSES[inp.workload]
    walls: list[float] = []
    raw_walls: list[float] = []
    op_seconds: dict[str, list[float]] = {}
    flags: list[bool] = []
    warmup = 0
    t_start = perf_counter()
    while True:
        started = perf_counter() - t_start
        next_op = [len(flags)]

        def timed(fn, kind):
            if rec is not None:
                rec.current_op = next_op[0]
            next_op[0] += 1
            return speed.timed(fn, kind)

        if rec is not None:
            rec.install()
        try:
            ops = pass_fn(inp, timed)
        finally:
            if rec is not None:
                rec.uninstall()
        flags.extend(check(inp, ops))
        last_ops = ops
        raw_wall = sum(op.raw_seconds for op in ops)
        if started < WARMUP_S and raw_wall < WARMUP_S:
            warmup += 1
            continue
        walls.append(sum(op.seconds for op in ops))
        raw_walls.append(raw_wall)
        for op in ops:
            op_seconds.setdefault(op.name, []).append(op.seconds)
        if perf_counter() - t_start + statistics.median(raw_walls) > budget:
            break
    return {"walls": walls, "raw_walls": raw_walls, "op_seconds": op_seconds,
            "flags": flags, "last_ops": last_ops, "warmup_passes": warmup}


def op_percentiles(op_seconds: dict[str, list[float]]) -> tuple[float, float]:
    """p50 and p75 over operations of each operation's median time, in ms."""
    per_op = sorted(1e3 * statistics.median(v) for v in op_seconds.values())
    q = statistics.quantiles(per_op, n=4, method="inclusive")
    return q[1], q[2]


def end_to_end(args, workloads, inp, speed) -> tuple[dict, dict]:
    setup = measure_setup(args)
    res = run_passes(workloads, inp, args.seconds, workloads.checker(args.workload), speed)
    p50, p75 = op_percentiles(res["op_seconds"])
    wall = statistics.median(res["walls"])
    flags = res["flags"]
    metrics = {
        "setup_s": statistics.median(cal for cal, _ in setup),
        "wall_s": wall,
        "op_ms_p50": p50,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "op_ms_p75": p75,
        "failed_frac": sum(flags) / len(flags),
        "passes": len(res["walls"]),
        "warmup_passes": res["warmup_passes"],
        "ops_per_pass": len(res["op_seconds"]),
        "raw_setup_s": statistics.median(raw for _, raw in setup),
        "raw_wall_s": statistics.median(res["raw_walls"]),
    }
    if args.workload == "clear":
        extra["solve_ms_p50"], extra["solve_ms_p75"] = p50, p75
    if args.workload == "sweep":
        extra["points_per_s"] = len(inp.markets) * workloads.SWEEP_ROWS / wall
    if args.workload == "audit":
        for name, secs in res["op_seconds"].items():
            extra[f"verify.{name}_s"] = statistics.median(secs)
    detail = {"setup_runs_s": setup, "pass_walls_s": res["walls"],
              "raw_pass_walls_s": res["raw_walls"], "op_seconds": res["op_seconds"],
              "extra": extra}
    return {"metrics": metrics, "flags": flags}, detail


def per_layer(args, workloads, inp, speed) -> tuple[dict, dict]:
    import probes
    import spans

    check = workloads.checker(args.workload)
    plain = run_passes(workloads, inp, args.seconds / 2, check, speed)
    rec = spans.SpanRecorder(clock=lambda: perf_counter() - speed.stolen_total)
    traced = run_passes(workloads, inp, args.seconds / 2, check, speed, rec)
    n_traced = len(traced["walls"])
    # spans hold raw times, so shares of the traced passes use raw time
    traced_wall = sum(traced["raw_walls"])

    layers = spans.layer_times(rec)
    names = spans.name_times(rec)
    counts = spans.solver_counts(rec)
    metrics = dict(probes.run_probes(inp))
    for layer, t in layers.items():
        metrics[f"{layer}.self_frac"] = t["self_s"] / traced_wall
    sol = layers["solvers"]
    metrics["solvers.self_share"] = sol["self_s"] / sol["total_s"] if sol["total_s"] else 0.0
    for key in ("iterations.basic", "iterations.accelerated", "reference_iterations"):
        metrics[f"solvers.{key}"] = round(counts[key] / n_traced)
    for scheme in ("basic", "accelerated"):
        key = f"oracle_calls_per_iter.{scheme}"
        metrics[f"solvers.{key}"] = counts[key]
    metrics["solvers.reference_frac"] = names.get("solvers.reference_solve", 0.0) / traced_wall
    for suite in workloads.verify.SUITES:
        metrics[f"verify.{suite}_frac"] = names.get(f"verify.suite_{suite}", 0.0) / traced_wall
    checks_failed = 0
    if args.workload == "audit":
        checks_failed = sum(not r.ok for op in traced["last_ops"] for r in op.output)
    metrics["verify.checks_failed"] = checks_failed
    metrics["trace.overhead_frac"] = (
        statistics.median(traced["walls"]) / statistics.median(plain["walls"]) - 1.0
    )

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
    rec.save(f"{stem}-spans.npz")
    table = {layer: {"self_s_per_pass": t["self_s"] / n_traced,
                     "total_s_per_pass": t["total_s"] / n_traced,
                     "spans_per_pass": t["spans"] / n_traced}
             for layer, t in layers.items()}
    table["bench"] = {"self_s_per_pass":
                      (traced_wall - sum(t["self_s"] for t in layers.values())) / n_traced}
    extra = {f"{layer}.self_s": t["self_s_per_pass"] for layer, t in table.items()}
    extra["solvers.reference_s"] = names.get("solvers.reference_solve", 0.0) / n_traced
    for suite in workloads.verify.SUITES:
        extra[f"verify.{suite}_s"] = names.get(f"verify.suite_{suite}", 0.0) / n_traced
    extra["traced_passes"] = n_traced
    extra["untraced_passes"] = len(plain["walls"])
    runs = (("untraced", plain), ("traced", traced))
    detail = {"pass_walls_s": {k: r["walls"] for k, r in runs},
              "raw_pass_walls_s": {k: r["raw_walls"] for k, r in runs},
              "self_time": table, "span_seconds": names, "spans": len(rec),
              "span_file": f"{stem.name}-spans.npz", "extra": extra}
    return {"metrics": metrics, "flags": plain["flags"] + traced["flags"]}, detail


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name in EXTRA_UNITS:
        return EXTRA_UNITS[name]
    if name in PROBE_UNITS:
        return PROBE_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if ".iterations." in name or name.endswith(("_iterations", "checks_failed", "passes")):
        return "count"
    if ".oracle_calls_per_iter." in name:
        return "count"
    return "ratio"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("clear", "sweep", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    # one CPU for the measuring process and its set-up children, so the
    # speed probes see the core the measured work runs on
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    import_package()
    import workloads
    from speed import PART_REF_S, Speed

    inp = workloads.build_inputs(args.workload, args.seed, ROOT)
    if args.setup_only:
        print("ready", flush=True)
        return

    env = environment()
    env["cpus_allowed"], env["pinned_cpu"] = len(allowed), allowed[-1]
    speed = Speed()
    if args.trace:
        result, detail = per_layer(args, workloads, inp, speed)
    else:
        result, detail = end_to_end(args, workloads, inp, speed)
    env["speed_probe_s"] = {
        kind: {"reference": PART_REF_S * (2 if kind == "both" else 1),
               "median": statistics.median(v), "min": min(v), "max": max(v),
               "count": len(v)}
        for kind, v in speed.probes.items() if v}
    flags = result["flags"]
    metrics = result["metrics"]

    shown = {**metrics, **detail["extra"]}
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in shown.items():
        print(f"  {name:45s} {value!r:>24} {unit_of(name)}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "attempted": len(flags),
              "failed": sum(flags),
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in shown.items()},
              "detail": {k: v for k, v in detail.items() if k != "extra"}}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not any(flags),
        "attempted": len(flags),
        "failed": sum(flags),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
