#!/usr/bin/env python3
"""Self-test of the benchmark at its shortest length (about two minutes).

    python3 perfbench/selftest.py

Run from the checkout root. It checks that
- deliberately wrong outputs (a perturbed price vector, a perturbed
  excess-supply row, a pass that does not repeat the first, a failed
  verify check) are flagged by the same checks that give `failed`;
- every workload prints, in both trace modes, one final JSON line with
  exactly the metrics BENCHMARK.json names and their units, and a table
  holding every metric of the benchmark's definition with its unit;
- in a directory holding only BENCHMARK.json and perfbench/, the
  command exits non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = ["python3", "perfbench/run.py"]

# metrics printed in the table besides the registered ones
COMMON = ["op_ms_p75", "failed_frac", "raw_wall_s", "raw_setup_s"]
TABLE_ONLY = {
    ("clear", 0): COMMON + ["solve_ms_p50", "solve_ms_p75"],
    ("sweep", 0): COMMON + ["points_per_s"],
    ("audit", 0): COMMON + [f"verify.{s}_s" for s in (
        "gradient", "duality", "smoothness", "montecarlo", "correlation", "bounds")],
    ("clear", 1): ["solvers.reference_s"],
    ("sweep", 1): ["solvers.reference_s"],
    ("audit", 1): ["solvers.reference_s"] + [f"verify.{s}_s" for s in (
        "gradient", "duality", "smoothness", "montecarlo", "correlation", "bounds")],
}


def check_flags() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as w
    from marketclear import specio, verify
    from marketclear.solvers import SolverConfig, solve

    slot = 5  # the cheapest market of the acceptance batch
    m = specio.market_from_document(w.batch_document(slot, 0))
    inp = w.Inputs("clear", 0, [m])
    ops = [w.Op(s, 0.0, 0.0, solve(m, SolverConfig(scheme=s)))
           for s in ("basic", "accelerated")]
    assert w.clear_failures(inp, ops) == [False, False]
    moved = dataclasses.replace(ops[0].output, price=ops[0].output.price + 1e-3)
    assert w.clear_failures(inp, [w.Op("basic", 0.0, 0.0, moved), ops[1]]) == [True, False]
    off = ops[1].output
    off = dataclasses.replace(off, ter=off.ter + 1e-6 * max(1.0, abs(off.ter[-1])))
    assert w.clear_failures(inp, [ops[0], w.Op("accelerated", 0.0, 0.0, off)]) == [False, True]

    p = w.price_block(0, slot, m.n)
    inp = w.Inputs("sweep", 0, [m], blocks=[p])
    ter, z, per_type = w.sweep_eval(m, p)
    good = w.SweepChecker()
    assert good(inp, [w.Op("m", 0.0, 0.0, (ter, z, per_type))]) == [False]
    again = z.copy()
    again[0, 0] += 1e-9
    assert good(inp, [w.Op("m", 0.0, 0.0, (ter, again, per_type))]) == [True]
    bad = z * (1.0 + 1e-9)
    assert w.SweepChecker()(inp, [w.Op("m", 0.0, 0.0, (ter, bad, per_type))]) == [True]

    results = [verify.CheckResult("bounds", "x", 1.0, 0.0, False)]
    assert w.audit_failures(inp, [w.Op("bounds", 0.0, 0.0, results)]) == [True]
    print("check flags: ok")


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_runs() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            res = last_json(proc.stdout)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, entry in res["metrics"].items():
                assert isinstance(entry["value"], (int, float)), name
                assert math.isfinite(entry["value"]), name
            table = {}
            for line in proc.stdout.splitlines():
                parts = line.split()
                if line.startswith("  ") and len(parts) == 3:
                    table[parts[0]] = parts[2]
            for name in list(want) + TABLE_ONLY[(workload, trace)]:
                assert name in table, (workload, trace, name)
            for name, unit in want.items():
                assert table[name] == unit, (name, table[name], unit)
            print(f"{workload} trace={trace}: ok ({res['attempted']} ops)")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(RUN + ["--workload", "clear", "--seed", "1", "--seconds", "1",
                                 "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("bare directory: ok (exit", proc.returncode, ")")


if __name__ == "__main__":
    check_flags()
    check_bare_directory()
    check_runs()
    print("selftest passed")
