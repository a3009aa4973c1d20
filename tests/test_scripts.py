"""The scripts under scripts/ run as documented."""

import hashlib
import importlib.util
import math
import os
import subprocess

from marketclear import specio
from marketclear.solvers import SolverConfig, solve

from conftest import PYTHON, REPO_ROOT, SPEC_DIR

SCRIPTS = REPO_ROOT / "scripts"


def test_rate_batch_prints_a_row_per_market():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))))
    r = subprocess.run([PYTHON, str(SCRIPTS / "rate_batch.py"), "--markets", "2"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    header, *rows = [line.split() for line in r.stdout.splitlines() if line.strip()]
    assert header[-2:] == ["slope_b", "slope_a"]
    rows = [row for row in rows if row[0].isdigit()]  # the market rows, by seed
    assert [row[0] for row in rows] == ["0", "1"]
    slopes = [float(row[k]) for row in rows for k in (-2, -1)]  # "n/a" does not parse
    assert all(math.isfinite(s) for s in slopes)


def test_make_demo_specs_regenerates_the_shipped_specs(tmp_path):
    spec = importlib.util.spec_from_file_location("make_demo_specs",
                                                  SCRIPTS / "make_demo_specs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.SPEC_DIR = tmp_path
    script.main()
    for name in ("single_good.json", "market_n6.json"):
        assert (tmp_path / name).read_bytes() == (SPEC_DIR / name).read_bytes(), name


def test_trace_digest_matches_a_direct_solve(capsys):
    spec = importlib.util.spec_from_file_location("trace_digest", SCRIPTS / "trace_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main(["--markets", "2"])
    out = capsys.readouterr().out.splitlines()
    lines = out[:4]  # the specs' lines follow
    want = []
    for seed in range(2):
        m = specio.market_from_document(specio.batch_market(seed))
        for scheme in ("basic", "accelerated"):
            t = solve(m, SolverConfig(scheme=scheme))
            h = hashlib.blake2b(digest_size=16)
            for col in (t.ter, t.grad_norm, t.min_excess, t.complementarity, t.steps, t.price):
                h.update(col.tobytes())
            want.append(f"batch{seed} {scheme} iterations={t.iterations} stop=tol "
                        f"oracle_evals={t.oracle_evals} blocks={t.blocks} digest={h.hexdigest()}")
    assert lines == want
    # then every run again, all of them in one lockstep solve_many call,
    # each with the line of its single run
    single = [line for line in out if not line.startswith("lockstep ")]
    lockstep = [line.removeprefix("lockstep ") for line in out if line.startswith("lockstep ")]
    assert len(single) == 8  # 2 batch markets and 2 specs, 2 schemes each
    assert lockstep == single
