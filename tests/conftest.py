import dataclasses
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import marketclear as mc
from marketclear import solvers, specio

REPO_ROOT = Path(__file__).resolve().parent.parent
SPEC_DIR = REPO_ROOT / "specs"

PYTHON = sys.executable
BATCH_SEEDS = range(20)


def set_leaf(doc, keys, value):
    """Set the entry of a nested JSON document reached by the keys in turn."""
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


def json_path(keys) -> str:
    """Spec-error path of a key sequence, e.g. $.suppliers[0].y_nat[3]."""
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)


def random_instance(seed, max_n=12, v_bound=5.0):
    """Random (nest structure, utility vector) pair, deterministic per seed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_n + 1))
    ns = specio.random_nest_structure(n, rng)
    v = rng.uniform(-v_bound, v_bound, n)
    return ns, v


def input_layouts(x) -> dict[str, np.ndarray]:
    """The values of x, or a constant, in the layouts a caller may pass:
    C order, Fortran order, a strided view, a read-only copy and a
    read-only broadcast of one value (all strides zero)."""
    x = np.asarray(x, dtype=float)
    read_only = x.copy()
    read_only.setflags(write=False)
    return {
        "C": np.ascontiguousarray(x),
        "F": np.asfortranarray(x),
        "strided": np.repeat(x, 2, axis=-1)[..., ::2],
        "read-only": read_only,
        "broadcast": np.broadcast_to(x.flat[0], x.shape),
    }


def _output_arrays(out) -> list[np.ndarray]:
    if dataclasses.is_dataclass(out):
        out = dataclasses.astuple(out)
    return [np.asarray(a, dtype=float) for a in (out if isinstance(out, tuple) else (out,))]


def assert_input_kept(fn, x):
    """On every layout of x, fn raises nothing and leaves its input
    bit-identical, and a second call gives the same bits in arrays of its
    own (no buffer outlives a call)."""
    for name, arg in input_layouts(x).items():
        before = arg.copy()
        first = _output_arrays(fn(arg))
        first_bytes = [a.tobytes() for a in first]
        second = _output_arrays(fn(arg))
        assert arg.tobytes() == before.tobytes(), name
        assert [a.tobytes() for a in second] == first_bytes, name
        assert not any(np.shares_memory(a, b) for a in first for b in second), name


@pytest.fixture(scope="session")
def single_good_market():
    """n=1 market with closed-form equilibrium p* = c + 2*gamma*(count - y_nat) = 3."""
    return mc.Market(
        n=1,
        consumers=(mc.ConsumerType(count=2.0, a=[0.0], nests=mc.NestStructure.single(1)),),
        suppliers=(mc.Supplier(y_nat=[0.0], gamma=0.5, lo=[0.0], hi=[10.0], c=[1.0]),),
    )


@pytest.fixture(scope="session")
def six_good_market():
    return specio.market_from_document(specio.generate_market(6, 2, 2, seed=7))


@pytest.fixture(scope="session")
def lockstep_batch():
    """The acceptance-batch markets (`BATCH_SEEDS`), then both shipped
    specs, each under both schemes in `solvers.SCHEMES` order: the 44
    (market, config) runs, their traces from one `solve_many` call, and
    the wall time in seconds of building the markets and that call."""
    t0 = time.monotonic()
    markets = [specio.market_from_document(specio.batch_market(seed)) for seed in BATCH_SEEDS]
    markets += [specio.load_market(SPEC_DIR / name)
                for name in ("market_n6.json", "single_good.json")]
    runs = [(m, solvers.SolverConfig(scheme=scheme)) for m in markets for scheme in solvers.SCHEMES]
    traces = solvers.solve_many(runs)
    return runs, traces, time.monotonic() - t0
