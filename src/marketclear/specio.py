"""Market spec documents, random scenario generation, and trace files.

A market spec is a JSON document

    {"n": 2,
     "consumers": [{"count": 2.0, "utilities": [...],
                    "nests": [{"members": [1, 2], "mu": 0.5}, ...]}],
     "suppliers": [{"gamma": 0.5, "y_nat": [...],
                    "capacity": {"lo": [...], "hi": [...]},
                    "base_cost": {"kind": "linear", "c": [...]}}]}

with 1-based alternative indices in `members` (converted to 0-based
internally). The reader checks only the document's shape; the market
constructors check the values, and their errors are reported here at
the field's document path. Documents are serialized canonically
(sorted keys, 2-space indent, full-precision floats) so that
generate -> write -> parse -> write is byte-identical.

Trace files are CSV with the header TRACE_HEADER, one row per iteration
at 17 significant digits, and a final comment line `# price = [..]`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from .market import ConsumerType, Market
from .nested_logit import (  # the CODE_* names are re-exported
    CODE_BOUNDS,
    CODE_GAMMA,
    CODE_MALFORMED,
    CODE_MU_RANGE,
    CODE_NON_FINITE,
    CODE_PARTITION,
    MarketclearError,
    NestStructure,
    StructureError,
)
from .supply import Supplier

# Document names of the constructor fields that are named differently;
# "{}" takes the field's index, if any.
_DOC_FIELDS = {"a": "utilities{}", "lo": "capacity.lo{}", "hi": "capacity.hi{}",
               "c": "base_cost.c{}", "d": "base_cost.d{}", "mu": "nests{}.mu"}


class SpecError(MarketclearError, ValueError):
    """Spec document rejected; carries an error code and a field path."""

    def __init__(self, code: str, path: str, message: str):
        super().__init__(f"{path}: {message} [{code}]")
        self.code = code
        self.path = path


def _require(cond: bool, code: str, path: str, message: str) -> None:
    if not cond:
        raise SpecError(code, path, message)


def _build(cls, path: str, **fields):
    """cls(**fields), its StructureError re-raised as a SpecError at its field's path."""
    try:
        return cls(**fields)
    except StructureError as exc:
        name, bracket, index = exc.field.partition("[")
        field = _DOC_FIELDS.get(name, name + "{}").format(bracket + index)
        raise SpecError(exc.code, f"{path}.{field}" if field else path, exc.message) from exc


def _number(doc: Any, path: str) -> float:
    _require(isinstance(doc, (int, float)) and not isinstance(doc, bool),
             CODE_MALFORMED, path, f"expected a number, got {type(doc).__name__}")
    return float(doc)


def _vector(doc: Any, n: int, path: str) -> np.ndarray:
    _require(len(_array(doc, path)) == n, CODE_MALFORMED, path,
             f"expected {n} entries, got {len(doc)}")
    return np.array([_number(x, f"{path}[{i}]") for i, x in enumerate(doc)])


def _mapping(doc: Any, path: str) -> dict:
    _require(isinstance(doc, dict), CODE_MALFORMED, path, "expected an object")
    return doc


def _key(doc: dict, name: str, path: str) -> Any:
    _require(name in doc, CODE_MALFORMED, path, f"missing key {name!r}")
    return doc[name]


def _array(doc: Any, path: str) -> list:
    _require(isinstance(doc, list), CODE_MALFORMED, path, "expected an array")
    return doc


def _parse_consumer(doc: Any, n: int, path: str) -> ConsumerType:
    doc = _mapping(doc, path)
    count = _number(_key(doc, "count", path), f"{path}.count")
    a = _vector(_key(doc, "utilities", path), n, f"{path}.utilities")
    members, mus = [], []
    for l, nest_doc in enumerate(_array(_key(doc, "nests", path), f"{path}.nests")):
        npath = f"{path}.nests[{l}]"
        nest_doc = _mapping(nest_doc, npath)
        raw = _array(_key(nest_doc, "members", npath), f"{npath}.members")
        for i, x in enumerate(raw):
            _require(isinstance(x, int) and not isinstance(x, bool), CODE_MALFORMED,
                     f"{npath}.members[{i}]", "expected an integer index")
        members.append(tuple(x - 1 for x in raw))  # 1-based on disk
        mus.append(_number(_key(nest_doc, "mu", npath), f"{npath}.mu"))
    nests = _build(NestStructure, path, n=n, nests=tuple(members), mu=tuple(mus))
    return _build(ConsumerType, path, count=count, a=a, nests=nests)


def _parse_supplier(doc: Any, n: int, path: str) -> Supplier:
    doc = _mapping(doc, path)
    gamma = _number(_key(doc, "gamma", path), f"{path}.gamma")
    y_nat = _vector(_key(doc, "y_nat", path), n, f"{path}.y_nat")
    cap = _mapping(_key(doc, "capacity", path), f"{path}.capacity")
    lo = _vector(_key(cap, "lo", f"{path}.capacity"), n, f"{path}.capacity.lo")
    hi = _vector(_key(cap, "hi", f"{path}.capacity"), n, f"{path}.capacity.hi")
    cost = _mapping(_key(doc, "base_cost", path), f"{path}.base_cost")
    kind = _key(cost, "kind", f"{path}.base_cost")
    _require(kind in ("linear", "quadratic"), CODE_MALFORMED,
             f"{path}.base_cost.kind", f"unknown base cost kind {kind!r}")
    c = _vector(_key(cost, "c", f"{path}.base_cost"), n, f"{path}.base_cost.c")
    d = (_vector(_key(cost, "d", f"{path}.base_cost"), n, f"{path}.base_cost.d")
         if kind == "quadratic" else np.zeros(n))
    return _build(Supplier, path, y_nat=y_nat, gamma=gamma, lo=lo, hi=hi, c=c, d=d)


def market_from_document(doc: Any) -> Market:
    """Validate a spec document and build the Market it describes."""
    doc = _mapping(doc, "$")
    n_raw = _key(doc, "n", "$")
    _require(isinstance(n_raw, int) and not isinstance(n_raw, bool) and n_raw >= 1,
             CODE_MALFORMED, "$.n", f"expected a positive integer, got {n_raw!r}")
    n = int(n_raw)
    consumers = tuple(
        _parse_consumer(c, n, f"$.consumers[{j}]")
        for j, c in enumerate(_array(_key(doc, "consumers", "$"), "$.consumers"))
    )
    suppliers = tuple(
        _parse_supplier(s, n, f"$.suppliers[{k}]")
        for k, s in enumerate(_array(_key(doc, "suppliers", "$"), "$.suppliers"))
    )
    return _build(Market, "$", n=n, consumers=consumers, suppliers=suppliers)


def market_to_document(m: Market) -> dict:
    """Spec document for a Market (1-based indices, plain Python types)."""
    consumers = []
    for ct in m.consumers:
        nests = [
            {"members": [i + 1 for i in nest], "mu": float(mu)}
            for nest, mu in zip(ct.nests.nests, ct.nests.mu)
        ]
        consumers.append(
            {"count": float(ct.count), "utilities": [float(x) for x in ct.a],
             "nests": nests}
        )
    suppliers = []
    for s in m.suppliers:
        cost: dict[str, Any] = {"c": [float(x) for x in s.c]}
        if np.any(s.d != 0):
            cost["kind"] = "quadratic"
            cost["d"] = [float(x) for x in s.d]
        else:
            cost["kind"] = "linear"
        suppliers.append(
            {"gamma": float(s.gamma),
             "y_nat": [float(x) for x in s.y_nat],
             "capacity": {"lo": [float(x) for x in s.lo],
                          "hi": [float(x) for x in s.hi]},
             "base_cost": cost}
        )
    return {"n": m.n, "consumers": consumers, "suppliers": suppliers}


def dumps_document(doc: dict) -> str:
    """Canonical serialization: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_market(path: str) -> Market:
    """Read and validate a market spec file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
        raise SpecError(CODE_MALFORMED, "$", f"invalid JSON: {exc}") from exc
    return market_from_document(doc)


def save_document(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_document(doc))


# ---------------------------------------------------------------------------
# scenario generation


def random_nest_structure(n: int, rng: np.random.Generator) -> NestStructure:
    """Random partition of n alternatives into at most 4 nests with
    scales in [0.2, 1].

    Each nest's mu is set exactly to 1.0 with probability 1/4 so the
    multinomial branch stays exercised.
    """
    n_nests = int(rng.integers(1, min(4, n) + 1))
    perm = rng.permutation(n)
    if n_nests > 1:
        cuts = np.sort(rng.choice(np.arange(1, n), size=n_nests - 1, replace=False))
    else:
        cuts = np.array([], dtype=int)
    pieces = np.split(perm, cuts)
    mus = []
    for _ in range(n_nests):
        if rng.random() < 0.25:
            mus.append(1.0)
        else:
            mus.append(float(rng.uniform(0.2, 1.0)))
    return NestStructure(n, tuple(tuple(int(i) for i in piece) for piece in pieces),
                         tuple(mus))


def generate_market(n: int, n_consumers: int, n_suppliers: int, seed: int) -> dict:
    """Random market spec document, deterministic per seed.

    Capacities are scaled so each good's total capacity is twice the
    total population, which guarantees the productivity check passes.
    Scale parameters fall in [0.2, 1], observable utilities in [-2, 2].
    """
    if n < 1 or n_consumers < 1 or n_suppliers < 1:
        raise SpecError(CODE_MALFORMED, "$", "n, consumer and supplier counts must all be >= 1")
    rng = np.random.default_rng(seed)
    consumers = []
    for _ in range(n_consumers):
        count = float(rng.integers(8, 21))
        a = rng.uniform(-2.0, 2.0, n)
        ns = random_nest_structure(n, rng)
        consumers.append(ConsumerType(count=count, a=a, nests=ns))
    total_pop = sum(ct.count for ct in consumers)

    raw_hi = rng.uniform(0.5, 1.5, (n_suppliers, n))
    hi = raw_hi * (2.0 * total_pop / raw_hi.sum(axis=0))
    suppliers = []
    for k in range(n_suppliers):
        gamma = float(rng.uniform(1.0, 4.0))
        c = rng.uniform(0.5, 2.0, n)
        d = rng.uniform(0.1, 1.0, n) if rng.random() < 0.5 else np.zeros(n)
        # natural levels well below the per-good demand scale keep
        # supply price-driven, so equilibria sit at positive prices
        # rather than on the boundary of the orthant
        y_nat = rng.uniform(0.0, 0.5, n) * (total_pop / (n * n_suppliers))
        suppliers.append(
            Supplier(y_nat=y_nat, gamma=gamma, lo=np.zeros(n), hi=hi[k], c=c, d=d)
        )
    market = Market(n=n, consumers=tuple(consumers), suppliers=tuple(suppliers))
    return market_to_document(market)


def batch_market(slot: int) -> dict:
    """Spec document of the acceptance-batch market at slot: generated
    with seed slot, its goods (6-20), consumer types and suppliers (1-5
    each) drawn from default_rng(1000 + slot)."""
    dims = np.random.default_rng(1000 + slot)
    n, j, k = (int(dims.integers(lo, hi)) for lo, hi in ((6, 21), (1, 6), (1, 6)))
    return generate_market(n, j, k, seed=slot)


# ---------------------------------------------------------------------------
# trace files

TRACE_HEADER = "iter,ter,grad_norm,min_excess,complementarity,step"
_ROW = np.dtype([(name, int if name == "iter" else float) for name in TRACE_HEADER.split(",")])
_FLOAT = "%.16e"  # 17 significant digits: every float64 round-trips exactly


@dataclass
class TraceTable:
    """Numeric columns of a trace file, as read back for rate fitting."""

    iter: np.ndarray
    ter: np.ndarray
    grad_norm: np.ndarray
    min_excess: np.ndarray
    complementarity: np.ndarray
    step: np.ndarray
    price: np.ndarray


def write_trace(trace, path: str) -> None:
    """Write a solver trace as CSV with the final price in a comment footer."""
    rows = np.column_stack((trace.iters, trace.ter, trace.grad_norm, trace.min_excess,
                            trace.complementarity, trace.steps))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        np.savetxt(f, rows, fmt=["%d"] + [_FLOAT] * 5, delimiter=",", header=TRACE_HEADER,
                   footer=f"# price = [{', '.join(_FLOAT % x for x in trace.price)}]", comments="")


def read_trace(path: str) -> TraceTable:
    """Read a trace file back; lossless for values written by write_trace.
    Any other file raises a SpecError with code malformed at its path."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            header, *lines = f.read().split("\n")
    except UnicodeDecodeError as exc:
        raise SpecError(CODE_MALFORMED, path, str(exc)) from exc
    _require(header == TRACE_HEADER, CODE_MALFORMED, path, f"unexpected trace header {header!r}")
    lines = [line.strip() for line in lines]
    data = [line for line in lines if line and not line.startswith("#")]
    comments = [line.lstrip("#").strip() for line in lines if line.startswith("#")]
    footer = [body for body in comments if body.startswith("price")]  # the last one counts
    _require(bool(footer), CODE_MALFORMED, path, "trace file has no price footer")
    try:
        rows = (np.loadtxt(data, _ROW, comments=None, delimiter=",", ndmin=1) if data
                else np.empty(0, _ROW))
        inner = footer[-1].split("=", 1)[-1].strip().strip("[]")
        price = np.array([float(x) for x in inner.split(",")] if inner else [])
    except ValueError as exc:  # a row or the footer does not parse
        raise SpecError(CODE_MALFORMED, path, str(exc)) from exc
    return TraceTable(*(rows[name] for name in _ROW.names), price=price)
