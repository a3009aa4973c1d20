"""In-memory span recorder wrapped around the public calls of each layer.

A span is (name, start, end, parent span, op id): the op id is the
benchmark operation (one solve, one market block, one verify suite)
that caused it. Spans live in flat arrays while the traced pass runs
and are written out once at the end.

The wrappers are installed by rebinding every name under which the
package resolves a function (module globals, class attributes, the
verify suite table), so calls made inside the package are traced the
same way as calls made by the benchmark. Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute) of every traced function; for classes the
# attribute is "Class.method". The layer is the module name.
TARGETS = (
    ("solvers", "solve"),
    ("solvers", "reference_solve"),
    ("market", "Market.ter"),
    ("market", "Market.ter_gradient"),
    ("nested_logit", "surplus"),
    ("nested_logit", "choice_probabilities"),
    ("nested_logit", "conjugate"),
    ("nested_logit", "fenchel_gap"),
    ("supply", "_profit_raw"),
    ("supply", "_best_response_raw"),
    ("sampling", "monte_carlo_choice_frequencies"),
    ("sampling", "empirical_error_covariance"),
    ("sampling", "empirical_error_correlation"),
    ("sampling", "monte_carlo_max_error"),
    ("verify", "suite_gradient"),
    ("verify", "suite_duality"),
    ("verify", "suite_smoothness"),
    ("verify", "suite_montecarlo"),
    ("verify", "suite_correlation"),
    ("verify", "suite_bounds"),
    ("verify", "fd_gradient"),
)

LAYERS = ("solvers", "market", "nested_logit", "supply", "sampling", "verify")
ORACLE = ("market.ter", "market.ter_gradient")


class SpanRecorder:
    """Collects spans; `install` patches the package, `uninstall` undoes it.

    `clock` gives the span timestamps; the benchmark passes one that stops
    while its speed probes run, so probe time is in no span.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = [f"{mod}.{attr.split('.')[-1]}" for mod, attr in TARGETS]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.solve = array("i")  # innermost open solve span, -1 if none
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.solve_stack: list[int] = []
        self.reference_depth = 0
        # solve span index -> (scheme, iterations, inside a reference solve)
        self.solves: dict[int, tuple[str, int, bool]] = {}
        self.references: dict[int, int] = {}  # span index -> iterations
        self.current_op = -1
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name_id: int, fn):
        name = self.names[name_id]
        is_solve = name == "solvers.solve"
        is_reference = name == "solvers.reference_solve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.current_op)
            self.solve.append(self.solve_stack[-1] if self.solve_stack else -1)
            self.end.append(0.0)
            self.stack.append(idx)
            if is_solve:
                self.solve_stack.append(idx)
            if is_reference:
                self.reference_depth += 1
            self.start.append(self.clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = self.clock()
                self.stack.pop()
                if is_solve:
                    self.solve_stack.pop()
                if is_reference:
                    self.reference_depth -= 1
            if is_solve:
                self.solves[idx] = (out.scheme, out.iterations, self.reference_depth > 0)
            elif is_reference:
                self.references[idx] = out.iterations
            return out

        return traced

    def install(self) -> None:
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "marketclear" or name.startswith("marketclear.")}
        for name_id, (modname, attr) in enumerate(TARGETS):
            module = pkg[f"marketclear.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._rebind(owner, meth, self._wrap(name_id, getattr(owner, meth)))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name_id, original)
            for mod in pkg.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)
                table = vars(mod).get("_SUITE_FNS")
                if isinstance(table, dict):
                    for key, value in list(table.items()):
                        if value is original:
                            self._rebind(table, key, wrapped)

    def _rebind(self, owner, key: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "solve": np.frombuffer(self.solve, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write the spans as an .npz file; `names` maps the name ids."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_times(rec: SpanRecorder) -> dict[str, dict[str, float]]:
    """Per-layer total and self time; self time excludes child spans."""
    a = rec.arrays()
    dur = a["end"] - a["start"]
    child = np.zeros(len(dur))
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    self_time = dur - child
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in rec.names])
    span_layer = layer_of[a["name"]]
    # a layer's total counts only spans not nested in the same layer
    parent_layer = np.where(has_parent, span_layer[np.maximum(a["parent"], 0)], -1)
    outermost = parent_layer != span_layer
    out = {}
    for k, layer in enumerate(LAYERS):
        sel = span_layer == k
        out[layer] = {
            "self_s": float(self_time[sel].sum()),
            "total_s": float(dur[sel & outermost].sum()),
            "spans": int(sel.sum()),
        }
    return out


def name_times(rec: SpanRecorder) -> dict[str, float]:
    """Summed span duration of each traced name that ran."""
    a = rec.arrays()
    dur = a["end"] - a["start"]
    out = {}
    for name_id, name in enumerate(rec.names):
        sel = a["name"] == name_id
        if sel.any():
            out[name] = float(dur[sel].sum())
    return out


def solver_counts(rec: SpanRecorder) -> dict[str, float]:
    """Iterations and oracle calls per iteration of each scheme.

    Solves inside a reference solve count towards the reference
    iterations only.
    """
    a = rec.arrays()
    oracle_ids = [rec.names.index(n) for n in ORACLE]
    is_oracle = np.isin(a["name"], oracle_ids)
    calls = np.bincount(a["solve"][is_oracle & (a["solve"] >= 0)], minlength=len(a["name"]))
    out: dict[str, float] = {}
    for scheme in ("basic", "accelerated"):
        idx = [i for i, (s, _, ref) in rec.solves.items() if s == scheme and not ref]
        iters = sum(rec.solves[i][1] for i in idx)
        out[f"iterations.{scheme}"] = iters
        out[f"oracle_calls_per_iter.{scheme}"] = (
            float(calls[idx].sum()) / iters if iters else 0.0
        )
    out["reference_iterations"] = sum(rec.references.values())
    return out
