"""The benchmark's traced run wraps package functions by name; a rename
must fail here rather than only when `perfbench/run.py --trace 1` runs."""

import importlib
import importlib.util

from conftest import REPO_ROOT


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO_ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    for modname, attr in load_spans().TARGETS:
        obj = importlib.import_module(f"marketclear.{modname}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"marketclear.{modname}.{attr} not found"
            obj = getattr(obj, part)
        assert callable(obj), f"marketclear.{modname}.{attr} is not callable"
