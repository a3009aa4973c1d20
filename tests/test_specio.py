import importlib.util
import json
import math
import sys
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from marketclear import (
    RateFitError,
    SolverConfig,
    StructureError,
    Trace,
    UnproductiveMarketError,
    cli,
    fit_rate,
    reference_solve,
    solve,
    specio,
)

from conftest import REPO_ROOT, SPEC_DIR, json_path, set_leaf

CODES = {specio.CODE_MALFORMED, specio.CODE_PARTITION, specio.CODE_MU_RANGE,
         specio.CODE_GAMMA, specio.CODE_BOUNDS, specio.CODE_NON_FINITE}


GOLDEN_TRACE = """\
iter,ter,grad_norm,min_excess,complementarity,step
1,1.0000000000000000e+00,1.0000000000000000e+00,-0.0000000000000000e+00,0.0000000000000000e+00,1.2500000000000000e-01
2,1.0000000000000001e-01,5.0000000000000000e-01,-1.0000000000000000e+00,0.0000000000000000e+00,1.2500000000000000e-01
3,nan,2.5000000000000000e-01,-2.0000000000000000e+00,0.0000000000000000e+00,1.2500000000000000e-01
4,inf,1.2500000000000000e-01,-3.0000000000000000e+00,0.0000000000000000e+00,1.2500000000000000e-01
5,-inf,6.2500000000000000e-02,-4.0000000000000000e+00,0.0000000000000000e+00,1.2500000000000000e-01
6,-0.0000000000000000e+00,3.1250000000000000e-02,-5.0000000000000000e+00,0.0000000000000000e+00,1.2500000000000000e-01
7,1.0000000000000000e-300,1.5625000000000000e-02,-6.0000000000000000e+00,0.0000000000000000e+00,1.2500000000000000e-01
8,-2.5000000000000000e+00,7.8125000000000000e-03,-7.0000000000000000e+00,0.0000000000000000e+00,1.2500000000000000e-01
9,3.3333333333333331e-01,3.9062500000000000e-03,-8.0000000000000000e+00,0.0000000000000000e+00,1.2500000000000000e-01
10,1.2345678000000000e+04,1.9531250000000000e-03,-9.0000000000000000e+00,0.0000000000000000e+00,1.2500000000000000e-01
# price = [0.0000000000000000e+00, 1.0000000000000000e-300, 2.5000000000000000e+00]
"""


def parse(text):
    return specio.market_from_document(json.loads(text))


@pytest.fixture()
def doc():
    return specio.generate_market(4, 2, 2, seed=3)


class TestParsing:
    def test_minimal_spec(self):
        minimal = {
            "n": 1,
            "consumers": [{"count": 1.0, "utilities": [0.0],
                           "nests": [{"members": [1], "mu": 1.0}]}],
            "suppliers": [{"gamma": 1.0, "y_nat": [0.0],
                           "capacity": {"lo": [0.0], "hi": [2.0]},
                           "base_cost": {"kind": "linear", "c": [0.0]}}],
        }
        m = specio.market_from_document(minimal)
        assert m.n == 1
        assert len(m.consumers) == 1 and len(m.suppliers) == 1

    def test_nests_not_disjoint(self, doc):
        doc["consumers"][0]["nests"] = [
            {"members": [1, 2], "mu": 0.5},
            {"members": [2, 3, 4], "mu": 0.5},
        ]
        with pytest.raises(specio.SpecError, match="nests not disjoint") as err:
            specio.market_from_document(doc)
        assert err.value.code == specio.CODE_PARTITION
        assert "index 2" in str(err.value)

    def test_incomplete_partition(self, doc):
        doc["consumers"][0]["nests"] = [{"members": [1, 2], "mu": 0.5}]
        with pytest.raises(specio.SpecError) as err:
            specio.market_from_document(doc)
        assert err.value.code == specio.CODE_PARTITION

    def test_mu_out_of_range(self, doc):
        doc["consumers"][0]["nests"][0]["mu"] = 1.5
        with pytest.raises(specio.SpecError, match=r"mu out of range \(1e-06, 1\]") as err:
            specio.market_from_document(doc)
        assert err.value.code == specio.CODE_MU_RANGE

    def test_negative_gamma(self, doc):
        doc["suppliers"][0]["gamma"] = -1.0
        with pytest.raises(specio.SpecError) as err:
            specio.market_from_document(doc)
        assert err.value.code == specio.CODE_GAMMA

    def test_inverted_bounds(self, doc):
        doc["suppliers"][1]["capacity"]["lo"] = [9e9, 0.0, 0.0, 0.0]
        with pytest.raises(specio.SpecError, match="lo > hi") as err:
            specio.market_from_document(doc)
        assert err.value.code == specio.CODE_BOUNDS

    def test_malformed_documents(self, doc):
        cases = [
            42,
            {},
            {"n": 0, "consumers": [], "suppliers": []},
            {"n": 2, "consumers": [], "suppliers": doc["suppliers"]},
        ]
        for bad in cases:
            with pytest.raises(specio.SpecError) as err:
                specio.market_from_document(bad)
            assert err.value.code == specio.CODE_MALFORMED

    def test_error_names_field_path(self, doc):
        doc["consumers"][1]["utilities"] = [0.0]
        with pytest.raises(specio.SpecError, match=r"consumers\[1\].utilities"):
            specio.market_from_document(doc)

    def test_wrong_base_cost_kind(self, doc):
        doc["suppliers"][0]["base_cost"]["kind"] = "cubic"
        with pytest.raises(specio.SpecError) as err:
            specio.market_from_document(doc)
        assert err.value.code == specio.CODE_MALFORMED


def market_n6():
    return json.loads((SPEC_DIR / "market_n6.json").read_text(encoding="utf-8"))


def float_leaves(doc, keys=()):
    """Key sequences of every float entry of a JSON document."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from float_leaves(v, keys + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from float_leaves(v, keys + (i,))
    elif isinstance(doc, float):
        yield keys


MUTATIONS = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-9, 2.0, 1e200, -1e200)


class TestFieldRules:
    """Constructor rules reach spec files as coded errors at the field's path."""

    @pytest.mark.parametrize("keys, value, code", [
        (("suppliers", 0, "y_nat", 0), math.inf, specio.CODE_NON_FINITE),
        (("suppliers", 1, "capacity", "hi", 2), math.inf, specio.CODE_NON_FINITE),
        # finiteness is checked before the bounds rule
        (("suppliers", 0, "capacity", "lo", 1), math.nan, specio.CODE_NON_FINITE),
        (("suppliers", 0, "capacity", "lo", 1), -1.0, specio.CODE_BOUNDS),
        (("suppliers", 1, "capacity", "hi", 3), -1.0, specio.CODE_BOUNDS),
        (("suppliers", 0, "base_cost", "d", 4), -1.0, specio.CODE_MALFORMED),
        (("suppliers", 1, "gamma"), 0.0, specio.CODE_GAMMA),
        (("consumers", 0, "nests", 2, "mu"), 0.0, specio.CODE_MU_RANGE),
        (("consumers", 1, "nests", 0, "mu"), math.nan, specio.CODE_NON_FINITE),
        (("consumers", 1, "count"), -1.0, specio.CODE_MALFORMED),
        (("consumers", 0, "utilities", 5), -math.inf, specio.CODE_NON_FINITE),
        (("suppliers", 0, "gamma"), 1e-320, specio.CODE_GAMMA),  # 1 / gamma would be inf
        (("consumers", 1, "count"), 10**400, specio.CODE_NON_FINITE),  # no float holds it
        (("consumers", 0, "count"), "2.0", specio.CODE_MALFORMED),
        (("suppliers", 1, "y_nat", 3), True, specio.CODE_MALFORMED),
    ])
    def test_error_names_the_field(self, keys, value, code):
        doc = market_n6()
        set_leaf(doc, keys, value)
        with pytest.raises(specio.SpecError) as err:
            specio.market_from_document(doc)
        assert err.value.code == code
        assert err.value.field == json_path(keys)
        if isinstance(value, (str, bool)):
            assert str(err.value) == (f"{json_path(keys)}: expected a number, "
                                      f"got {type(value).__name__} [malformed]")

    def test_partition_error_names_the_nest(self):
        doc = market_n6()
        doc["consumers"][0]["nests"][2]["members"] = [7]
        with pytest.raises(specio.SpecError, match="index 7 outside 1..6") as err:
            specio.market_from_document(doc)
        assert err.value.code == specio.CODE_PARTITION
        assert err.value.field == "$.consumers[0].nests[2]"

    def test_empty_supplier_list(self):
        doc = market_n6()
        doc["suppliers"] = []
        with pytest.raises(specio.SpecError) as err:
            specio.market_from_document(doc)
        assert (err.value.code, err.value.field) == (specio.CODE_MALFORMED, "$.suppliers")

    @given(st.sampled_from(list(float_leaves(market_n6()))), st.sampled_from(MUTATIONS))
    @settings(max_examples=300, deadline=None)
    def test_single_field_mutations(self, keys, value):
        # every mutated spec solves to finite values, is unproductive, or
        # is rejected with a known code at the mutated field; no warning
        doc = market_n6()
        set_leaf(doc, keys, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                m = specio.market_from_document(doc)
                trace = solve(m, SolverConfig(max_iters=50))
            except UnproductiveMarketError:
                return
            except specio.SpecError as err:
                assert err.code in CODES
                assert err.field == json_path(keys)
                return
            assert math.isfinite(m.ter(trace.price))
            assert np.all(np.isfinite(trace.price))
            assert np.all(np.isfinite(trace.ter))


class TestRoundTrip:
    def test_generate_is_deterministic(self):
        a = specio.generate_market(6, 2, 2, seed=7)
        b = specio.generate_market(6, 2, 2, seed=7)
        assert specio.dumps_document(a) == specio.dumps_document(b)
        c = specio.generate_market(6, 2, 2, seed=8)
        assert specio.dumps_document(a) != specio.dumps_document(c)

    @pytest.mark.parametrize("seed", range(6))
    def test_write_parse_write_is_byte_identical(self, seed):
        doc = specio.generate_market(5, 2, 3, seed=seed)
        text = specio.dumps_document(doc)
        market = specio.market_from_document(json.loads(text))
        assert specio.dumps_document(specio.market_to_document(market)) == text

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_markets_are_productive(self, seed):
        m = specio.market_from_document(specio.generate_market(7, 3, 2, seed=seed))
        assert m.productivity_check()

    @pytest.mark.parametrize("args", [
        (0, 1, 1, 0), (3, 0, 1, 0), (3, 1, 0, 0), (3, 1, 1, -1),
        (3.0, 1, 1, 0), (3, 1, 1, "7"), (3, True, 1, 0), (3, 1, 1, None),
    ])
    def test_generate_rejects_bad_parameters(self, args):
        # the arguments are no document: the error names the argument, not a path
        with pytest.raises(StructureError, match="must be an integer >= [01]") as err:
            specio.generate_market(*args)
        assert not isinstance(err.value, specio.SpecError)
        bad = next(i for i, (a, good) in enumerate(zip(args, (3, 1, 1, 0)))
                   if type(a) is not int or a != good)
        field = ("n", "n_consumers", "n_suppliers", "seed")[bad]
        assert (err.value.code, err.value.field) == (specio.CODE_MALFORMED, field)
        assert str(err.value).startswith(f"{field}: ")

    def test_one_based_indices_on_disk(self):
        doc = specio.generate_market(3, 1, 1, seed=0)
        members = sorted(
            i for nest in doc["consumers"][0]["nests"] for i in nest["members"]
        )
        assert members == [1, 2, 3]

    def test_batch_market_matches_the_benchmark_copy(self, monkeypatch):
        # perfbench keeps its own copy, so the benchmark also runs on
        # commits without specio.batch_market; both give the same documents
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        for slot in range(20):
            expected = specio.generate_market(*workloads.batch_dims(slot), seed=slot)
            assert specio.batch_market(slot) == expected, slot


@pytest.fixture(scope="module")
def n6_runs():
    """The basic, accelerated and reference traces of market_n6.json, and
    the reference TER*."""
    market = specio.load_market(str(SPEC_DIR / "market_n6.json"))
    ref = reference_solve(market)
    runs = [solve(market, SolverConfig(scheme=s)) for s in ("basic", "accelerated")]
    return runs + [ref], market.ter(ref.price)


def _slope(trace, ter_star):
    """fit_rate's slope, or the message of its RateFitError."""
    try:
        return fit_rate(trace, ter_star)
    except RateFitError as exc:
        return str(exc)


class TestTraceFiles:
    COLUMNS = ("ter", "grad_norm", "min_excess", "complementarity", "steps", "price")

    def _trace(self, rows=4):
        rng = np.random.default_rng(0)
        return Trace(
            scheme="basic", step=0.125,
            ter=rng.uniform(-5, 5, rows),
            grad_norm=rng.uniform(0, 1, rows),
            min_excess=rng.uniform(-1, 1, rows),
            complementarity=rng.uniform(-1, 1, rows),
            steps=np.full(rows, 0.125),
            price=rng.uniform(0, 3, 3),
            stop="tol",
        )

    def test_round_trip_lossless(self, tmp_path, n6_runs):
        trace = self._trace()
        path = tmp_path / "t.csv"
        specio.write_trace(trace, str(path))
        table = specio.read_trace(str(path))
        np.testing.assert_array_equal(table.iters, np.arange(1, 5))
        np.testing.assert_array_equal(table.ter, trace.ter)
        np.testing.assert_array_equal(table.grad_norm, trace.grad_norm)
        np.testing.assert_array_equal(table.min_excess, trace.min_excess)
        np.testing.assert_array_equal(table.complementarity, trace.complementarity)
        np.testing.assert_array_equal(table.steps, trace.steps)
        np.testing.assert_array_equal(table.price, trace.price)
        # real runs: basic, accelerated and the reference solve
        runs, ter_star = n6_runs
        for trace in runs:
            specio.write_trace(trace, str(path))
            table = specio.read_trace(str(path))
            assert isinstance(table, Trace) and table.iterations == trace.iterations
            for name in self.COLUMNS:
                assert np.array_equal(getattr(table, name), getattr(trace, name)), name
            assert _slope(table, ter_star) == _slope(trace, ter_star)
        assert isinstance(_slope(runs[0], ter_star), float)

    def test_header_and_footer_format(self, tmp_path):
        path = tmp_path / "t.csv"
        specio.write_trace(self._trace(2), str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,ter,grad_norm,min_excess,complementarity,step"
        assert len(lines) == 4
        assert lines[-1].startswith("# price = [")

    def test_golden_bytes(self, tmp_path):
        nan, inf = float("nan"), float("inf")
        trace = Trace(
            scheme="basic", step=0.125,
            ter=np.array([1.0, 0.1, nan, inf, -inf, -0.0, 1e-300, -2.5, 1 / 3, 12345.678]),
            grad_norm=2.0 ** -np.arange(10.0),
            min_excess=-np.arange(10.0),
            complementarity=np.zeros(10),
            steps=np.full(10, 0.125),
            price=np.array([0.0, 1e-300, 2.5]),
        )
        path = tmp_path / "t.csv"
        specio.write_trace(trace, str(path))
        assert path.read_bytes().decode("utf-8") == GOLDEN_TRACE

    def test_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(specio.TRACE_HEADER + "\n\n  \n# note\n# price = [1.5]\n")
        table = specio.read_trace(str(path))
        assert table.iters.dtype == np.int64 and table.iters.shape == (0,)
        assert table.ter.dtype == np.float64 and table.ter.shape == (0,)
        np.testing.assert_array_equal(table.price, [1.5])
        path.write_text(specio.TRACE_HEADER + "\n1,0,0,0,0,0.1\n\n# a comment\n"
                        " 2,1,1,1,1,0.1 \n# price = [1.5]\n")
        np.testing.assert_array_equal(specio.read_trace(str(path)).iters, [1, 2])

    @pytest.mark.parametrize("row, footer", [
        ("1,0,0,0,0", "# price = [1.5]"), ("1,0,0,0,0,0.1,0", "# price = [1.5]"),
        ("1.5,0,0,0,0,0.1", "# price = [1.5]"), ("1,0,x,0,0,0.1", "# price = [1.5]"),
        ("1,0,0,0,0,0.1 # a note", "# price = [1.5]"), ("1,0,0,0,0,0.1", "# price"),
    ])
    def test_rejects_malformed_row(self, tmp_path, row, footer):
        path = tmp_path / "bad.csv"
        path.write_text(f"{specio.TRACE_HEADER}\n{row}\n{footer}\n")
        with pytest.raises(ValueError):
            specio.read_trace(str(path))

    def test_rejects_non_finite_cells(self, tmp_path):
        # a rate fit on an infinite TER used to print slope=nan and succeed
        trace = self._trace(80)
        trace.ter[:60] = np.inf
        path = tmp_path / "t.csv"
        specio.write_trace(trace, str(path))
        with pytest.raises(specio.SpecError) as err:
            specio.read_trace(str(path))
        assert (err.value.code, err.value.field) == (specio.CODE_MALFORMED, str(path))
        assert str(err.value).endswith("row 1, column ter is not finite: inf [malformed]")
        trace = self._trace()
        trace.price[2], trace.steps[3] = np.nan, -np.inf
        specio.write_trace(trace, str(path))
        with pytest.raises(specio.SpecError, match="row 4, column step is not finite: -inf"):
            specio.read_trace(str(path))
        trace.steps[3] = 0.125
        specio.write_trace(trace, str(path))
        with pytest.raises(specio.SpecError, match=r"price\[2\] is not finite: nan"):
            specio.read_trace(str(path))

    def _cut_basic_trace(self, tmp_path, n6_runs, cut):
        """The basic run's trace file, its data rows cut: the first 200
        dropped (head), rows 1, 2, 2, 3 (repeat) or rows 1, 2, 4 (gap)."""
        path = tmp_path / "t.csv"
        (basic, _, _), _ = n6_runs
        specio.write_trace(basic, str(path))
        header, *rows, footer = path.read_text().splitlines(keepends=True)
        keep = {"head": rows[200:], "repeat": rows[:2] + rows[1:3], "gap": rows[:2] + rows[3:4]}
        path.write_text(header + "".join(keep[cut]) + footer)
        return path

    @pytest.mark.parametrize("cut, message", [
        ("head", "row 1, column iter is 201, expected 1"),
        ("repeat", "row 3, column iter is 2, expected 3"),
        ("gap", "row 3, column iter is 4, expected 3"),
    ], ids=["head", "repeat", "gap"])
    def test_rejects_iteration_column_not_counting_from_1(self, tmp_path, n6_runs, cut,
                                                         message):
        path = self._cut_basic_trace(tmp_path, n6_runs, cut)
        with pytest.raises(specio.SpecError) as err:
            specio.read_trace(str(path))
        assert (err.value.code, err.value.field) == (specio.CODE_MALFORMED, str(path))
        assert str(err.value) == f"{path}: {message} [malformed]"

    def test_rate_refuses_a_head_cut_trace(self, tmp_path, n6_runs, capsys):
        # rate used to fit this file against t = 1..T - 200 and exit 0
        path = self._cut_basic_trace(tmp_path, n6_runs, "head")
        _, ter_star = n6_runs
        assert cli.main(["rate", "--trace", str(path), f"--ter-star={ter_star!r}"]) == 1
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr == f"error: {path}: row 1, column iter is 201, expected 1 [malformed]\n"

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n1,2\n")
        with pytest.raises(ValueError):
            specio.read_trace(str(path))

    def test_rejects_missing_footer(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(specio.TRACE_HEADER + "\n1,0,0,0,0,0.1\n")
        with pytest.raises(ValueError, match="footer"):
            specio.read_trace(str(path))


class TestErrorShape:
    """Every SpecError is built like the other input errors: `.field` is the
    path it prints, `.message` the bare message, and only the printed text
    adds the code, as `<field>: <message> [<code>]`."""

    BAD_TRACES = [
        "time,value\n1,2\n",  # foreign header
        f"{specio.TRACE_HEADER}\n1,0,0,0,0,0.1\n",  # no footer
        *(f"{specio.TRACE_HEADER}\n{row}\n# price = [1.5]\n" for row in (
            "1,0,0,0,0", "1,0,0,0,0,0.1,0", "1.5,0,0,0,0,0.1", "1,0,x,0,0,0.1",
            "1,0,0,0,0,0.1 # a note", "1,inf,0,0,0,0.1", "2,0,0,0,0,0.1")),
        f"{specio.TRACE_HEADER}\n1,0,0,0,0,0.1\n# price\n",
        f"{specio.TRACE_HEADER}\n1,0,0,0,0,0.1\n# price = [1.5, nan]\n",
    ]

    def _errors(self, tmp_path, doc):
        """The SpecErrors of the bad documents, trace files and spec files
        this module builds."""
        bad_docs = [42, {}, {"n": 2.0}, {"n": 0, "consumers": [], "suppliers": []},
                    {"n": 2, "consumers": [], "suppliers": doc["suppliers"]}]
        for keys in float_leaves(market_n6()):
            for value in MUTATIONS:
                bad_docs.append(market_n6())
                set_leaf(bad_docs[-1], keys, value)
        for bad in bad_docs:
            try:
                specio.market_from_document(bad)
            except specio.SpecError as err:
                yield err
        path = tmp_path / "bad"
        for reader, contents in [(specio.read_trace, self.BAD_TRACES + [b"\xff\xfe"]),
                                 (specio.load_market, ["{not json", b"\xff\xfe"])]:
            for content in contents:
                if isinstance(content, bytes):
                    path.write_bytes(content)
                else:
                    path.write_text(content)
                with pytest.raises(specio.SpecError) as err:
                    reader(str(path))
                yield err.value

    def test_field_message_and_code(self, tmp_path, doc):
        errors = list(self._errors(tmp_path, doc))
        assert len(errors) > 400
        for err in errors:
            assert str(err) == f"{err.field}: {err.message} [{err.code}]"
            assert err.code in CODES
            assert err.field.startswith("$") or err.field == str(tmp_path / "bad")
            assert not err.message.startswith(err.field)
