"""The ``--json`` report encoder writes exactly what the stdlib would.

``_dumps_indented`` must equal ``json.dumps(obj, indent=2, sort_keys=True)``
byte for byte on any JSON-like tree, and so must the report spliced from the
cells' fragments (``CampaignReport.to_json``): the report bytes are pinned,
and the benchmark checks every campaign sample against a known digest.
"""

import enum
import json
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.cache import ResultCache
from repro.campaign.executor import CampaignResult, CellOutcome
from repro.campaign.fragment import CellFragment
from repro.campaign.report import CampaignReport, _dumps_indented
from repro.campaign.spec import RunSpec


def _stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


#: Values the string fast paths could get wrong.
ADVERSARIAL = (
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e-320, 1e16, 2**70, -(2**70),
    True, False, None, "", ",", "],[", "[1,2]", '"', "\\", "{", "\n", "é", " ", "\U0001f600",
)

numbers = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([v for v in ADVERSARIAL if not isinstance(v, str)]),
)
scalars = st.one_of(numbers, st.text(max_size=6), st.sampled_from(ADVERSARIAL))
keys = st.one_of(st.text(max_size=4), st.sampled_from([s for s in ADVERSARIAL if isinstance(s, str)]))
#: Flat rows, some empty, some interleaved with bare scalars.
rows = st.lists(st.one_of(st.lists(numbers, max_size=4), numbers), max_size=6)
#: Dicts whose keys all share one non-``str`` type (mixed types cannot sort).
odd_keyed = st.one_of(
    st.dictionaries(st.integers(), scalars, max_size=4),
    st.dictionaries(st.floats(), scalars, max_size=4),
    st.dictionaries(st.booleans(), scalars, max_size=2),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
        st.builds(lambda head, tail: [head, *tail], scalars, st.lists(children, max_size=4)),
    )


trees = st.recursive(st.one_of(scalars, rows, odd_keyed), _containers, max_leaves=40)


class TestMatchesStdlib:
    @given(tree=trees)
    @settings(max_examples=300, deadline=None)
    def test_any_json_tree(self, tree):
        assert _dumps_indented(tree) == _stdlib(tree)

    @given(table=rows)
    @settings(max_examples=200, deadline=None)
    def test_number_rows(self, table):
        assert _dumps_indented({"trace": table}) == _stdlib({"trace": table})

    @pytest.mark.parametrize(
        "obj",
        [
            [[1, 4.5], [2, float("nan")], [3, -0.0]],  # residual_trace shape
            [[1, 2], [], [3]],
            [[], [1]],
            [[1], 2],
            [1, [2]],
            [[1], [2, [3]]],
            [[[1]]],
            [1, {}],
            [[1, {}], [2]],
            [None, {"k": [1, 2]}],
            [1, [2, {"a": 1}]],
            ["],[", 1, [","]],
            {"a": {2.5: [1, 2]}, "b": {1: "x", 2: ["y"]}},
            {True: 1, False: [2]},
            {"ints": (2**70, -(2**70)), "inf": [float("inf"), float("-inf")]},
            {"enum": enum.IntEnum("E", "A B").B, "sub": type("F", (float,), {})(1.5)},
            {},
            [],
            "é",
        ],
    )
    def test_adversarial_cases(self, obj):
        assert _dumps_indented(obj) == _stdlib(obj)


# -- the spliced report -------------------------------------------------------
#: Trees whose keys are all ``str``: decoding their encoding gives them back
#: (tuples come back as lists, which encode the same).
faithful = st.recursive(st.one_of(scalars, rows), _containers, max_leaves=30)
#: What ``float()`` takes: the values of the metrics the aggregate reads.
metric_values = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 2**70]),
)
#: ``ft`` results carry those metrics beside anything else.
ft_results = st.builds(
    lambda extra, overhead, report: {**extra, "overhead_fraction": overhead, "report": report},
    st.dictionaries(keys, faithful, max_size=3),
    metric_values,
    st.builds(
        lambda extra, failures: {**extra, "num_failures": failures},
        st.dictionaries(keys, faithful, max_size=3),
        metric_values,
    ),
)
_SPECS = (
    RunSpec(kind="ft", method="jacobi", scheme="lossy", seed=1),
    RunSpec(kind="ft", method="cg", scheme="traditional", seed=2),
    RunSpec(kind="model", params={"lam": 1.0, "tckp": 2.0}),
)


def _report(name, results, fragments=None) -> CampaignReport:
    outcomes = [
        CellOutcome(
            index=index,
            spec=spec,
            fragment=CellFragment.render(spec, result) if fragments is None
            else fragments[index],
            cached=fragments is not None,
        )
        for index, (spec, result) in enumerate(results)
    ]
    return CampaignReport(CampaignResult(name=name, outcomes=outcomes))


def _cells(ft, model):
    """``(spec, result)`` pairs; each cell a distinct spec, as in a campaign."""
    return st.lists(
        st.one_of(
            st.tuples(st.sampled_from(_SPECS[:2]), ft),
            st.tuples(st.just(_SPECS[2]), model),
        ),
        max_size=4,
    ).map(lambda cells: [
        (replace(spec, repetition=index), result) for index, (spec, result) in enumerate(cells)
    ])


class TestSplicedReport:
    @given(name=keys, cells=_cells(ft_results, st.dictionaries(keys, faithful, max_size=5)))
    @settings(max_examples=50, deadline=None)
    def test_equals_stdlib_encoding_of_to_dict_cold_and_cached(self, name, cells):
        cold = _report(name, cells)
        assert cold.to_json() == _stdlib(cold.to_dict())
        with tempfile.TemporaryDirectory() as directory:
            cache = ResultCache(directory)
            for spec, result in cells:
                cache.put(spec, CellFragment.render(spec, result))
            warm = _report(name, cells, [cache.get(spec) for spec, _ in cells])
            assert warm.to_json() == cold.to_json()
            assert _stdlib(warm.to_dict()) == _stdlib(cold.to_dict())

    @given(name=keys, cells=_cells(ft_results, st.dictionaries(keys, trees, max_size=5)))
    @settings(max_examples=50, deadline=None)
    def test_equals_stdlib_encoding_of_the_original_results(self, name, cells):
        """Any tree, odd keys included: the cells are as encoded where they ran."""
        report = _report(name, cells)
        expected = dict(
            report.to_dict(cells=False),
            cells=[{"spec": spec.to_dict(), "result": result} for spec, result in cells],
        )
        assert report.to_json() == _stdlib(expected)

    @pytest.mark.parametrize("by", [("method", "scheme", "num_processes"), ("kind",), ()])
    def test_zero_cells(self, by):
        report = _report("empty", [])
        assert report.to_json(by) == _stdlib(report.to_dict(by))
        assert json.loads(report.to_json(by)) == {"aggregate": [], "cells": [], "name": "empty"}
