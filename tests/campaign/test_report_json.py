"""The ``--json`` report encoder writes exactly what the stdlib would.

``_dumps_indented`` must equal ``json.dumps(obj, indent=2, sort_keys=True)``
byte for byte on any JSON-like tree: the report bytes are pinned, and the
benchmark checks every campaign sample against a known digest.
"""

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.report import _dumps_indented


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
