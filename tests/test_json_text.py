"""The CLI's JSON writer against json.dumps(indent=2, sort_keys=True)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecert.cli import json_text


def reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def outcome(fn, obj):
    try:
        return fn(obj)
    except TypeError as exc:
        return type(exc)


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                  1e-310, 1.7976931348623157e308, 1e16, 1e-5, 0.1,
                  math.nan, math.inf, -math.inf]

plain_floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
floats = st.one_of(plain_floats, plain_floats.map(np.float64))
# surrogates and control characters included
strings = st.text(st.characters(blacklist_categories=()), max_size=8)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats, strings)
keys = st.one_of(strings, st.integers(), floats, st.booleans())


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
        st.dictionaries(keys, children, max_size=3),
    )


@st.composite
def float_arrays(draw):
    """Regular nested lists (and tuples) of floats, the writer's bulk case,
    sometimes made irregular by one changed entry."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))

    def build(dims):
        if not dims:
            return draw(floats)
        items = [build(dims[1:]) for _ in range(dims[0])]
        return tuple(items) if draw(st.booleans()) else items

    arr = build(shape)
    if draw(st.booleans()):
        return arr
    # one leaf or one row replaced by something the bulk path must refuse
    odd = draw(st.one_of(st.integers(), st.booleans(), st.none(), strings,
                         st.just([]), st.lists(floats, max_size=3),
                         st.dictionaries(floats, floats, max_size=1)))
    path = [draw(st.integers(0, d - 1)) for d in shape]
    depth = draw(st.integers(1, len(shape)))
    node = arr = json.loads(json.dumps(arr))  # plain nested lists
    for i in path[:depth - 1]:
        node = node[i]
    node[path[depth - 1]] = odd
    return arr


documents = st.recursive(st.one_of(scalars, float_arrays()), containers,
                         max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_matches_json_dumps(obj):
    assert outcome(json_text, obj) == outcome(reference, obj)


@settings(max_examples=200, deadline=None)
@given(float_arrays(), st.integers(0, 3))
def test_float_arrays_at_any_depth(arr, depth):
    obj = arr
    for k in range(depth):
        obj = {"k": obj} if k % 2 else [obj, "x"]
    assert json_text(obj) == reference(obj)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [[], []], [[1.0], []], [1.0, [2.0]], [[1.0], 2.0],
    [[1.0, 2.0], [3.0]], [[math.nan, -math.inf], [math.inf, -0.0]],
    [[1.0, True]], [[1.0, 1]], [["ab"], ["cd"]], [[{0.5: 1.0}]],
    {1.5: "a", 2.5: "b"}, {True: 1, False: 2}, {None: [1.0]},
    np.float64(0.1), math.nan, "hé\x01\"\\\ud800",
])
def test_edge_cases(obj):
    assert json_text(obj) == reference(obj)


@pytest.mark.parametrize("obj", [
    {(1, 2): 3.0}, [np.int64(1)], [np.float32(0.5)], {"a": {1.0}},
    [[1.0, object()]], {1: 1, "a": 2}, [np.bool_(True)],
])
def test_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        json_text(obj)
