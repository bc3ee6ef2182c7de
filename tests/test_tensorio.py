import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btensor import Tensor
from btensor.tensorio import (
    TensorFormatError,
    dump_tensor,
    dumps_tensor,
    load_tensor,
    loads_tensor,
    tensor_from_obj,
)

from oracles import naive_sparse_tensor


def test_dense_form_round_trip(tmp_path):
    tensor = Tensor.from_flat(3, 2, np.arange(8.0))
    path = tmp_path / "t.json"
    dump_tensor(tensor, path)
    again = load_tensor(path)
    assert np.array_equal(again.array, tensor.array)
    second = tmp_path / "t2.json"
    dump_tensor(again, second)
    assert path.read_bytes() == second.read_bytes()


def test_sparse_form_fills_default():
    obj = {
        "order": 2,
        "dim": 2,
        "entries_default": 7.0,
        "entries": [[[1, 2], -1.0]],
    }
    tensor = tensor_from_obj(obj)
    assert tensor.array[0, 1] == -1.0
    assert tensor.array[0, 0] == 7.0
    assert tensor.array[1, 1] == 7.0


def test_bundled_example_matches_dense_reconstruction(ex41):
    # Rebuild ex41 densely from its defining entries and compare.
    arr = np.full((3, 3, 3, 3), 2.0)
    arr[0, 0, 0, 0] = 6.0
    arr[1, 1, 1, 1] = 5.0
    arr[2, 2, 2, 2] = 6.0
    for idx in [(0, 2, 2, 2), (2, 0, 2, 2), (2, 2, 0, 2), (2, 2, 2, 0)]:
        arr[idx] = 1.0
    for idx in [(1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2), (2, 1, 1, 1)]:
        arr[idx] = 1.5
    assert np.array_equal(ex41.array, arr)


def test_loads_reports_json_location():
    with pytest.raises(TensorFormatError, match="line 1"):
        loads_tensor("{not json")


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000, '{"order": 3, "dim": 2, "entries": ' + "[" * 100_000 + "}", "[" * 5000 + "]" * 5000],
    ids=["open-lists", "under-entries", "balanced"],
)
def test_nesting_beyond_the_decoder_is_a_format_error(text):
    # The decoder raised RecursionError on these, which escaped as a traceback.
    with pytest.raises(TensorFormatError, match="^JSON is nested too deeply to decode$"):
        loads_tensor(text)


@pytest.mark.parametrize(
    "obj,message",
    [
        ({"dim": 2, "dense": [0.0] * 4}, "missing required key 'order'"),
        ({"order": 2, "dim": 2}, "either 'dense' or 'entries'"),
        ({"order": 2, "dim": 2, "dense": [0.0] * 3}, "must hold 4 numbers"),
        ({"order": 1, "dim": 2, "dense": [0.0] * 2}, "'order' must be an integer >= 2"),
        (
            {"order": 2, "dim": 2, "entries": [[[1, 3], 1.0]]},
            "index component 1 must be in 1..2",
        ),
        ({"order": 2, "dim": 2, "entries": [[[1], 1.0]]}, "index needs 2 components"),
        ({"order": 2, "dim": 2, "entries": [[1.0]]}, "expected"),
        ([1, 2], "must be an object"),
        ({"order": 3, "dim": 2, "entries": {}}, r"'entries' must be a list of \[index, value\] pairs"),
        ({"order": 2, "dim": 2, "entries_default": "1", "entries": []}, "'entries_default' must be a number, got '1'"),
        ({"order": 2, "dim": 2, "entries_default": True, "entries": []}, "'entries_default' must be a number, got T"),
    ],
)
def test_format_errors(obj, message):
    with pytest.raises(TensorFormatError, match=message):
        tensor_from_obj(obj)


BIG_INT = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"order": 2, "dim": 1, "dense": [NaN]}', "'dense' entries must be finite"),
        ('{"order": 2, "dim": 1, "dense": [-Infinity]}', "'dense' entries must be finite"),
        ('{"order": 2, "dim": 1, "dense": [1e400]}', "'dense' entries must be finite"),
        ('{"order": 2, "dim": 1, "dense": [%s]}' % BIG_INT, "'dense' entries must be finite"),
        ('{"order": 2, "dim": 1, "dense": ["3"]}', "'dense' must be a list of numbers"),
        ('{"order": 2, "dim": 1, "entries": [[[1, 1], NaN]]}', "entry 0: value must be a finite"),
        ('{"order": 2, "dim": 1, "entries": [[[1, 1], Infinity]]}', "entry 0: value must be a finite"),
        ('{"order": 2, "dim": 1, "entries": [[[1, 1], %s]]}' % BIG_INT, "entry 0: value must be a finite"),
        ('{"order": 2, "dim": 1, "entries_default": NaN, "entries": []}', "'entries_default' must be a finite"),
        ('{"order": 2, "dim": 1, "entries_default": -Infinity, "entries": []}', "'entries_default' must be a finite"),
    ],
    ids=["dense-nan", "dense-neg-inf", "dense-overflow", "dense-big-int", "dense-string", "entry-nan", "entry-inf",
         "entry-big-int", "default-nan", "default-neg-inf"],
)
def test_non_finite_entries_rejected(text, message):
    with pytest.raises(TensorFormatError, match=message):
        loads_tensor(text)


def test_dumps_is_valid_json(ex42):
    decoded = json.loads(dumps_tensor(ex42))
    assert decoded["order"] == 4
    assert decoded["dim"] == 4
    assert len(decoded["dense"]) == 256


GOOD_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**1000), 2**1000))
BAD_PARTS = st.one_of(
    st.integers(-3, 6), st.booleans(), st.floats(0.0, 4.0), st.sampled_from([2**63, -(2**64), 10**400, "1", None])
)
BAD_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**309)]),
    st.floats(),
    st.sampled_from([True, "1.0", None, [1.0]]),
)
BAD_ENTRIES = st.one_of(st.just([]), st.tuples(st.just([1, 1]), GOOD_VALUES), st.floats(), st.lists(st.integers(1, 3)))


@st.composite
def sparse_documents(draw):
    """A sparse document of order 2-4 and dim 1-3 whose entries repeat positions, with up to
    two entries then given one flaw each: the entry, the index length, an index part or the value."""
    order, dim = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    index = st.lists(st.integers(1, dim), min_size=order, max_size=order)
    entries = draw(st.lists(st.tuples(index, GOOD_VALUES).map(list), max_size=12))
    for pos in draw(st.sets(st.integers(0, len(entries) - 1), max_size=2)) if entries else ():
        parts, value = list(entries[pos][0]), entries[pos][1]
        flaw = draw(st.sampled_from(["entry", "length", "part", "value"]))
        if flaw == "entry":
            entries[pos] = draw(BAD_ENTRIES)
            continue
        if flaw == "length":
            parts = draw(st.lists(st.integers(1, dim), max_size=order + 2).filter(lambda p: len(p) != order))
        elif flaw == "part":
            parts[draw(st.integers(0, order - 1))] = draw(st.one_of(st.sampled_from([0, dim + 1]), BAD_PARTS))
        else:
            value = draw(BAD_VALUES)
        entries[pos] = [parts, value]
    return {"order": order, "dim": dim, "entries_default": draw(st.floats(-10.0, 10.0)), "entries": entries}


@given(doc=sparse_documents())
@example(doc={"order": 2, "dim": 2, "entries_default": 1.0, "entries": []})
@example(doc={"order": 2, "dim": 2, "entries": [[[1, 2], 3.0], [[2, 1], 4], [[1, 2], -5.0]]})
@settings(max_examples=500, deadline=None)
def test_sparse_form_matches_entry_by_entry_oracle(doc):
    """The same tensor (the last of repeated positions wins) or the same message for the first bad entry."""
    order, dim, entries = doc["order"], doc["dim"], doc["entries"]
    try:
        expected = naive_sparse_tensor(order, dim, doc.get("entries_default", 0.0), entries)
    except ValueError as exc:
        with pytest.raises(TensorFormatError) as raised:
            tensor_from_obj(doc)
        assert str(raised.value) == str(exc)
    else:
        assert np.array_equal(tensor_from_obj(doc).array, expected)
