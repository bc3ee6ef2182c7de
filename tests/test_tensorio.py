import json

import numpy as np
import pytest

from btensor import Tensor
from btensor.tensorio import (
    TensorFormatError,
    dump_tensor,
    dumps_tensor,
    load_tensor,
    loads_tensor,
    tensor_from_obj,
)


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
        ('{"order": 2, "dim": 1, "entries": [[[1, 1], NaN]]}', "entry 0: value must be a finite"),
        ('{"order": 2, "dim": 1, "entries": [[[1, 1], Infinity]]}', "entry 0: value must be a finite"),
        ('{"order": 2, "dim": 1, "entries": [[[1, 1], %s]]}' % BIG_INT, "entry 0: value must be a finite"),
        ('{"order": 2, "dim": 1, "entries_default": NaN, "entries": []}', "'entries_default' must be a finite"),
        ('{"order": 2, "dim": 1, "entries_default": -Infinity, "entries": []}', "'entries_default' must be a finite"),
    ],
    ids=["dense-nan", "dense-neg-inf", "dense-overflow", "dense-big-int", "entry-nan", "entry-inf",
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
