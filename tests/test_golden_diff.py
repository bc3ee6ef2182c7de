import json
import math

import pytest

import golden_diff


def _run(tmp_path, capsys, old, new):
    paths = []
    for name, document in (("old.json", old), ("new.json", new)):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(json.dumps(document), encoding="utf-8")
    code = golden_diff.main(paths)
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["key", "structure", "floats", "max_rel", "residuals", "max_rel_residual"]
    return code, {row[0]: row[1:] for row in rows[1:]}


def test_same_documents(tmp_path, capsys):
    document = {"a": [{"value": "0x1.8p+1", "vector": ["0x1.0p+0", "-0x0.0p+0"]}], "b": {"code": 0, "stdout": ""}}
    code, rows = _run(tmp_path, capsys, document, document)
    assert code == 0
    assert rows == {"a": ["same", "3", "0", "0", "0"], "b": ["same", "0", "0", "0", "0"]}


def test_hex_floats_are_decoded_and_residuals_reported_apart(tmp_path, capsys):
    old = {"z/x": [{"value": (1.0).hex(), "residual": (1e-16).hex()}]}
    new = {"z/x": [{"value": math.nextafter(1.0, 2.0).hex(), "residual": (3e-16).hex()}]}
    code, rows = _run(tmp_path, capsys, old, new)
    assert code == 0
    structure, floats, max_rel, residuals, max_rel_residual = rows["z/x"]
    assert (structure, floats, residuals) == ("same", "1", "1")
    assert float(max_rel) == pytest.approx(2.0**-52, rel=1e-2)
    assert float(max_rel_residual) == pytest.approx(2.0 / 3.0, rel=1e-2)


def test_cli_stdout_is_compared_as_json(tmp_path, capsys):
    def entry(value):
        return {"code": 0, "stdout": json.dumps({"pairs": [{"value": value, "residual": 1e-15}]}, indent=2) + "\n"}

    code, rows = _run(tmp_path, capsys, {"eigen": entry(2.0)}, {"eigen": entry(2.0 * (1 + 1e-9))})
    assert code == 0
    assert rows["eigen"][:2] == ["same", "1"] and float(rows["eigen"][2]) == pytest.approx(1e-9, rel=1e-3)


@pytest.mark.parametrize(
    "old, new, where",
    [
        ({"k": [1.0, 2.0]}, {"k": [1.0]}, "differs at : length 2 -> 1"),
        ({"k": {"code": 0, "stdout": "B\n"}}, {"k": {"code": 1, "stdout": "B\n"}}, "differs at /code: 0 -> 1"),
        ({"k": {"converged": True}}, {"k": {"converged": 1}}, "differs at /converged: True -> 1"),
    ],
)
def test_structure_change_fails(tmp_path, capsys, old, new, where):
    code, rows = _run(tmp_path, capsys, old, new)
    assert code == 1
    assert rows["k"][0] == where


def test_key_in_one_file_only(tmp_path, capsys):
    code, rows = _run(tmp_path, capsys, {"a": 1.0, "gone": 2.0}, {"a": 1.0, "added": 3.0})
    assert code == 1
    assert rows["gone"] == ["only in OLD"] and rows["added"] == ["only in NEW"]
