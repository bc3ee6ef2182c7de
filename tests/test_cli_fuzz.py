"""In-process fuzz of the CLI boundary: whatever the tensor document and the argv, ``main``
returns 0, 1 or 2 and raises nothing.

The documents are dense and sparse tensors with entries up to 1e100 in magnitude, members
of either class scaled by 10**k for k in -100..98 (their entries stay near or below 1e100),
malformed documents (wrong types, keys, sizes and non-finite tokens) and documents nested
past the JSON decoder's recursion limit.
The argv covers every subcommand and its options, with ``--q``/``--x`` vectors drawn the same
way and a ``--manifest`` that is absent, writable, in a missing directory or a directory.
Start and sample counts are small, or over the entry cap at any dim (refused before anything
is drawn), never in between, where they would run real work.
Magnitudes stay far below 1e300, where the closed forms and the solvers are known to overflow.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btensor import Tensor
from btensor.cli import main
from btensor.structure import random_b0_tensor, random_b_tensor
from btensor.tensorio import dumps_tensor

MAGNITUDE = 1e100
DEEP = "[" * 100_000
NUMBERS = st.one_of(
    st.floats(-MAGNITUDE, MAGNITUDE, allow_nan=False),
    st.integers(-(10**6), 10**6),
    st.sampled_from([0.0, 1.0, -1.0, 1e-300, MAGNITUDE, -MAGNITUDE]),
)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=12,
)
# Text that is not a JSON document, or holds numbers JSON has no finite value for.
BAD_TEXT = st.sampled_from(["", "{", "[1,", "NaN", "[Infinity]", "1e999", '"x"', "[true]", "[[1]]", "{}", "-"])


@st.composite
def documents(draw):
    order, dim = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    form = draw(st.sampled_from(["dense", "sparse", "member", "malformed", "deep"]))
    if form == "dense":
        size = draw(st.sampled_from([dim**order, dim**order, dim**order - 1]))
        dense = draw(st.lists(NUMBERS, min_size=size, max_size=size))
        return json.dumps({"order": order, "dim": dim, "dense": dense})
    if form == "sparse":
        index = st.lists(st.integers(0, dim + 1), min_size=order, max_size=order)
        entries = draw(st.lists(st.tuples(index, NUMBERS).map(list), max_size=6))
        doc = {"order": order, "dim": dim, "entries": entries}
        if draw(st.booleans()):
            doc["entries_default"] = draw(NUMBERS)
        return json.dumps(doc)
    if form == "member":
        generate = draw(st.sampled_from([random_b_tensor, random_b0_tensor]))
        tensor = generate(order, dim, np.random.default_rng(draw(st.integers(0, 99))))
        return dumps_tensor(Tensor(tensor.array * 10.0 ** draw(st.integers(-100, 98))))
    if form == "malformed":
        doc = {"order": order, "dim": dim, "dense": [1.0] * dim**order}
        key = draw(st.sampled_from(["order", "dim", "dense", "entries", "entries_default"]))
        doc[key] = draw(JSON_VALUES)
        return draw(st.one_of(st.just(json.dumps(doc)), JSON_VALUES.map(json.dumps), BAD_TEXT))
    return draw(st.sampled_from([DEEP, '{"order": 2, "dim": 2, "entries": ' + DEEP + "}", "[" * 999 + "]" * 999]))


def vectors(dim):
    """A JSON vector of length dim (two draws in five), of another length, or bad text."""
    good = st.lists(NUMBERS, min_size=dim, max_size=dim).map(json.dumps)
    return st.one_of(good, good, st.lists(NUMBERS, max_size=4).map(json.dumps), BAD_TEXT, st.just(DEEP))


# Counts over core.ENTRY_LIMIT (2**24) at dim 1, so over it at every dim.
OVER_CAP = st.integers(2**24 + 1, 10**18)
TOLS = st.sampled_from(["0", "1e-9", "0.5", "-1", "nan", "inf"])


@st.composite
def commands(draw):
    """The argv after the global options, for one of the subcommands; ``WORKDIR`` stands for
    the directory that holds the tensor file ``tensor.json``."""
    file = "WORKDIR/tensor.json"
    command = draw(st.sampled_from(["classify", "semipositive", "bounds", "eigen", "tcp", "gen", "verify-paper"]))
    seed = ["--seed", str(draw(st.integers(0, 9)))]
    if command == "classify":
        return ["classify", file, "--tol", draw(TOLS)]
    if command == "semipositive":
        mode = draw(st.sampled_from(["strict", "weak"]))
        return ["semipositive", file, "--mode", mode, "--grid", str(draw(st.integers(-1, 6)))]
    if command == "bounds":
        argv = ["bounds", file, "--op", draw(st.sampled_from("TF")), "--format", draw(st.sampled_from(["json", "csv"]))]
        p = draw(st.sampled_from(["inf", "1", "1.5", "2", "3", "0.5", "nan"]))
        argv += ["--norm", "inf"] if p == "inf" else ["--norm", "p", "--p", p]
        if draw(st.booleans()):
            samples, steps = draw(st.one_of(st.integers(1, 8), OVER_CAP)), draw(st.integers(-1, 3))
            argv += ["--estimate", "--samples", str(samples), "--steps", str(steps)]
        return argv + seed
    if command == "eigen":
        starts = draw(st.one_of(st.integers(-1, 6), OVER_CAP))
        argv = ["eigen", file, "--kind", draw(st.sampled_from("hz")), "--starts", str(starts)]
        return argv + (["--verify-bounds"] if draw(st.booleans()) else []) + seed
    if command == "tcp":
        sub = draw(st.sampled_from(["solve", "bounds", "verify"]))
        dim = draw(st.integers(1, 3))
        argv = ["tcp", sub, file, "--q", draw(vectors(dim))]
        if sub == "solve":
            argv += ["--starts", str(draw(st.one_of(st.integers(1, 4), OVER_CAP)))] + seed
        if sub != "bounds":
            argv += ["--tol", draw(TOLS)]
        if sub == "verify":
            argv += ["--x", draw(vectors(dim))]
        return argv
    if command == "gen":
        kind = draw(st.sampled_from(["B", "B0", "diagonal", "random"]))
        argv = ["gen", "--m", str(draw(st.integers(0, 5))), "--n", str(draw(st.integers(0, 4))), "--kind", kind]
        return argv + seed + (["--out", "WORKDIR/gen.json"] if draw(st.booleans()) else [])
    return ["verify-paper"] + seed


MANIFESTS = st.sampled_from([None, "manifest.json", "absent/manifest.json", "."])


def run(text, manifest, argv):
    with tempfile.TemporaryDirectory() as workdir:
        Path(workdir, "tensor.json").write_text(text, encoding="utf-8")
        argv = [part.replace("WORKDIR", workdir) for part in argv]
        options = [] if manifest is None else ["--manifest", str(Path(workdir, manifest))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(options + argv)
        written = manifest is not None and Path(workdir, manifest).is_file()
    return code, out.getvalue(), err.getvalue(), written


@given(text=documents(), manifest=MANIFESTS, argv=commands())
@example(text=DEEP, manifest=None, argv=["classify", "WORKDIR/tensor.json"])
@example(text=dumps_tensor(random_b_tensor(4, 3, np.random.default_rng(0))), manifest=None,
         argv=["tcp", "verify", "WORKDIR/tensor.json", "--q", "[-1,-1,-1]", "--x", DEEP])
@example(text="{}", manifest="absent/manifest.json", argv=["verify-paper"])
@example(text="{}", manifest=".", argv=["gen", "--m", "3", "--n", "2"])
@example(text=dumps_tensor(random_b_tensor(4, 3, np.random.default_rng(0))), manifest=None,
         argv=["eigen", "WORKDIR/tensor.json", "--kind", "h", "--starts", str(10**15)])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_main_exits_0_1_or_2_and_never_raises(text, manifest, argv):
    code, out, err, written = run(text, manifest, argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.splitlines()[-1].startswith("error: ")
    elif out and "csv" not in argv and argv[0] != "gen":
        json.loads(out)
    if code == 0 and manifest is not None:
        assert written
