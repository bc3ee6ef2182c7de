import numpy as np

import recall_sweep
from btensor import spectral
from btensor.spectral import EigenPair


def _pair(value, vector):
    return EigenPair(kind="H", value=value, vector=np.array(vector), residual=0.0)


def test_pairs_match_within_the_value_and_vector_tolerances():
    kept = [_pair(2.0, [1.0, 0.5])]
    near = [_pair(2.0 + 0.5e-9, [1.0, 0.5 + 0.5e-6])]
    assert recall_sweep.unmatched(near, kept) == []
    far_value = _pair(2.0 + 2e-9, [1.0, 0.5])
    far_vector = _pair(2.0, [1.0, 0.5 + 2e-6])
    assert recall_sweep.unmatched([far_value, far_vector], kept) == [far_value, far_vector]
    assert recall_sweep.unmatched(kept, []) == kept


def test_a_vector_matches_its_negative():
    # An H pair near (1, -1, 0, 0) whose two largest |components| tie: its canonical sign
    # (largest component positive) flips with the last bits, as spectral's dedup allows.
    kept = [_pair(2.0, [1.0, -1.0, 1e-8, 0.0])]
    flipped = _pair(2.0 + 0.5e-9, [-1.0 + 0.5e-6, 1.0, -1e-8, 0.5e-6])
    assert recall_sweep.unmatched([flipped], kept) == []
    assert recall_sweep.unmatched(kept, [flipped]) == []
    # The negative must be as close as the vector: a flipped vector 2e-6 away stays unmatched.
    far = _pair(2.0, [-1.0 + 2e-6, 1.0, 0.0, 0.0])
    assert recall_sweep.unmatched([far], kept) == [far]
    # The negative at another value is another pair.
    other = _pair(-2.0, [-1.0, 1.0, -1e-8, 0.0])
    assert recall_sweep.unmatched([other], kept) == [other]


def test_seed_ranges():
    assert recall_sweep._seed_range("1-12") == range(1, 13)
    assert recall_sweep._seed_range("5") == range(5, 6)


def test_prints_a_total_per_kind_and_overall(capsys):
    assert recall_sweep.main(["--members", "1"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert rows[0][:6] == ["search", "kind", "pairs", "lost", "gained", "bits"]
    totals = [row for row in rows if row[0] == "total"]
    assert [row[1] for row in totals] == ["H", "Z", "all"]
    assert all(row[-1].endswith(f"of {6 if row[1] == 'all' else 3} differ") for row in totals)
    # Each total counts the pairs of the searches without the early stop, and the overall sums the kinds.
    assert int(totals[2][2]) == int(totals[0][2]) + int(totals[1][2]) > 0


def test_compares_the_shipped_limits_with_no_early_stop(monkeypatch, capsys):
    # Without the early stop the line search halves down to 1e-10.
    seen = []
    monkeypatch.setattr(recall_sweep, "_search", lambda search, tensor, seed, limits: seen.append(limits) or [])
    recall_sweep.sweep([("tensor", None, 0)])
    shipped = spectral.NEWTON_LIMITS
    assert seen == [shipped[:2] + (1e-10,), shipped] * 2
