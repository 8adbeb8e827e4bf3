"""Pins of the small-model census (`census.py`): its shapes, its table and
model counts, every label through the K = 1 census, and the digests of the
K = 2 models."""

import hashlib
from fractions import Fraction
from itertools import product

from census import census_models, shapes
from wdexp.bounds import SWEEP_FAMILIES, SweepSummary, checks_for_pair
from wdexp.model import validate_model
from wdexp.rep import reps

# sha256 of the digests of the K = 2 census's valid models, one per line in
# census order.
CENSUS_K2_SHA256 = "eed8dee1c8c4b1f34d511216528c86d17c4cd68da2c4a2c79ca4bae3c843f54a"


def test_the_shape_grid():
    grid = shapes()
    assert len(grid) == 19 and grid == sorted(grid)
    assert (3, Fraction(1, 2), 1) not in grid and (2, Fraction(3, 2), 2) in grid
    assert shapes((1,), (0, 1)) == [(1, 0, 1), (1, 1, 1)]


def test_census_k1_whole():
    # 116 tables, 65 models, and on each model every ordered pair of
    # representations with <= 2 terms of Sp-length <= 2 through all six
    # families: no violation, and these equalities.  Every table carries
    # the flags `validate_model` checks, valid or not.
    tables = list(census_models(1))
    reports = [validate_model(m) for m in tables]
    assert not [v for r in reports for v in r.violations if v.axiom.startswith("flag_")]
    valid = [m for m, r in zip(tables, reports) if r.ok]
    assert (len(tables), len(valid)) == (116, 65)
    summary, rows = SweepSummary(), 0
    for m in valid:
        xs = reps(m, 2, 2)
        for x, y in product(xs, xs):
            for r in checks_for_pair(tuple(SWEEP_FAMILIES), x, y, m):
                summary.record(r)
                rows += 1
    assert (rows, summary.total_violations()) == (78_260, 0)
    assert summary.equalities == {
        "A": 286, "AS": 2750, "B": 1430, "B_indec": 520, "BS": 4340, "BS_irr": 164,
        "C": 3412, "C_irr": 195, "CS": 7880, "CS_irr": 212}


def test_census_k2_counts_and_digests(census_counterexample):
    # 61,432 tables and 4,125 models; the smallest counterexample is one.
    tables = valid = 0
    digests = []
    for m in census_models(2):
        tables += 1
        if validate_model(m).ok:
            valid += 1
            digests.append(m.digest())
    assert (tables, valid) == (61_432, 4_125)
    assert census_counterexample.digest() in digests
    text = "".join(d + "\n" for d in digests)
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_K2_SHA256
