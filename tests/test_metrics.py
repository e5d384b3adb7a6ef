import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setnet.metrics import (EvalReport, harmonic_mean, per_class_accuracy,
                            per_class_top1, save_curves_csv, save_report, tnr_at_fnr)

from conftest import report_from_json
from oracles import per_class_top1_brute, tnr_at_fnr_brute


# ---------------------------------------------------------------------------
# per-class accuracy

def test_per_class_all_correct():
    assert per_class_top1([1, 2, 3], [1, 2, 3], [1, 2, 3]) == 1.0


def test_per_class_mean_is_class_weighted():
    preds = [0] * 10 + [0]
    labels = [0] * 10 + [1]
    assert per_class_top1(preds, labels, [0, 1]) == pytest.approx(0.5)
    # a per-sample mean would give 10/11
    assert per_class_top1(preds, labels, [0, 1]) != pytest.approx(10 / 11)


def test_per_class_skips_empty_classes():
    assert per_class_top1([0, 1], [0, 1], [0, 1, 2]) == 1.0
    assert 2 not in per_class_accuracy([0, 1], [0, 1], [0, 1, 2])


@pytest.mark.parametrize("seed", range(10))
def test_per_class_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 5, size=40)
    preds = rng.integers(0, 5, size=40)
    got = per_class_top1(preds, labels, range(5))
    assert got == pytest.approx(per_class_top1_brute(preds, labels, range(5)), abs=1e-12)
    perm = rng.permutation(40)
    assert per_class_top1(preds[perm], labels[perm], range(5)) == pytest.approx(got, abs=1e-12)


def test_per_class_errors():
    with pytest.raises(ValueError):
        per_class_top1([], [], [0])
    with pytest.raises(ValueError):
        per_class_top1([0], [5], [0, 1])
    with pytest.raises(ValueError):
        per_class_top1([0, 1], [0], [0, 1])


# ---------------------------------------------------------------------------
# harmonic mean

@pytest.mark.parametrize("u,s,expected", [(0.643, 0.694, 66.8),
                                          (0.618, 0.779, 68.9),
                                          (0.377, 0.345, 36.0)])
def test_harmonic_mean_reported_rows(u, s, expected):
    assert 100 * harmonic_mean(u, s) == pytest.approx(expected, abs=0.05)


def test_harmonic_mean_degenerate_cases():
    assert harmonic_mean(0.42, 0.42) == pytest.approx(0.42, abs=1e-12)
    assert harmonic_mean(0.0, 0.9) == 0.0
    assert harmonic_mean(0.0, 0.0) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1))
def test_harmonic_mean_bounds(u, s):
    h = harmonic_mean(u, s)
    assert 0 <= h <= 1
    assert h <= (u + s) / 2 + 1e-12
    assert h <= 2 * min(u, s) + 1e-12


def test_harmonic_mean_rejects_out_of_range():
    with pytest.raises(ValueError):
        harmonic_mean(1.2, 0.5)
    with pytest.raises(ValueError):
        harmonic_mean(0.5, -0.1)


# ---------------------------------------------------------------------------
# TNR@FNR

GRID = [0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.17, 0.19]


def test_tnr_perfect_separation():
    rng = np.random.default_rng(0)
    seen = rng.uniform(0.5, 1.0, size=40)
    unseen = rng.uniform(0.0, 0.4, size=30)
    for _, tnr in tnr_at_fnr(seen, unseen, GRID):
        assert tnr == 1.0


def test_tnr_exchangeable_lists():
    degrees = np.linspace(0.0, 1.0, 50)
    for fnr, tnr in tnr_at_fnr(degrees, degrees.copy(), GRID):
        assert abs(tnr - fnr) <= 1 / 50 + 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_tnr_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    seen = rng.normal(size=35)
    unseen = rng.normal(loc=-0.5, size=25)
    got = tnr_at_fnr(seen, unseen, GRID)
    want = tnr_at_fnr_brute(seen, unseen, GRID)
    for (fa, ta), (fb, tb) in zip(got, want):
        assert fa == fb
        assert ta == pytest.approx(tb, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_tnr_monotone_in_fnr(seed):
    rng = np.random.default_rng(seed)
    pairs = tnr_at_fnr(rng.normal(size=30), rng.normal(size=30), GRID)
    tnrs = [t for _, t in pairs]
    assert all(a <= b + 1e-12 for a, b in zip(tnrs, tnrs[1:]))


def test_tnr_rejects_empty():
    with pytest.raises(ValueError):
        tnr_at_fnr([], [0.1], GRID)
    with pytest.raises(ValueError):
        tnr_at_fnr([0.1], [], GRID)


# ---------------------------------------------------------------------------
# reports

def test_report_round_trip(tmp_path):
    report = EvalReport(acc=0.5, acc_seen=0.7, acc_unseen=0.4,
                        h=harmonic_mean(0.4, 0.7), per_class={3: 0.25, 1: 1.0},
                        tnr_at_fnr=[(0.05, 0.8)])
    path = tmp_path / "r.json"
    save_report(report, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"acc", "acc_seen", "acc_unseen", "h", "per_class", "tnr_at_fnr"}
    back = report_from_json(path.read_text())
    assert back.per_class == report.per_class
    assert back.h == report.h
    assert back.tnr_at_fnr == [(0.05, 0.8)]


def test_report_rejects_inconsistent_h():
    with pytest.raises(ValueError):
        EvalReport(acc_seen=0.6, acc_unseen=0.4, h=0.9)
    with pytest.raises(ValueError):
        EvalReport(acc=1.5)


def test_curves_csv(tmp_path):
    path = tmp_path / "c.csv"
    save_curves_csv([(0.05, 0.5), (0.07, 0.625)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "fnr,tnr"
    assert [tuple(map(float, ln.split(","))) for ln in lines[1:]] == [(0.05, 0.5), (0.07, 0.625)]
