import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setnet import diffmath as dm
from setnet.errors import NotCalibratedError
from setnet.ood import (Domain, calibrate_theta, confidence, detect,
                        disagreement, disagreement_degree, export_degrees_csv, init_ddm,
                        partition_classes)
from setnet.train import detector_degrees

from conftest import (bundle_of, fold_ids_of, fold_params, ragged_chunks, ragged_ensemble,
                      set_chunk_rows, stacked_batch, subddm_loss_and_grads)
from oracles import (calibrate_theta_brute, confidence_brute, cross_entropy_two_pass,
                     disagreement_brute, kl_to_uniform_brute, softmax_two_pass,
                     subddm_loss_per_fold)


# ---------------------------------------------------------------------------
# fold partitioning

def test_partition_even_split():
    folds = partition_classes(range(10), 5, seed=0)
    assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 2]
    assert sorted(c for fold in folds for c in fold) == list(range(10))


def test_partition_round_robin_sizes():
    folds = partition_classes(range(7), 5, seed=1)
    assert [len(f) for f in folds] == [2, 2, 1, 1, 1]


def test_partition_deterministic():
    a = partition_classes(range(9), 4, seed=7)
    b = partition_classes(range(9), 4, seed=7)
    assert a == b
    c = partition_classes(range(9), 4, seed=8)
    assert a != c  # overwhelmingly likely for 9 classes


def test_partition_errors():
    with pytest.raises(ValueError):
        partition_classes(range(5), 1, seed=0)
    with pytest.raises(ValueError):
        partition_classes(range(3), 4, seed=0)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 40), st.integers(2, 10), st.integers(0, 2**31 - 1))
def test_partition_covers_disjointly(n, fold_count, seed):
    if fold_count > n:
        fold_count = n
    ids = list(range(100, 100 + n))
    folds = partition_classes(ids, fold_count, seed)
    assert len(folds) == fold_count
    assert sorted(c for fold in folds for c in fold) == ids
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# sub-detector loss

def make_ensemble(rng, in_dim=6, hidden=8, ids=(0, 1, 2)):
    """Two folds with ID classes ``ids``; fold 0 draws from ``rng`` and is
    the one the single-fold tests use, fold 1 is a bystander."""
    return init_ddm([ids, ids], in_dim, hidden, [rng, np.random.default_rng(0)])


def stacked_loss(e, chunks, pad=0):
    """subddm_loss of ``e`` for one chunk per fold."""
    return subddm_loss_and_grads(e, *stacked_batch(e, chunks, pad))


def zero_fold(e, i=0):
    for p in e.parameters().values():
        p[i] = 0


def test_subddm_loss_saturated_ce():
    rng = np.random.default_rng(0)
    e = make_ensemble(rng, ids=(4, 9))
    zero_fold(e)
    e.b2[0] = [50.0, 0.0]
    feats = rng.normal(size=(3, 6))
    losses, _ = stacked_loss(e, [(feats, [4, 4, 4], np.empty((0, 6))), None])
    assert losses.shape == (2,)
    assert losses[0] < 1e-6


def test_subddm_loss_uniform_ood_is_zero():
    rng = np.random.default_rng(1)
    e = make_ensemble(rng)
    e.w2[0] = 0
    e.b2[0] = 0
    losses, grads = stacked_loss(e, [(np.empty((0, 6)), [], rng.normal(size=(4, 6))), None])
    assert losses[0] == pytest.approx(0.0, abs=1e-12)
    assert all(np.all(np.isfinite(g)) for g in grads.values())


@pytest.mark.parametrize("seed", range(10))
def test_subddm_loss_matches_per_sample_oracle(seed):
    rng = np.random.default_rng(seed)
    e = make_ensemble(rng)
    sub = fold_params(e, 0)
    id_feats = rng.normal(size=(5, 6))
    id_labels = rng.choice([0, 1, 2], size=5)
    ood_feats = rng.normal(size=(3, 6))
    losses, _ = stacked_loss(e, [(id_feats, id_labels, ood_feats), None])
    loss = losses[0]

    def forward(x):
        hidden = [max(0.0, sum(x[i] * sub["w1"][i, j] for i in range(6)) + sub["b1"][j])
                  for j in range(sub["w1"].shape[1])]
        return [sum(hidden[j] * sub["w2"][j, k] for j in range(len(hidden))) + sub["b2"][k]
                for k in range(sub["b2"].shape[0])]

    want = 0.0
    for x, y in zip(id_feats, id_labels):
        want += cross_entropy_two_pass(forward(x), int(np.nonzero(sub["ids"] == y)[0][0])) / 5
    for x in ood_feats:
        want += kl_to_uniform_brute(softmax_two_pass(forward(x))) / 3
    assert loss == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("finished", [None, 0, 2])
def test_stacked_loss_matches_per_fold_oracle(seed, finished):
    rng = np.random.default_rng([seed, 0x57AC])
    e = ragged_ensemble(rng)
    chunks = ragged_chunks(rng, e, finished)
    losses, grads = stacked_loss(e, chunks, pad=2)
    assert sorted(e.class_counts.tolist()) == [3, 3, 4]
    assert losses.shape == (3,)
    assert set(grads) == set(e.parameters())
    for i, chunk in enumerate(chunks):
        n = e.class_counts[i]
        if chunk is None:  # a finished fold does not move
            assert losses[i] == 0.0
            assert all(not np.any(g[i]) for g in grads.values())
            continue
        want, want_grads = subddm_loss_per_fold(fold_params(e, i), *chunk)
        assert abs(losses[i] - want) <= 1e-12
        for name, g in want_grads.items():
            got = grads[name][i][..., :n] if name in ("w2", "b2") else grads[name][i]
            assert np.abs(got - g).max() <= 1e-12, name
        # padded output columns get exactly no gradient
        assert not np.any(grads["w2"][i][:, n:]) and not np.any(grads["b2"][i][n:])


@pytest.mark.parametrize("seed", range(20))
def test_subddm_loss_grad_check(seed):
    rng = np.random.default_rng([seed, 0xBD])
    e = make_ensemble(rng)
    id_feats = rng.normal(size=(4, 6))
    id_labels = rng.choice([0, 1, 2], size=4)
    ood_feats = rng.normal(size=(3, 6))
    # keep hidden pre-activations off the ReLU kink at the probe
    z1 = np.concatenate([id_feats, ood_feats]) @ e.w1[0] + e.b1[0]
    if np.abs(z1).min() < 1e-3:
        e.b1[0] += 2e-3
    batch = stacked_batch(e, [(id_feats, id_labels, ood_feats), None])

    def loss_fn(p):  # p holds e's own arrays, which grad_check perturbs
        losses, grads = subddm_loss_and_grads(e, *batch)
        return float(losses.sum()), grads

    err = dm.grad_check(loss_fn, e.parameters(), eps=1e-4)
    assert err <= 1e-4


def test_subddm_loss_label_outside_id_set():
    rng = np.random.default_rng(2)
    e = make_ensemble(rng, ids=(1, 2))
    with pytest.raises(IndexError):
        stacked_loss(e, [(rng.normal(size=(1, 6)), [5], np.empty((0, 6))), None])
    e = ragged_ensemble(rng)
    feats = rng.normal(size=(3, 1, 6))
    labels = np.array([[0], [e.class_counts[1]], [0]])  # one past fold 1's last class
    with pytest.raises(IndexError):
        subddm_loss_and_grads(e, feats, labels, np.ones((3, 1)))


# ---------------------------------------------------------------------------
# confidence

def test_confidence_one_hot_is_one():
    rng = np.random.default_rng(3)
    e = make_ensemble(rng, ids=(0, 1))
    zero_fold(e)
    e.b2[0] = [50.0, 0.0]
    assert confidence(e, np.zeros((1, 6)))[0, 0] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("c", [2, 3, 5])
def test_confidence_uniform_closed_form(c):
    rng = np.random.default_rng(4)
    e = make_ensemble(rng, ids=tuple(range(c)))
    e.w2[0] = 0
    e.b2[0] = 0
    got = confidence(e, rng.normal(size=(1, 6)))[0, 0]
    assert got == pytest.approx(1 / c - math.log(c), abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_confidence_at_most_one(seed):
    rng = np.random.default_rng(seed)
    e = make_ensemble(rng)
    feat = rng.normal(scale=3, size=6)
    got = confidence(e, feat[None])[0]
    assert got.shape == (2,)
    for i, score in enumerate(got):
        assert score <= 1.0 + 1e-12
        probs = dm.softmax(np.maximum(feat @ e.w1[i] + e.b1[i], 0.0) @ e.w2[i] + e.b2[i])
        assert score == pytest.approx(confidence_brute(probs), abs=1e-12)


@pytest.mark.parametrize("batch", [1, 7, 64])
def test_batched_confidence_matches_per_row(batch):
    rng = np.random.default_rng([batch, 0xC0F])
    e = make_ensemble(rng)
    feats = rng.normal(scale=3, size=(batch, 6))
    got = confidence(e, feats)
    assert got.shape == (batch, 2)
    np.testing.assert_allclose(got, [confidence(e, f[None])[0] for f in feats], rtol=0, atol=1e-12)


def test_confidence_dim_mismatch():
    e = make_ensemble(np.random.default_rng(5))
    with pytest.raises(ValueError):
        confidence(e, np.zeros((1, 7)))


def test_a_detector_refuses_features_with_other_channels():
    e = init_ddm([[0, 1], [1, 2]], 8, 4, [np.random.default_rng(5)] * 2)
    with pytest.raises(ValueError, match="^channel mismatch: features have 6 channels, "
                                         "the detector takes 8$"):
        disagreement_degree(e, np.zeros((1, 6)))


# ---------------------------------------------------------------------------
# disagreement

def test_disagreement_all_equal_is_zero():
    assert disagreement([[0.4, 0.4, 0.4]])[0] == pytest.approx(0.0, abs=1e-15)


def test_disagreement_frozen_example():
    assert disagreement([[0.9, 0.8, 0.7, 0.6, 0.1]])[0] == pytest.approx(0.65, abs=1e-12)


def test_disagreement_two_scores_is_range():
    assert disagreement([[0.3, 0.7]])[0] == pytest.approx(0.4, abs=1e-12)


def test_disagreement_needs_two():
    with pytest.raises(ValueError):
        disagreement([[0.5]])
    with pytest.raises(ValueError):
        disagreement([[0.5], [0.4]])


def test_disagreement_of_a_batch_is_per_row():
    rng = np.random.default_rng(11)
    scores = rng.uniform(-2, 1, size=(9, 5))
    got = disagreement(scores)
    assert got.shape == (9,)
    assert got.tolist() == [disagreement(row[None])[0] for row in scores]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=9), st.floats(-3, 3))
def test_disagreement_properties(scores, shift):
    d = disagreement([scores])[0]
    assert d >= -1e-12
    assert d == pytest.approx(disagreement_brute(scores), abs=1e-12)
    rng = np.random.default_rng(0)
    assert disagreement([rng.permutation(scores)])[0] == pytest.approx(d, abs=1e-12)
    assert disagreement([np.asarray(scores) + shift])[0] == pytest.approx(d, abs=1e-9)
    if d <= 1e-12:
        assert max(scores) - min(scores) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# calibration and detection

def test_calibrate_quantile_rule():
    degrees = [0.1 * k for k in range(1, 11)]
    theta = calibrate_theta(degrees, 0.2)
    assert theta == pytest.approx(0.3, abs=1e-12)
    flagged = [d for d in degrees if d < theta]
    assert flagged == pytest.approx([0.1, 0.2])


def test_calibrate_tiny_target_flags_none():
    degrees = [0.5, 0.2, 0.9, 0.4]
    theta = calibrate_theta(degrees, 1e-9)
    assert theta == 0.2
    assert sum(d < theta for d in degrees) == 0


def test_calibrate_identical_degrees():
    theta = calibrate_theta([0.7] * 5, 0.15)
    assert theta == 0.7
    assert sum(d < theta for d in [0.7] * 5) == 0


def test_calibrate_errors():
    with pytest.raises(ValueError):
        calibrate_theta([], 0.1)
    with pytest.raises(ValueError):
        calibrate_theta([0.1], 0.0)
    with pytest.raises(ValueError):
        calibrate_theta([0.1], 1.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 60), st.floats(0.01, 0.99), st.integers(0, 2**31 - 1))
def test_calibrate_flags_floor_fraction(n, target, seed):
    rng = np.random.default_rng(seed)
    degrees = rng.permutation(np.linspace(0.0, 1.0, n))  # distinct values
    theta = calibrate_theta(degrees, target)
    assert theta == pytest.approx(calibrate_theta_brute(degrees, target), abs=0)
    flagged = int((degrees < theta).sum())
    assert flagged == math.floor(n * target)


def fixed_ensemble(theta=None):
    e = init_ddm([(0, 1, 2)] * 3, 6, 8, [np.random.default_rng([6, i]) for i in range(3)])
    return dataclasses.replace(e, theta=theta)  # the constructor checks theta


def test_detect_boundary_is_seen():
    e = fixed_ensemble()
    feat = np.random.default_rng(7).normal(size=6)
    d = disagreement_degree(e, feat[None])[0]
    e.theta = d
    assert detect(e, feat) is Domain.SEEN
    e.theta = d + 1e-9
    assert detect(e, feat) is Domain.UNSEEN


def test_detect_equal_confidences_flag_unseen():
    e = fixed_ensemble(theta=0.1)
    for i in range(3):
        zero_fold(e, i)  # every sub-detector outputs the same uniform prediction
    feat = np.random.default_rng(8).normal(size=6)
    assert disagreement_degree(e, feat[None])[0] == pytest.approx(0.0, abs=1e-12)
    assert detect(e, feat) is Domain.UNSEEN


@pytest.mark.parametrize("batch", [1, 7, 64])
def test_batched_degree_matches_per_sample(batch):
    e = fixed_ensemble()
    feats = np.random.default_rng([batch, 0xDE6]).normal(scale=2, size=(batch, 6))
    assert confidence(e, feats).shape == (batch, 3)
    degrees = disagreement_degree(e, feats)
    assert degrees.shape == (batch,)
    np.testing.assert_allclose(degrees, [disagreement_degree(e, f[None])[0] for f in feats],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("batch", [257, 513])  # past one and two chunks of 256 rows
def test_chunked_degree_matches_one_forward_and_rows(batch, monkeypatch):
    e = fixed_ensemble()
    feats = np.random.default_rng([batch, 0xC4D]).normal(scale=2, size=(batch, 6))
    feats = feats.astype(np.float32)  # as a bundle holds them
    bundle, rows = bundle_of(feats[:, None, None]), np.arange(batch)  # 1x1 maps: the mean is feats
    set_chunk_rows(monkeypatch, 256, bundle.map_shape)
    degrees = detector_degrees(e, bundle, rows)
    # numpy multiplies a lone row with its matrix-vector kernel, which sums in
    # another order, so row by row agrees only to about one unit in the last place
    np.testing.assert_allclose(degrees, [disagreement_degree(e, f[None])[0] for f in feats],
                               rtol=0, atol=1e-15)
    set_chunk_rows(monkeypatch, batch, bundle.map_shape)  # the whole batch in one forward
    assert np.array_equal(detector_degrees(e, bundle, rows), degrees)
    assert np.array_equal(disagreement_degree(e, feats), degrees)
    set_chunk_rows(monkeypatch, 4, bundle.map_shape)
    for n in range(2, 30):  # even chunks of 2 to 4 rows: no lone row
        assert np.array_equal(detector_degrees(e, bundle, rows[:n]), degrees[:n])


def test_detect_takes_one_feature_only():
    e = fixed_ensemble(theta=0.1)
    with pytest.raises(ValueError):
        detect(e, np.zeros((2, 6)))


def test_detect_uncalibrated_raises():
    e = fixed_ensemble()
    with pytest.raises(NotCalibratedError):
        detect(e, np.zeros(6))


def test_ensemble_needs_two_subs():
    with pytest.raises(ValueError):
        init_ddm([(0, 1, 2)], 6, 8, [np.random.default_rng(9)])
    with pytest.raises(ValueError):
        fixed_ensemble(theta=float("inf"))


def test_export_degrees_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    degrees = rng.uniform(size=17)
    path = tmp_path / "degrees.csv"
    export_degrees_csv(degrees, path)
    back = [float(line) for line in path.read_text().splitlines()]
    np.testing.assert_array_equal(back, degrees)
