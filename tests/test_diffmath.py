import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setnet import diffmath as dm
from setnet.model import attention_maps, diversity_loss, loss_and_grads, total_loss

from conftest import (DIV_SCALE, ragged_chunks, ragged_ensemble, safe_instance, stacked_batch,
                      subddm_loss_and_grads)
from oracles import cross_entropy_two_pass, hellinger_sq_brute


def simplex(rng, t, floor=0.0):
    p = rng.uniform(floor, 1.0, size=t)
    return p / p.sum()


def spatial_softmax(logits):
    """The attention softmax as the model runs it: ``dm.softmax`` over the
    flattened H*W positions of each head of a (K, H, W) stack."""
    return dm.softmax(logits.reshape(logits.shape[0], -1)).reshape(logits.shape)


def hellinger_sq(p, q):
    """H^2(p, q) as training computes it: half the diversity loss of the
    two-head stack [p, q], as a batch of one, whose two ordered pairs each
    count H^2(p, q)."""
    return diversity_loss(np.stack([p, q])[None, :, None, :])[0] / 2


def setnet_group_error(seed, names):
    """grad_check of the ``total_loss`` parameter group ``names`` on a
    kink-free batch of three 3x5 maps (B != 1 and H != W)."""
    model, fmaps, table, labels = safe_instance(seed, h=3, w=5, batch=3)
    params = model.parameters()

    def loss_fn(_):  # grad_check perturbs the model's own arrays
        total, grads = total_loss(model, fmaps, labels, table, DIV_SCALE)
        return total, {name: grads[name] for name in names}

    return dm.grad_check(loss_fn, {name: params[name] for name in names}, eps=1e-4)


def detector_group_error(seed, names, margin=1e-3):
    """grad_check of the ``subddm_loss`` parameter group ``names``, summed
    over the folds of a ragged 3-fold stack, with every hidden
    pre-activation at least ``margin`` off the ReLU kink. Redraws
    deterministically until the probe is kink-free."""
    for attempt in range(50):
        rng = np.random.default_rng([seed, attempt, 0xD37])
        e = ragged_ensemble(rng)
        batch = stacked_batch(e, ragged_chunks(rng, e), pad=1)
        if np.abs(batch[0] @ e.w1 + e.b1[:, None]).min() > margin:
            break
    else:
        raise AssertionError("could not draw a kink-free detector")
    params = e.parameters()

    def loss_fn(_):  # grad_check perturbs the ensemble's own arrays
        losses, grads = subddm_loss_and_grads(e, *batch)
        return float(losses.sum()), {name: grads[name] for name in names}

    return dm.grad_check(loss_fn, {name: params[name] for name in names}, eps=1e-4)


# ---------------------------------------------------------------------------
# softmax over spatial positions

def test_spatial_softmax_uniform_on_zero_logits():
    out = spatial_softmax(np.zeros((1, 2, 2)))
    np.testing.assert_allclose(out, 0.25, rtol=0, atol=1e-15)


def test_spatial_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(3, 4, 5))
    shifted = logits + rng.normal(size=(3, 1, 1))  # per-map constant
    a = spatial_softmax(logits)
    b = spatial_softmax(shifted)
    assert np.abs(a - b).max() < 1e-9


def test_spatial_softmax_log_weights():
    logits = np.log(np.array([1.0, 2.0, 3.0, 4.0])).reshape(1, 2, 2)
    np.testing.assert_allclose(spatial_softmax(logits).ravel(),
                               [0.1, 0.2, 0.3, 0.4], atol=1e-15)


@pytest.mark.parametrize("seed", range(10))
def test_spatial_softmax_normalized_nonnegative(seed):
    rng = np.random.default_rng(seed)
    out = spatial_softmax(rng.normal(scale=10, size=(4, 3, 6)))
    assert (out >= 0).all()
    np.testing.assert_allclose(out.reshape(4, -1).sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_spatial_softmax_backward_matches_fd(seed):
    # attn.w2 reaches the loss only through the per-head spatial softmax
    assert setnet_group_error(seed, ["attn.w2"]) < 1e-6


# ---------------------------------------------------------------------------
# hellinger

def test_hellinger_identical_is_zero():
    p = np.array([0.5, 0.5])
    assert hellinger_sq(p, p) <= 1e-12


def test_hellinger_disjoint_is_one():
    assert hellinger_sq([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-15)


def test_hellinger_frozen_value():
    expected = 1.0 - math.sqrt(0.125) - math.sqrt(0.375)
    got = hellinger_sq([0.5, 0.5], [0.25, 0.75])
    assert got == pytest.approx(expected, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_hellinger_symmetric_and_bounded(t, seed):
    rng = np.random.default_rng(seed)
    p, q = simplex(rng, t), simplex(rng, t)
    a = hellinger_sq(p, q)
    assert a == pytest.approx(hellinger_sq(q, p), abs=1e-12)
    assert -1e-12 <= a <= 1.0 + 1e-12
    assert hellinger_sq(p, p) <= 1e-12
    assert a == pytest.approx(hellinger_sq_brute(p, q), abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_hellinger_grad_matches_fd(seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 1.0, size=6)
    q = rng.uniform(0.05, 1.0, size=6)

    def loss_fn(params):
        # the two ordered pairs of the stack [p, q] each count H^2(p, q), so
        # half the closed-form diversity gradient is the gradient of H^2
        _, grad = diversity_loss(np.stack([params["p"], params["q"]])[None, :, None, :], grad=True)
        return hellinger_sq_brute(params["p"], params["q"]), {"p": grad[0, 0, 0] / 2,
                                                               "q": grad[0, 1, 0] / 2}

    assert dm.grad_check(loss_fn, {"p": p, "q": q}, eps=1e-4) < 1e-4


# ---------------------------------------------------------------------------
# cross entropy / entropy / KL

def test_cross_entropy_uniform():
    assert dm.cross_entropy_from_logits(np.zeros(4), 2) == pytest.approx(math.log(4), abs=1e-12)


def test_cross_entropy_saturated():
    logits = np.zeros(5)
    logits[3] = 50.0
    assert dm.cross_entropy_from_logits(logits, 3) < 1e-8


@pytest.mark.parametrize("seed", range(20))
def test_cross_entropy_matches_two_pass_oracle(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=5)
    label = int(rng.integers(5))
    assert dm.cross_entropy_from_logits(logits, label) == pytest.approx(
        cross_entropy_two_pass(logits, label), abs=1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError):
        dm.cross_entropy_from_logits(np.zeros(3), 3)
    with pytest.raises(IndexError):
        dm.cross_entropy_from_logits(np.zeros(3), -1)


@pytest.mark.parametrize("seed", range(20))
def test_cross_entropy_grad_matches_fd(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=6)

    def loss_fn(params):
        return dm.cross_entropy_from_logits(params["z"], 2), {"z": dm.cross_entropy_grad(params["z"], 2)}

    assert dm.grad_check(loss_fn, {"z": logits}, eps=1e-4) < 1e-6


def test_entropy_cases():
    assert dm.entropy([0.0, 1.0, 0.0]) == 0.0
    assert dm.entropy(np.full(8, 1 / 8)) == pytest.approx(math.log(8), abs=1e-12)
    expected = -0.25 * math.log(0.25) - 0.75 * math.log(0.75)
    assert dm.entropy([0.25, 0.75]) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValueError):
        dm.entropy([-0.5, 1.5])


def test_kl_to_uniform_cases():
    assert dm.kl_to_uniform(np.full(4, 0.25)) == pytest.approx(0.0, abs=1e-12)
    assert dm.kl_to_uniform([1.0, 0.0, 0.0, 0.0]) == pytest.approx(math.log(4), abs=1e-12)
    assert dm.kl_to_uniform([0.5, 0.5, 0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-12)
    with pytest.raises(ValueError):
        dm.kl_to_uniform(np.empty(0))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_kl_plus_entropy_is_log_c(c, seed):
    p = simplex(np.random.default_rng(seed), c)
    assert dm.kl_to_uniform(p) + dm.entropy(p) == pytest.approx(math.log(c), abs=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_kl_grad_logits_matches_fd(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=7)

    def loss_fn(params):
        z = params["z"]
        p, log_p = dm.softmax_with_log(z)
        return dm.kl_to_uniform(p), {"z": dm.kl_to_uniform_grad_log(log_p)}

    assert dm.grad_check(loss_fn, {"z": logits}, eps=1e-4) < 1e-6


# ---------------------------------------------------------------------------
# row-wise batches: one call over (B, D) equals B calls over (D,)

@pytest.mark.parametrize("seed", range(5))
def test_losses_rowwise_match_per_row_calls(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(scale=3, size=(6, 5))
    labels = rng.integers(5, size=6)
    p = dm.softmax(z)
    p[0] = [0.5, 0.5, 0.0, 0.0, 0.0]  # exercise 0 log 0
    batched = {
        "ce": dm.cross_entropy_from_logits(z, labels),
        "ce_grad": dm.cross_entropy_grad(z, labels),
        "entropy": dm.entropy(p),
        "kl": dm.kl_to_uniform(p),
        "kl_grad": dm.kl_to_uniform_grad_log(dm.softmax_with_log(z)[1]),
    }
    one = [slice(i, i + 1) for i in range(6)]  # each row as a batch of one
    rows = {
        "ce": [dm.cross_entropy_from_logits(z[r], labels[r])[0] for r in one],
        "ce_grad": [dm.cross_entropy_grad(z[r], labels[r])[0] for r in one],
        "entropy": [dm.entropy(p[r])[0] for r in one],
        "kl": [dm.kl_to_uniform(p[r])[0] for r in one],
        "kl_grad": [dm.kl_to_uniform_grad_log(dm.softmax_with_log(z[r])[1])[0] for r in one],
    }
    for name, got in batched.items():
        want = np.asarray(rows[name])
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-15, name
    assert dm.cross_entropy_from_logits(z[:1], labels[:1]).shape == (1,)
    assert dm.entropy(p[:1]).shape == (1,)


def test_cross_entropy_rowwise_label_checks():
    with pytest.raises(ValueError):
        dm.cross_entropy_from_logits(np.zeros((3, 4)), [0, 1])
    with pytest.raises(IndexError):
        dm.cross_entropy_grad(np.zeros((2, 4)), [0, 4])


def test_spatial_mean_batch_matches_single_maps():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 3, 4, 2))
    got = dm.spatial_mean(x)
    assert got.shape == (5, 2)
    for i in range(5):
        np.testing.assert_array_equal(got[i], dm.spatial_mean(x[i:i + 1])[0])
    with pytest.raises(ValueError):
        dm.spatial_mean(np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# the layers of the two nets, through the training losses that run them

@pytest.mark.parametrize("seed", range(20))
def test_matmul_grads(seed):
    # the detector's second layer, padding columns included
    assert detector_group_error(seed, ["w2", "b2"]) < 1e-4


@pytest.mark.parametrize("seed", range(20))
def test_conv1x1_grads(seed):
    assert setnet_group_error(seed, ["attn.w1", "attn.b1"]) < 1e-4


@pytest.mark.parametrize("seed", range(20))
def test_relu_grads(seed):
    # the detector's first layer reaches the loss through its ReLU
    assert detector_group_error(seed, ["w1", "b1"]) < 1e-4


def test_conv1x1_channel_mismatch():
    model, fmaps, _, _ = safe_instance(0, batch=2)
    with pytest.raises(ValueError, match="^channel mismatch: feature maps have 6 channels, "
                                         "the model takes 8$"):
        attention_maps(model, fmaps[..., :6])


def test_layer_backwards_on_a_batch_match_single_stacks():
    model, fmaps, table, labels = safe_instance(4, h=3, w=5, batch=3)
    rows = table.indices_of(labels)
    params = (model.w1, model.b1, model.w2, model.proj_w, model.proj_b)

    def run(fm, rw):
        grads = tuple(np.empty_like(p) for p in params)
        return loss_and_grads(model, fm, rw, table, DIV_SCALE, grads), grads

    total, grads = run(fmaps, rows)
    singles = [run(fmaps[i:i + 1], rows[i:i + 1]) for i in range(3)]
    assert abs(total - sum(t for t, _ in singles) / 3) <= 1e-12
    for j, g in enumerate(grads):
        want = sum(single[j] for _, single in singles) / 3
        assert np.abs(g - want).max() <= 1e-12


# ---------------------------------------------------------------------------
# grad_check itself

def test_grad_check_linear_loss_is_exact():
    rng = np.random.default_rng(2)
    c = rng.normal(size=6)
    w = rng.normal(size=6)

    def loss_fn(params):
        return float(params["w"] @ c), {"w": c.copy()}

    assert dm.grad_check(loss_fn, {"w": w}, eps=1e-4) <= 1e-10


def test_grad_check_softmax_ce():
    rng = np.random.default_rng(3)
    w = rng.normal(size=5)

    def loss_fn(params):
        return dm.cross_entropy_from_logits(params["w"], 1), {"w": dm.cross_entropy_grad(params["w"], 1)}

    assert dm.grad_check(loss_fn, {"w": w}, eps=1e-4) <= 1e-6


def test_grad_check_rejects_nonfinite_loss():
    def loss_fn(params):
        return float("nan"), {"w": np.zeros(2)}

    with pytest.raises(FloatingPointError):
        dm.grad_check(loss_fn, {"w": np.zeros(2)}, eps=1e-4)


def test_grad_check_rejects_bad_eps():
    with pytest.raises(ValueError):
        dm.grad_check(lambda p: (0.0, {}), {}, eps=0.0)
