"""Dense float64 tensor math with hand-written analytic gradients.

Tensors are plain C-order ``numpy`` arrays in float64. The losses and their
gradients work row-wise on the last axis, so a ``(B, D)`` batch of logits or
distributions costs one call and gives the ``(B,)`` per-row values;
``softmax_with_log`` feeds a training loss and its gradient from one softmax
pass. ``spatial_mean`` takes only a ``(B, H, W, C)`` batch. The two nets'
layers are written in place in ``model`` and ``ood``, and ``grad_check``
verifies their training gradients against central differences.

A gradient set is a ``dict`` mapping parameter name -> gradient array of the
same shape as the parameter.
"""

from __future__ import annotations

import functools

import numpy as np

GradientSet = dict[str, np.ndarray]


_as_f64 = functools.partial(np.asarray, dtype=np.float64)


# ---------------------------------------------------------------------------
# softmax family

def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis."""
    z = _as_f64(logits)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_with_log(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax and log-softmax over the last axis from one max/exp/sum pass;
    the softmax is bitwise equal to ``softmax``'s."""
    z = _as_f64(logits)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=-1, keepdims=True)
    return e / s, z - np.log(s)


# ---------------------------------------------------------------------------
# losses on probability vectors / logits, row-wise over the last axis

def _onehot(z: np.ndarray, label) -> np.ndarray:
    """Boolean one-hot rows for integer labels, one label per row of z."""
    labels = np.asarray(label)
    if labels.shape != z.shape[:-1]:
        raise ValueError(f"expected labels of shape {z.shape[:-1]}, got {labels.shape}")
    hot = np.arange(z.shape[-1]) == labels[..., None]
    if np.count_nonzero(hot) != labels.size:  # a row without its one True
        bad = labels[~hot.any(axis=-1)][0]
        raise IndexError(f"label {bad} out of range for {z.shape[-1]} logits")
    return hot


def cross_entropy(p: np.ndarray, log_p: np.ndarray, label) -> tuple:
    """Per-row CE -log_p[label] and dCE/dlogits = p - onehot(label), from
    ``softmax_with_log(logits)``."""
    hot = _onehot(log_p, label)
    return -log_p[hot].reshape(log_p.shape[:-1]), p - hot


def cross_entropy_from_logits(logits: np.ndarray, label):
    """-log softmax(logits)[label] per row, log-sum-exp stabilized."""
    return cross_entropy(*softmax_with_log(logits), label)[0]


def cross_entropy_grad(logits: np.ndarray, label) -> np.ndarray:
    """dCE/dlogits = softmax(logits) - onehot(label), per row."""
    return cross_entropy(*softmax_with_log(logits), label)[1]


def entropy(p: np.ndarray):
    """Shannon entropy -sum p log p in nats per row, with 0*log 0 = 0."""
    p = _as_f64(p)
    if (p < 0).any():
        raise ValueError("distribution entries must be nonnegative")
    plogp = p * np.log(np.where(p > 0, p, 1.0))
    return -plogp.sum(axis=-1)


def kl_to_uniform(p: np.ndarray, classes=None):
    """KL(p || uniform) = log C - entropy(p) = sum p log(p*C) per row, nats.

    C is the last axis length unless ``classes`` gives it: the class count
    of each row, broadcasting against the per-row values, for rows padded
    past it with zero-probability entries.
    """
    p = _as_f64(p)
    c = p.shape[-1] if classes is None else classes
    if p.shape[-1] == 0:
        raise ValueError("empty distribution")
    return np.log(c) - entropy(p)


def kl_to_uniform_grad_log(log_p: np.ndarray, classes=None) -> np.ndarray:
    """Gradient of KL(softmax(z) || uniform) w.r.t. the logits z, per row,
    from log_p = log softmax(z): with p = e^log_p and g = log p + log C it is
    p * (g - p.g), and 0 where p is 0, so logits masked with -inf get a zero
    gradient. ``classes`` is C per row, as in ``kl_to_uniform``."""
    c = log_p.shape[-1] if classes is None else np.asarray(classes)[..., None]
    p = np.exp(log_p)
    g = np.where(p > 0, log_p + np.log(c), 0.0)
    return p * (g - (p * g).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# pooling

def spatial_mean(x: np.ndarray) -> np.ndarray:
    """Mean over the two spatial axes, (B, C) for a (B, H, W, C) batch of maps."""
    x = _as_f64(x)
    if x.ndim != 4:
        raise ValueError(f"expected a (B, H, W, C) batch of maps, got shape {x.shape}")
    return x.mean(axis=(1, 2))


# ---------------------------------------------------------------------------
# finite-difference checker

def grad_check(loss_fn, params: dict[str, np.ndarray], eps: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn(params)`` must return ``(loss, grads)`` where ``grads`` maps
    every key of ``params`` to an array of matching shape. The relative
    error per coordinate uses denominator max(|analytic|, |numeric|, 1e-8).
    The loss must be twice differentiable at the probe point.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    loss, grads = loss_fn(params)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss at probe point")
    missing = set(params) - set(grads)
    if missing:
        raise ValueError(f"gradients missing for parameters: {sorted(missing)}")
    worst = 0.0
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != np.asarray(p).shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {np.asarray(p).shape} for {name!r}")
        flat = params[name].reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + eps
            hi, _ = loss_fn(params)
            flat[i] = orig - eps
            lo, _ = loss_fn(params)
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise FloatingPointError("non-finite loss at probe point")
            numeric = (hi - lo) / (2.0 * eps)
            analytic = gflat[i]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst
