"""Inner-disagreement out-of-distribution detection.

``partition_classes`` splits the seen classes into I folds (lists of ids).
For each fold one small classifier (sub-detector) is trained with the other
seen classes as its in-distribution classes and the fold itself as virtual
OOD data: cross-entropy on ID samples plus KL-to-uniform on the virtual OOD
predictions. At test time every sub-detector emits a confidence score (max
softmax probability minus prediction entropy); the disagreement degree is
the mean of the top I-1 scores minus the smallest. Seen-class inputs are ID
data for most sub-detectors and OOD for one, so they produce large
disagreement; inputs from classes nobody saw score uniformly low and produce
small disagreement. A degree below the calibrated threshold flags the input
as unseen.

The I sub-detectors live stacked on a leading fold axis in ``DdmEnsemble``
(output columns zero-padded to the widest fold and masked with -inf), from
training through the checkpoint to inference. One ``subddm_loss`` call gives
every fold's loss and gradient for a training step, from one softmax pass
shared by the CE, the KL and their gradients, with the two layers and the
ReLU written out as stacked products; at inference one stacked forward
gives every fold's confidence for a (B, C) batch of pooled features. The
inference functions take only batches; ``detect`` gates one (C,) feature as
a batch of one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import diffmath as dm
from .errors import NotCalibratedError


class Domain(enum.Enum):
    SEEN = "seen"
    UNSEEN = "unseen"


def partition_classes(seen_ids, fold_count: int, seed: int) -> list[list[int]]:
    """Disjoint folds of the seen classes whose sizes differ by at most one:
    a seeded shuffle followed by round-robin assignment. A fold's sub-detector
    takes the seen classes outside it as its ID classes."""
    ids = [int(c) for c in seen_ids]
    if len(set(ids)) != len(ids):
        raise ValueError("seen class ids must be unique")
    if fold_count < 2:
        raise ValueError("need at least 2 folds for virtual OOD training")
    if fold_count > len(ids):
        raise ValueError(f"cannot split {len(ids)} classes into {fold_count} folds")
    rng = np.random.default_rng([int(seed), 0xF01D])
    order = rng.permutation(len(ids))
    folds: list[list[int]] = [[] for _ in range(fold_count)]
    for j, idx in enumerate(order):
        folds[j % fold_count].append(ids[idx])
    return folds


@dataclass
class DdmEnsemble:
    """The I fold sub-detectors, stacked on a leading fold axis, plus the
    calibrated disagreement threshold.

    Fold i maps a mean-pooled (C,) feature through ``w1[i]`` (C, H),
    ``b1[i]`` (H,), a ReLU, ``w2[i]`` (H, N) and ``b2[i]`` (N,) to logits over
    its ID classes ``fold_ids[i]``: sorted ids padded with -1 to the widest
    fold's N, whose columns are masked out. ``bundle_sha256`` is the SHA-256
    stored in the bundle file the detector was trained on, when known;
    ``train.check_training_bundle`` refuses any other.
    ``holdout_seed`` names the calibration holdout its folds never saw.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    fold_ids: np.ndarray
    theta: float | None = None
    bundle_sha256: str | None = None
    holdout_seed: int | None = None

    def __post_init__(self):
        folds, c, hidden = self.w1.shape if self.w1.ndim == 3 else (-1, -1, -1)
        n = self.w2.shape[-1] if self.w2.ndim == 3 else -1
        got = [np.shape(a) for a in (self.w1, self.b1, self.w2, self.b2, self.fold_ids)]
        if got != [(folds, c, hidden), (folds, hidden), (folds, hidden, n), (folds, n), (folds, n)]:
            raise ValueError(f"expected w1 (I, C, H), b1 (I, H), w2 (I, H, N), b2 (I, N) and "
                             f"fold ids (I, N), got shapes {got}")
        if folds < 2:
            raise ValueError("an ensemble needs at least 2 sub-detectors")
        self.fold_ids = _check_fold_ids(self.fold_ids)
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValueError("theta must be finite")

    @property
    def in_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def class_counts(self) -> np.ndarray:
        """Each fold's ID class count, (I,)."""
        return (self.fold_ids >= 0).sum(axis=1)

    def parameters(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def calibrated_theta(self) -> float:
        if self.theta is None:
            raise NotCalibratedError("ensemble threshold is unset; calibrate first")
        return self.theta


def _check_fold_ids(ids) -> np.ndarray:
    """The (I, N) fold class-id table as int64. Refused unless every row is
    strictly ascending integer ids >= 0 followed only by -1 padding, holds
    at least one id, and the widest row fills all N columns."""
    ids = np.asarray(ids)
    if not np.all((ids == np.trunc(ids)) & (np.abs(ids) < 2.0**53)):
        raise ValueError("fold class ids must be integers")
    ids = ids.astype(np.int64)
    counts = (ids >= 0).sum(axis=1, keepdims=True)
    live = np.arange(ids.shape[1]) < counts
    if not (np.array_equal(np.where(live, ids, -1), ids)
            and np.all(np.diff(ids, axis=1)[live[:, 1:]] > 0)):
        raise ValueError("each fold's class ids must be strictly ascending ids >= 0, "
                         "followed only by -1 padding")
    if counts.min() < 1:
        raise ValueError(f"fold {int(np.argmin(counts))} has no ID class")
    if counts.max() != ids.shape[1]:
        raise ValueError(f"the widest fold has {int(counts.max())} ID classes, "
                         f"but w2 has {ids.shape[1]} output columns")
    return ids


def init_ddm(fold_ids: list, in_dim: int, hidden: int, rngs) -> DdmEnsemble:
    """Fresh uncalibrated ensemble with uniform(-1/sqrt(fan_in), ...) weights.

    ``fold_ids[i]`` lists fold i's ID class ids. Fold i draws its w1, b1, w2
    and b2, in that order, from ``rngs[i]``; its w2 and b2 columns are
    zero-padded to the widest fold.
    """
    ids = [np.sort(np.asarray(list(f), dtype=np.int64)) for f in fold_ids]
    n = max(f.size for f in ids)

    def u(rng, fan_in, *shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    w1, b1, w2, b2 = [], [], [], []
    for f, rng in zip(ids, rngs):
        w1.append(u(rng, in_dim, in_dim, hidden))
        b1.append(u(rng, in_dim, hidden))
        w2.append(np.pad(u(rng, hidden, hidden, f.size), [(0, 0), (0, n - f.size)]))
        b2.append(np.pad(u(rng, hidden, f.size), (0, n - f.size)))
    return DdmEnsemble(w1=np.stack(w1), b1=np.stack(b1), w2=np.stack(w2), b2=np.stack(b2),
                       fold_ids=np.stack([np.pad(f, (0, n - f.size), constant_values=-1)
                                          for f in ids]))


def _forward(e: DdmEnsemble, feats: np.ndarray):
    """Hidden pre-activations, their ReLU and every fold's logits, with the
    padding columns masked to -inf, for an (I, B, C) stack of rows or a
    (B, C) batch that every fold sees."""
    z1 = feats @ e.w1 + e.b1[:, None]
    r = np.maximum(z1, 0.0)
    z2 = np.where(e.fold_ids[:, None] >= 0, r @ e.w2 + e.b2[:, None], -np.inf)
    return z1, r, z2


def subddm_loss(e: DdmEnsemble, feats: np.ndarray, labels, weights, grads: tuple) -> np.ndarray:
    """Every fold's sub-detector loss from one stacked forward, with its
    gradient written into ``grads``: arrays shaped like ``e``'s w1, b1, w2
    and b2, in that order.

    ``feats`` is an (I, B, C) stack of rows; ``labels`` (I, B) holds each
    row's local ID label (its index in the fold's class ids), or -1 for a
    virtual OOD row; ``weights`` (I, B) is each row's share of its fold's
    loss, 1/chunk size for an ID or OOD row and 0 on padding. A fold's loss
    is then its ID-mean cross-entropy plus its OOD-mean KL-to-uniform (log C
    with its own class count C), and a fold whose weights are all 0 gets a
    loss and gradient of exactly 0. Padding output columns are masked out of
    the softmax, the CE and the KL, and get no gradient.

    Returns the (I,) per-fold losses.
    """
    feats = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=np.float64)
    counts = e.class_counts[:, None]
    if (labels >= counts).any():
        raise IndexError("a local label is not an ID class of its fold")
    g_w1, g_b1, g_w2, g_b2 = grads
    z1, r, z2 = _forward(e, feats)
    ood = labels < 0
    p, log_p = dm.softmax_with_log(z2)  # one softmax pass for the CE and the KL
    ce, d_ce = dm.cross_entropy(p, log_p, np.where(ood, 0, labels))
    row_losses = np.where(ood, dm.kl_to_uniform(p, counts), ce)
    d_z2 = weights[..., None] * np.where(ood[..., None], dm.kl_to_uniform_grad_log(log_p, counts),
                                         d_ce)
    np.matmul(r.swapaxes(1, 2), d_z2, out=g_w2)
    d_z1 = d_z2 @ e.w2.swapaxes(1, 2)
    d_z1 *= z1 > 0  # the ReLU
    np.matmul(feats.swapaxes(1, 2), d_z1, out=g_w1)
    d_z1.sum(axis=1, out=g_b1)
    d_z2.sum(axis=1, out=g_b2)
    return (weights * row_losses).sum(axis=1)


def confidence(e: DdmEnsemble, feats: np.ndarray) -> np.ndarray:
    """Every fold's max softmax probability minus prediction entropy, 1 iff
    one-hot, (B, I) for a (B, C) batch, from one stacked forward."""
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError(f"expected a (B, C) batch of features, got shape {feats.shape}")
    if feats.shape[1] != e.in_dim:
        raise ValueError(f"channel mismatch: features have {feats.shape[1]} channels, "
                         f"the detector takes {e.in_dim}")
    p = dm.softmax(_forward(e, feats)[2])  # (I, B, N)
    return (p.max(axis=-1) - dm.entropy(p)).T


def disagreement(scores) -> np.ndarray:
    """Mean of the largest I-1 confidence scores minus the smallest, >= 0:
    (B,) degrees for a (B, I) batch of scores."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] < 2:
        raise ValueError(f"expected a (B, I) batch of confidence scores with I >= 2, "
                         f"got shape {s.shape}")
    ordered = np.sort(s, axis=1, kind="stable")[:, ::-1]
    return ordered[:, :-1].mean(axis=1) - ordered[:, -1]


def calibrate_theta(seen_degrees, target_fnr: float) -> float:
    """Threshold from held-out seen-class degrees at a target false-negative
    rate: the (k+1)-th smallest degree with k = floor(n * target_fnr), so the
    strict rule d < theta flags exactly k of n distinct calibration points."""
    degrees = np.asarray(seen_degrees, dtype=np.float64).ravel()
    if degrees.shape[0] == 0:
        raise ValueError("calibration degree list is empty")
    if not 0.0 < target_fnr < 1.0:
        raise ValueError("target FNR must lie strictly between 0 and 1")
    k = math.floor(degrees.shape[0] * target_fnr)
    k = min(k, degrees.shape[0] - 1)
    return float(np.sort(degrees, kind="stable")[k])


def disagreement_degree(e: DdmEnsemble, feats: np.ndarray) -> np.ndarray:
    """Disagreement of the fold confidences, (B,) for a (B, C) batch."""
    return disagreement(confidence(e, feats))


def detect(e: DdmEnsemble, feat: np.ndarray) -> Domain:
    """Unseen iff the disagreement degree of one (C,) feature, scored as a
    batch of one, falls strictly below theta. Batches are gated with
    ``disagreement_degree(e, feats) < theta`` instead."""
    theta = e.calibrated_theta()
    feat = np.asarray(feat)
    if feat.ndim != 1:
        raise ValueError("detect takes a single (C,) feature vector")
    return Domain.UNSEEN if disagreement_degree(e, feat[None])[0] < theta else Domain.SEEN


def export_degrees_csv(degrees, path) -> None:
    """One disagreement degree per line, LF endings, for curve plotting."""
    values = np.asarray(degrees, dtype=np.float64).ravel()
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for v in values:
            fh.write(repr(float(v)) + "\n")
