"""Inner-disagreement out-of-distribution detection.

Seen classes are split into I folds. For each fold one small classifier
(sub-detector) is trained with the other I-1 folds as its in-distribution
classes and the fold itself as virtual OOD data: cross-entropy on ID
samples plus KL-to-uniform on the virtual OOD predictions. At test time
every sub-detector emits a confidence score (max softmax probability minus
prediction entropy); the disagreement degree is the mean of the top I-1
scores minus the smallest. Seen-class inputs are ID data for most
sub-detectors and OOD for one, so they produce large disagreement; inputs
from classes nobody saw score uniformly low and produce small disagreement.
A degree below the calibrated threshold flags the input as unseen.

Training stacks the I sub-detectors on a leading fold axis (output columns
zero-padded to the widest fold and masked out of the loss), so one
``subddm_loss`` call gives every fold's loss and gradient for a training
step, from one softmax pass shared by the CE, the KL and their gradients.
Confidences and degrees are computed row-wise for a (B, C) batch of pooled
features, with one forward per sub-detector; a single (C,) feature gives
scalars.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import diffmath as dm
from .diffmath import GradientSet
from .errors import NotCalibratedError


class Domain(enum.Enum):
    SEEN = "seen"
    UNSEEN = "unseen"


@dataclass
class FoldPartition:
    """Disjoint seen-class folds whose sizes differ by at most one."""

    fold_count: int
    folds: list[list[int]]

    def __post_init__(self):
        if self.fold_count != len(self.folds):
            raise ValueError("fold count does not match fold list")
        flat = [c for fold in self.folds for c in fold]
        if len(set(flat)) != len(flat):
            raise ValueError("folds must be pairwise disjoint")
        sizes = [len(f) for f in self.folds]
        if sizes and max(sizes) - min(sizes) > 1:
            raise ValueError("fold sizes may differ by at most 1")

    def all_classes(self) -> list[int]:
        return sorted(c for fold in self.folds for c in fold)

    def id_classes(self, fold_index: int) -> list[int]:
        """Sorted ID class ids for one sub-detector: everything outside its fold."""
        return sorted(c for i, fold in enumerate(self.folds) if i != fold_index for c in fold)


def partition_classes(seen_ids, fold_count: int, seed: int) -> FoldPartition:
    """Seeded shuffle of the seen classes followed by round-robin assignment."""
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
    return FoldPartition(fold_count=fold_count, folds=folds)


@dataclass
class SubDdm:
    """One fold's classifier: mean-pooled feature -> hidden ReLU -> ID logits."""

    fold_index: int
    id_class_ids: np.ndarray  # sorted (n_id,) int64
    w1: np.ndarray  # (C, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, n_id)
    b2: np.ndarray  # (n_id,)

    def __post_init__(self):
        self.id_class_ids = np.asarray(self.id_class_ids, dtype=np.int64)
        n_id = self.id_class_ids.size
        c, hidden = self.w1.shape if self.w1.ndim == 2 else (-1, -1)
        got = [a.shape for a in (self.id_class_ids, self.w1, self.b1, self.w2, self.b2)]
        if got != [(n_id,), (c, hidden), (hidden,), (hidden, n_id), (n_id,)]:
            raise ValueError(f"fold {self.fold_index}: expected ids (n_id,), w1 (C, H), b1 (H,), "
                             f"w2 (H, n_id) and b2 (n_id,), got shapes {got}")

    @property
    def in_dim(self) -> int:
        return self.w1.shape[0]

    def logits(self, feats: np.ndarray) -> np.ndarray:
        """Class logits for a (B, C) batch of mean-pooled features."""
        feats = np.asarray(feats, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[1] != self.in_dim:
            raise ValueError(f"expected (B, {self.in_dim}) features, got {feats.shape}")
        return np.maximum(feats @ self.w1 + self.b1, 0.0) @ self.w2 + self.b2

    def parameters(self, prefix: str = "") -> dict[str, np.ndarray]:
        return {f"{prefix}w1": self.w1, f"{prefix}b1": self.b1,
                f"{prefix}w2": self.w2, f"{prefix}b2": self.b2}


def init_subddm(fold_index: int, id_class_ids, in_dim: int, hidden: int,
                rng: np.random.Generator) -> SubDdm:
    """Fresh sub-detector with uniform(-1/sqrt(fan_in), ...) weights."""
    ids = np.sort(np.asarray(list(id_class_ids), dtype=np.int64))

    def u(fan_in, *shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    return SubDdm(fold_index=fold_index, id_class_ids=ids,
                  w1=u(in_dim, in_dim, hidden), b1=u(in_dim, hidden),
                  w2=u(hidden, hidden, ids.shape[0]), b2=u(hidden, ids.shape[0]))


def stack_subddms(subs: list[SubDdm]) -> tuple[GradientSet, np.ndarray]:
    """Fold-stacked copies of the sub-detectors' parameters, as
    ``subddm_loss`` takes them, and each fold's ID class count. Output
    columns are zero-padded to the widest fold."""
    counts = np.array([s.id_class_ids.shape[0] for s in subs])

    def pad(a):
        return np.pad(a, [(0, 0)] * (a.ndim - 1) + [(0, counts.max() - a.shape[-1])])

    return {"w1": np.stack([s.w1 for s in subs]), "b1": np.stack([s.b1 for s in subs]),
            "w2": np.stack([pad(s.w2) for s in subs]),
            "b2": np.stack([pad(s.b2) for s in subs])}, counts


def unstack_subddms(params: GradientSet, subs: list[SubDdm]) -> list[SubDdm]:
    """Copies of ``subs`` that hold the stacked parameters, padding trimmed."""
    return [replace(s, w1=params["w1"][i].copy(), b1=params["b1"][i].copy(),
                    w2=params["w2"][i, :, :s.b2.shape[0]].copy(),
                    b2=params["b2"][i, :s.b2.shape[0]].copy())
            for i, s in enumerate(subs)]


def subddm_loss(params: GradientSet, class_counts, feats: np.ndarray, labels,
                weights) -> tuple[np.ndarray, GradientSet]:
    """Every fold's sub-detector loss and gradients from one stacked forward.

    ``params`` holds ``w1`` (I, C, hidden), ``b1`` (I, hidden), ``w2``
    (I, hidden, N) and ``b2`` (I, N), as ``stack_subddms`` builds them: fold
    i uses its first ``class_counts[i]`` output columns, and the padding
    columns are masked out of the softmax, the CE and the KL. ``feats`` is an
    (I, B, C) stack of rows; ``labels`` (I, B) holds each row's local ID
    label, or -1 for a virtual OOD row; ``weights`` (I, B) is each row's
    share of its fold's loss, 1/chunk size for an ID or OOD row and 0 on
    padding. A fold's loss is then its ID-mean cross-entropy plus its
    OOD-mean KL-to-uniform (log C with its own class count C), and a fold
    whose weights are all 0 gets a loss and gradient of exactly 0.

    Returns the (I,) per-fold losses and the stacked gradients.
    """
    feats = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=np.float64)
    counts = np.asarray(class_counts)[:, None]
    if (labels >= counts).any():
        raise IndexError("a local label is not an ID class of its fold")
    w2 = params["w2"]
    z1 = dm.matmul(feats, params["w1"]) + params["b1"][:, None]
    r = dm.relu(z1)
    live = np.arange(w2.shape[-1]) < counts  # (I, N) real output columns
    z2 = np.where(live[:, None], dm.matmul(r, w2) + params["b2"][:, None], -np.inf)
    ood = labels < 0
    p, log_p = dm.softmax_with_log(z2)  # one softmax pass for the CE and the KL
    ce, d_ce = dm.cross_entropy(p, log_p, np.where(ood, 0, labels))
    row_losses = np.where(ood, dm.kl_to_uniform(p, counts), ce)
    d_z2 = weights[..., None] * np.where(ood[..., None], dm.kl_to_uniform_grad_log(log_p, counts),
                                         d_ce)
    d_r, d_w2 = dm.matmul_backward(r, w2, d_z2)
    d_z1 = dm.relu_backward(z1, d_r)
    grads = {"w1": feats.swapaxes(1, 2) @ d_z1, "b1": d_z1.sum(axis=1),
             "w2": d_w2, "b2": d_z2.sum(axis=1)}
    return (weights * row_losses).sum(axis=1), grads


def confidence(d: SubDdm, feats: np.ndarray):
    """Max softmax probability minus prediction entropy; 1 iff one-hot.

    Takes one (C,) feature, giving a float, or a (B, C) batch, giving the
    (B,) row scores from one forward.
    """
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim not in (1, 2):
        raise ValueError("confidence takes a (C,) feature vector or a (B, C) batch")
    p = dm.softmax(d.logits(np.atleast_2d(feats)))
    scores = p.max(axis=-1) - dm.entropy(p)
    return float(scores[0]) if feats.ndim == 1 else scores


def disagreement(scores):
    """Mean of the largest I-1 confidence scores minus the smallest; >= 0.

    Takes the (I,) scores of one input, giving a float, or a (B, I) batch,
    giving (B,) degrees.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim not in (1, 2) or s.shape[-1] < 2:
        raise ValueError("disagreement needs at least 2 confidence scores")
    ordered = np.sort(s, axis=-1, kind="stable")[..., ::-1]
    degrees = ordered[..., :-1].mean(axis=-1) - ordered[..., -1]
    return float(degrees) if s.ndim == 1 else degrees


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


@dataclass
class DdmEnsemble:
    """All fold sub-detectors plus the calibrated disagreement threshold.

    ``bundle_sha256`` is the hex SHA-256 of the bundle file the detector was
    trained on, when known; ``train.check_training_bundle`` refuses any other
    bundle. ``holdout_seed`` names the calibration holdout its folds never saw.
    """

    sub_ddms: list[SubDdm]
    theta: float | None = None
    bundle_sha256: str | None = None
    holdout_seed: int | None = None

    def __post_init__(self):
        if len(self.sub_ddms) < 2:
            raise ValueError("an ensemble needs at least 2 sub-detectors")
        if len({d.in_dim for d in self.sub_ddms}) != 1:
            raise ValueError("sub-detectors must share one input width")
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValueError("theta must be finite")

    @property
    def fold_count(self) -> int:
        return len(self.sub_ddms)

    def confidences(self, feats: np.ndarray) -> np.ndarray:
        """Every sub-detector's confidence: (I,) for one (C,) feature, (B, I)
        for a (B, C) batch; one forward per fold."""
        return np.stack([confidence(d, feats) for d in self.sub_ddms], axis=-1)

    def calibrated_theta(self) -> float:
        if self.theta is None:
            raise NotCalibratedError("ensemble threshold is unset; calibrate first")
        return self.theta


def disagreement_degree(e: DdmEnsemble, feats: np.ndarray):
    """Disagreement of the fold confidences: a float for one (C,) feature,
    (B,) degrees for a (B, C) batch."""
    return disagreement(e.confidences(feats))


def detect(e: DdmEnsemble, feat: np.ndarray) -> Domain:
    """Unseen iff the disagreement degree of one (C,) feature falls strictly
    below theta. Batches are gated with ``disagreement_degree(e, feats) <
    theta`` instead."""
    theta = e.calibrated_theta()
    if np.ndim(feat) != 1:
        raise ValueError("detect takes a single (C,) feature vector")
    return Domain.UNSEEN if disagreement_degree(e, feat) < theta else Domain.SEEN


def export_degrees_csv(degrees, path) -> None:
    """One disagreement degree per line, LF endings, for curve plotting."""
    values = np.asarray(degrees, dtype=np.float64).ravel()
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for v in values:
            fh.write(repr(float(v)) + "\n")
