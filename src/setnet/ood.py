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

Confidences and degrees are computed row-wise for a (B, C) batch of pooled
features, with one forward per sub-detector; a single (C,) feature gives
scalars.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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
        if self.w2.shape[1] != self.id_class_ids.shape[0]:
            raise ValueError("output width must equal the ID class count")

    @property
    def in_dim(self) -> int:
        return self.w1.shape[0]

    def logits(self, feats: np.ndarray) -> np.ndarray:
        """Class logits for a (B, C) batch of mean-pooled features."""
        feats = np.asarray(feats, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[1] != self.in_dim:
            raise ValueError(f"expected (B, {self.in_dim}) features, got {feats.shape}")
        return np.maximum(feats @ self.w1 + self.b1, 0.0) @ self.w2 + self.b2

    def local_labels(self, class_ids) -> np.ndarray:
        """Output index of every given ID class id, in the given order."""
        ids = np.asarray(class_ids, dtype=np.int64)
        hits = ids[..., None] == self.id_class_ids
        missing = ~hits.any(axis=-1)
        if missing.any():
            raise IndexError(f"class id {ids[missing][0]} is not an ID class of fold {self.fold_index}")
        return hits.argmax(axis=-1)

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


def subddm_loss(d: SubDdm, id_feats: np.ndarray | None, id_labels=None,
                ood_feats: np.ndarray | None = None) -> tuple[float, GradientSet]:
    """Mean cross-entropy on the ID batch plus mean KL-to-uniform on the
    virtual OOD batch, with parameter gradients. Either batch may be empty
    or None, dropping that term."""
    grads: GradientSet = {name: np.zeros_like(p) for name, p in d.parameters().items()}
    total = 0.0

    def add_term(feats, row_losses_and_grads):
        """Forward a (B, C) batch, add its mean row loss and backpropagate."""
        nonlocal total
        z1 = dm.matmul(feats, d.w1) + d.b1
        r = dm.relu(z1)
        losses, d_z2 = row_losses_and_grads(dm.matmul(r, d.w2) + d.b2)
        n = feats.shape[0]
        total += float(losses.sum()) / n
        d_z2 = d_z2 / n
        d_r, d_w2 = dm.matmul_backward(r, d.w2, d_z2)
        grads["w2"] += d_w2
        grads["b2"] += d_z2.sum(axis=0)
        d_z1 = dm.relu_backward(z1, d_r)
        grads["w1"] += dm.matmul_backward(feats, d.w1, d_z1)[1]
        grads["b1"] += d_z1.sum(axis=0)

    if id_feats is not None and len(id_feats):
        feats = np.asarray(id_feats, dtype=np.float64)
        labels = d.local_labels(np.ravel(id_labels))
        if labels.shape[0] != feats.shape[0]:
            raise ValueError("ID labels do not match the feature batch")
        add_term(feats, lambda z2: (dm.cross_entropy_from_logits(z2, labels),
                                    dm.cross_entropy_grad(z2, labels)))

    if ood_feats is not None and len(ood_feats):
        feats = np.asarray(ood_feats, dtype=np.float64)
        add_term(feats, lambda z2: (dm.kl_to_uniform(dm.softmax(z2)),
                                    dm.kl_to_uniform_grad_logits(z2)))

    return total, grads


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
    trained on, when known; ``train.calibrate_ensemble`` refuses any other
    bundle.
    """

    sub_ddms: list[SubDdm]
    theta: float | None = None
    bundle_sha256: str | None = None

    def __post_init__(self):
        if len(self.sub_ddms) < 2:
            raise ValueError("an ensemble needs at least 2 sub-detectors")
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
