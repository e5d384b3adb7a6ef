"""Seeded minibatch SGD for the attention model and the detector ensemble,
calibration, and checkpoints.

Both models train through one loop, ``_sgd``: plain SGD (no momentum, no
weight decay), one batched loss call and one ``_sgd_step`` per step, a
seeded per-epoch shuffle, and the last partial batch kept, so a (bundle,
config) pair fully determines the result bitwise. Labels are checked once
per run, and the model's arrays become views of one flat buffer that each
step updates in place with a gradient in the same layout. The detector's I
folds train as one fold-stacked model: each step gathers every fold's
minibatch into one padded stack, and a fold that has run out of steps for
the epoch gets all-zero row weights, so it does not move; the arrays it
trains are the returned ensemble's own. A step whose loss is not finite
stops training with a ``FloatingPointError`` that names the epoch and step,
and the fold for the detector.

A checkpoint is a ``dataio`` container of kind "setnet" or "ddm" whose
meta holds the train config and the training bundle's SHA-256 as
"bundle_sha256" (64 lowercase hex digits, never absent), which
``check_training_bundle`` compares with a bundle's. "setnet" stores the
model's five flat arrays under their ``parameters()`` names ("attn.w1",
"attn.b1", "attn.w2", and the stacked projectors "proj.w" (K, V, S) and
"proj.b" (K, S)). "ddm" stores the fold-stacked detector ("w1", "b1", "w2",
"b2" and the -1-padded (I, N) class-id table "ids"), with the calibrated
"theta" in the meta once set.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from dataclasses import dataclass

import numpy as np

from .dataio import DatasetBundle, read_container, write_container
from .diffmath import spatial_mean
from .errors import FormatError
from .model import SetNetModel, init_setnet, loss_and_grads
from .ood import (DdmEnsemble, calibrate_theta, disagreement_degree, init_ddm, partition_classes,
                  subddm_loss)

HOLDOUT_FRACTION = 0.2


@dataclass
class TrainConfig:
    """Every training setting, each with its one default and check: the
    models hold parameters only, and a checkpoint stores its config."""

    # Desk-scale class scores are head-averaged projections of weakly scaled
    # pooled features, so useful SGD steps are O(1); detector ensembles see
    # larger gradients and want a much smaller rate (~0.2).
    learning_rate: float = 4.0
    epochs: int = 150
    batch_size: int = 8
    seed: int = 0
    diversity_weight: float = 0.2
    head_count: int = 4
    hidden_channels: int = 16
    fold_count: int = 5
    diversity_sign: int = -1
    ddm_hidden: int = 64

    def __post_init__(self):
        for field in dataclasses.fields(self):  # a float field takes an int as it is
            value, is_int = getattr(self, field.name), field.type == "int"
            if (isinstance(value, bool) or not isinstance(value, int if is_int else (int, float))
                    or not (is_int or abs(value) <= sys.float_info.max)):
                raise ValueError(f"{field.name} must be {'an int' if is_int else 'a finite float'}, "
                                 f"got {value!r}")
        for name in ("learning_rate", "epochs", "seed", "diversity_weight"):
            if getattr(self, name) < 0:  # a negative seed cannot seed a generator
                raise ValueError(f"{name} must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.head_count < 1 or self.hidden_channels < 1 or self.ddm_hidden < 1:
            raise ValueError("layer widths must be >= 1")
        if self.fold_count < 2:
            raise ValueError("fold count must be >= 2")
        if self.diversity_sign not in (1, -1):
            raise ValueError("diversity_sign must be +1 or -1")


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *tags])


def _flatten(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """A flat buffer holding copies of ``arrays``, and views of it shaped like them."""
    flat = np.concatenate(arrays, axis=None)
    ends = np.cumsum([a.size for a in arrays])
    return flat, [flat[end - a.size:end].reshape(a.shape) for a, end in zip(arrays, ends)]


def _sgd_step(params: np.ndarray, grads: np.ndarray, lr: float) -> None:
    params -= lr * grads


def _require_finite_loss(loss, epoch: int, step: int) -> None:
    """Raise on a non-finite step loss: a float, or one per detector fold."""
    finite = np.isfinite(loss)
    if finite.all():
        return
    bad = int(np.argmin(finite))
    fold = f"fold {bad}, " if np.ndim(loss) else ""
    raise FloatingPointError(f"non-finite training loss {float(np.ravel(loss)[bad])!r} "
                             f"at {fold}epoch {epoch}, step {step}")


def _sgd(params: np.ndarray, cfg: TrainConfig, plan_epoch, step_loss,
         epoch_callback=None) -> None:
    """The SGD loop of both trainers; updates the flat ``params`` in place.

    At the start of every epoch ``plan_epoch()`` draws that epoch's
    minibatches and returns ``(steps, divisor)``: ``steps`` pairs each
    minibatch with the weight its loss carries in the epoch loss, their
    weighted sum over ``divisor``. ``step_loss(batch)`` returns the loss (a
    float, or one per fold) and its gradient, flat like ``params``.
    ``epoch_callback(epoch, loss)`` sees each epoch's loss as it ends.
    """
    for epoch in range(cfg.epochs):
        steps, divisor = plan_epoch()
        epoch_loss = 0.0
        for step, (batch, weight) in enumerate(steps):
            loss, grads = step_loss(batch)
            _require_finite_loss(loss, epoch, step)
            epoch_loss += weight * loss
            _sgd_step(params, grads, cfg.learning_rate)
        if epoch_callback is not None:
            epoch_callback(epoch, float(np.sum(epoch_loss)) / divisor)


# ---------------------------------------------------------------------------
# SetNet training

def train_setnet(bundle: DatasetBundle, cfg: TrainConfig, epoch_callback=None) -> SetNetModel:
    """SGD on the minibatch-mean total loss over seen-class training samples.

    ``epoch_callback(epoch, mean_loss)``, when given, sees every epoch's
    mean per-sample training loss. The model carries the bundle's digest.
    """
    train_idx = bundle.train_indices()
    if train_idx.size == 0:
        raise ValueError("bundle has no training samples")
    h, w, c = bundle.map_shape
    seen_table = bundle.seen_table()
    model = init_setnet(c, cfg.hidden_channels, cfg.head_count, seen_table.semantic_dim,
                        _rng(cfg.seed, 0x11))
    div_scale = cfg.diversity_sign * cfg.diversity_weight
    shuffler = _rng(cfg.seed, 0x12)
    rows = np.zeros(bundle.sample_count, dtype=np.int64)
    rows[train_idx] = seen_table.indices_of(bundle.labels[train_idx])
    arrays = list(model.parameters().values())
    flat, (model.w1, model.b1, model.w2, model.proj_w, model.proj_b) = _flatten(arrays)
    grad, grad_views = _flatten(arrays)  # laid out like flat; every step overwrites it

    def plan_epoch():
        order = train_idx[shuffler.permutation(train_idx.size)]
        batches = [order[start:start + cfg.batch_size]
                   for start in range(0, order.size, cfg.batch_size)]
        return [(batch, batch.size) for batch in batches], order.size

    def step_loss(batch):
        return loss_and_grads(model, bundle.features[batch], rows[batch], seen_table,
                              div_scale, grad_views), grad

    _sgd(flat, cfg, plan_epoch, step_loss, epoch_callback)
    model.bundle_sha256 = bundle.sha256
    return model


# ---------------------------------------------------------------------------
# detector ensemble training

def holdout_indices(bundle: DatasetBundle, seed: int) -> np.ndarray:
    """Per-class 20% of seen training samples, reserved for threshold
    calibration and excluded from sub-detector training."""
    rng = _rng(seed, 0xCA1)
    held: list[np.ndarray] = []
    for cls in bundle.seen_ids:
        block = np.nonzero((bundle.labels == cls) & bundle.train_flags)[0]
        if block.size < 2:
            continue
        n_hold = max(1, int(round(block.size * HOLDOUT_FRACTION)))
        held.append(rng.choice(block, size=n_hold, replace=False))
    if not held:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(held))


def pooled_features(bundle: DatasetBundle, indices: np.ndarray) -> np.ndarray:
    """Spatial-mean features of the bundle rows ``indices``, (len(indices), C)."""
    return bundle.map_rows(indices, spatial_mean)


def detector_degrees(ensemble: DdmEnsemble, bundle: DatasetBundle, indices: np.ndarray):
    """The ensemble's disagreement degrees of the bundle rows ``indices``
    (spatial-mean features), (len(indices),)."""
    return bundle.map_rows(indices, lambda maps: disagreement_degree(ensemble, spatial_mean(maps)))


def _split_slots(n: int, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where ``np.array_split`` puts n ordered rows in ``steps`` chunks: each
    row's chunk and offset in it, and the chunk sizes."""
    sizes = np.full(steps, n // steps)
    sizes[:n % steps] += 1
    step = np.repeat(np.arange(steps), sizes)
    return step, np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes), sizes


def train_ddm(bundle: DatasetBundle, cfg: TrainConfig, epoch_callback=None) -> DdmEnsemble:
    """Train one sub-detector per fold of ``partition_classes``: the seen
    classes outside the fold are its ID classes, the fold its virtual OOD.

    Every fold keeps its own schedule: its init draws, its shuffler stream,
    and an epoch of ceil(ID rows / batch size) steps (at least one), over
    which its shuffled ID and OOD rows are spread with ``np.array_split``.
    All folds step together on one stacked model, and a fold past its last
    step waits with all-zero weights. ``epoch_callback(epoch, loss)`` sees
    the mean over folds of each fold's mean step loss.

    Returns an uncalibrated ensemble (theta unset) that carries the bundle's
    digest and its holdout seed, cfg.seed; that calibration holdout never
    reaches any sub-detector.
    """
    partition = partition_classes(bundle.seen_ids, cfg.fold_count, cfg.seed)
    train_idx = bundle.train_indices()
    train_idx = train_idx[~np.isin(train_idx, holdout_indices(bundle, cfg.seed))]
    if train_idx.size == 0:
        raise ValueError("bundle has no training samples left after the calibration holdout")
    labels = bundle.labels[train_idx]
    n, folds = train_idx.size, cfg.fold_count
    feats = np.vstack([pooled_features(bundle, train_idx), np.zeros((1, bundle.map_shape[2]))])
    ids = [bundle.seen_ids[~np.isin(bundle.seen_ids, fold)] for fold in partition]
    e = init_ddm(ids, feats.shape[1], cfg.ddm_hidden,
                 [_rng(cfg.seed, 0xDD, i) for i in range(folds)])
    arrays = [e.w1, e.b1, e.w2, e.b2]
    flat, (e.w1, e.b1, e.w2, e.b2) = _flatten(arrays)
    grad, grad_views = _flatten(arrays)  # laid out like flat; every step overwrites it
    shufflers = [_rng(cfg.seed, 0xDE, i) for i in range(folds)]

    # Row n of feats is the zero padding row. local[i, row] is the row's
    # local label in fold i, -1 for virtual OOD rows and padding.
    local = np.full((folds, n + 1), -1)
    layout = []  # per fold: ID rows, OOD rows, and (step, slot, weight) of each in order
    for i in range(folds):
        is_ood = np.isin(labels, partition[i])
        id_rows, ood_rows = np.flatnonzero(~is_ood), np.flatnonzero(is_ood)
        local[i, id_rows] = np.searchsorted(ids[i], labels[id_rows])  # sorted ids
        n_steps = max(1, -(-id_rows.size // cfg.batch_size))
        id_step, id_off, id_sizes = _split_slots(id_rows.size, n_steps)
        ood_step, ood_off, ood_sizes = _split_slots(ood_rows.size, n_steps)
        layout.append((id_rows, ood_rows, n_steps,
                       np.concatenate([id_step, ood_step]),
                       np.concatenate([id_off, id_sizes[ood_step] + ood_off]),
                       np.concatenate([1.0 / id_sizes[id_step], 1.0 / ood_sizes[ood_step]])))
    n_steps = np.array([fold[2] for fold in layout])
    width = max(int(slot.max(initial=-1)) + 1 for *_, slot, _ in layout)
    weights = np.zeros((n_steps.max(), folds, width))
    for i, (*_, step, slot, weight) in enumerate(layout):
        weights[step, i, slot] = weight
    # a fold's share of the epoch loss: the mean of its own steps
    shares = (np.arange(n_steps.max())[:, None] < n_steps) / n_steps
    fold_axis = np.arange(folds)[:, None]

    def plan_epoch():
        rows = np.full(weights.shape, n)
        for i, (id_rows, ood_rows, _, step, slot, _) in enumerate(layout):
            id_order = id_rows[shufflers[i].permutation(id_rows.size)]
            ood_order = ood_rows[shufflers[i].permutation(ood_rows.size)]
            rows[step, i, slot] = np.concatenate([id_order, ood_order])
        return list(zip(zip(rows, weights), shares)), folds

    def step_loss(batch):
        rows, row_weights = batch
        return subddm_loss(e, feats[rows], local[fold_axis, rows], row_weights, grad_views), grad

    _sgd(flat, cfg, plan_epoch, step_loss, epoch_callback)
    e.bundle_sha256, e.holdout_seed = bundle.sha256, cfg.seed
    return e


def check_training_bundle(model, bundle: DatasetBundle, name: str = "detector") -> None:
    """Refuse a bundle whose digest differs from the one ``model``, a
    ``DdmEnsemble`` or a ``SetNetModel`` called ``name`` in the message, was
    trained on."""
    if model.bundle_sha256 != bundle.sha256:
        raise ValueError(f"bundle is not the bundle the {name} was trained on")


def calibrate_ensemble(ensemble: DdmEnsemble, bundle: DatasetBundle,
                       target_fnr: float) -> DdmEnsemble:
    """Set theta from the degrees of the ensemble's own holdout; returns the
    same ensemble. Refuses an ensemble without a holdout seed and a bundle
    other than its training bundle (``check_training_bundle``).
    """
    check_training_bundle(ensemble, bundle)
    if ensemble.holdout_seed is None:
        raise ValueError("ensemble does not record its calibration holdout seed")
    held = holdout_indices(bundle, ensemble.holdout_seed)
    if held.size == 0:
        raise ValueError("no calibration samples available")
    ensemble.theta = calibrate_theta(detector_degrees(ensemble, bundle, held), target_fnr)
    return ensemble


# ---------------------------------------------------------------------------
# checkpoints

def _checked_digest(digest):
    """A training-bundle digest as checkpoints hold it: 64 lowercase hex digits."""
    if not re.fullmatch("[0-9a-f]{64}", str(digest)):
        raise ValueError(f"bundle_sha256 must be 64 lowercase hex digits, got {digest!r:.80}")
    return digest


def save_checkpoint(path, model, cfg: TrainConfig) -> None:
    """Write a SetNetModel or DdmEnsemble with its config and training-bundle digest."""
    meta = {"config": dataclasses.asdict(cfg)}
    if isinstance(model, SetNetModel):
        kind, tensors = "setnet", model.parameters()
    elif isinstance(model, DdmEnsemble):
        if model.holdout_seed not in (None, cfg.seed):
            raise ValueError("config seed differs from the detector's holdout seed")
        kind, tensors = "ddm", dict(model.parameters(), ids=model.fold_ids)
        meta["theta"] = model.theta
    else:
        raise TypeError(f"cannot checkpoint object of type {type(model).__name__}")
    meta["bundle_sha256"] = _checked_digest(model.bundle_sha256)
    write_container(path, kind, {k: v for k, v in meta.items() if v is not None}, tensors)


def _read_checkpoint(path, kind: str) -> tuple[TrainConfig, dict, dict[str, np.ndarray]]:
    meta, tensors, _ = read_container(path, kind)
    try:
        return TrainConfig(**meta["config"]), meta, tensors
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"invalid train config: {e}") from e


def load_setnet_checkpoint(path) -> tuple[SetNetModel, TrainConfig]:
    """The model and its config; an older file's "diversity_weight" meta key,
    a copy of the config's, is ignored."""
    cfg, meta, t = _read_checkpoint(path, "setnet")
    try:  # the constructor checks that the tensor shapes fit together
        model = SetNetModel(w1=t["attn.w1"], b1=t["attn.b1"], w2=t["attn.w2"], proj_w=t["proj.w"],
                            proj_b=t["proj.b"],
                            bundle_sha256=_checked_digest(meta.get("bundle_sha256")))
        if model.w2.shape != (cfg.hidden_channels, cfg.head_count):
            raise ValueError("the tensors do not have the config's head_count and hidden_channels")
        return model, cfg
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"invalid setnet checkpoint: {e}") from e


def load_ddm_checkpoint(path) -> tuple[DdmEnsemble, TrainConfig]:
    cfg, meta, t = _read_checkpoint(path, "ddm")
    try:  # the constructor checks the shapes and the fold class-id table
        return DdmEnsemble(w1=t["w1"], b1=t["b1"], w2=t["w2"], b2=t["b2"], fold_ids=t["ids"],
                           theta=meta.get("theta"), holdout_seed=cfg.seed,
                           bundle_sha256=_checked_digest(meta.get("bundle_sha256"))), cfg
    except (TypeError, ValueError) as e:
        raise FormatError(f"invalid ddm checkpoint: {e}") from e
