"""Seeded minibatch SGD for the attention model and the detector ensemble,
plus the binary checkpoint format.

Both models train through one loop, ``_sgd``: plain SGD (no momentum, no
weight decay), one batched loss call and one ``_sgd_step`` per step, a
seeded per-epoch shuffle, and the last partial batch kept, so a (bundle,
config) pair fully determines the result bitwise. Labels are checked once
per run, and the model's arrays become views of one flat buffer that each
step updates in place with a gradient in the same layout. The detector's I
folds train as one fold-stacked model: each step gathers every fold's
minibatch into one padded stack, and a fold that has run out of steps for
the epoch gets all-zero row weights, so it does not move. A step whose loss
is not finite stops training with a ``FloatingPointError`` that names the
epoch and step, and the fold for the detector.

Checkpoint layout (little-endian):

    magic "SDNC" | u32 version=1 | u32 kind length | kind bytes
    ("setnet"/"ddm") | u32 config length | config JSON (utf-8) |
    u32 tensor count | per tensor: u32 name length | name bytes |
    u32 ndim | u32 dims... | float64 data

Integer payloads such as fold class ids and the 32 bytes of the training
bundle's SHA-256 ("bundle_sha256") travel as float64 tensors; the
calibrated threshold is a 0-d tensor named "theta" present only once set.
Readers reject truncated data, text that is not UTF-8, non-finite values and
missing or misshapen tensors with a ``FormatError``, and ignore unneeded ones.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .dataio import DatasetBundle, _Cursor
from .diffmath import spatial_mean
from .errors import FormatError
from .model import AttentionStack, ProjectorEnsemble, SetNetModel, init_setnet, loss_and_grads
from .ood import (DdmEnsemble, SubDdm, calibrate_theta, disagreement_degree, init_subddm,
                  partition_classes, stack_subddms, subddm_loss, unstack_subddms)

CKPT_MAGIC = b"SDNC"
CKPT_VERSION = 1
HOLDOUT_FRACTION = 0.2


@dataclass
class TrainConfig:
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
        if self.learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.diversity_weight < 0:
            raise ValueError("diversity weight must be >= 0")
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
    mean per-sample training loss.
    """
    train_idx = bundle.train_indices()
    if train_idx.size == 0:
        raise ValueError("bundle has no training samples")
    h, w, c = bundle.map_shape
    seen_table = bundle.seen_table()
    model = init_setnet(c, cfg.hidden_channels, cfg.head_count,
                        seen_table.semantic_dim, cfg.diversity_weight,
                        _rng(cfg.seed, 0x11))
    shuffler = _rng(cfg.seed, 0x12)
    rows = np.zeros(bundle.sample_count, dtype=np.int64)
    rows[train_idx] = seen_table.indices_of(bundle.labels[train_idx])
    att, proj = model.attention, model.projectors
    flat, (att.w1, att.b1, att.w2, proj.weights, proj.biases) = _flatten(
        [att.w1, att.b1, att.w2, proj.weights, proj.biases])

    def plan_epoch():
        order = train_idx[shuffler.permutation(train_idx.size)]
        batches = [order[start:start + cfg.batch_size]
                   for start in range(0, order.size, cfg.batch_size)]
        return [(batch, batch.size) for batch in batches], order.size

    def step_loss(batch):
        loss, grads = loss_and_grads(model, bundle.features[batch], rows[batch], seen_table,
                                     cfg.diversity_sign)
        return loss, np.concatenate(grads, axis=None)

    _sgd(flat, cfg, plan_epoch, step_loss, epoch_callback)
    return model


# ---------------------------------------------------------------------------
# detector ensemble training

def holdout_indices(bundle: DatasetBundle, seed: int) -> np.ndarray:
    """Per-class 20% of seen training samples, reserved for threshold
    calibration and excluded from sub-detector training."""
    rng = _rng(seed, 0xCA1)
    held: list[np.ndarray] = []
    for cls in bundle.split.seen_ids:
        block = np.nonzero((bundle.labels == cls) & bundle.split.train_flags)[0]
        if block.size < 2:
            continue
        n_hold = max(1, int(round(block.size * HOLDOUT_FRACTION)))
        held.append(rng.choice(block, size=n_hold, replace=False))
    if not held:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(held))


def pooled_features(bundle: DatasetBundle, indices: np.ndarray) -> np.ndarray:
    """Spatial-mean features, shape (len(indices), C)."""
    return spatial_mean(bundle.features[indices])


def _split_slots(n: int, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where ``np.array_split`` puts n ordered rows in ``steps`` chunks: each
    row's chunk and offset in it, and the chunk sizes."""
    sizes = np.full(steps, n // steps)
    sizes[:n % steps] += 1
    step = np.repeat(np.arange(steps), sizes)
    return step, np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes), sizes


def train_ddm(bundle: DatasetBundle, cfg: TrainConfig, epoch_callback=None) -> DdmEnsemble:
    """Train one sub-detector per fold on its ID/virtual-OOD split.

    Every fold keeps its own schedule: its init draws, its shuffler stream,
    and an epoch of ceil(ID rows / batch size) steps (at least one), over
    which its shuffled ID and OOD rows are spread with ``np.array_split``.
    All folds step together on one stacked model, and a fold past its last
    step waits with all-zero weights. ``epoch_callback(epoch, loss)`` sees
    the mean over folds of each fold's mean step loss.

    Returns an uncalibrated ensemble (theta unset) that carries the bundle's
    file digest and its holdout seed, cfg.seed; that calibration holdout never
    reaches any sub-detector.
    """
    partition = partition_classes(bundle.split.seen_ids.tolist(), cfg.fold_count, cfg.seed)
    train_idx = bundle.train_indices()
    train_idx = train_idx[~np.isin(train_idx, holdout_indices(bundle, cfg.seed))]
    if train_idx.size == 0:
        raise ValueError("bundle has no training samples left after the calibration holdout")
    labels = bundle.labels[train_idx]
    n, folds = train_idx.size, cfg.fold_count
    feats = np.vstack([pooled_features(bundle, train_idx), np.zeros((1, bundle.map_shape[2]))])
    subs = [init_subddm(i, partition.id_classes(i), feats.shape[1], cfg.ddm_hidden,
                        _rng(cfg.seed, 0xDD, i)) for i in range(folds)]
    params, counts = stack_subddms(subs)
    flat, views = _flatten(list(params.values()))
    params = dict(zip(params, views))
    shufflers = [_rng(cfg.seed, 0xDE, i) for i in range(folds)]

    # Row n of feats is the zero padding row. local[i, row] is the row's
    # local label in fold i, -1 for virtual OOD rows and padding.
    local = np.full((folds, n + 1), -1)
    layout = []  # per fold: ID rows, OOD rows, and (step, slot, weight) of each in order
    for i, sub in enumerate(subs):
        is_ood = np.isin(labels, partition.folds[i])
        id_rows, ood_rows = np.flatnonzero(~is_ood), np.flatnonzero(is_ood)
        local[i, id_rows] = np.searchsorted(sub.id_class_ids, labels[id_rows])  # sorted ids
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
        loss, grads = subddm_loss(params, counts, feats[rows], local[fold_axis, rows], row_weights)
        return loss, np.concatenate([grads[name] for name in params], axis=None)

    _sgd(flat, cfg, plan_epoch, step_loss, epoch_callback)
    return DdmEnsemble(sub_ddms=unstack_subddms(params, subs), theta=None,
                       bundle_sha256=bundle.sha256, holdout_seed=cfg.seed)


def check_training_bundle(ensemble: DdmEnsemble, bundle: DatasetBundle) -> None:
    """Refuse a bundle whose file digest differs from the one the ensemble
    was trained on; the check is skipped when either digest is unknown."""
    known = ensemble.bundle_sha256 is not None and bundle.sha256 is not None
    if known and ensemble.bundle_sha256 != bundle.sha256:
        raise ValueError("bundle is not the bundle the detector was trained on")


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
    degrees = disagreement_degree(ensemble, pooled_features(bundle, held))
    ensemble.theta = calibrate_theta(degrees, target_fnr)
    return ensemble


# ---------------------------------------------------------------------------
# checkpoints

def _write_tensors(fh, kind: str, cfg: TrainConfig, tensors: dict[str, np.ndarray]) -> None:
    cfg_json = json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode("utf-8")
    kind_b = kind.encode("utf-8")
    fh.write(CKPT_MAGIC)
    fh.write(struct.pack("<I", CKPT_VERSION))
    fh.write(struct.pack("<I", len(kind_b)) + kind_b)
    fh.write(struct.pack("<I", len(cfg_json)) + cfg_json)
    fh.write(struct.pack("<I", len(tensors)))
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype=np.float64)
        name_b = name.encode("utf-8")
        fh.write(struct.pack("<I", len(name_b)) + name_b)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype("<f8").tobytes())


class _Tensors(dict):
    """Checkpoint tensors by name; a missing name is a format error."""

    def __missing__(self, name: str):
        raise FormatError(f"checkpoint is missing tensor {name!r}")


def _read_checkpoint(path, kind: str) -> tuple[TrainConfig, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        cur = _Cursor(fh.read())
    if cur.take(4, "magic") != CKPT_MAGIC:
        raise FormatError(f"bad magic, expected {CKPT_MAGIC!r}", offset=0)
    version = cur.u32("version")
    if version != CKPT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    found = cur.text("kind")
    if found != kind:
        raise FormatError(f"checkpoint holds a {found!r} model, not {kind!r}")
    cfg_off = cur.pos
    cfg_raw = cur.text("config")
    try:
        cfg = TrainConfig(**json.loads(cfg_raw))
    except (TypeError, ValueError) as e:
        raise FormatError(f"invalid train config: {e}", offset=cfg_off) from e
    tensors = _Tensors()
    for _ in range(cur.u32("tensor count")):
        name = cur.text("tensor name")
        ndim = cur.u32("ndim")
        if ndim > 32:  # numpy's limit before 2.0; the format's tensors have at most 3
            raise FormatError(f"tensor {name} has {ndim} dimensions", offset=cur.pos - 4)
        shape = tuple(cur.u32("dim") for _ in range(ndim))
        data_off = cur.pos
        data = cur.array("<f8", math.prod(shape), f"tensor {name}").astype(np.float64)
        if not np.all(np.isfinite(data)):
            raise FormatError(f"tensor {name} contains non-finite values", offset=data_off)
        tensors[name] = data.reshape(shape)
    if cur.pos != len(cur.data):
        raise FormatError("trailing bytes after tensor block", offset=cur.pos)
    return cfg, tensors


def save_checkpoint(path, model, cfg: TrainConfig) -> None:
    """Serialize a SetNetModel or DdmEnsemble with its config."""
    if isinstance(model, SetNetModel):
        tensors = dict(model.parameters())
        tensors["diversity_weight"] = np.asarray(model.diversity_weight)
        kind = "setnet"
    elif isinstance(model, DdmEnsemble):
        if model.holdout_seed not in (None, cfg.seed):
            raise ValueError("config seed differs from the detector's holdout seed")
        tensors = {}
        for i, sub in enumerate(model.sub_ddms):
            tensors.update(sub.parameters(prefix=f"ddm.{i}."))
            tensors[f"ddm.{i}.ids"] = sub.id_class_ids.astype(np.float64)
        tensors["fold_count"] = np.asarray(float(len(model.sub_ddms)))
        if model.bundle_sha256 is not None:
            tensors["bundle_sha256"] = np.frombuffer(bytes.fromhex(model.bundle_sha256),
                                                     np.uint8).astype(np.float64)
        if model.theta is not None:
            tensors["theta"] = np.asarray(model.theta)
        kind = "ddm"
    else:
        raise TypeError(f"cannot checkpoint object of type {type(model).__name__}")
    with open(path, "wb") as fh:
        _write_tensors(fh, kind, cfg, tensors)


def load_setnet_checkpoint(path) -> tuple[SetNetModel, TrainConfig]:
    cfg, tensors = _read_checkpoint(path, "setnet")
    heads = range(cfg.head_count)
    try:  # the constructors check that the tensor shapes fit together
        attention = AttentionStack(w1=tensors["attn.w1"], b1=tensors["attn.b1"],
                                   w2=tensors["attn.w2"])
        projectors = ProjectorEnsemble(weights=np.stack([tensors[f"proj.{i}.w"] for i in heads]),
                                       biases=np.stack([tensors[f"proj.{i}.b"] for i in heads]))
        return SetNetModel(attention=attention, projectors=projectors,
                           diversity_weight=float(tensors["diversity_weight"])), cfg
    except (TypeError, ValueError) as e:
        raise FormatError(f"invalid setnet checkpoint: {e}") from e


def load_ddm_checkpoint(path) -> tuple[DdmEnsemble, TrainConfig]:
    cfg, tensors = _read_checkpoint(path, "ddm")
    digest = None
    if "bundle_sha256" in tensors:
        raw = tensors["bundle_sha256"]
        if raw.shape != (32,) or np.any((raw < 0) | (raw > 255) | (raw != np.round(raw))):
            raise FormatError("tensor bundle_sha256 is not a 32-byte digest")
        digest = raw.astype(np.uint8).tobytes().hex()
    try:  # the constructors check that the tensor shapes fit together
        subs = [SubDdm(fold_index=i, id_class_ids=tensors[f"ddm.{i}.ids"].astype(np.int64),
                       w1=tensors[f"ddm.{i}.w1"], b1=tensors[f"ddm.{i}.b1"],
                       w2=tensors[f"ddm.{i}.w2"], b2=tensors[f"ddm.{i}.b2"])
                for i in range(int(tensors["fold_count"]))]
        theta = float(tensors["theta"]) if "theta" in tensors else None
        return DdmEnsemble(sub_ddms=subs, theta=theta, bundle_sha256=digest,
                           holdout_seed=cfg.seed), cfg
    except (TypeError, ValueError) as e:
        raise FormatError(f"invalid ddm checkpoint: {e}") from e
