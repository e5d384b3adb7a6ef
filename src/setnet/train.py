"""Seeded minibatch SGD for the attention model and the detector ensemble,
plus the binary checkpoint format.

Training is plain SGD (no momentum, no weight decay). Each step makes one
batched loss call that returns the minibatch-mean loss and its gradient,
the per-epoch order is a seeded shuffle, and the last partial batch is
kept, so a (bundle, config) pair fully determines the result bitwise. A
step whose loss is not finite stops training with a ``FloatingPointError``.

Checkpoint layout (little-endian):

    magic "SDNC" | u32 version=1 | u32 kind length | kind bytes
    ("setnet"/"ddm") | u32 config length | config JSON (utf-8) |
    u32 tensor count | per tensor: u32 name length | name bytes |
    u32 ndim | u32 dims... | float64 data

Integer payloads such as fold class ids and the 32 bytes of the training
bundle's SHA-256 ("bundle_sha256") travel as float64 tensors; the
calibrated threshold is a 0-d tensor named "theta" present only once set.
Readers reject truncated data, non-finite values and missing tensors with a
``FormatError``, and ignore tensors they do not need.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .dataio import DatasetBundle, make_folds
from .diffmath import spatial_mean
from .errors import FormatError
from .model import SetNetModel, init_setnet, total_loss
from .ood import DdmEnsemble, SubDdm, calibrate_theta, disagreement_degree, init_subddm, subddm_loss

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


def _sgd_step(params: dict[str, np.ndarray], grads, lr: float) -> None:
    for name in params:
        params[name] -= lr * grads[name]


def _require_finite_loss(loss: float, where: str) -> None:
    if not math.isfinite(loss):
        raise FloatingPointError(f"non-finite training loss {loss!r} at {where}")


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
    params = model.parameters()
    shuffler = _rng(cfg.seed, 0x12)
    for epoch in range(cfg.epochs):
        order = train_idx[shuffler.permutation(train_idx.size)]
        epoch_loss = 0.0
        for step, start in enumerate(range(0, order.size, cfg.batch_size)):
            batch = order[start:start + cfg.batch_size]
            loss, grads = total_loss(model, bundle.features[batch], bundle.labels[batch],
                                     seen_table, diversity_sign=cfg.diversity_sign)
            _require_finite_loss(loss, f"epoch {epoch}, step {step}")
            epoch_loss += loss * batch.size
            _sgd_step(params, grads, cfg.learning_rate)
        if epoch_callback is not None:
            epoch_callback(epoch, epoch_loss / order.size)
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


def train_ddm(bundle: DatasetBundle, cfg: TrainConfig, epoch_callback=None) -> DdmEnsemble:
    """Train one sub-detector per fold on its ID/virtual-OOD split.

    Returns an uncalibrated ensemble (theta unset) that carries the bundle's
    file digest; the calibration holdout derived from cfg.seed never reaches
    any sub-detector.
    """
    partition = make_folds(bundle.split, cfg.fold_count, cfg.seed)
    held = set(holdout_indices(bundle, cfg.seed).tolist())
    train_idx = np.array([i for i in bundle.train_indices() if i not in held], dtype=np.int64)
    if train_idx.size == 0:
        raise ValueError("bundle has no training samples left after the calibration holdout")
    feats = pooled_features(bundle, train_idx)
    labels = bundle.labels[train_idx]

    subs: list[SubDdm] = []
    epoch_losses = np.zeros(cfg.epochs)
    for i in range(cfg.fold_count):
        fold_classes = set(partition.folds[i])
        ood_mask = np.isin(labels, list(fold_classes))
        id_rows = np.nonzero(~ood_mask)[0]
        ood_rows = np.nonzero(ood_mask)[0]
        sub = init_subddm(i, partition.id_classes(i), feats.shape[1],
                          cfg.ddm_hidden, _rng(cfg.seed, 0xDD, i))
        params = sub.parameters()
        shuffler = _rng(cfg.seed, 0xDE, i)
        for epoch in range(cfg.epochs):
            id_order = id_rows[shuffler.permutation(id_rows.size)]
            ood_order = ood_rows[shuffler.permutation(ood_rows.size)]
            n_steps = max(1, -(-id_order.size // cfg.batch_size))
            id_chunks = np.array_split(id_order, n_steps)
            ood_chunks = np.array_split(ood_order, n_steps)
            for step, (id_chunk, ood_chunk) in enumerate(zip(id_chunks, ood_chunks)):
                loss, grads = subddm_loss(sub, feats[id_chunk], labels[id_chunk],
                                          feats[ood_chunk])
                _require_finite_loss(loss, f"fold {i}, epoch {epoch}, step {step}")
                epoch_losses[epoch] += loss / cfg.fold_count / len(id_chunks)
                _sgd_step(params, grads, cfg.learning_rate)
        subs.append(sub)
    if epoch_callback is not None:
        for epoch, loss in enumerate(epoch_losses):
            epoch_callback(epoch, float(loss))
    return DdmEnsemble(sub_ddms=subs, theta=None, bundle_sha256=bundle.sha256)


def calibrate_ensemble(ensemble: DdmEnsemble, bundle: DatasetBundle, seed: int,
                       target_fnr: float) -> DdmEnsemble:
    """Set theta from the holdout's disagreement degrees; returns the same
    ensemble with theta filled in.

    Refuses a bundle whose file digest differs from the one the ensemble was
    trained on; the check is skipped when either digest is unknown.
    """
    known = ensemble.bundle_sha256 is not None and bundle.sha256 is not None
    if known and ensemble.bundle_sha256 != bundle.sha256:
        raise ValueError("bundle is not the bundle the detector was trained on")
    held = holdout_indices(bundle, seed)
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


def _read_checkpoint(path) -> tuple[str, TrainConfig, dict[str, np.ndarray]]:
    from .dataio import _Cursor  # same cursor, same error discipline
    with open(path, "rb") as fh:
        cur = _Cursor(fh.read())
    if cur.take(4, "magic") != CKPT_MAGIC:
        raise FormatError(f"bad magic, expected {CKPT_MAGIC!r}", offset=0)
    version = cur.u32("version")
    if version != CKPT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    kind = cur.take(cur.u32("kind length"), "kind").decode("utf-8")
    cfg_off = cur.pos
    cfg_raw = cur.take(cur.u32("config length"), "config").decode("utf-8")
    try:
        cfg = TrainConfig(**json.loads(cfg_raw))
    except (TypeError, ValueError) as e:
        raise FormatError(f"invalid train config: {e}", offset=cfg_off) from e
    tensors = _Tensors()
    for _ in range(cur.u32("tensor count")):
        name = cur.take(cur.u32("name length"), "tensor name").decode("utf-8")
        ndim = cur.u32("ndim")
        shape = tuple(cur.u32("dim") for _ in range(ndim))
        data_off = cur.pos
        data = cur.array("<f8", math.prod(shape), f"tensor {name}").astype(np.float64)
        if not np.all(np.isfinite(data)):
            raise FormatError(f"tensor {name} contains non-finite values", offset=data_off)
        tensors[name] = data.reshape(shape)
    if cur.pos != len(cur.data):
        raise FormatError("trailing bytes after tensor block", offset=cur.pos)
    return kind, cfg, tensors


def save_checkpoint(path, model, cfg: TrainConfig) -> None:
    """Serialize a SetNetModel or DdmEnsemble with its config."""
    if isinstance(model, SetNetModel):
        tensors = dict(model.parameters())
        tensors["diversity_weight"] = np.asarray(model.diversity_weight)
        kind = "setnet"
    elif isinstance(model, DdmEnsemble):
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
    kind, cfg, tensors = _read_checkpoint(path)
    if kind != "setnet":
        raise FormatError(f"checkpoint holds a {kind!r} model, not 'setnet'")
    from .model import AttentionStack, ProjectorEnsemble
    k = cfg.head_count
    attention = AttentionStack(w1=tensors["attn.w1"], b1=tensors["attn.b1"],
                               w2=tensors["attn.w2"])
    projectors = ProjectorEnsemble(
        weights=np.stack([tensors[f"proj.{i}.w"] for i in range(k)]),
        biases=np.stack([tensors[f"proj.{i}.b"] for i in range(k)]),
    )
    model = SetNetModel(attention=attention, projectors=projectors,
                        diversity_weight=float(tensors["diversity_weight"]))
    return model, cfg


def load_ddm_checkpoint(path) -> tuple[DdmEnsemble, TrainConfig]:
    kind, cfg, tensors = _read_checkpoint(path)
    if kind != "ddm":
        raise FormatError(f"checkpoint holds a {kind!r} model, not 'ddm'")
    count = int(tensors["fold_count"])
    subs = []
    for i in range(count):
        subs.append(SubDdm(fold_index=i,
                           id_class_ids=tensors[f"ddm.{i}.ids"].astype(np.int64),
                           w1=tensors[f"ddm.{i}.w1"], b1=tensors[f"ddm.{i}.b1"],
                           w2=tensors[f"ddm.{i}.w2"], b2=tensors[f"ddm.{i}.b2"]))
    theta = float(tensors["theta"]) if "theta" in tensors else None
    digest = None
    if "bundle_sha256" in tensors:
        raw = tensors["bundle_sha256"]
        if raw.shape != (32,) or np.any((raw < 0) | (raw > 255) | (raw != np.round(raw))):
            raise FormatError("tensor bundle_sha256 is not a 32-byte digest")
        digest = raw.astype(np.uint8).tobytes().hex()
    return DdmEnsemble(sub_ddms=subs, theta=theta, bundle_sha256=digest), cfg
