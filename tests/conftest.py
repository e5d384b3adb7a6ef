import dataclasses
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from setnet.dataio import SyntheticSpec, gen_synthetic
from setnet.model import SemanticTable, init_setnet
from setnet.ood import subddm_loss

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def default_bundle():
    return gen_synthetic(SyntheticSpec())


@pytest.fixture(scope="session")
def tiny_bundle():
    """Small bundle for fast structural tests."""
    return gen_synthetic(SyntheticSpec(seen_classes=4, unseen_classes=2,
                                       samples_per_class=8, channels=8,
                                       semantic_dim=8, attrs_per_class=2,
                                       seed=3))


def random_table(rng, d, s):
    vecs = rng.normal(size=(d, s))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return SemanticTable(class_ids=np.arange(d, dtype=np.int64), vectors=vecs)


def random_model(rng, c=8, ch=6, k=3, s=5, lam=0.2):
    return init_setnet(c, ch, k, s, lam, rng)


def safe_instance(seed, h=4, w=4, c=8, ch=6, k=3, d=5, s=5, lam=0.2, margin=1e-3,
                  batch=None):
    """Model + feature map + table whose hidden pre-activations stay away
    from the ReLU kink, keeping the loss twice differentiable at the probe
    (grad_check precondition). Redraws deterministically until safe.

    With ``batch=B`` the map is a (B, H, W, C) stack and the label a (B,)
    array of class ids."""
    for attempt in range(50):
        rng = np.random.default_rng([seed, attempt, 0xC4EC])
        model = random_model(rng, c, ch, k, s, lam)
        fmap = rng.normal(size=(h, w, c) if batch is None else (batch, h, w, c))
        z1 = fmap.reshape(-1, c) @ model.attention.w1 + model.attention.b1
        if np.abs(z1).min() > margin:
            table = random_table(rng, d, s)
            label = int(rng.integers(d)) if batch is None else rng.integers(d, size=batch)
            return model, fmap, table, label
    raise AssertionError("could not draw a kink-free instance")


def fold_ids_of(e, i):
    """Fold i's sorted ID class ids, padding trimmed."""
    return e.fold_ids[i, :e.class_counts[i]]


def fold_params(e, i):
    """Fold i of a stacked detector as the per-fold dict the oracles take:
    its class ids ("ids") and its w1, b1, w2 and b2, padding trimmed."""
    n = e.class_counts[i]
    return {"ids": fold_ids_of(e, i), "w1": e.w1[i], "b1": e.b1[i],
            "w2": e.w2[i, :, :n], "b2": e.b2[i, :n]}


def stacked_batch(e, chunks, pad=0):
    """The (I, B, C) feature stack, (I, B) local labels and (I, B) row
    weights that ``ood.subddm_loss`` takes, from one ``(id_feats,
    id_class_ids, ood_feats)`` chunk per fold of ``e``, ID rows first. A
    ``None`` chunk is a fold with no rows this step. Every fold is padded to
    the widest fold plus ``pad`` rows; padding rows hold nonzero features,
    label -1 and weight 0, so they must not count."""
    rows = [0 if ch is None else len(ch[0]) + len(ch[2]) for ch in chunks]
    width = max(rows) + pad
    folds = len(chunks)
    feats = np.full((folds, width, e.in_dim), 0.5)
    labels = np.full((folds, width), -1)
    weights = np.zeros((folds, width))
    for i, ch in enumerate(chunks):
        if ch is None:
            continue
        id_feats, id_ids, ood_feats = ch
        n_id, n_ood = len(id_feats), len(ood_feats)
        feats[i, :n_id] = id_feats
        feats[i, n_id:n_id + n_ood] = ood_feats
        labels[i, :n_id] = np.searchsorted(fold_ids_of(e, i), id_ids)
        weights[i, :n_id] = 1.0 / max(n_id, 1)
        weights[i, n_id:n_id + n_ood] = 1.0 / max(n_ood, 1)
    return feats, labels, weights


def subddm_loss_and_grads(e, feats, labels, weights):
    """``ood.subddm_loss`` with fresh gradient arrays: the (I,) fold losses
    and the gradient set, keyed like ``e.parameters()``."""
    grads = {name: np.empty_like(p) for name, p in e.parameters().items()}
    return subddm_loss(e, feats, labels, weights, tuple(grads.values())), grads


# (field, value, start of the error message): TrainConfig values that must
# be refused however they arrive, from a config file or a checkpoint
INVALID_TRAIN_CONFIGS = {
    "epochs_fraction": ("epochs", 2.5, "epochs must be an int"),
    "fold_count_fraction": ("fold_count", 2.5, "fold_count must be an int"),
    "head_count_bool": ("head_count", True, "head_count must be an int"),
    "learning_rate_nan": ("learning_rate", float("nan"), "learning_rate must be a finite float"),
    "diversity_weight_inf": ("diversity_weight", float("inf"), "diversity_weight must be a finite float"),
    "learning_rate_text": ("learning_rate", "4.0", "learning_rate must be a finite float"),
    "seed_negative": ("seed", -1, "seed must be >= 0"),
}


MISFIT_DDM = ["b1_short", "b2_long", "w2_hidden", "ids_wide"]


def misfit_ddm(e, defect):
    """Give a detector one of the ``MISFIT_DDM`` shape defects in place.
    Only the constructor checks shapes, so ``save_checkpoint`` writes it as
    it is."""
    if defect == "b1_short":
        e.b1 = e.b1[:, :-1]
    elif defect == "b2_long":
        e.b2 = np.pad(e.b2, [(0, 0), (0, 1)])
    elif defect == "w2_hidden":
        e.w2 = e.w2[:, :-1]
    else:  # a class-id table one column wider than w2, the extra column all padding
        e.fold_ids = np.pad(e.fold_ids, [(0, 0), (0, 1)], constant_values=-1)


def checkpoint_bytes(cfg, entries, kind="setnet") -> bytes:
    """A checkpoint from (name, dims, payload) entries and a TrainConfig or
    a config dict, written straight from the documented layout."""
    cfg = cfg if isinstance(cfg, dict) else dataclasses.asdict(cfg)
    cfg_json = json.dumps(cfg, sort_keys=True).encode("utf-8")
    out = [b"SDNC", struct.pack("<II", 1, len(kind)), kind.encode("utf-8"),
           struct.pack("<I", len(cfg_json)), cfg_json, struct.pack("<I", len(entries))]
    for name, dims, payload in entries:
        out += [struct.pack("<I", len(name)), name.encode("utf-8"),
                struct.pack(f"<I{len(dims)}I", len(dims), *dims), payload]
    return b"".join(out)


def per_fold_ddm_checkpoint(e, cfg) -> bytes:
    """``e`` in the per-fold ddm layout of earlier versions: "ddm.<i>.w1",
    ".b1", ".w2", ".b2" and ".ids" per fold, unpadded, and "fold_count"."""
    tensors = {"fold_count": np.asarray(float(e.w1.shape[0]))}
    for i, n in enumerate(e.class_counts):
        tensors.update({f"ddm.{i}.w1": e.w1[i], f"ddm.{i}.b1": e.b1[i],
                        f"ddm.{i}.w2": e.w2[i, :, :n], f"ddm.{i}.b2": e.b2[i, :n],
                        f"ddm.{i}.ids": e.fold_ids[i, :n]})
    return checkpoint_bytes(cfg, [(name, np.shape(a), np.asarray(a, dtype="<f8").tobytes())
                                  for name, a in tensors.items()], kind="ddm")
