import dataclasses
import hashlib
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from setnet.dataio import DatasetBundle, SyntheticSpec, gen_synthetic
from setnet.metrics import EvalReport
from setnet.model import SemanticTable, init_setnet
from setnet.ood import init_ddm, partition_classes, subddm_loss

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


def bundle_of(fmaps):
    """A bundle holding the float32 (N, H, W, C) maps ``fmaps`` as N test
    rows of one seen class, to feed them through ``map_rows``."""
    n = len(fmaps)
    return DatasetBundle(features=fmaps, labels=np.zeros(n, dtype=np.int64),
                         table=SemanticTable(class_ids=[0], vectors=[[1.0]]),
                         seen_ids=[0], train_flags=np.zeros(n, dtype=bool))


def report_from_json(text) -> EvalReport:
    """A report read back from the JSON ``save_report`` writes; the
    constructor re-validates it, the harmonic mean included."""
    doc = json.loads(text)
    pairs = doc.get("tnr_at_fnr")
    return EvalReport(acc=doc.get("acc"), acc_seen=doc.get("acc_seen"),
                      acc_unseen=doc.get("acc_unseen"), h=doc.get("h"),
                      per_class={int(k): v for k, v in doc.get("per_class", {}).items()},
                      tnr_at_fnr=None if pairs is None else [(f, t) for f, t in pairs])


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
        z1 = fmap.reshape(-1, c) @ model.w1 + model.b1
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


def id_classes(seen_ids, folds):
    """Each fold's sorted ID classes: the seen classes outside it."""
    return [sorted(set(seen_ids) - set(fold)) for fold in folds]


def ragged_ensemble(rng, in_dim=6, hidden=8):
    """Three stacked sub-detectors for 5 classes in 3 folds: 3, 3 and 4 ID
    classes, so two folds have a padding column."""
    return init_ddm(id_classes(range(5), partition_classes(range(5), 3, seed=0)), in_dim, hidden,
                    [rng] * 3)


def ragged_chunks(rng, e, finished=None):
    """One chunk per fold with differing ID/OOD row counts, one of them with
    an empty OOD chunk; ``finished`` names a fold with no rows at all."""
    sizes = [(4, 2), (3, 0), (2, 3)]
    chunks = [(rng.normal(size=(n_id, 6)), rng.choice(fold_ids_of(e, i), size=n_id),
               rng.normal(size=(n_ood, 6))) for i, (n_id, n_ood) in enumerate(sizes)]
    if finished is not None:
        chunks[finished] = None
    return chunks


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


def container_bytes(kind, meta, tensors, entries=None) -> bytes:
    """A version-2 container with a valid checksum, written straight from the
    documented layout: ``tensors`` maps names to arrays stored with their
    own dtypes, and ``entries``, when given, replaces the header's [name,
    dtype, shape] list, so a header can describe tensors that are not
    there."""
    arrays = [np.ascontiguousarray(a) for a in tensors.values()]
    if entries is None:
        entries = [[name, a.dtype.str, list(a.shape)] for name, a in zip(tensors, arrays)]
    header = json.dumps({"kind": kind, "meta": meta, "tensors": entries},
                        sort_keys=True).encode("utf-8")
    out = b"SDNT" + struct.pack("<II", 2, len(header)) + header
    for a in arrays:
        out += bytes(-len(out) % 8) + a.tobytes()
    return out + hashlib.sha256(out).digest()


def resealed(data) -> bytes:
    """A container's bytes, edited, with the checksum made valid again."""
    return bytes(data[:-32]) + hashlib.sha256(bytes(data[:-32])).digest()


def setnet_meta(cfg, model) -> dict:
    """The meta of a SetNet checkpoint of ``model``, from a TrainConfig or a dict."""
    cfg = cfg if isinstance(cfg, dict) else dataclasses.asdict(cfg)
    return {"config": cfg, "diversity_weight": float(model.diversity_weight)}


def ddm_tensors(e) -> dict:
    """The tensors of a ddm checkpoint of ``e``."""
    return dict(e.parameters(), ids=e.fold_ids)


def bundle_tensors(bundle) -> dict:
    """The tensors of a bundle container, with the dtypes the format stores."""
    return {"class_ids": bundle.table.class_ids.astype("<u4"),
            "semantics": bundle.table.vectors.astype("<f4"),
            "seen_ids": bundle.seen_ids.astype("<u4"),
            "labels": bundle.labels.astype("<u4"),
            "train_flags": bundle.train_flags.astype("<u1"),
            "features": bundle.features.astype("<f4")}


# ---------------------------------------------------------------------------
# version 1 files, as earlier versions wrote them

def v1_bundle_bytes(bundle) -> bytes:
    """``bundle`` in the version 1 "SDNB" layout."""
    n, h, w, c = bundle.features.shape
    d, s = bundle.table.vectors.shape
    return b"".join([b"SDNB", struct.pack("<8I", 1, n, h, w, c, s, d, len(bundle.seen_ids)),
                     *(a.tobytes() for a in bundle_tensors(bundle).values())])


def v1_checkpoint_bytes(cfg, entries, kind="setnet") -> bytes:
    """A version 1 "SDNC" checkpoint from (name, dims, payload) entries and
    a TrainConfig or a config dict."""
    cfg = cfg if isinstance(cfg, dict) else dataclasses.asdict(cfg)
    cfg_json = json.dumps(cfg, sort_keys=True).encode("utf-8")
    out = [b"SDNC", struct.pack("<II", 1, len(kind)), kind.encode("utf-8"),
           struct.pack("<I", len(cfg_json)), cfg_json, struct.pack("<I", len(entries))]
    for name, dims, payload in entries:
        out += [struct.pack("<I", len(name)), name.encode("utf-8"),
                struct.pack(f"<I{len(dims)}I", len(dims), *dims), payload]
    return b"".join(out)


def v1_ddm_checkpoint(e, cfg) -> bytes:
    """``e`` in the stacked version 1 ddm layout: "ddm.w1", ".b1", ".w2",
    ".b2" and ".ids" as float64, and the training bundle's digest as 32
    float64 byte values."""
    tensors = {f"ddm.{name}": a for name, a in ddm_tensors(e).items()}
    if e.bundle_sha256 is not None:
        tensors["bundle_sha256"] = np.frombuffer(bytes.fromhex(e.bundle_sha256), np.uint8)
    return v1_checkpoint_bytes(cfg, [(name, np.shape(a), np.asarray(a, dtype="<f8").tobytes())
                                     for name, a in tensors.items()], kind="ddm")


def per_fold_tensors(e) -> dict:
    """``e`` in the per-fold ddm layout of earlier versions: "ddm.<i>.w1",
    ".b1", ".w2", ".b2" and ".ids" per fold, unpadded, and "fold_count"."""
    tensors = {"fold_count": np.asarray(float(e.w1.shape[0]))}
    for i, n in enumerate(e.class_counts):
        tensors.update({f"ddm.{i}.w1": e.w1[i], f"ddm.{i}.b1": e.b1[i],
                        f"ddm.{i}.w2": e.w2[i, :, :n], f"ddm.{i}.b2": e.b2[i, :n],
                        f"ddm.{i}.ids": e.fold_ids[i, :n].astype(np.float64)})
    return tensors


def per_fold_ddm_checkpoint(e, cfg) -> bytes:
    """``e`` as a per-fold version 1 ddm checkpoint."""
    return v1_checkpoint_bytes(cfg, [(name, np.shape(a), np.asarray(a, dtype="<f8").tobytes())
                                     for name, a in per_fold_tensors(e).items()], kind="ddm")
