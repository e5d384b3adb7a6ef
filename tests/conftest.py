import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from setnet.dataio import SyntheticSpec, gen_synthetic
from setnet.model import SemanticTable, init_setnet

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


def stacked_batch(subs, chunks, pad=0):
    """The (I, B, C) feature stack, (I, B) local labels and (I, B) row
    weights that ``ood.subddm_loss`` takes, from one ``(id_feats,
    id_class_ids, ood_feats)`` chunk per fold, ID rows first. A ``None``
    chunk is a fold with no rows this step. Every fold is padded to the
    widest fold plus ``pad`` rows; padding rows hold nonzero features, label
    -1 and weight 0, so they must not count."""
    rows = [0 if ch is None else len(ch[0]) + len(ch[2]) for ch in chunks]
    width = max(rows) + pad
    folds = len(subs)
    feats = np.full((folds, width, subs[0].in_dim), 0.5)
    labels = np.full((folds, width), -1)
    weights = np.zeros((folds, width))
    for i, (sub, ch) in enumerate(zip(subs, chunks)):
        if ch is None:
            continue
        id_feats, id_ids, ood_feats = ch
        n_id, n_ood = len(id_feats), len(ood_feats)
        feats[i, :n_id] = id_feats
        feats[i, n_id:n_id + n_ood] = ood_feats
        labels[i, :n_id] = np.searchsorted(sub.id_class_ids, id_ids)
        weights[i, :n_id] = 1.0 / max(n_id, 1)
        weights[i, n_id:n_id + n_ood] = 1.0 / max(n_ood, 1)
    return feats, labels, weights


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


MISFIT_DDM = ["b1_short", "b2_long", "w2_hidden", "fold_in_dim"]


def misfit_ddm(ensemble, defect):
    """Give a detector one of the ``MISFIT_DDM`` shape defects in place.
    Only the constructors check shapes, so ``save_checkpoint`` writes it as
    it is."""
    sub = ensemble.sub_ddms[1 if defect == "fold_in_dim" else 0]
    if defect == "b1_short":
        sub.b1 = sub.b1[:-1]
    elif defect == "b2_long":
        sub.b2 = np.append(sub.b2, 0.0)
    elif defect == "w2_hidden":
        sub.w2 = sub.w2[:-1]
    else:  # fold 1 takes one more input channel than fold 0; its own layers fit
        sub.w1 = np.vstack([sub.w1, np.zeros((1, sub.w1.shape[1]))])
