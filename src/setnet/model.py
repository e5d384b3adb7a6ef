"""Multi-attention feature head with a diversity regularizer and a
visual-semantic projector ensemble.

A feature map (H, W, C) goes through a two-layer 1x1 convolutional stack
producing K spatial attention maps (softmax over positions, one map per
head). Each head pools the feature map with its attention weights, projects
the pooled vector into semantic space through its own affine projector, and
class scores are dot products against the rows of a semantic table. The
diversity regularizer is the sum of pairwise squared Hellinger distances
between the attention maps, pushing the heads to attend to different
regions.

``SetNetModel`` holds its five arrays flat, and ``parameters()`` names them
as the checkpoint stores them. The training loss and inference
(``attention_maps``, ``class_scores``, ``predict``) take only a (B, H, W, C)
batch and run one shared forward for it; one map is a batch of one, and an
unbatched map is refused. ``total_loss`` checks its labels and runs
``loss_and_grads``, which the trainer calls directly with gradient arrays to
fill: each layer is one 2-D product over the batch, written out here with
its ReLU and the spatial softmax's backward, and the CE and diversity
gradients are closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffmath as dm
from .diffmath import GradientSet

# Both square roots in the diversity gradient are clamped here, so it stays
# finite when an attention weight underflows to 0.
HELLINGER_CLAMP = 1e-12


@dataclass
class SemanticTable:
    """Per-class semantic attribute vectors; rows live on the unit sphere."""

    class_ids: np.ndarray  # (D,) int64
    vectors: np.ndarray    # (D, S) float64

    def __post_init__(self):
        self.class_ids = np.asarray(self.class_ids, dtype=np.int64)
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.class_ids.ndim != 1 or self.vectors.ndim != 2:
            raise ValueError("expected (D,) ids and (D, S) vectors")
        if self.class_ids.shape[0] != self.vectors.shape[0]:
            raise ValueError("id count does not match vector count")
        if len(set(self.class_ids.tolist())) != self.class_ids.shape[0]:
            raise ValueError("class ids must be unique")
        norms = np.linalg.norm(self.vectors, axis=1)
        if self.class_ids.shape[0] and np.abs(norms - 1.0).max() > 1e-6:
            raise ValueError("semantic rows must have unit Euclidean norm (within 1e-6)")

    def __len__(self) -> int:
        return self.class_ids.shape[0]

    @property
    def semantic_dim(self) -> int:
        return self.vectors.shape[1]

    def indices_of(self, class_ids) -> np.ndarray:
        """Row index of every given class id, in the given order."""
        ids = np.asarray(class_ids, dtype=np.int64)
        hits = ids[..., None] == self.class_ids
        missing = ~hits.any(axis=-1)
        if missing.any():
            raise IndexError(f"class id {ids[missing][0]} not in table")
        return hits.argmax(axis=-1)

    def subset(self, class_ids) -> "SemanticTable":
        """Rows for the given ids, ordered by ascending class id."""
        wanted = np.sort(np.asarray(list(class_ids), dtype=np.int64))
        return SemanticTable(class_ids=wanted, vectors=self.vectors[self.indices_of(wanted)])


@dataclass
class SetNetModel:
    """The attention stack, the projector ensemble and the diversity weight.

    The two-layer 1x1 conv stack maps C channels through ``w1`` (C, C_h),
    ``b1`` (C_h,) and a ReLU to K head logits with ``w2`` (C_h, K). It has no
    second bias: a per-head constant shifts every cell of its map equally and
    cancels exactly under the spatial softmax. Head k's affine projector maps
    its pooled (C,) feature to semantic space with ``proj_w[k]`` (C, S) and
    ``proj_b[k]`` (S,). ``bundle_sha256`` is the SHA-256 stored in the bundle
    file the model was trained on, when known; ``train.check_training_bundle``
    refuses any other.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    proj_w: np.ndarray
    proj_b: np.ndarray
    diversity_weight: float = 0.2
    bundle_sha256: str | None = None

    def __post_init__(self):
        c, hidden = self.w1.shape if self.w1.ndim == 2 else (-1, -1)
        k, s = self.proj_b.shape if self.proj_b.ndim == 2 else (-1, -1)
        got = [np.shape(a) for a in (self.w1, self.b1, self.w2, self.proj_w, self.proj_b)]
        if got != [(c, hidden), (hidden,), (hidden, k), (k, c, s), (k, s)] or min(hidden, k) < 1:
            raise ValueError(f"expected w1 (C, C_h), b1 (C_h,), w2 (C_h, K), proj_w (K, C, S) and "
                             f"proj_b (K, S) with C_h, K >= 1, got shapes {got}")
        if not 0 <= self.diversity_weight < np.inf:
            raise ValueError("diversity weight must be finite and >= 0")

    @property
    def head_count(self) -> int:
        return self.w2.shape[1]

    def parameters(self) -> dict[str, np.ndarray]:
        """Every trainable array by its container name (mutating them mutates
        the model)."""
        return {"attn.w1": self.w1, "attn.b1": self.b1, "attn.w2": self.w2,
                "proj.w": self.proj_w, "proj.b": self.proj_b}


def init_setnet(channels: int, hidden_channels: int, head_count: int,
                semantic_dim: int, diversity_weight: float,
                rng: np.random.Generator) -> SetNetModel:
    """Fresh model with uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights,
    drawn in the order w1, b1, w2, proj_w, proj_b."""
    def u(fan_in, *shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    return SetNetModel(w1=u(channels, channels, hidden_channels), b1=u(channels, hidden_channels),
                       w2=u(hidden_channels, hidden_channels, head_count),
                       proj_w=u(channels, head_count, channels, semantic_dim),
                       proj_b=u(channels, head_count, semantic_dim),
                       diversity_weight=diversity_weight)


# ---------------------------------------------------------------------------
# forward operations

def _batch(fmaps) -> np.ndarray:
    """A (B, H, W, C) batch of feature maps as float64; anything else is refused."""
    fmaps = np.asarray(fmaps, dtype=np.float64)
    if fmaps.ndim != 4:
        raise ValueError(f"expected a (B, H, W, C) batch of feature maps, got shape {fmaps.shape}")
    return fmaps


def _pool(model: SetNetModel, fmaps: np.ndarray):
    """The shared forward of a (B, H, W, C) batch up to the pooled features.

    Returns the cells x (B, T, C) with T = H*W, the hidden pre-activations
    z1 (B*T, C_h), their ReLU r, the C-order attention maps (B, K, T) and the
    attention-pooled features (B, K, C).
    """
    fmaps = _batch(fmaps)
    b, h, w, c = fmaps.shape
    if c != model.w1.shape[0]:
        raise ValueError(f"channel mismatch: feature maps have {c} channels, "
                         f"the model takes {model.w1.shape[0]}")
    x = fmaps.reshape(b, h * w, c)
    z1 = x.reshape(b * h * w, c) @ model.w1 + model.b1  # the 1x1 conv over every cell
    r = np.maximum(z1, 0.0)
    logits = (r @ model.w2).reshape(b, h * w, -1)
    maps = dm.softmax(np.ascontiguousarray(logits.swapaxes(1, 2)))
    return x, z1, r, maps, maps @ x


def attention_maps(model: SetNetModel, fmaps: np.ndarray) -> np.ndarray:
    """The (B, K, H, W) spatial attention maps of a (B, H, W, C) batch; each
    (H, W) slice sums to 1."""
    maps = _pool(model, fmaps)[3]
    return maps.reshape(*maps.shape[:2], *np.shape(fmaps)[1:3])


def diversity_loss(maps: np.ndarray, grad: bool = False):
    """Sum of squared Hellinger distances over ordered head pairs, (B,) for
    a (B, K, H, W) batch of attention stacks.

    Each unordered pair counts twice; range [0, K*(K-1)]. With r_i =
    sqrt(a_i) for head i it is, in closed form, K(K-1) - (|sum_i r_i|^2 -
    sum_i |r_i|^2).

    ``grad=True`` also returns the gradient w.r.t. the maps, shaped like
    them: 1 - sum_j q_j / q_i for head i, with q = sqrt(max(a,
    HELLINGER_CLAMP)).
    """
    maps = np.asarray(maps, dtype=np.float64)
    if maps.ndim != 4 or maps.shape[1] == 0:
        raise ValueError(f"expected a (B, K, H, W) batch of attention stacks with K >= 1, "
                         f"got shape {maps.shape}")
    k = maps.shape[1]
    flat = maps.reshape(-1, k, maps.shape[2] * maps.shape[3])
    roots = np.sqrt(np.maximum(flat, 0.0))
    off_diag = np.square(roots.sum(axis=1)).sum(axis=1) - np.square(roots).sum(axis=(1, 2))
    values = k * (k - 1) - off_diag
    if not grad:
        return values
    q = np.sqrt(np.maximum(flat, HELLINGER_CLAMP))
    return values, (1.0 - q.sum(axis=1, keepdims=True) / q).reshape(maps.shape)


def ensemble_logits(model: SetNetModel, feats: np.ndarray, table: SemanticTable) -> np.ndarray:
    """Mean projector score per class, (B, D) for a (B, K, V) batch of pooled
    features: logits[b, d] = (1/K) sum_k Q_k(m_bk) . e_d."""
    feats = np.asarray(feats, dtype=np.float64)
    k, v, s = model.proj_w.shape
    if feats.ndim != 3 or feats.shape[1:] != (k, v):
        raise ValueError(f"expected a (B, K, V) = (B, {k}, {v}) batch of pooled features, "
                         f"got shape {feats.shape}")
    if table.semantic_dim != s:
        raise ValueError(f"semantic dim mismatch: table {table.semantic_dim} vs projectors {s}")
    # all K projectors, and their sum over heads, as one (B, K*V) @ (K*V, S) product
    projected = feats.reshape(-1, k * v) @ model.proj_w.reshape(k * v, s) + model.proj_b.sum(axis=0)
    return (projected / k) @ table.vectors.T  # the head mean


def class_scores(model: SetNetModel, fmaps: np.ndarray, table: SemanticTable) -> np.ndarray:
    """Summed (not averaged) projector scores per table class, (B, D) for a
    (B, H, W, C) batch; used for prediction."""
    return ensemble_logits(model, _pool(model, fmaps)[4], table) * model.head_count


def predict(model: SetNetModel, fmaps: np.ndarray, table: SemanticTable) -> np.ndarray:
    """The (B,) class ids with the highest summed projector score for a (B,
    H, W, C) batch; ties go to the smallest class id."""
    if len(table) == 0:
        raise ValueError("semantic table is empty")
    scores = class_scores(model, fmaps, table)
    winners = np.where(scores == scores.max(axis=1, keepdims=True), table.class_ids,
                       np.iinfo(np.int64).max)
    return winners.min(axis=1)


# ---------------------------------------------------------------------------
# training loss

def total_loss(model: SetNetModel, fmaps: np.ndarray, labels,
               table: SemanticTable, diversity_sign: int = -1) -> tuple[float, GradientSet]:
    """Batch-mean classification loss plus signed diversity term, with gradients.

    ``fmaps`` is a (B, H, W, C) batch and ``labels`` its (B,) class ids.
    Returns the mean over the batch of ``L_cls + diversity_sign * weight *
    L_div`` and the gradient of that mean w.r.t. every model parameter. The
    default sign -1 means minimizing the total *increases* attention-map
    diversity.
    """
    if diversity_sign not in (1, -1):
        raise ValueError("diversity_sign must be +1 or -1")
    fmaps = _batch(fmaps)
    rows = table.indices_of(labels)
    if rows.shape != fmaps.shape[:1]:
        raise ValueError(f"expected {fmaps.shape[0]} labels, got shape {rows.shape}")
    if rows.size == 0:
        raise ValueError("empty batch")
    grads = {name: np.empty_like(p) for name, p in model.parameters().items()}
    return loss_and_grads(model, fmaps, rows, table, diversity_sign, tuple(grads.values())), grads


def loss_and_grads(model: SetNetModel, fmaps: np.ndarray, rows: np.ndarray,
                   table: SemanticTable, diversity_sign: int, grads: tuple) -> float:
    """``total_loss`` for a nonempty batch whose labels are the table rows
    ``rows``, unchecked. Returns the loss and writes its gradient into
    ``grads``: C-order arrays shaped like the model's w1, b1, w2, proj_w and
    proj_b, in that order."""
    x, z1, r, maps, feats = _pool(model, fmaps)
    b, h, w = np.shape(fmaps)[:3]
    k, v, s = model.proj_w.shape
    g_w1, g_b1, g_w2, g_proj_w, g_proj_b = grads

    # the CE loss and dCE/dscores = p - onehot, with the rows taken as given
    d_scores, log_p = dm.softmax_with_log(ensemble_logits(model, feats, table))  # (B, D)
    picked = np.arange(b), rows
    l_cls = -log_p[picked]
    d_scores[picked] -= 1.0
    l_div, d_div = diversity_loss(maps[:, :, None, :], grad=True)  # as (B, K, 1, T) stacks
    div_scale = diversity_sign * model.diversity_weight
    total = float((l_cls + div_scale * l_div).sum() / b)  # the batch mean

    # backward: classification path; every head sees the same d_projected
    d_projected = ((d_scores / b) @ table.vectors) / k   # (B, S)
    np.matmul(feats.reshape(b, k * v).T, d_projected, out=g_proj_w.reshape(k * v, s))  # C-order: a view
    g_proj_b[...] = d_projected.sum(axis=0)
    d_feats = d_projected @ model.proj_w.reshape(k * v, s).T
    d_maps = d_feats.reshape(b, k, v) @ x.swapaxes(1, 2)  # (B, K, T)
    d_maps += (div_scale / b) * d_div.reshape(b, k, h * w)  # the diversity path

    # through the per-head softmax over the T cells, in place: a * (g - a.g)
    d_maps -= (maps * d_maps).sum(axis=2, keepdims=True)
    d_maps *= maps
    d_z2 = d_maps.swapaxes(1, 2).reshape(b * h * w, k)
    np.matmul(r.T, d_z2, out=g_w2)
    d_z1 = d_z2 @ model.w2.T
    d_z1 *= z1 > 0  # the ReLU
    np.matmul(x.reshape(b * h * w, -1).T, d_z1, out=g_w1)
    d_z1.sum(axis=0, out=g_b1)
    return total


# ---------------------------------------------------------------------------
# attention export

def export_attention(maps: np.ndarray, path) -> None:
    """Write attention maps as CSV, one H-row by W-column block per head.

    Blocks are separated by a single blank line; values use shortest
    round-trip decimal formatting, '.' decimal separator, LF line endings.
    """
    maps = np.asarray(maps, dtype=np.float64)
    if maps.ndim != 3:
        raise ValueError(f"expected (K, H, W) attention maps, got shape {maps.shape}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for k in range(maps.shape[0]):
            if k:
                fh.write("\n")
            for row in maps[k]:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
