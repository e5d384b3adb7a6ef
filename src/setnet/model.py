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

The training loss and inference (``attention_maps``, ``class_scores``,
``predict``) take a (B, H, W, C) batch and run one shared forward for it
(``class_scores`` and ``predict`` one per ``CHUNK_ROWS`` rows); a single
(H, W, C) map runs as a batch of one and gives an unbatched result.
``total_loss`` checks its labels and runs ``loss_and_grads``, which the
trainer calls directly with gradient arrays to fill: each layer is one 2-D
product over the batch, and the CE and diversity gradients are closed forms.
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
class AttentionStack:
    """Two-layer 1x1 conv stack: C -> C_h -> K head logits.

    The second layer has no bias: a per-head constant shifts every cell of
    its map equally and cancels exactly under the spatial softmax.
    """

    w1: np.ndarray  # (C, C_h)
    b1: np.ndarray  # (C_h,)
    w2: np.ndarray  # (C_h, K)

    def __post_init__(self):
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ValueError("attention weights must be matrices")
        if self.b1.shape != (self.w1.shape[1],):
            raise ValueError("bias shape does not match weight shape")
        if self.w1.shape[1] != self.w2.shape[0]:
            raise ValueError("hidden channel mismatch between the two layers")
        if self.head_count < 1 or self.hidden_channels < 1:
            raise ValueError("head and hidden channel counts must be >= 1")

    @property
    def hidden_channels(self) -> int:
        return self.w1.shape[1]

    @property
    def head_count(self) -> int:
        return self.w2.shape[1]


@dataclass
class ProjectorEnsemble:
    """K independent affine maps from visual (V) to semantic (S) space."""

    weights: np.ndarray  # (K, V, S)
    biases: np.ndarray   # (K, S)

    def __post_init__(self):
        if self.weights.ndim != 3 or self.biases.ndim != 2:
            raise ValueError("projector arrays must be (K, V, S) and (K, S)")
        if self.weights.shape[0] != self.biases.shape[0] or self.weights.shape[2] != self.biases.shape[1]:
            raise ValueError("projector weight/bias shapes disagree")

    @property
    def head_count(self) -> int:
        return self.weights.shape[0]

    @property
    def visual_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def semantic_dim(self) -> int:
        return self.weights.shape[2]


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
    """Attention stack + projector ensemble + diversity weight."""

    attention: AttentionStack
    projectors: ProjectorEnsemble
    diversity_weight: float = 0.2

    def __post_init__(self):
        if self.attention.head_count != self.projectors.head_count:
            raise ValueError("attention and projector head counts must match")
        if self.attention.w1.shape[0] != self.projectors.visual_dim:
            raise ValueError("attention input channels must equal the projector visual dim")
        if self.diversity_weight < 0:
            raise ValueError("diversity weight must be >= 0")

    @property
    def head_count(self) -> int:
        return self.attention.head_count

    def parameters(self) -> dict[str, np.ndarray]:
        """Named views of every trainable array (mutating them mutates the model)."""
        out = {
            "attn.w1": self.attention.w1,
            "attn.b1": self.attention.b1,
            "attn.w2": self.attention.w2,
        }
        for k in range(self.projectors.head_count):
            out[f"proj.{k}.w"] = self.projectors.weights[k]
            out[f"proj.{k}.b"] = self.projectors.biases[k]
        return out


def init_setnet(channels: int, hidden_channels: int, head_count: int,
                semantic_dim: int, diversity_weight: float,
                rng: np.random.Generator) -> SetNetModel:
    """Fresh model with uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights."""
    def u(fan_in, *shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    attention = AttentionStack(
        w1=u(channels, channels, hidden_channels),
        b1=u(channels, hidden_channels),
        w2=u(hidden_channels, hidden_channels, head_count),
    )
    projectors = ProjectorEnsemble(
        weights=u(channels, head_count, channels, semantic_dim),
        biases=u(channels, head_count, semantic_dim),
    )
    return SetNetModel(attention=attention, projectors=projectors,
                       diversity_weight=diversity_weight)


# ---------------------------------------------------------------------------
# forward operations

def _pool(model: SetNetModel, fmaps: np.ndarray):
    """The shared forward of a (B, H, W, C) batch up to the pooled features.

    Returns the cells x (B, T, C) with T = H*W, the hidden pre-activations
    z1 (B*T, C_h), their ReLU r, the C-order attention maps (B, K, T) and the
    attention-pooled features (B, K, C).
    """
    fmaps = np.asarray(fmaps, dtype=np.float64)
    att = model.attention
    if fmaps.ndim != 4:
        raise ValueError(f"feature maps must be (H, W, C), got {fmaps.shape[1:]} per sample")
    b, h, w, c = fmaps.shape
    x = fmaps.reshape(b, h * w, c)
    z1 = dm.conv1x1(fmaps, att.w1, att.b1).reshape(b * h * w, -1)
    r = dm.relu(z1)
    logits = dm.matmul(r, att.w2).reshape(b, h * w, -1)
    maps = dm.softmax(np.ascontiguousarray(logits.swapaxes(1, 2)))
    return x, z1, r, maps, maps @ x


def attention_maps(model: SetNetModel, fmaps: np.ndarray) -> np.ndarray:
    """K spatial attention maps per feature map, each (H, W) slice summing to
    1: (K, H, W) for one (H, W, C) map, (B, K, H, W) for a batch."""
    fmaps = np.asarray(fmaps)
    maps = _pool(model, fmaps if fmaps.ndim == 4 else fmaps[None])[3]
    return maps.reshape(*fmaps.shape[:-3], model.head_count, *fmaps.shape[-3:-1])


def diversity_loss(maps: np.ndarray, grad: bool = False):
    """Sum of squared Hellinger distances over ordered head pairs.

    Takes one (K, H, W) attention stack, giving a float, or a (B, K, H, W)
    batch, giving the (B,) per-sample values. Each unordered pair counts
    twice; range [0, K*(K-1)]. With r_i = sqrt(a_i) for head i it is, in
    closed form, K(K-1) - (|sum_i r_i|^2 - sum_i |r_i|^2).

    ``grad=True`` also returns the gradient w.r.t. the maps, shaped like
    them: 1 - sum_j q_j / q_i for head i, with q = sqrt(max(a,
    HELLINGER_CLAMP)).
    """
    maps = np.asarray(maps, dtype=np.float64)
    if maps.ndim not in (3, 4) or maps.shape[-3] == 0:
        raise ValueError("expected a nonempty (K, H, W) attention stack or a batch of them")
    k = maps.shape[-3]
    flat = maps.reshape(-1, k, maps.shape[-2] * maps.shape[-1])
    roots = np.sqrt(np.maximum(flat, 0.0))
    off_diag = np.square(roots.sum(axis=1)).sum(axis=1) - np.square(roots).sum(axis=(1, 2))
    values = k * (k - 1) - off_diag
    values = float(values[0]) if maps.ndim == 3 else values
    if not grad:
        return values
    q = np.sqrt(np.maximum(flat, HELLINGER_CLAMP))
    return values, (1.0 - q.sum(axis=1, keepdims=True) / q).reshape(maps.shape)


def ensemble_logits(model: SetNetModel, feats: np.ndarray, table: SemanticTable) -> np.ndarray:
    """Mean projector score per class: logits[d] = (1/K) sum_k Q_k(m_k) . e_d.

    Takes (K, V) pooled features, giving (D,) logits, or a (B, K, V) batch,
    giving (B, D).
    """
    feats = np.asarray(feats, dtype=np.float64)
    k, v, s = model.projectors.weights.shape
    if feats.ndim not in (2, 3) or feats.shape[-2:] != (k, v):
        raise ValueError(f"expected features of shape {(k, v)}, got {feats.shape}")
    if table.semantic_dim != s:
        raise ValueError(f"semantic dim mismatch: table {table.semantic_dim} vs projectors {s}")
    # all K projectors, and their sum over heads, as one (B, K*V) @ (K*V, S) product
    projected = (feats.reshape(-1, k * v) @ model.projectors.weights.reshape(k * v, s)
                 + model.projectors.biases.sum(axis=0))
    logits = (projected / k) @ table.vectors.T  # the head mean
    return logits[0] if feats.ndim == 2 else logits


def class_scores(model: SetNetModel, fmaps: np.ndarray, table: SemanticTable) -> np.ndarray:
    """Summed (not averaged) projector scores per table class, used for prediction.

    Takes one (H, W, C) map, giving (D,) scores, or a (B, H, W, C) batch,
    giving (B, D), one forward per ``CHUNK_ROWS`` rows.
    """
    fmaps = np.asarray(fmaps)
    batch = fmaps if fmaps.ndim == 4 else fmaps[None]
    scores = dm.in_chunks(lambda rows: ensemble_logits(model, _pool(model, batch[rows])[4], table),
                          len(batch)) * model.head_count
    return scores if fmaps.ndim == 4 else scores[0]


def predict(model: SetNetModel, fmaps: np.ndarray, table: SemanticTable):
    """Class id with the highest summed projector score; ties go to the
    smallest class id.

    Takes one (H, W, C) map, giving an int, or a (B, H, W, C) batch, giving
    the (B,) class ids.
    """
    if len(table) == 0:
        raise ValueError("semantic table is empty")
    scores = class_scores(model, fmaps, table)
    winners = np.where(scores == scores.max(axis=-1, keepdims=True), table.class_ids,
                       np.iinfo(np.int64).max)
    best = winners.min(axis=-1)
    return int(best) if scores.ndim == 1 else best


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
    rows = table.indices_of(labels)
    if rows.shape != np.shape(fmaps)[:1]:
        raise ValueError(f"expected {np.shape(fmaps)[0]} labels, got shape {rows.shape}")
    if rows.size == 0:
        raise ValueError("empty batch")
    att, proj = model.attention, model.projectors
    grads = tuple(np.empty_like(p) for p in (att.w1, att.b1, att.w2, proj.weights, proj.biases))
    total = loss_and_grads(model, fmaps, rows, table, diversity_sign, grads)
    heads = [g for pair in zip(grads[3], grads[4]) for g in pair]  # proj.k.w, proj.k.b
    return total, dict(zip(model.parameters(), [*grads[:3], *heads]))


def loss_and_grads(model: SetNetModel, fmaps: np.ndarray, rows: np.ndarray,
                   table: SemanticTable, diversity_sign: int, grads: tuple) -> float:
    """``total_loss`` for a nonempty batch whose labels are the table rows
    ``rows``, unchecked. Returns the loss and writes its gradient into
    ``grads``: C-order arrays shaped like attention w1, b1, w2, the (K, V, S)
    projector weights and the (K, S) projector biases, in that order."""
    x, z1, r, maps, feats = _pool(model, fmaps)
    b, h, w = np.shape(fmaps)[:3]
    att, proj = model.attention, model.projectors
    k, v, s = proj.weights.shape
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
    d_feats = d_projected @ proj.weights.reshape(k * v, s).T
    d_maps = d_feats.reshape(b, k, v) @ x.swapaxes(1, 2)  # (B, K, T)
    d_maps += (div_scale / b) * d_div.reshape(b, k, h * w)  # the diversity path

    # through the per-head softmax and the conv stack
    d_logits = dm.spatial_softmax_backward(maps.reshape(b, k, h, w), d_maps.reshape(b, k, h, w))
    d_z2 = d_logits.reshape(b, k, h * w).swapaxes(1, 2).reshape(b * h * w, k)
    np.matmul(r.T, d_z2, out=g_w2)
    g_w1[...], g_b1[...] = dm.conv1x1_param_grads(x, dm.relu_backward(z1, d_z2 @ att.w2.T))
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
