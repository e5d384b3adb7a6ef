"""Dataset container, binary bundle I/O, and the synthetic generator.

Bundle file layout (all little-endian):

    magic "SDNB" | u32 version=1 | u32 N, H, W, C, S, D | u32 seen count |
    D class ids (u32) | D*S semantic floats (f32) | seen ids (u32) |
    N labels (u32) | N train flags (u8, 1=train) |
    N*H*W*C feature floats (f32, sample-major, row-major spatial,
    channel-last)

In memory the features stay the float32 values the file holds: a loaded
bundle's features are a read-only view of the bytes it read, and the model
upcasts them to float64, exactly, one batch at a time. The semantic table is
float64 holding float32 values, so save -> load is a bitwise round trip.
Randomness comes from numpy's default_rng (PCG64 seeded through
SeedSequence), so identical seeds give bitwise-identical bundles within this
implementation. A loaded bundle keeps the SHA-256 of the file bytes it was
read from, so a detector can be bound to the bundle it was trained on.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .model import SemanticTable

MAGIC = b"SDNB"
VERSION = 1


@dataclass
class SplitSpec:
    """Seen/unseen class ids plus per-sample train flags."""

    seen_ids: np.ndarray    # sorted int64
    unseen_ids: np.ndarray  # sorted int64
    train_flags: np.ndarray  # (N,) bool

    def __post_init__(self):
        self.seen_ids = np.sort(np.asarray(self.seen_ids, dtype=np.int64))
        self.unseen_ids = np.sort(np.asarray(self.unseen_ids, dtype=np.int64))
        self.train_flags = np.asarray(self.train_flags, dtype=bool)
        if np.isin(self.seen_ids, self.unseen_ids).any():
            raise ValueError("seen and unseen class sets must be disjoint")


@dataclass
class DatasetBundle:
    """Feature maps + labels + semantic table + split, jointly validated.

    ``sha256`` is the hex SHA-256 of the file the bundle was loaded from;
    None for a bundle built in memory.
    """

    features: np.ndarray  # (N, H, W, C) float32; float64 input must be f32-exact
    labels: np.ndarray    # (N,) int64
    table: SemanticTable
    split: SplitSpec
    sha256: str | None = None

    def __post_init__(self):
        features = np.asarray(self.features)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 4:
            raise ValueError("features must be (N, H, W, C)")
        n = features.shape[0]
        if self.labels.shape != (n,) or self.split.train_flags.shape != (n,):
            raise ValueError("labels/flags length does not match sample count")
        if features.size and not (np.isfinite(features.min()) and np.isfinite(features.max())):
            raise ValueError("features contain non-finite values")  # min/max carry NaN and inf
        exact = np.array_equal(self.table.vectors, self.table.vectors.astype(np.float32))
        if features.dtype != np.float32:  # converted once, when every value is f32-exact
            wide, features = features, features.astype(np.float32)
            exact = exact and np.array_equal(features, wide)
        if not exact:
            raise ValueError("bundle floats must be exactly float32-representable")
        self.features = features
        known = set(self.table.class_ids.tolist())
        if not set(self.labels.tolist()) <= known:
            raise ValueError("a label references a class missing from the semantic table")
        declared = set(self.split.seen_ids.tolist()) | set(self.split.unseen_ids.tolist())
        if not declared <= known:
            raise ValueError("split references classes missing from the semantic table")
        seen = set(self.split.seen_ids.tolist())
        train_classes = set(self.labels[self.split.train_flags].tolist())
        if not train_classes <= seen:
            raise ValueError("training samples must belong to seen classes")

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]

    @property
    def map_shape(self) -> tuple[int, int, int]:
        return tuple(self.features.shape[1:])

    def train_indices(self) -> np.ndarray:
        return np.nonzero(self.split.train_flags)[0]

    def test_indices(self) -> np.ndarray:
        return np.nonzero(~self.split.train_flags)[0]

    def seen_table(self) -> SemanticTable:
        return self.table.subset(self.split.seen_ids)

    def unseen_table(self) -> SemanticTable:
        return self.table.subset(self.split.unseen_ids)


# ---------------------------------------------------------------------------
# binary I/O

class _Cursor:
    """Fields of file bytes as views, not copies; callers make bytes of the magic."""

    def __init__(self, data: bytes):
        self.data = memoryview(data)
        self.pos = 0

    def take(self, n: int, what: str) -> memoryview:
        if self.pos + n > len(self.data):
            raise FormatError(f"truncated file while reading {what}", offset=self.pos)
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def text(self, what: str) -> str:
        raw = bytes(self.take(self.u32(f"{what} length"), what))  # that many bytes of UTF-8
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{what} is not UTF-8", offset=self.pos - len(raw) + e.start) from e

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        raw = self.take(count * np.dtype(dtype).itemsize, what)
        return np.frombuffer(raw, dtype=dtype, count=count)


def save_bundle(bundle: DatasetBundle, path) -> None:
    """Write the container format; the bundle validates on construction."""
    n, h, w, c = bundle.features.shape
    d, s = bundle.table.vectors.shape
    ids = bundle.table.class_ids
    if ids.size and (ids.min() < 0 or ids.max() >= 2**32):
        raise ValueError("class ids must fit in u32")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<7I", VERSION, n, h, w, c, s, d))
        fh.write(struct.pack("<I", bundle.split.seen_ids.shape[0]))
        fh.write(ids.astype("<u4").tobytes())
        fh.write(bundle.table.vectors.astype("<f4").tobytes())
        fh.write(bundle.split.seen_ids.astype("<u4").tobytes())
        fh.write(bundle.labels.astype("<u4").tobytes())
        fh.write(bundle.split.train_flags.astype("<u1").tobytes())
        fh.write(np.ascontiguousarray(bundle.features, dtype="<f4"))  # a view when it can be


def load_bundle(path) -> DatasetBundle:
    with open(path, "rb") as fh:
        data = fh.read()
    cur = _Cursor(data)
    if bytes(cur.take(4, "magic")) != MAGIC:
        raise FormatError(f"bad magic, expected {MAGIC!r}", offset=0)
    version = cur.u32("version")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    n, h, w, c, s, d = (cur.u32(what) for what in ("sample count", "height", "width", "channels",
                                                    "semantic dim", "class count"))
    seen_count = cur.u32("seen-class count")
    class_ids = cur.array("<u4", d, "class ids").astype(np.int64)
    sem_off = cur.pos
    semantics = cur.array("<f4", d * s, "semantic vectors").astype(np.float64).reshape(d, s)
    seen_off = cur.pos
    seen_ids = cur.array("<u4", seen_count, "seen ids").astype(np.int64)
    labels_off = cur.pos
    labels = cur.array("<u4", n, "labels").astype(np.int64)
    flags_off = cur.pos
    flags_raw = cur.array("<u1", n, "train flags")
    features = cur.array("<f4", n * h * w * c, "features")  # read-only, no copy
    if cur.pos != len(cur.data):
        raise FormatError("trailing bytes after feature block", offset=cur.pos)

    if np.any(flags_raw > 1):
        raise FormatError("train flags must be 0 or 1", offset=flags_off)
    try:
        table = SemanticTable(class_ids=class_ids, vectors=semantics)
    except ValueError as e:
        raise FormatError(f"invalid semantic table: {e}", offset=sem_off) from e
    try:
        split = SplitSpec(seen_ids=seen_ids, unseen_ids=class_ids[~np.isin(class_ids, seen_ids)],
                          train_flags=flags_raw.astype(bool))  # SplitSpec sorts the ids
    except ValueError as e:
        raise FormatError(f"invalid split: {e}", offset=seen_off) from e
    try:
        bundle = DatasetBundle(features=features.reshape(n, h, w, c),
                               labels=labels, table=table, split=split)
    except ValueError as e:
        raise FormatError(f"invalid bundle: {e}", offset=labels_off) from e
    import hashlib  # loads OpenSSL; gen-synth, which loads no bundle, does not pay for it
    bundle.sha256 = hashlib.sha256(data).hexdigest()
    return bundle


# ---------------------------------------------------------------------------
# synthetic generation

@dataclass
class SyntheticSpec:
    """Knobs for the seeded stand-in for backbone feature maps.

    Each semantic attribute owns a unit-norm channel signature and a home
    cell; a sample of a class is its active signatures dropped at their
    (jittered) home cells plus Gaussian noise.
    """

    seen_classes: int = 10
    unseen_classes: int = 5
    samples_per_class: int = 30
    height: int = 4
    width: int = 4
    channels: int = 32
    semantic_dim: int = 16
    attrs_per_class: int = 4
    noise: float = 0.1
    jitter: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("seen_classes", "unseen_classes", "samples_per_class", "height", "width",
                     "channels", "semantic_dim", "attrs_per_class", "jitter", "seed"):
            v, zero_ok = getattr(self, name), name in ("unseen_classes", "jitter", "seed")
            if isinstance(v, bool) or not isinstance(v, int) or v < (0 if zero_ok else 1):
                raise ValueError(f"{name} must be a {'nonnegative' if zero_ok else 'positive'} "
                                 f"integer, got {v!r}")
        if self.attrs_per_class > self.semantic_dim:
            raise ValueError("attrs_per_class cannot exceed semantic_dim")
        if (isinstance(self.noise, bool) or not isinstance(self.noise, (int, float))
                or not 0 <= self.noise <= sys.float_info.max):  # NaN (JSON allows it) fails too
            raise ValueError(f"noise must be a finite number >= 0, got {self.noise!r}")


def gen_synthetic(spec: SyntheticSpec) -> DatasetBundle:
    """Deterministic synthetic bundle; identical seeds give identical bytes. Per
    sample, the draws are one ``integers(-jitter, jitter + 1, size=2 * A)`` call
    for the A active attributes, read as row, column, row, column, ... in subset
    order (jitter > 0), then one ``normal`` map (noise > 0)."""
    rng = np.random.default_rng([int(spec.seed), 0xDA7A])
    total_classes = spec.seen_classes + spec.unseen_classes
    if math.comb(spec.semantic_dim, spec.attrs_per_class) < total_classes:
        raise ValueError("not enough distinct attribute subsets for the requested class count")

    # (1) per-attribute channel signature + home cell
    signatures = np.empty((spec.semantic_dim, spec.channels))
    homes: list[tuple[int, int]] = []
    for a in range(spec.semantic_dim):
        v = rng.normal(size=spec.channels)
        signatures[a] = v / np.linalg.norm(v)
        homes.append((int(rng.integers(spec.height)), int(rng.integers(spec.width))))

    # (2) distinct attribute subsets and unit-norm binary semantics
    subsets: list[list[int]] = []
    attempts = 0
    while len(subsets) < total_classes:
        pick = sorted(rng.choice(spec.semantic_dim, spec.attrs_per_class, replace=False).tolist())
        attempts += 1
        if pick in subsets:
            if attempts > 1000 * total_classes:
                raise ValueError("failed to draw distinct attribute subsets")
            continue
        subsets.append(pick)
    vectors = np.zeros((total_classes, spec.semantic_dim))
    for cls, pick in enumerate(subsets):
        vectors[cls, pick] = 1.0
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    table = SemanticTable(class_ids=np.arange(total_classes, dtype=np.int64),
                          vectors=vectors.astype(np.float32).astype(np.float64))

    # (3) samples: active signatures at jittered home cells plus noise, built
    # in one float64 scratch map and rounded to float32 as each is stored
    n = total_classes * spec.samples_per_class
    features = np.empty((n, spec.height, spec.width, spec.channels), dtype=np.float32)
    fmap = np.empty(features.shape[1:])
    labels = np.repeat(np.arange(total_classes, dtype=np.int64), spec.samples_per_class)
    j = spec.jitter
    for i, cls in enumerate(labels.tolist()):
        fmap.fill(0.0)
        pick = subsets[cls]
        steps = rng.integers(-j, j + 1, size=2 * len(pick)).tolist() if j else [0] * (2 * len(pick))
        for a, dh, dw in zip(pick, steps[0::2], steps[1::2]):  # row, column, row, column, ...
            hh, ww = homes[a]
            hh, ww = min(max(hh + dh, 0), spec.height - 1), min(max(ww + dw, 0), spec.width - 1)
            fmap[hh, ww] += signatures[a]
        if spec.noise > 0:
            fmap += rng.normal(scale=spec.noise, size=fmap.shape)
        features[i] = fmap

    # (4) first seen_classes ids are seen; seen samples split 80/20 per class
    flags = np.zeros(n, dtype=bool)
    for cls in range(spec.seen_classes):
        block = np.nonzero(labels == cls)[0]
        flags[block] = True
        n_test = int(round(block.shape[0] * 0.2))
        if n_test:
            flags[rng.choice(block, size=n_test, replace=False)] = False
    split = SplitSpec(seen_ids=np.arange(spec.seen_classes),
                      unseen_ids=np.arange(spec.seen_classes, total_classes), train_flags=flags)
    return DatasetBundle(features=features, labels=labels, table=table, split=split)
