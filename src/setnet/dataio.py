"""Dataset container, binary bundle I/O, and the synthetic generator.

Bundle file layout (all little-endian):

    magic "SDNB" | u32 version=1 | u32 N, H, W, C, S, D | u32 seen count |
    D class ids (u32) | D*S semantic floats (f32) | seen ids (u32) |
    N labels (u32) | N train flags (u8, 1=train) |
    N*H*W*C feature floats (f32, sample-major, row-major spatial,
    channel-last)

In memory everything is float64; a valid bundle only holds values that are
exactly representable in float32, which is what makes save -> load a
bitwise round trip. Randomness comes from numpy's default_rng (PCG64
seeded through SeedSequence), so identical seeds give bitwise-identical
bundles within this implementation. A loaded bundle keeps the SHA-256 of
the file bytes it was read from, so a detector can be bound to the bundle it
was trained on.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .model import SemanticTable

MAGIC = b"SDNB"
VERSION = 1


def _f32_exact(x: np.ndarray) -> bool:
    return bool(np.array_equal(x, x.astype(np.float32).astype(np.float64)))


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

    features: np.ndarray  # (N, H, W, C) float64, f32-representable
    labels: np.ndarray    # (N,) int64
    table: SemanticTable
    split: SplitSpec
    sha256: str | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 4:
            raise ValueError("features must be (N, H, W, C)")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.split.train_flags.shape != (n,):
            raise ValueError("labels/flags length does not match sample count")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        if not _f32_exact(self.features) or not _f32_exact(self.table.vectors):
            raise ValueError("bundle floats must be exactly float32-representable")
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
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(f"truncated file while reading {what}", offset=self.pos)
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def text(self, what: str) -> str:
        raw = self.take(self.u32(f"{what} length"), what)  # then that many bytes of UTF-8
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
        fh.write(bundle.features.astype("<f4").tobytes())


def load_bundle(path) -> DatasetBundle:
    with open(path, "rb") as fh:
        data = fh.read()
    cur = _Cursor(data)
    if cur.take(4, "magic") != MAGIC:
        raise FormatError(f"bad magic, expected {MAGIC!r}", offset=0)
    version = cur.u32("version")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    n = cur.u32("sample count")
    h = cur.u32("height")
    w = cur.u32("width")
    c = cur.u32("channels")
    s = cur.u32("semantic dim")
    d = cur.u32("class count")
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
    features = cur.array("<f4", n * h * w * c, "features").astype(np.float64)
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
        for name in ("seen_classes", "unseen_classes", "samples_per_class",
                     "height", "width", "channels", "semantic_dim",
                     "attrs_per_class"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < (0 if name == "unseen_classes" else 1):
                raise ValueError(f"{name} must be a positive integer")
        if self.attrs_per_class > self.semantic_dim:
            raise ValueError("attrs_per_class cannot exceed semantic_dim")
        if self.noise < 0:
            raise ValueError("noise sigma must be >= 0")
        if not isinstance(self.jitter, int) or self.jitter < 0:
            raise ValueError("jitter must be a nonnegative integer")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


def _round_f32(x: np.ndarray) -> np.ndarray:
    return x.astype(np.float32).astype(np.float64)


def gen_synthetic(spec: SyntheticSpec) -> DatasetBundle:
    """Deterministic synthetic bundle; identical seeds give identical bytes. Per
    sample, the draws are a row then a column ``integers(-jitter, jitter + 1)`` per
    active attribute in subset order (jitter > 0), then one ``normal`` map (noise > 0)."""
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
                          vectors=_round_f32(vectors))

    # (3) samples: active signatures at jittered home cells plus noise
    n = total_classes * spec.samples_per_class
    features = np.zeros((n, spec.height, spec.width, spec.channels))
    labels = np.repeat(np.arange(total_classes, dtype=np.int64), spec.samples_per_class)
    j = spec.jitter
    for i, cls in enumerate(labels.tolist()):
        fmap = features[i]
        for a in subsets[cls]:
            hh, ww = homes[a]
            if j > 0:
                hh = min(max(hh + int(rng.integers(-j, j + 1)), 0), spec.height - 1)
                ww = min(max(ww + int(rng.integers(-j, j + 1)), 0), spec.width - 1)
            fmap[hh, ww] += signatures[a]
        if spec.noise > 0:
            fmap += rng.normal(scale=spec.noise, size=fmap.shape)
    features = _round_f32(features)

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
