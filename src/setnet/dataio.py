"""Dataset container, the checksummed tensor container, and the synthetic
generator.

Bundles and both checkpoint kinds are one container (all little-endian):

    magic "SDNT" | u32 version=2 | u32 header length | header JSON (UTF-8,
    sorted keys) {"kind", "meta", "tensors": [[name, dtype, shape], ...]} |
    each tensor's bytes, C order, at the next 8-byte boundary |
    SHA-256 of every preceding byte (32 bytes)

``read_container`` checks the magic (a version 1 file gets its own
message), the checksum before it parses anything, the version and header,
the kind, the layout (which must end at the checksum, so sizes are checked
before any allocation), non-finite floats and the kind's ``SCHEMAS``; it
raises only ``FormatError`` and returns read-only views of the bytes read.
A bundle's features stay float32, which the model upcasts exactly per
batch; its semantic table is float64 holding float32 values, so save ->
load is bitwise. A loaded bundle keeps the stored checksum as its
``sha256``, which binds a trained model to its bundle. Identical seeds
give bitwise-identical bundles (numpy's default_rng, PCG64).

Inference and the detector's pooled features read the bundle through
``DatasetBundle.map_rows``, the one place that bounds their work: it gathers
at most ``CHUNK_ROWS`` maps at a time and runs one batched call on each.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError
from .model import SemanticTable

MAGIC = b"SDNT"
VERSION = 2
CHUNK_ROWS = 256  # rows per inference forward, which bounds its float64 intermediates


@dataclass
class DatasetBundle:
    """Feature maps + labels + semantic table + split, jointly validated.

    The split is held as the container stores it, seen class ids and a train
    flag per sample; ``unseen_ids``, the table's other ids, is derived, so
    save -> load cannot change it. ``sha256`` is the hex SHA-256 stored in the
    file the bundle was loaded from; None for a bundle built in memory.
    """

    features: np.ndarray     # (N, H, W, C) float32; float64 input must be f32-exact
    labels: np.ndarray       # (N,) int64
    table: SemanticTable
    seen_ids: np.ndarray     # sorted int64
    train_flags: np.ndarray  # (N,) bool
    sha256: str | None = None
    unseen_ids: np.ndarray = field(init=False)  # sorted int64: the table's other ids

    def __post_init__(self):
        features = np.asarray(self.features)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.seen_ids = np.sort(np.asarray(self.seen_ids, dtype=np.int64))
        self.train_flags = np.asarray(self.train_flags, dtype=bool)
        if features.ndim != 4:
            raise ValueError("features must be (N, H, W, C)")
        n = features.shape[0]
        if self.labels.shape != (n,) or self.train_flags.shape != (n,):
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
        ids = self.table.class_ids
        if not np.isin(self.labels, ids).all():
            raise ValueError("a label references a class missing from the semantic table")
        seen = np.isin(ids, self.seen_ids)
        if seen.sum() != self.seen_ids.size:
            raise ValueError("seen ids must be distinct classes of the semantic table")
        self.unseen_ids = np.sort(ids[~seen])
        if not np.isin(self.labels[self.train_flags], self.seen_ids).all():
            raise ValueError("training samples must belong to seen classes")

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]

    @property
    def map_shape(self) -> tuple[int, int, int]:
        return tuple(self.features.shape[1:])

    def train_indices(self) -> np.ndarray:
        return np.nonzero(self.train_flags)[0]

    def test_indices(self) -> np.ndarray:
        return np.nonzero(~self.train_flags)[0]

    def map_rows(self, indices: np.ndarray, fn) -> np.ndarray:
        """``fn(features[indices[a:b]])`` joined on the first axis, over the
        fewest even slices of the indices with at most ``CHUNK_ROWS`` each (one
        empty slice for no index), gathering one slice at a time. Even slices
        leave no lone row, which numpy multiplies with another BLAS kernel."""
        n = len(indices)
        k = max(1, -(-n // CHUNK_ROWS))
        ends = [i * n // k for i in range(k + 1)]
        return np.concatenate([fn(self.features[indices[a:b]]) for a, b in zip(ends, ends[1:])])

    def seen_table(self) -> SemanticTable:
        return self.table.subset(self.seen_ids)

    def unseen_table(self) -> SemanticTable:
        return self.table.subset(self.unseen_ids)


# ---------------------------------------------------------------------------
# the container

# each container kind's tensors: name -> (dtype, ndim)
SCHEMAS = {
    "bundle": {"class_ids": ("<u4", 1), "semantics": ("<f4", 2), "seen_ids": ("<u4", 1),
               "labels": ("<u4", 1), "train_flags": ("|u1", 1), "features": ("<f4", 4)},
    "setnet": {"attn.w1": ("<f8", 2), "attn.b1": ("<f8", 1), "attn.w2": ("<f8", 2),
               "proj.w": ("<f8", 3), "proj.b": ("<f8", 2)},
    "ddm": {"w1": ("<f8", 3), "b1": ("<f8", 2), "w2": ("<f8", 3), "b2": ("<f8", 2),
            "ids": ("<i8", 2)},
}
DTYPES = ("<f4", "<f8", "<u4", "<i8", "|u1")


def write_container(path, kind: str, meta: dict, tensors: dict) -> None:
    """Write ``tensors`` (name -> array, cast to the dtypes of ``kind``'s
    schema) and the JSON object ``meta``, streaming each tensor to the file
    and the checksum. A tensor whose cast changes a value, or a float tensor
    that holds a value ``read_container`` refuses, is refused before the file
    is opened."""
    schema = SCHEMAS[kind]
    arrays = {name: np.ascontiguousarray(a, dtype=schema[name][0]) for name, a in tensors.items()}
    for name, a in arrays.items():
        if a is not tensors[name] and not np.array_equal(a, tensors[name], equal_nan=True):
            raise ValueError(f"tensor {name!r} does not fit {a.dtype.str} without changing a value")
        if a.dtype.kind == "f" and a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
            raise ValueError(f"tensor {name!r} contains non-finite values")
    header = json.dumps({"kind": kind, "meta": meta, "tensors": [
        [name, schema[name][0], list(a.shape)] for name, a in arrays.items()]},
        sort_keys=True).encode("utf-8")
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for piece in [MAGIC + struct.pack("<II", VERSION, len(header)) + header, *arrays.values()]:
            for part in (bytes(-fh.tell() % 8), piece):  # each tensor at an 8-byte boundary
                digest.update(part)
                fh.write(part)
        fh.write(digest.digest())


def read_container(path, kind: str) -> tuple[dict, dict[str, np.ndarray], str]:
    """``meta``, the tensors as read-only views of the bytes read, and the
    stored SHA-256 (hex) of a container of ``kind``; anything else is a
    ``FormatError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        if data[:4] in (b"SDNB", b"SDNC"):
            raise FormatError("version 1 file; this version reads version 2 only: regenerate it "
                              "with gen-synth, train-setnet, train-ddm and calibrate", offset=0)
        raise FormatError(f"bad magic, expected {MAGIC!r}", offset=0)
    end = len(data) - 32  # where the checksum starts
    if end < 12 or hashlib.sha256(memoryview(data)[:end]).digest() != data[end:]:
        raise FormatError("checksum mismatch: the file is damaged or truncated", offset=max(end, 0))
    version, size = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    try:
        header = json.loads(data[12:12 + size].decode("utf-8"))
    except UnicodeDecodeError as e:
        raise FormatError("header is not UTF-8", offset=12 + e.start) from e
    except (ValueError, RecursionError) as e:
        raise FormatError(f"header is not JSON: {e}", offset=12) from e
    entries = header.get("tensors") if isinstance(header, dict) else None
    if not (isinstance(entries, list) and isinstance(header.get("kind"), str)
            and isinstance(header.get("meta"), dict)):
        raise FormatError("header must hold a kind, a meta object and a tensor list", offset=12)
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
                and entry[1] in DTYPES and isinstance(entry[2], list) and len(entry[2]) <= 4
                and all(type(d) is int and d >= 0 for d in entry[2])):
            raise FormatError(f"bad tensor entry {entry!r:.60}: expected [name, dtype, shape] with "
                              f"a dtype of {DTYPES} and at most 4 dims", offset=12)
    if len({name for name, _, _ in entries}) != len(entries):
        raise FormatError("duplicate tensor names", offset=12)
    if header["kind"] != kind:
        raise FormatError(f"file holds a {header['kind']!r} container, not {kind!r}")
    offsets, pos = [], 12 + size  # every size is known before anything is allocated
    for _, dtype, shape in entries:
        pos += -pos % 8
        offsets.append(pos)
        pos += math.prod(shape) * int(dtype[2])
    if pos != end:
        raise FormatError(f"the tensors end at byte {pos}, not where the checksum starts",
                          offset=min(pos, end))
    tensors = {}
    for (name, dtype, shape), offset in zip(entries, offsets):
        a = np.frombuffer(data, dtype, math.prod(shape), offset).reshape(shape)
        if dtype[1] == "f" and a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
            raise FormatError(f"tensor {name} contains non-finite values", offset=offset)
        tensors[name] = a
    schema = SCHEMAS[kind]
    missing = [name for name in schema if name not in tensors]
    if missing:
        raise FormatError(f"{kind} container is missing tensor {missing[0]!r}")
    for name, dtype, shape in entries:
        if schema.get(name) != (dtype, len(shape)):
            raise FormatError(f"{kind} tensor {name!r} is {(dtype, len(shape))}, the schema has "
                              f"{schema.get(name, 'no such tensor')}")
    return header["meta"], tensors, data[end:].hex()


def save_bundle(bundle: DatasetBundle, path) -> None:
    """Write a bundle container; the bundle validates on construction."""
    write_container(path, "bundle", {}, {
        "class_ids": bundle.table.class_ids, "semantics": bundle.table.vectors,
        "seen_ids": bundle.seen_ids, "labels": bundle.labels,
        "train_flags": bundle.train_flags, "features": bundle.features})


def load_bundle(path) -> DatasetBundle:
    _, t, digest = read_container(path, "bundle")
    if np.any(t["train_flags"] > 1):
        raise FormatError("train flags must be 0 or 1")
    try:
        return DatasetBundle(features=t["features"], labels=t["labels"], seen_ids=t["seen_ids"],
                             train_flags=t["train_flags"], sha256=digest,
                             table=SemanticTable(class_ids=t["class_ids"], vectors=t["semantics"]))
    except ValueError as e:
        raise FormatError(f"invalid bundle: {e}") from e


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
    return DatasetBundle(features=features, labels=labels, table=table,
                         seen_ids=np.arange(spec.seen_classes), train_flags=flags)
