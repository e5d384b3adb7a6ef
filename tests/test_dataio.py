import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setnet.dataio import (MAGIC, DatasetBundle, SyntheticSpec, gen_synthetic, load_bundle,
                           save_bundle)
from setnet.errors import FormatError
from setnet.model import SemanticTable, init_setnet
from setnet.ood import init_ddm, partition_classes
from setnet.train import TrainConfig, load_ddm_checkpoint, load_setnet_checkpoint, save_checkpoint

from conftest import bundle_tensors, container_bytes, resealed
from oracles import ridge_prototype_acc


def bundles_equal(a: DatasetBundle, b: DatasetBundle) -> bool:
    return (np.array_equal(a.features, b.features)
            and np.array_equal(a.labels, b.labels)
            and np.array_equal(a.table.class_ids, b.table.class_ids)
            and np.array_equal(a.table.vectors, b.table.vectors)
            and np.array_equal(a.seen_ids, b.seen_ids)
            and np.array_equal(a.unseen_ids, b.unseen_ids)
            and np.array_equal(a.train_flags, b.train_flags))


def tables_equal(a: SemanticTable, b: SemanticTable) -> bool:
    return (np.array_equal(a.class_ids, b.class_ids) and a.class_ids.dtype == b.class_ids.dtype
            and np.array_equal(a.vectors, b.vectors) and a.vectors.dtype == b.vectors.dtype)


# ---------------------------------------------------------------------------
# round trips

def test_round_trip_bitwise(tiny_bundle, tmp_path):
    path = tmp_path / "b.sdnb"
    save_bundle(tiny_bundle, path)
    assert bundles_equal(tiny_bundle, load_bundle(path))


def test_round_trip_stable_bytes(tiny_bundle, tmp_path):
    p1, p2 = tmp_path / "a.sdnb", tmp_path / "b.sdnb"
    save_bundle(tiny_bundle, p1)
    save_bundle(load_bundle(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_round_trip_random_bundles(tmp_path_factory, seed):
    # distinct class ids anywhere in the u32 range, in table order; a random
    # seen subset, from none to all; rows of every class, train rows only of
    # seen classes, so unseen classes have test rows
    rng = np.random.default_rng(seed)
    d, s = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    n, h, w, c = (int(rng.integers(lo, hi)) for lo, hi in ((0, 8), (1, 4), (1, 4), (1, 5)))
    vecs = rng.normal(size=(d, s))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    vecs = vecs.astype(np.float32).astype(np.float64)
    class_ids = rng.choice([*range(8), 1000, 2**31, 2**32 - 1], size=d, replace=False)
    table = SemanticTable(class_ids=class_ids, vectors=vecs)
    seen = rng.choice(class_ids, size=int(rng.integers(0, d + 1)), replace=False)
    labels = np.concatenate([class_ids, rng.choice(class_ids, size=n)])
    flags = rng.integers(0, 2, size=labels.size).astype(bool) & np.isin(labels, seen)
    bundle = DatasetBundle(
        features=rng.normal(size=(labels.size, h, w, c)).astype(np.float32).astype(np.float64),
        labels=labels, table=table, seen_ids=seen, train_flags=flags)
    path = tmp_path_factory.mktemp("rt") / "b.sdnb"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    assert bundles_equal(bundle, loaded)
    for name in ("features", "labels", "seen_ids", "unseen_ids", "train_flags"):
        assert getattr(loaded, name).dtype == getattr(bundle, name).dtype, name
    np.testing.assert_array_equal(loaded.unseen_ids, np.sort(class_ids[~np.isin(class_ids, seen)]))
    assert tables_equal(bundle.table, loaded.table)
    assert tables_equal(bundle.seen_table(), loaded.seen_table())
    assert tables_equal(bundle.unseen_table(), loaded.unseen_table())


def test_loaded_features_are_a_read_only_f32_view_of_the_file_bytes(tiny_bundle, tmp_path):
    path = tmp_path / "b.sdnb"
    save_bundle(tiny_bundle, path)
    features = load_bundle(path).features
    assert features.dtype == np.float32 and features.shape == tiny_bundle.features.shape
    assert not features.flags.writeable
    assert not features.flags.owndata  # a view of the bytes read, not a copy
    assert np.array_equal(features, tiny_bundle.features)


def test_an_in_memory_bundle_cannot_be_edited_after_its_digest_is_read():
    b = gen_synthetic(SyntheticSpec())
    b.sha256
    with pytest.raises(ValueError, match="read-only"):
        b.train_flags[0] = False
    for a in (b.features, b.labels, b.seen_ids, b.train_flags, b.unseen_ids, b.table.class_ids,
              b.table.vectors):
        assert not a.flags.writeable


def test_a_table_holds_its_arrays_read_only_without_a_copy():
    ids, vectors = np.array([3, 1], dtype=np.int64), np.eye(2)
    table = SemanticTable(class_ids=ids, vectors=vectors)
    assert table.class_ids is ids and table.vectors is vectors
    assert not ids.flags.writeable and not vectors.flags.writeable


def test_bundle_keeps_f32_features_and_converts_f64_once(tiny_bundle):
    f32 = np.array(tiny_bundle.features)
    parts = dict(labels=tiny_bundle.labels, table=tiny_bundle.table,
                 seen_ids=tiny_bundle.seen_ids, train_flags=tiny_bundle.train_flags)
    assert DatasetBundle(features=f32, **parts).features is f32
    converted = DatasetBundle(features=f32.astype(np.float64), **parts).features
    assert converted.dtype == np.float32 and np.array_equal(converted, f32)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bundle_rejects_non_finite_features(tiny_bundle, dtype, bad):
    features = tiny_bundle.features.astype(dtype)
    features[3, 1, 2, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        DatasetBundle(features=features, labels=tiny_bundle.labels, table=tiny_bundle.table,
                      seen_ids=tiny_bundle.seen_ids, train_flags=tiny_bundle.train_flags)


# ---------------------------------------------------------------------------
# format errors

def test_bad_magic_offset_zero(tiny_bundle, tmp_path):
    path = tmp_path / "b.sdnb"
    save_bundle(tiny_bundle, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(raw)
    with pytest.raises(FormatError) as exc:
        load_bundle(path)
    assert exc.value.offset == 0


def test_bad_version(tiny_bundle, tmp_path):
    path = tmp_path / "b.sdnb"
    save_bundle(tiny_bundle, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(resealed(raw))
    with pytest.raises(FormatError) as exc:
        load_bundle(path)
    assert exc.value.offset == 4


def test_truncated_file(tiny_bundle, tmp_path):
    path = tmp_path / "b.sdnb"
    save_bundle(tiny_bundle, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError) as exc:
        load_bundle(path)
    assert exc.value.offset is not None


def test_trailing_bytes(tiny_bundle, tmp_path):
    path = tmp_path / "b.sdnb"
    save_bundle(tiny_bundle, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        load_bundle(path)


def test_label_referencing_missing_class(tiny_bundle, tmp_path):
    path = tmp_path / "b.sdnb"
    tensors = bundle_tensors(tiny_bundle)
    tensors["labels"][0] = 999
    path.write_bytes(container_bytes("bundle", {}, tensors))
    with pytest.raises(FormatError) as exc:
        load_bundle(path)
    assert "class" in str(exc.value)


@pytest.mark.parametrize("class_id", [-1, 2**32])
def test_save_refuses_a_class_id_that_does_not_fit_u32(tiny_bundle, tmp_path, class_id):
    table = tiny_bundle.table  # one more class, which no sample names
    wider = SemanticTable(class_ids=np.append(table.class_ids, class_id),
                          vectors=np.vstack([table.vectors, table.vectors[:1]]))
    bundle = DatasetBundle(features=tiny_bundle.features, labels=tiny_bundle.labels, table=wider,
                           seen_ids=tiny_bundle.seen_ids, train_flags=tiny_bundle.train_flags)
    with pytest.raises(ValueError, match="^tensor 'class_ids' does not fit <u4 without changing"):
        save_bundle(bundle, tmp_path / "b.sdnb")
    assert not (tmp_path / "b.sdnb").exists()


def test_magic_constant():
    assert MAGIC == b"SDNT"


def _tiny_containers(root):
    """A bundle, a SetNet checkpoint and a ddm checkpoint of a few hundred
    bytes each, with their loaders."""
    bundle = gen_synthetic(SyntheticSpec(seen_classes=2, unseen_classes=1, samples_per_class=2,
                                         height=1, width=2, channels=2, semantic_dim=3,
                                         attrs_per_class=1, seed=1))
    rng = np.random.default_rng(0)
    cfg = TrainConfig(head_count=2, hidden_channels=1, fold_count=2, ddm_hidden=1)
    ddm = init_ddm([[0], [1]], 2, 1, [rng, rng])
    ddm.theta, ddm.bundle_sha256 = 0.25, "ab" * 32
    files = {"bundle": (root / "b.sdnb", load_bundle),
             "setnet": (root / "m.sdnc", load_setnet_checkpoint),
             "ddm": (root / "e.sdnc", load_ddm_checkpoint)}
    save_bundle(bundle, files["bundle"][0])
    model = init_setnet(2, 1, 2, 3, rng)
    model.bundle_sha256 = bundle.sha256
    save_checkpoint(files["setnet"][0], model, cfg)
    save_checkpoint(files["ddm"][0], ddm, cfg)
    return files


@pytest.mark.parametrize("kind", ["bundle", "setnet", "ddm"])
def test_every_single_bit_flip_and_truncation_is_refused(tmp_path, kind):
    path, load = _tiny_containers(tmp_path)[kind]
    data = path.read_bytes()
    load(path)
    mutated = tmp_path / "mutated"
    flips = [data[:pos] + bytes([data[pos] ^ 1 << bit]) + data[pos + 1:]
             for pos in range(len(data)) for bit in range(8)]
    for case in [data[:n] for n in range(len(data))] + flips:
        mutated.write_bytes(case)
        with pytest.raises(FormatError):
            load(mutated)


# ---------------------------------------------------------------------------
# synthetic generator

def test_gen_deterministic_per_seed():
    spec = SyntheticSpec(seen_classes=4, unseen_classes=2, samples_per_class=5,
                         channels=8, semantic_dim=8, attrs_per_class=2, seed=11)
    assert bundles_equal(gen_synthetic(spec), gen_synthetic(spec))
    other = gen_synthetic(SyntheticSpec(seen_classes=4, unseen_classes=2,
                                        samples_per_class=5, channels=8,
                                        semantic_dim=8, attrs_per_class=2, seed=12))
    assert not bundles_equal(gen_synthetic(spec), other)


def test_gen_noiseless_single_attribute():
    spec = SyntheticSpec(seen_classes=3, unseen_classes=2, samples_per_class=4,
                         height=3, width=3, channels=6, semantic_dim=5,
                         attrs_per_class=1, noise=0.0, jitter=0, seed=2)
    bundle = gen_synthetic(spec)
    for cls in range(5):
        rows = np.nonzero(bundle.labels == cls)[0]
        first = bundle.features[rows[0]]
        nonzero_cells = np.nonzero(np.abs(first).sum(axis=2))
        assert len(nonzero_cells[0]) == 1
        cell = first[nonzero_cells[0][0], nonzero_cells[1][0]]
        assert np.linalg.norm(cell) == pytest.approx(1.0, abs=1e-6)
        for r in rows[1:]:
            np.testing.assert_array_equal(bundle.features[r], first)


def test_gen_satisfies_invariants(default_bundle):
    b = default_bundle
    assert b.features.shape == (450, 4, 4, 32)
    norms = np.linalg.norm(b.table.vectors, axis=1)
    assert np.abs(norms - 1).max() <= 1e-9
    train_classes = set(b.labels[b.train_flags].tolist())
    assert train_classes <= set(b.seen_ids.tolist())
    unseen_rows = np.isin(b.labels, b.unseen_ids)
    assert not b.train_flags[unseen_rows].any()
    # 80/20 per seen class
    for cls in b.seen_ids:
        rows = b.labels == cls
        assert int(b.train_flags[rows].sum()) == 24


def test_gen_prototype_oracle_beats_chance(default_bundle):
    acc, _ = ridge_prototype_acc(default_bundle)
    assert acc > 0.20


def test_gen_rejects_impossible_subsets():
    with pytest.raises(ValueError):
        gen_synthetic(SyntheticSpec(seen_classes=10, unseen_classes=0,
                                    semantic_dim=4, attrs_per_class=4))


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(attrs_per_class=20, semantic_dim=16)
    with pytest.raises(ValueError):
        SyntheticSpec(noise=-0.1)
    with pytest.raises(ValueError):
        SyntheticSpec(jitter=-1)
    with pytest.raises(ValueError):
        SyntheticSpec(seen_classes=0)


@pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.1, "0.1", True, 10**400],
                         ids=["nan", "inf", "negative", "text", "bool", "huge_int"])
def test_spec_refuses_a_noise_that_is_not_a_finite_nonnegative_number(noise):
    with pytest.raises(ValueError, match="^noise must be a finite number >= 0"):
        SyntheticSpec(noise=noise)


@pytest.mark.parametrize("field", ["seen_classes", "unseen_classes", "samples_per_class", "height",
                                   "width", "channels", "semantic_dim", "attrs_per_class", "jitter"])
def test_spec_refuses_a_bool_count(field):
    with pytest.raises(ValueError, match=f"^{field} must be a (positive|nonnegative) integer"):
        SyntheticSpec(**{field: True})


@pytest.mark.parametrize("jitter", [1, 2, 3, 7, 100])
def test_one_sized_jitter_draw_is_the_scalar_draws(jitter):
    """gen_synthetic draws a sample's 2*A jitter steps in one call; numpy gives
    the same values and the same generator state as 2*A scalar calls."""
    for seed in range(5):
        one, many = np.random.default_rng(seed), np.random.default_rng(seed)
        sized = one.integers(-jitter, jitter + 1, size=8).tolist()
        assert sized == [int(many.integers(-jitter, jitter + 1)) for _ in range(8)]
        assert one.bit_generator.state == many.bit_generator.state


@pytest.mark.parametrize("seed", [1.5, -1, True, "3"])
def test_spec_refuses_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValueError, match="^seed must be a nonnegative integer"):
        SyntheticSpec(seed=seed)


# ---------------------------------------------------------------------------
# folds over the split

def test_make_folds_never_contain_unseen(default_bundle):
    folds = partition_classes(default_bundle.seen_ids.tolist(), 5, seed=3)
    unseen = set(default_bundle.unseen_ids.tolist())
    assert not any(set(f) & unseen for f in folds)
    assert [len(f) for f in folds] == [2, 2, 2, 2, 2]


# ---------------------------------------------------------------------------
# bundle validation

def test_bundle_rejects_nonrepresentable_floats(tiny_bundle):
    with pytest.raises(ValueError):
        DatasetBundle(features=tiny_bundle.features.astype(np.float64) + 1e-12,
                      labels=tiny_bundle.labels, table=tiny_bundle.table,
                      seen_ids=tiny_bundle.seen_ids, train_flags=tiny_bundle.train_flags)


def test_bundle_rejects_unseen_train_sample(tiny_bundle):
    flags = tiny_bundle.train_flags.copy()
    unseen_rows = np.nonzero(np.isin(tiny_bundle.labels, tiny_bundle.unseen_ids))[0]
    flags[unseen_rows[0]] = True
    with pytest.raises(ValueError):
        DatasetBundle(features=tiny_bundle.features, labels=tiny_bundle.labels,
                      table=tiny_bundle.table, seen_ids=tiny_bundle.seen_ids, train_flags=flags)


@pytest.mark.parametrize("extra", [99, 0], ids=["not_in_table", "repeated"])
def test_bundle_refuses_seen_ids_that_are_not_distinct_table_ids(tiny_bundle, extra):
    with pytest.raises(ValueError, match="^seen ids must be distinct classes of the semantic"):
        DatasetBundle(features=tiny_bundle.features, labels=tiny_bundle.labels,
                      table=tiny_bundle.table, seen_ids=np.append(tiny_bundle.seen_ids, extra),
                      train_flags=tiny_bundle.train_flags)


def test_unordered_class_ids_split_as_set_operations_would(tmp_path):
    class_ids = np.array([7, 2, 9, 0, 5, 11])
    vecs = np.eye(6)[:, :4] + 0.5
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    table = SemanticTable(class_ids=class_ids, vectors=vecs.astype(np.float32).astype(np.float64))
    seen = np.array([9, 2, 11])
    bundle = DatasetBundle(features=np.zeros((4, 2, 2, 3)), labels=np.array([9, 2, 7, 11]),
                           table=table, seen_ids=seen,
                           train_flags=np.array([True, True, False, False]))
    path = tmp_path / "b.sdnb"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    np.testing.assert_array_equal(loaded.unseen_ids, np.setdiff1d(class_ids, seen))
    assert loaded.unseen_ids.dtype == np.setdiff1d(class_ids, seen).dtype
    np.testing.assert_array_equal(loaded.seen_ids, [2, 9, 11])
    assert bundles_equal(bundle, loaded)
