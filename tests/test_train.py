import dataclasses
import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setnet.train
from setnet.dataio import DatasetBundle, SplitSpec, SyntheticSpec, gen_synthetic
from setnet.errors import FormatError
from setnet.model import total_loss
from setnet.ood import disagreement_degree
from setnet.train import (TrainConfig, calibrate_ensemble, holdout_indices,
                          load_ddm_checkpoint, load_setnet_checkpoint, pooled_features,
                          save_checkpoint, train_ddm, train_setnet)

from conftest import MISFIT_DDM, misfit_ddm, safe_instance
from oracles import total_loss_per_sample, train_ddm_per_fold


def params_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def ddm_params(e):
    out = {}
    for i, sub in enumerate(e.sub_ddms):
        out.update(sub.parameters(prefix=f"{i}."))
        out[f"{i}.ids"] = sub.id_class_ids
    return out


# ---------------------------------------------------------------------------
# config validation

def test_config_rejects_bad_values():
    for kw in ({"learning_rate": -1}, {"epochs": -1}, {"batch_size": 0},
               {"diversity_weight": -0.1}, {"head_count": 0}, {"fold_count": 1},
               {"diversity_sign": 0}):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


# ---------------------------------------------------------------------------
# SetNet training

def test_train_zero_lr_keeps_init(tiny_bundle):
    frozen = train_setnet(tiny_bundle, TrainConfig(seed=4, learning_rate=0.0, epochs=3))
    init = train_setnet(tiny_bundle, TrainConfig(seed=4, learning_rate=0.0, epochs=0))
    assert params_equal(frozen.parameters(), init.parameters())


def test_train_deterministic(tiny_bundle):
    cfg = TrainConfig(seed=9, epochs=2)
    a = train_setnet(tiny_bundle, cfg)
    b = train_setnet(tiny_bundle, cfg)
    assert params_equal(a.parameters(), b.parameters())


def test_train_requires_training_samples(tiny_bundle):
    empty = DatasetBundle(
        features=tiny_bundle.features, labels=tiny_bundle.labels, table=tiny_bundle.table,
        split=SplitSpec(seen_ids=tiny_bundle.split.seen_ids,
                        unseen_ids=tiny_bundle.split.unseen_ids,
                        train_flags=np.zeros_like(tiny_bundle.split.train_flags)))
    with pytest.raises(ValueError):
        train_setnet(empty, TrainConfig(epochs=1))


def test_training_progress_at_spec_defaults(default_bundle):
    # 40 epochs at lr 0.05 moves slowly but must strictly improve
    losses = []
    train_setnet(default_bundle,
                 TrainConfig(seed=0, learning_rate=0.05, epochs=40, batch_size=16,
                             head_count=4, diversity_weight=0.2),
                 epoch_callback=lambda e, l: losses.append(l))
    assert len(losses) == 40
    assert losses[-1] < losses[0]


def test_batched_loss_is_mean_of_per_sample_oracle(tiny_bundle):
    # the batched loss and every gradient equal the per-sample oracle's mean,
    # and one SGD step over a single batch applies exactly that gradient
    table = tiny_bundle.seen_table()
    idx = tiny_bundle.train_indices()
    lr = 0.5
    for b, sign in ((1, -1), (3, 1), (8, -1)):
        batch = idx[:b]
        cfg = dict(seed=b, learning_rate=lr, batch_size=b, head_count=3, hidden_channels=4,
                   diversity_sign=sign)
        init = train_setnet(tiny_bundle, TrainConfig(epochs=0, **cfg))
        loss, grads = total_loss(init, tiny_bundle.features[batch], tiny_bundle.labels[batch],
                                 table, diversity_sign=sign)
        per_sample = [total_loss_per_sample(init, tiny_bundle.features[i],
                                            int(tiny_bundle.labels[i]), table, sign)
                      for i in batch]
        assert abs(loss - np.mean([l for l, _ in per_sample])) <= 1e-12
        assert set(grads) == set(init.parameters())
        for name, g in grads.items():
            want = np.mean([gs[name] for _, gs in per_sample], axis=0)
            assert np.abs(g - want).max() <= 1e-12, name

        flags = np.zeros(tiny_bundle.sample_count, dtype=bool)
        flags[batch] = True
        small = DatasetBundle(features=tiny_bundle.features, labels=tiny_bundle.labels,
                              table=tiny_bundle.table,
                              split=SplitSpec(seen_ids=tiny_bundle.split.seen_ids,
                                              unseen_ids=tiny_bundle.split.unseen_ids,
                                              train_flags=flags))
        stepped = train_setnet(small, TrainConfig(epochs=1, **cfg))
        for name, p in stepped.parameters().items():
            assert np.abs(p - (init.parameters()[name] - lr * grads[name])).max() <= 1e-12


def test_flat_sgd_step_is_bitwise_per_parameter_update(tiny_bundle, tmp_path):
    # one epoch of one batch: every parameter view moves by exactly -lr * g,
    # the views still alias the model, and the trained model saves and loads
    # back byte for byte
    idx = tiny_bundle.train_indices()[:5]
    flags = np.zeros(tiny_bundle.sample_count, dtype=bool)
    flags[idx] = True
    small = DatasetBundle(features=tiny_bundle.features, labels=tiny_bundle.labels,
                          table=tiny_bundle.table,
                          split=SplitSpec(seen_ids=tiny_bundle.split.seen_ids,
                                          unseen_ids=tiny_bundle.split.unseen_ids,
                                          train_flags=flags))
    cfg = dict(seed=3, learning_rate=0.7, batch_size=8, head_count=3, hidden_channels=4)
    init = train_setnet(small, TrainConfig(epochs=0, **cfg))
    order = idx[np.random.default_rng([3, 0x12]).permutation(idx.size)]  # the trainer's shuffle
    _, grads = total_loss(init, small.features[order], small.labels[order], small.seen_table())
    trained = train_setnet(small, TrainConfig(epochs=1, **cfg))
    for name, p in trained.parameters().items():
        assert np.array_equal(p, init.parameters()[name] - 0.7 * grads[name]), name

    before = trained.projectors.biases[1, 0]
    trained.parameters()["proj.1.b"][0] += 1.0
    assert trained.projectors.biases[1, 0] == before + 1.0
    trained.attention.w1[0, 0] = 2.5
    assert trained.parameters()["attn.w1"][0, 0] == 2.5
    first, second = tmp_path / "a.sdnc", tmp_path / "b.sdnc"
    save_checkpoint(first, trained, TrainConfig(epochs=1, **cfg))
    save_checkpoint(second, load_setnet_checkpoint(first)[0], TrainConfig(epochs=1, **cfg))
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("seed", range(5))
def test_single_sgd_step_decreases_loss(seed):
    model, fmap, table, label = safe_instance(seed)
    before, grads = total_loss(model, fmap[None], [label], table)
    lr = 1e-5
    for name, p in model.parameters().items():
        p -= lr * grads[name]
    after, _ = total_loss(model, fmap[None], [label], table)
    assert after < before


# ---------------------------------------------------------------------------
# detector training

def test_train_ddm_structure():
    bundle = gen_synthetic(SyntheticSpec(seen_classes=4, unseen_classes=2,
                                         samples_per_class=10, channels=8,
                                         semantic_dim=8, attrs_per_class=2, seed=6))
    e = train_ddm(bundle, TrainConfig(seed=0, epochs=1, fold_count=2, ddm_hidden=8))
    assert len(e.sub_ddms) == 2
    assert all(sub.b2.shape == (2,) for sub in e.sub_ddms)
    assert e.theta is None


@pytest.mark.parametrize("batch_size", [4, 8])
def test_stacked_train_ddm_matches_per_fold_oracle(tiny_bundle, batch_size):
    # 4 seen classes in 3 folds: 2, 3 and 3 ID classes, and folds with
    # different step counts, so padding columns, padding rows and finished
    # folds all occur
    cfg = TrainConfig(seed=2, epochs=3, fold_count=3, ddm_hidden=8, learning_rate=0.2,
                      batch_size=batch_size)
    losses = []
    e = train_ddm(tiny_bundle, cfg, epoch_callback=lambda ep, l: losses.append((ep, l)))
    subs, want_losses = train_ddm_per_fold(tiny_bundle, cfg)
    assert sorted(sub.b2.shape[0] for sub in e.sub_ddms) == [2, 3, 3]
    assert [ep for ep, _ in losses] == [0, 1, 2]
    assert np.abs(np.array([l for _, l in losses]) - want_losses).max() <= 1e-12
    for got, want in zip(e.sub_ddms, subs):
        assert got.fold_index == want.fold_index
        np.testing.assert_array_equal(got.id_class_ids, want.id_class_ids)
        for name, p in want.parameters().items():
            assert got.parameters()[name].shape == p.shape
            assert np.abs(got.parameters()[name] - p).max() <= 1e-12, name


def test_train_ddm_zero_lr_keeps_init(tiny_bundle):
    frozen = train_ddm(tiny_bundle, TrainConfig(seed=1, learning_rate=0.0, epochs=2,
                                                fold_count=2, ddm_hidden=8))
    init = train_ddm(tiny_bundle, TrainConfig(seed=1, learning_rate=0.0, epochs=0,
                                              fold_count=2, ddm_hidden=8))
    assert params_equal(ddm_params(frozen), ddm_params(init))


def test_train_ddm_deterministic(tiny_bundle):
    cfg = TrainConfig(seed=3, epochs=2, fold_count=2, learning_rate=0.2, ddm_hidden=8)
    assert params_equal(ddm_params(train_ddm(tiny_bundle, cfg)),
                        ddm_params(train_ddm(tiny_bundle, cfg)))


def test_train_ddm_id_accuracy_beats_chance(default_bundle):
    cfg = TrainConfig(seed=0, learning_rate=0.2, epochs=40, fold_count=5)
    e = train_ddm(default_bundle, cfg)
    held = set(holdout_indices(default_bundle, cfg.seed).tolist())
    tr = np.array([i for i in default_bundle.train_indices() if i not in held])
    feats = pooled_features(default_bundle, tr)
    labels = default_bundle.labels[tr]
    for sub in e.sub_ddms:
        mask = np.isin(labels, sub.id_class_ids)
        preds = sub.id_class_ids[np.argmax(sub.logits(feats[mask]), axis=1)]
        acc = float((preds == labels[mask]).mean())
        assert acc > 1.0 / sub.id_class_ids.shape[0]


def test_holdout_excluded_and_deterministic(default_bundle):
    held = holdout_indices(default_bundle, seed=0)
    np.testing.assert_array_equal(held, holdout_indices(default_bundle, seed=0))
    assert default_bundle.split.train_flags[held].all()
    # 20% of 24 training samples per seen class
    labels = default_bundle.labels[held]
    for cls in default_bundle.split.seen_ids:
        assert int((labels == cls).sum()) == 5


def test_calibrate_ensemble_matches_target(default_bundle):
    cfg = TrainConfig(seed=0, learning_rate=0.2, epochs=10, fold_count=5)
    e = train_ddm(default_bundle, cfg)
    target = 0.11
    calibrate_ensemble(e, default_bundle, target)
    held = holdout_indices(default_bundle, cfg.seed)
    # the same batched call calibration makes: a per-sample degree can differ
    # in the last bits and flip the strict comparison at the k-th point
    degrees = disagreement_degree(e, pooled_features(default_bundle, held))
    flagged = int((degrees < e.theta).sum())
    assert flagged == math.floor(held.size * target)


# ---------------------------------------------------------------------------
# checkpoints

def test_setnet_checkpoint_round_trip(tiny_bundle, tmp_path):
    cfg = TrainConfig(seed=5, epochs=1, head_count=2, hidden_channels=4)
    model = train_setnet(tiny_bundle, cfg)
    path = tmp_path / "m.sdnc"
    save_checkpoint(path, model, cfg)
    back, cfg_back = load_setnet_checkpoint(path)
    assert params_equal(model.parameters(), back.parameters())
    assert back.diversity_weight == model.diversity_weight
    assert cfg_back == cfg


def test_ddm_checkpoint_round_trip_with_theta(tiny_bundle, tmp_path):
    cfg = TrainConfig(seed=5, epochs=1, fold_count=2, ddm_hidden=8, learning_rate=0.2)
    e = train_ddm(tiny_bundle, cfg)
    calibrate_ensemble(e, tiny_bundle, 0.13)
    path = tmp_path / "e.sdnc"
    save_checkpoint(path, e, cfg)
    back, cfg_back = load_ddm_checkpoint(path)
    assert params_equal(ddm_params(e), ddm_params(back))
    assert back.theta == e.theta
    assert cfg_back == cfg


def test_ddm_checkpoint_round_trip_with_bundle_digest(tiny_bundle, tmp_path):
    cfg = TrainConfig(seed=5, epochs=1, fold_count=2, ddm_hidden=8, learning_rate=0.2)
    e = train_ddm(tiny_bundle, cfg)
    e.bundle_sha256 = hashlib.sha256(b"training bundle bytes").hexdigest()
    p1, p2 = tmp_path / "e1.sdnc", tmp_path / "e2.sdnc"
    save_checkpoint(p1, e, cfg)
    back, cfg_back = load_ddm_checkpoint(p1)
    assert back.bundle_sha256 == e.bundle_sha256
    save_checkpoint(p2, back, cfg_back)
    assert p1.read_bytes() == p2.read_bytes()
    assert load_ddm_checkpoint(tmp_path / "e1.sdnc")[0].theta is None


def test_train_ddm_carries_the_bundle_digest_and_calibration_checks_it(tiny_bundle, tmp_path):
    from setnet.dataio import load_bundle, save_bundle
    cfg = TrainConfig(seed=5, epochs=1, fold_count=2, ddm_hidden=8, learning_rate=0.2)
    assert train_ddm(tiny_bundle, cfg).bundle_sha256 is None  # built in memory
    path = tmp_path / "b.sdnb"
    save_bundle(tiny_bundle, path)
    loaded = load_bundle(path)
    e = train_ddm(loaded, cfg)
    assert e.bundle_sha256 == loaded.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    other = load_bundle(path)
    other.sha256 = hashlib.sha256(b"another bundle").hexdigest()
    with pytest.raises(ValueError, match="not the bundle the detector was trained on"):
        calibrate_ensemble(e, other, 0.13)
    assert e.theta is None
    calibrate_ensemble(e, loaded, 0.13)
    calibrate_ensemble(e, tiny_bundle, 0.13)  # unknown digest: not checked


@pytest.mark.parametrize("digest", [np.full(31, 7.0), np.full(32, 256.0), np.full(32, 0.5)],
                         ids=["short", "out_of_range", "fractional"])
def test_ddm_checkpoint_rejects_bad_bundle_digest(tiny_bundle, tmp_path, digest):
    cfg = TrainConfig(seed=5, epochs=0, fold_count=2, ddm_hidden=8)
    e = train_ddm(tiny_bundle, cfg)
    tensors = {"fold_count": np.asarray(2.0), "bundle_sha256": digest}
    for i, sub in enumerate(e.sub_ddms):
        tensors.update(sub.parameters(prefix=f"ddm.{i}."))
        tensors[f"ddm.{i}.ids"] = sub.id_class_ids.astype(np.float64)
    entries = [(name, np.shape(arr), np.asarray(arr, dtype="<f8").tobytes())
               for name, arr in tensors.items()]
    path = tmp_path / "bad.sdnc"
    path.write_bytes(checkpoint_bytes(cfg, entries, kind="ddm"))
    with pytest.raises(FormatError, match="bundle_sha256"):
        load_ddm_checkpoint(path)


def test_calibration_never_sees_rows_the_detector_trained_on(tiny_bundle, tmp_path, monkeypatch):
    """The holdout travels with the ensemble: calibrate_ensemble takes no seed,
    refuses an ensemble without a holdout seed, and a checkpoint cannot swap
    the seed for another one."""
    calibrated_on = []

    def recording(bundle, indices):
        calibrated_on.append(indices)
        return pooled_features(bundle, indices)

    for seed in range(4):
        cfg = TrainConfig(seed=seed, epochs=1, fold_count=2, ddm_hidden=8, learning_rate=0.2)
        e = train_ddm(tiny_bundle, cfg)
        trained_on = np.setdiff1d(tiny_bundle.train_indices(), holdout_indices(tiny_bundle, seed))
        other = holdout_indices(tiny_bundle, seed + 1)
        assert np.isin(other, trained_on).any()  # another seed's holdout would leak
        assert e.holdout_seed == seed
        with pytest.raises(TypeError):
            calibrate_ensemble(e, tiny_bundle, seed + 1, 0.13)  # the old signature
        with pytest.raises(ValueError, match="holdout seed"):
            save_checkpoint(tmp_path / "e.sdnc", e, dataclasses.replace(cfg, seed=seed + 1))
        save_checkpoint(tmp_path / "e.sdnc", e, cfg)
        loaded, _ = load_ddm_checkpoint(tmp_path / "e.sdnc")
        assert loaded.holdout_seed == seed
        calibrated_on.clear()
        with monkeypatch.context() as m:
            m.setattr(setnet.train, "pooled_features", recording)
            for ensemble in (e, loaded):
                calibrate_ensemble(ensemble, tiny_bundle, 0.13)
        assert len(calibrated_on) == 2
        for rows in calibrated_on:
            assert rows.size and not np.isin(rows, trained_on).any()
        assert loaded.theta == e.theta
    e.holdout_seed = None
    with pytest.raises(ValueError, match="holdout seed"):
        calibrate_ensemble(e, tiny_bundle, 0.13)


def test_checkpoint_kind_mismatch(tiny_bundle, tmp_path):
    cfg = TrainConfig(seed=5, epochs=0, head_count=2, hidden_channels=4)
    model = train_setnet(tiny_bundle, cfg)
    path = tmp_path / "m.sdnc"
    save_checkpoint(path, model, cfg)
    with pytest.raises(FormatError):
        load_ddm_checkpoint(path)
    e = train_ddm(tiny_bundle, TrainConfig(seed=5, epochs=0, fold_count=2, ddm_hidden=8))
    path2 = tmp_path / "e.sdnc"
    save_checkpoint(path2, e, TrainConfig(seed=5, fold_count=2, ddm_hidden=8))
    with pytest.raises(FormatError):
        load_setnet_checkpoint(path2)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "x.sdnc"
    path.write_bytes(b"AAAA" + b"\x00" * 32)
    with pytest.raises(FormatError) as exc:
        load_setnet_checkpoint(path)
    assert exc.value.offset == 0


def checkpoint_bytes(cfg, entries, kind="setnet") -> bytes:
    """A checkpoint from (name, dims, payload) entries, written straight
    from the documented layout."""
    cfg_json = json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode("utf-8")
    out = [b"SDNC", struct.pack("<II", 1, len(kind)), kind.encode("utf-8"),
           struct.pack("<I", len(cfg_json)), cfg_json, struct.pack("<I", len(entries))]
    for name, dims, payload in entries:
        out += [struct.pack("<I", len(name)), name.encode("utf-8"),
                struct.pack(f"<I{len(dims)}I", len(dims), *dims), payload]
    return b"".join(out)


@pytest.mark.parametrize("defect, message", [
    ("huge_dims", "truncated file while reading tensor attn.w1"),
    ("missing_tensor", "missing tensor 'proj.1.w'"),
    ("non_finite", "tensor attn.w1 contains non-finite values"),
    ("too_many_dims", "tensor attn.w1 has 258 dimensions"),
    ("config_head_count", "invalid setnet checkpoint: attention and projector head counts"),
    ("attention_channels", "invalid setnet checkpoint: attention input channels"),
], ids=["huge_dims", "missing_tensor", "non_finite", "too_many_dims", "config_head_count",
        "attention_channels"])
def test_checkpoint_reader_rejects_bad_tensors(tiny_bundle, tmp_path, defect, message):
    cfg = TrainConfig(seed=5, epochs=0, head_count=2, hidden_channels=4)
    model = train_setnet(tiny_bundle, cfg)
    tensors = dict(model.parameters(), diversity_weight=np.asarray(model.diversity_weight))
    if defect == "non_finite":
        tensors["attn.w1"] = tensors["attn.w1"].copy()
        tensors["attn.w1"][1, 2] = np.inf
    if defect == "missing_tensor":
        del tensors["proj.1.w"]
    if defect == "attention_channels":  # one input channel more than the projectors take
        tensors["attn.w1"] = np.vstack([tensors["attn.w1"], tensors["attn.w1"][:1]])
    entries = [(name, arr.shape, np.asarray(arr, dtype="<f8").tobytes())
               for name, arr in tensors.items()]
    if defect == "huge_dims":
        entries = [("attn.w1", (2**31, 2**31, 4), b"")]
    if defect == "too_many_dims":  # one bit flip in an ndim field can give this
        entries = [("attn.w1", (0,) * 258, b"")]
    if defect == "config_head_count":
        cfg = dataclasses.replace(cfg, head_count=1)
    path = tmp_path / "bad.sdnc"
    path.write_bytes(checkpoint_bytes(cfg, entries))
    with pytest.raises(FormatError, match=message):
        load_setnet_checkpoint(path)


@pytest.mark.parametrize("field", ["kind", "config", "tensor name"])
def test_checkpoint_reader_rejects_text_that_is_not_utf8(tiny_bundle, tmp_path, field):
    cfg = TrainConfig(seed=5, epochs=0, head_count=2, hidden_channels=4)
    path = tmp_path / "m.sdnc"
    save_checkpoint(path, train_setnet(tiny_bundle, cfg), cfg)
    data = bytearray(path.read_bytes())
    cfg_len = struct.unpack_from("<I", data, 18)[0]
    # the kind starts at byte 12, after magic, version and kind length; the config
    # JSON at 22; the first tensor name after the config, tensor count and name length
    offset = {"kind": 12, "config": 22 + 1, "tensor name": 22 + cfg_len + 8 + 2}[field]
    data[offset] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match=f"{field} is not UTF-8") as exc:
        load_setnet_checkpoint(path)
    assert exc.value.offset == offset


@pytest.fixture(scope="module")
def checkpoint_files(tiny_bundle, tmp_path_factory):
    """A trained SetNet and ddm checkpoint, their bytes and their loaders."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = TrainConfig(seed=5, epochs=1, head_count=2, hidden_channels=4, fold_count=2,
                      ddm_hidden=8, learning_rate=0.2)
    out = {}
    for kind, trainer, loader in (("setnet", train_setnet, load_setnet_checkpoint),
                                  ("ddm", train_ddm, load_ddm_checkpoint)):
        save_checkpoint(root / kind, trainer(tiny_bundle, cfg), cfg)
        out[kind] = ((root / kind).read_bytes(), loader, root / f"{kind}.mutated")
    return out


@pytest.mark.parametrize("defect", MISFIT_DDM)
def test_ddm_checkpoint_rejects_misfit_shapes(checkpoint_files, tmp_path, defect):
    data, load, _ = checkpoint_files["ddm"]
    path = tmp_path / "ddm.sdnc"
    path.write_bytes(data)
    ensemble, cfg = load(path)
    misfit_ddm(ensemble, defect)
    save_checkpoint(path, ensemble, cfg)
    with pytest.raises(FormatError, match="invalid ddm checkpoint: "):
        load(path)


_mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2**16)),
    st.tuples(st.just("flip"), st.lists(st.tuples(st.integers(0, 399), st.integers(0, 7)),
                                        min_size=1, max_size=3)))


@pytest.mark.parametrize("kind", ["setnet", "ddm"])
@settings(max_examples=300, deadline=None)
@given(mutation=_mutations)
def test_checkpoint_fuzz_raises_only_format_error(checkpoint_files, kind, mutation):
    data, load, path = checkpoint_files[kind]
    how, where = mutation
    mutated = bytearray(data)
    if how == "truncate":
        mutated = mutated[:where % len(data)]
    else:
        for pos, bit in where:
            mutated[pos] ^= 1 << bit
    path.write_bytes(bytes(mutated))
    try:
        load(path)
    except FormatError:
        return
    assert how == "flip"  # a truncated checkpoint never loads


def test_checkpoint_identical_bytes(tiny_bundle, tmp_path):
    cfg = TrainConfig(seed=6, epochs=1, head_count=2, hidden_channels=4)
    p1, p2 = tmp_path / "a.sdnc", tmp_path / "b.sdnc"
    save_checkpoint(p1, train_setnet(tiny_bundle, cfg), cfg)
    save_checkpoint(p2, train_setnet(tiny_bundle, cfg), cfg)
    assert p1.read_bytes() == p2.read_bytes()
