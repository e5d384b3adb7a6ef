import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setnet.train
from setnet.dataio import DatasetBundle, SyntheticSpec, gen_synthetic, load_bundle, save_bundle
from setnet.errors import FormatError
from setnet.model import total_loss
from setnet.ood import disagreement_degree
from setnet.train import (TrainConfig, calibrate_ensemble, check_training_bundle,
                          detector_degrees, holdout_indices, load_ddm_checkpoint,
                          load_setnet_checkpoint, pooled_features, save_checkpoint, train_ddm,
                          train_setnet)

from conftest import (INVALID_TRAIN_CONFIGS, MISFIT_DDM, container_bytes, ddm_tensors,
                      fold_params, misfit_ddm, per_fold_tensors, resealed, safe_instance,
                      setnet_meta)
from oracles import total_loss_per_sample, train_ddm_per_fold


def params_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def ddm_params(e):
    return dict(e.parameters(), ids=e.fold_ids)


# ---------------------------------------------------------------------------
# config validation

def test_config_rejects_bad_values():
    for kw in ({"learning_rate": -1}, {"epochs": -1}, {"batch_size": 0},
               {"diversity_weight": -0.1}, {"head_count": 0}, {"fold_count": 1},
               {"diversity_sign": 0}):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


@pytest.mark.parametrize("field, value, message", INVALID_TRAIN_CONFIGS.values(),
                         ids=INVALID_TRAIN_CONFIGS)
def test_config_rejects_fractional_counts_and_non_finite_floats(field, value, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: value})


def test_config_float_field_keeps_an_int():
    # a JSON 4 stays 4, so the config a checkpoint stores keeps its bytes
    cfg = TrainConfig(learning_rate=4, diversity_weight=0)
    assert type(cfg.learning_rate) is int and type(cfg.diversity_weight) is int
    assert '"learning_rate": 4,' in json.dumps(dataclasses.asdict(cfg), sort_keys=True)


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
        seen_ids=tiny_bundle.seen_ids, train_flags=np.zeros_like(tiny_bundle.train_flags))
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
                              table=tiny_bundle.table, seen_ids=tiny_bundle.seen_ids,
                              train_flags=flags)
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
                          table=tiny_bundle.table, seen_ids=tiny_bundle.seen_ids,
                          train_flags=flags)
    cfg = dict(seed=3, learning_rate=0.7, batch_size=8, head_count=3, hidden_channels=4)
    init = train_setnet(small, TrainConfig(epochs=0, **cfg))
    order = idx[np.random.default_rng([3, 0x12]).permutation(idx.size)]  # the trainer's shuffle
    _, grads = total_loss(init, small.features[order], small.labels[order], small.seen_table())
    trained = train_setnet(small, TrainConfig(epochs=1, **cfg))
    for name, p in trained.parameters().items():
        assert np.array_equal(p, init.parameters()[name] - 0.7 * grads[name]), name

    before = trained.proj_b[1, 0]
    trained.parameters()["proj.b"][1, 0] += 1.0
    assert trained.proj_b[1, 0] == before + 1.0
    trained.w1[0, 0] = 2.5
    assert trained.parameters()["attn.w1"][0, 0] == 2.5
    first, second = tmp_path / "a.sdnc", tmp_path / "b.sdnc"
    save_checkpoint(first, trained, TrainConfig(epochs=1, **cfg))
    save_checkpoint(second, load_setnet_checkpoint(first)[0], TrainConfig(epochs=1, **cfg))
    assert first.read_bytes() == second.read_bytes()


def test_flat_gradient_slots_hold_the_total_loss_gradients(tiny_bundle, monkeypatch):
    # K=4 and 11 samples in batches of 8, so the second step is ragged: at
    # every step, the region of the trainer's flat gradient under each
    # parameter's view of the flat parameters holds, bit for bit, that
    # parameter's gradient from total_loss
    idx = tiny_bundle.train_indices()[:11]
    flags = np.zeros(tiny_bundle.sample_count, dtype=bool)
    flags[idx] = True
    small = DatasetBundle(features=tiny_bundle.features, labels=tiny_bundle.labels,
                          table=tiny_bundle.table, seen_ids=tiny_bundle.seen_ids,
                          train_flags=flags)
    cfg = dict(seed=7, learning_rate=0.7, batch_size=8, head_count=4, hidden_channels=4)
    steps = []

    def recording(params, grads, lr):
        steps.append((params, params.copy(), grads.copy()))
        params -= lr * grads

    monkeypatch.setattr(setnet.train, "_sgd_step", recording)
    trained = train_setnet(small, TrainConfig(epochs=1, **cfg))
    order = idx[np.random.default_rng([7, 0x12]).permutation(idx.size)]  # the trainer's shuffle
    assert len(steps) == 2
    model = train_setnet(small, TrainConfig(epochs=0, **cfg))
    for (flat, before, grad), batch in zip(steps, (order[:8], order[8:])):
        slots = {}
        for name, p in trained.parameters().items():
            start = (p.ctypes.data - flat.ctypes.data) // flat.itemsize
            assert 0 <= start <= flat.size - p.size, name
            slots[name] = slice(start, start + p.size)
            model.parameters()[name][...] = before[slots[name]].reshape(p.shape)
        _, want = total_loss(model, small.features[batch], small.labels[batch], small.seen_table())
        assert sum(p.size for p in want.values()) == grad.size
        for name, g in want.items():
            assert np.array_equal(grad[slots[name]].reshape(g.shape), g), name


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
    assert e.w1.shape[0] == 2
    assert e.b2.shape == (2, 2) and e.class_counts.tolist() == [2, 2]
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
    assert sorted(e.class_counts.tolist()) == [2, 3, 3]
    assert [ep for ep, _ in losses] == [0, 1, 2]
    assert np.abs(np.array([l for _, l in losses]) - want_losses).max() <= 1e-12
    assert len(subs) == e.w1.shape[0]
    for i, want in enumerate(subs):
        got = fold_params(e, i)
        np.testing.assert_array_equal(got["ids"], want["ids"])
        for name in ("w1", "b1", "w2", "b2"):
            assert got[name].shape == want[name].shape
            assert np.abs(got[name] - want[name]).max() <= 1e-12, name
    # padding columns never move from their zero init
    assert not any(e.w2[i, :, n:].any() or e.b2[i, n:].any() for i, n in enumerate(e.class_counts))


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
    for i in range(e.w1.shape[0]):
        sub = fold_params(e, i)
        mask = np.isin(labels, sub["ids"])
        logits = np.maximum(feats[mask] @ sub["w1"] + sub["b1"], 0.0) @ sub["w2"] + sub["b2"]
        preds = sub["ids"][np.argmax(logits, axis=1)]
        acc = float((preds == labels[mask]).mean())
        assert acc > 1.0 / sub["ids"].shape[0]


def test_holdout_excluded_and_deterministic(default_bundle):
    held = holdout_indices(default_bundle, seed=0)
    np.testing.assert_array_equal(held, holdout_indices(default_bundle, seed=0))
    assert default_bundle.train_flags[held].all()
    # 20% of 24 training samples per seen class
    labels = default_bundle.labels[held]
    for cls in default_bundle.seen_ids:
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
    raw = path.read_bytes()  # the stored checksum, of every byte before it
    assert e.bundle_sha256 == loaded.sha256 == raw[-32:].hex()
    assert loaded.sha256 == hashlib.sha256(raw[:-32]).hexdigest()
    other = load_bundle(path)
    other.sha256 = hashlib.sha256(b"another bundle").hexdigest()
    with pytest.raises(ValueError, match="not the bundle the detector was trained on"):
        calibrate_ensemble(e, other, 0.13)
    assert e.theta is None
    calibrate_ensemble(e, loaded, 0.13)
    calibrate_ensemble(e, tiny_bundle, 0.13)  # unknown digest: not checked


@pytest.mark.parametrize("digest", ["07" * 31, "zz" * 32, 0.5],
                         ids=["short", "out_of_range", "fractional"])
def test_ddm_checkpoint_rejects_bad_bundle_digest(tiny_bundle, tmp_path, digest):
    cfg = TrainConfig(seed=5, epochs=0, fold_count=2, ddm_hidden=8)
    e = train_ddm(tiny_bundle, cfg)
    meta = {"config": dataclasses.asdict(cfg), "bundle_sha256": digest}
    path = tmp_path / "bad.sdnc"
    path.write_bytes(container_bytes("ddm", meta, ddm_tensors(e)))
    with pytest.raises(FormatError, match="^invalid ddm checkpoint: bundle_sha256 must be 64"):
        load_ddm_checkpoint(path)


def test_train_setnet_carries_the_bundle_digest_through_its_checkpoint(tiny_bundle, tmp_path):
    cfg = TrainConfig(seed=5, epochs=0, head_count=2, hidden_channels=4)
    assert train_setnet(tiny_bundle, cfg).bundle_sha256 is None  # built in memory
    path = tmp_path / "b.sdnb"
    save_bundle(tiny_bundle, path)
    loaded = load_bundle(path)
    save_checkpoint(tmp_path / "m.sdnc", train_setnet(loaded, cfg), cfg)
    model, _ = load_setnet_checkpoint(tmp_path / "m.sdnc")
    assert model.bundle_sha256 == loaded.sha256 == path.read_bytes()[-32:].hex()
    check_training_bundle(model, loaded, "model m.sdnc")
    check_training_bundle(model, tiny_bundle, "model m.sdnc")  # unknown digest: not checked
    other = load_bundle(path)
    other.sha256 = hashlib.sha256(b"another bundle").hexdigest()
    with pytest.raises(ValueError, match="^bundle is not the bundle the model m.sdnc was trained"):
        check_training_bundle(model, other, "model m.sdnc")


@pytest.mark.parametrize("digest", ["07" * 31, "AB" * 32, 0.5],
                         ids=["short", "upper_case", "fractional"])
def test_setnet_checkpoint_rejects_bad_bundle_digest(tiny_bundle, tmp_path, digest):
    cfg = TrainConfig(seed=5, epochs=0, head_count=2, hidden_channels=4)
    model = train_setnet(tiny_bundle, cfg)
    path = tmp_path / "bad.sdnc"
    path.write_bytes(container_bytes("setnet", dict(setnet_meta(cfg, model), bundle_sha256=digest),
                                     model.parameters()))
    with pytest.raises(FormatError, match="^invalid setnet checkpoint: bundle_sha256 must be 64"):
        load_setnet_checkpoint(path)
    for saved in (model, train_ddm(tiny_bundle, dataclasses.replace(cfg, fold_count=2))):
        saved.bundle_sha256 = digest  # refused before the file is opened
        with pytest.raises(ValueError, match="^bundle_sha256 must be 64"):
            save_checkpoint(tmp_path / "refused.sdnc", saved, cfg)
        assert not (tmp_path / "refused.sdnc").exists()


def test_calibration_never_sees_rows_the_detector_trained_on(tiny_bundle, tmp_path, monkeypatch):
    """The holdout travels with the ensemble: calibrate_ensemble takes no seed,
    refuses an ensemble without a holdout seed, and a checkpoint cannot swap
    the seed for another one."""
    calibrated_on = []

    def recording(ensemble, bundle, indices):
        calibrated_on.append(indices)
        return detector_degrees(ensemble, bundle, indices)

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
            m.setattr(setnet.train, "detector_degrees", recording)
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


@pytest.mark.parametrize("defect, message", [
    ("huge_dims", r"the tensors end at byte \d{21}, not where the checksum starts"),
    ("missing_tensor", "setnet container is missing tensor 'proj.w'"),
    ("non_finite", "tensor attn.w1 contains non-finite values"),
    ("too_many_dims", r"bad tensor entry \['attn.w1', '<f8', \[0, 0, 0, 0, 0, .* at most 4 dims"),
    ("config_head_count", "invalid setnet checkpoint: the tensors do not have the config's"),
    ("attention_channels", r"invalid setnet checkpoint: expected w1 \(C, C_h\), b1 \(C_h,\), "
                           r"w2 \(C_h, K\), proj_w \(K, C, S\) and proj_b \(K, S\)"),
], ids=["huge_dims", "missing_tensor", "non_finite", "too_many_dims", "config_head_count",
        "attention_channels"])
def test_checkpoint_reader_rejects_bad_tensors(tiny_bundle, tmp_path, defect, message):
    cfg = TrainConfig(seed=5, epochs=0, head_count=2, hidden_channels=4)
    model = train_setnet(tiny_bundle, cfg)
    tensors = model.parameters()
    if defect == "non_finite":
        tensors["attn.w1"] = tensors["attn.w1"].copy()
        tensors["attn.w1"][1, 2] = np.inf
    if defect == "missing_tensor":
        del tensors["proj.w"]
    if defect == "attention_channels":  # one input channel more than the projectors take
        tensors["attn.w1"] = np.vstack([tensors["attn.w1"], tensors["attn.w1"][:1]])
    entries = None
    if defect == "huge_dims":  # sizes that no file holds are refused before any allocation
        entries = [["attn.w1", "<f8", [2**31, 2**31, 4]]]
    if defect == "too_many_dims":
        entries = [["attn.w1", "<f8", [0] * 258]]
    if defect == "config_head_count":
        cfg = dataclasses.replace(cfg, head_count=1)
    path = tmp_path / "bad.sdnc"
    path.write_bytes(container_bytes("setnet", setnet_meta(cfg, model), tensors, entries))
    with pytest.raises(FormatError, match=message):
        load_setnet_checkpoint(path)


@pytest.mark.parametrize("field, value, message", INVALID_TRAIN_CONFIGS.values(),
                         ids=INVALID_TRAIN_CONFIGS)
def test_checkpoint_reader_rejects_an_invalid_config(tiny_bundle, tmp_path, field, value, message):
    cfg = TrainConfig(seed=5, epochs=0, head_count=2, hidden_channels=4)
    model = train_setnet(tiny_bundle, cfg)
    meta = setnet_meta({**dataclasses.asdict(cfg), field: value}, model)
    path = tmp_path / "bad.sdnc"
    path.write_bytes(container_bytes("setnet", meta, model.parameters()))
    with pytest.raises(FormatError, match=f"invalid train config: {message}"):
        load_setnet_checkpoint(path)


@pytest.mark.parametrize("field", ["kind", "config", "tensor name"])
def test_checkpoint_reader_rejects_text_that_is_not_utf8(tiny_bundle, tmp_path, field):
    # every text of a container is in its header JSON, which starts at byte 12
    cfg = TrainConfig(seed=5, epochs=0, head_count=2, hidden_channels=4)
    path = tmp_path / "m.sdnc"
    save_checkpoint(path, train_setnet(tiny_bundle, cfg), cfg)
    data = bytearray(path.read_bytes())
    text = {"kind": b'"setnet"', "config": b'"config"', "tensor name": b'"attn.w1"'}[field]
    offset = data.index(text, 12) + 1
    data[offset] = 0xFF
    path.write_bytes(resealed(data))
    with pytest.raises(FormatError, match="^header is not UTF-8") as exc:
        load_setnet_checkpoint(path)
    assert exc.value.offset == offset


@pytest.fixture(scope="module")
def checkpoint_files(tiny_bundle, tmp_path_factory):
    """A trained SetNet and ddm checkpoint and a bundle, their bytes and
    their loaders."""
    from setnet.dataio import load_bundle, save_bundle
    root = tmp_path_factory.mktemp("fuzz")
    cfg = TrainConfig(seed=5, epochs=1, head_count=2, hidden_channels=4, fold_count=2,
                      ddm_hidden=8, learning_rate=0.2)
    out = {}
    for kind, trainer, loader in (("setnet", train_setnet, load_setnet_checkpoint),
                                  ("ddm", train_ddm, load_ddm_checkpoint)):
        save_checkpoint(root / kind, trainer(tiny_bundle, cfg), cfg)
        out[kind] = ((root / kind).read_bytes(), loader, root / f"{kind}.mutated")
    save_bundle(tiny_bundle, root / "bundle")
    out["bundle"] = ((root / "bundle").read_bytes(), load_bundle, root / "bundle.mutated")
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


# fold class-id tables of a 2-fold detector with 2 ID classes per fold, and
# the start of the reason each is refused; a table that is not int64 is
# refused by the container's schema
_ORDER = "invalid ddm checkpoint: each fold's class ids must be strictly ascending ids >= 0"
_FLOATS = r"ddm tensor 'ids' is \('<f8', 2\), the schema has \('<i8', 2\)$"
BAD_FOLD_IDS = {
    "fractional": ([[0.5, 2], [0, 1]], _FLOATS),
    "unsorted": ([[3, 1], [0, 1]], _ORDER),
    "duplicated": ([[2, 2], [0, 1]], _ORDER),
    "overflowing": ([[1e300, 2], [0, 1]], _FLOATS),
    "negative": ([[-2, 2], [0, 1]], _ORDER),
    "padding_first": ([[-1, 2], [0, 1]], _ORDER),
    "empty_fold": ([[-1, -1], [0, 1]], "invalid ddm checkpoint: fold 0 has no ID class"),
    "narrower_than_w2": ([[2, -1], [0, -1]],
                         "invalid ddm checkpoint: the widest fold has 1 ID classes, but w2 has 2"),
}


@pytest.mark.parametrize("ids, reason", BAD_FOLD_IDS.values(), ids=BAD_FOLD_IDS)
def test_ddm_checkpoint_rejects_a_bad_fold_id_table(checkpoint_files, tmp_path, ids, reason):
    data, load, _ = checkpoint_files["ddm"]
    path = tmp_path / "ddm.sdnc"
    path.write_bytes(data)
    ensemble, cfg = load(path)
    assert ensemble.fold_ids.shape == (2, 2)
    tensors = dict(ddm_tensors(ensemble), ids=np.array(ids))  # int64 unless a value is a float
    path.write_bytes(container_bytes("ddm", {"config": dataclasses.asdict(cfg)}, tensors))
    with pytest.raises(FormatError, match=f"^{reason}"):
        load(path)


def test_a_checkpoint_refuses_fold_ids_its_schema_dtype_would_change(checkpoint_files, tmp_path):
    data, load, _ = checkpoint_files["ddm"]
    path = tmp_path / "ddm.sdnc"
    path.write_bytes(data)
    ensemble, cfg = load(path)
    ensemble.fold_ids = np.where(ensemble.fold_ids >= 0, ensemble.fold_ids + 0.5, -1)
    with pytest.raises(ValueError, match="^tensor 'ids' does not fit <i8 without changing a value$"):
        save_checkpoint(tmp_path / "fractional.sdnc", ensemble, cfg)
    assert not (tmp_path / "fractional.sdnc").exists()


@pytest.mark.parametrize("kind, value", [("setnet", np.nan), ("ddm", -np.inf)])
def test_a_checkpoint_refuses_a_non_finite_tensor_before_writing(checkpoint_files, tmp_path,
                                                                 kind, value):
    # the reader refuses non-finite floats, so the writer must not leave such a file
    data, load, _ = checkpoint_files[kind]
    path = tmp_path / "good.sdnc"
    path.write_bytes(data)
    model, cfg = load(path)
    model.w1 = model.w1.copy()  # the loaded arrays are read-only views of the file
    model.w1.flat[0] = value
    name = "attn.w1" if kind == "setnet" else "w1"
    with pytest.raises(ValueError, match=f"^tensor '{name}' contains non-finite values$"):
        save_checkpoint(tmp_path / "bad.sdnc", model, cfg)
    assert not (tmp_path / "bad.sdnc").exists()


def test_a_per_fold_ddm_checkpoint_names_the_missing_stacked_tensor(checkpoint_files, tmp_path):
    data, load, _ = checkpoint_files["ddm"]
    path = tmp_path / "ddm.sdnc"
    path.write_bytes(data)
    ensemble, cfg = load(path)
    meta = {"config": dataclasses.asdict(cfg)}
    path.write_bytes(container_bytes("ddm", meta, per_fold_tensors(ensemble)))
    with pytest.raises(FormatError, match="^ddm container is missing tensor 'w1'$"):
        load(path)


_flips = st.lists(st.tuples(st.integers(0, 399), st.integers(0, 7)), min_size=1, max_size=3)
_mutations = st.one_of(st.tuples(st.just("truncate"), st.integers(0, 2**16)),
                       st.tuples(st.just("flip"), _flips), st.tuples(st.just("reseal"), _flips))


@pytest.mark.parametrize("kind", ["setnet", "ddm", "bundle"])
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
    if how == "reseal":  # flips that pass the checksum reach the header parser and the models
        mutated = bytearray(resealed(mutated))
    path.write_bytes(bytes(mutated))
    try:
        load(path)
    except FormatError:
        return
    assert how == "reseal" or mutated == data  # only flips that undo each other load


def test_checkpoint_identical_bytes(tiny_bundle, tmp_path):
    cfg = TrainConfig(seed=6, epochs=1, head_count=2, hidden_channels=4)
    p1, p2 = tmp_path / "a.sdnc", tmp_path / "b.sdnc"
    save_checkpoint(p1, train_setnet(tiny_bundle, cfg), cfg)
    save_checkpoint(p2, train_setnet(tiny_bundle, cfg), cfg)
    assert p1.read_bytes() == p2.read_bytes()
