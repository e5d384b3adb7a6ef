import dataclasses

import numpy as np
import pytest

from setnet import pipeline
from setnet.dataio import gen_synthetic
from setnet.diffmath import spatial_mean
from setnet.errors import NotCalibratedError
from setnet.model import predict
from setnet.ood import disagreement_degree
from setnet.pipeline import GzslSystem, classify_gzsl
from setnet.train import TrainConfig, calibrate_ensemble, train_ddm, train_setnet

from conftest import TINY_SPEC, bundle_of, random_model, random_table, set_chunk_rows


@pytest.fixture(scope="module")
def small_system(tiny_bundle):
    cfg = TrainConfig(seed=1, epochs=3, head_count=2, hidden_channels=4,
                      fold_count=2, ddm_hidden=8, learning_rate=0.5)
    zsl_model = train_setnet(tiny_bundle, cfg)
    gzsl_model = train_setnet(tiny_bundle, TrainConfig(seed=2, epochs=3, head_count=2,
                                                       hidden_channels=4, fold_count=2,
                                                       ddm_hidden=8, learning_rate=0.5))
    detector = train_ddm(tiny_bundle, cfg)
    detector.theta = 0.05
    return GzslSystem(detector=detector, zsl_model=zsl_model, gzsl_model=gzsl_model,
                      bundle=tiny_bundle)


def constant_gate(degree):
    """Stand-in for the batched degree: the same value for every row."""
    return lambda e, feats: np.full(np.shape(feats)[:-1], degree)


def test_routing_unseen_stub(small_system, tiny_bundle, monkeypatch):
    monkeypatch.setattr(pipeline, "disagreement_degree", constant_gate(-np.inf))
    unseen = set(tiny_bundle.unseen_ids.tolist())
    for i in tiny_bundle.test_indices()[:20]:
        assert classify_gzsl(small_system, tiny_bundle.features[i:i + 1])[0] in unseen


def test_routing_seen_stub(small_system, tiny_bundle, monkeypatch):
    monkeypatch.setattr(pipeline, "disagreement_degree", constant_gate(np.inf))
    for i in tiny_bundle.test_indices()[:20]:
        got = classify_gzsl(small_system, tiny_bundle.features[i:i + 1])
        want = predict(small_system.gzsl_model, tiny_bundle.features[i:i + 1],
                       small_system.bundle.table)
        assert got.tolist() == want.tolist()


def test_degenerate_threshold_never_flags(small_system, tiny_bundle):
    # disagreement degrees are finite, so a hugely negative theta flags nothing
    small_system.detector.theta = -1e300
    for i in tiny_bundle.test_indices()[:20]:
        got = classify_gzsl(small_system, tiny_bundle.features[i:i + 1])
        want = predict(small_system.gzsl_model, tiny_bundle.features[i:i + 1],
                       small_system.bundle.table)
        assert got.tolist() == want.tolist()


def test_oracle_detector_matches_zsl_accuracy(small_system, tiny_bundle, monkeypatch):
    unseen = set(tiny_bundle.unseen_ids.tolist())
    idx = [i for i in tiny_bundle.test_indices() if int(tiny_bundle.labels[i]) in unseen]
    truth = {tuple(np.round(spatial_mean(tiny_bundle.features[i:i + 1])[0], 12)) for i in idx}

    def oracle(e, feats):
        # below any theta for unseen-class rows, above it for the rest
        return np.array([-np.inf if tuple(np.round(f, 12)) in truth else np.inf for f in feats])

    monkeypatch.setattr(pipeline, "disagreement_degree", oracle)
    routed = [classify_gzsl(small_system, tiny_bundle.features[i:i + 1])[0] for i in idx]
    direct = [predict(small_system.zsl_model, tiny_bundle.features[i:i + 1],
                      small_system.unseen_table)[0] for i in idx]
    assert routed == direct


@pytest.mark.parametrize("gate", ["none", "half", "all"])
def test_batched_classify_matches_single_maps(small_system, tiny_bundle, monkeypatch, gate):
    fmaps = tiny_bundle.features[tiny_bundle.test_indices()]
    ordered = np.sort(disagreement_degree(small_system.detector, spatial_mean(fmaps)))
    half = ordered.size // 2
    # "half" sits midway between two degrees, away from any row's own value
    theta = {"none": -1e300, "half": (ordered[half - 1] + ordered[half]) / 2, "all": 1e300}[gate]
    monkeypatch.setattr(small_system.detector, "theta", theta)
    preds = classify_gzsl(small_system, fmaps)
    assert preds.shape == (fmaps.shape[0],)
    assert preds.tolist() == [classify_gzsl(small_system, fmap[None])[0] for fmap in fmaps]


@pytest.mark.parametrize("batch", [257, 513])  # past one and two chunks of 256 rows
def test_chunked_classify_matches_rows_and_one_forward(small_system, tiny_bundle, monkeypatch,
                                                       batch):
    rng = np.random.default_rng([batch, 0xC4E])
    base = tiny_bundle.features[rng.integers(tiny_bundle.sample_count, size=batch)]
    fmaps = (base + rng.normal(scale=0.05, size=base.shape)).astype(np.float32)
    ordered = np.sort(disagreement_degree(small_system.detector, spatial_mean(fmaps)))
    half = ordered.size // 2  # route about half the rows each way
    monkeypatch.setattr(small_system.detector, "theta", (ordered[half - 1] + ordered[half]) / 2)
    bundle, rows = bundle_of(fmaps), np.arange(batch)
    set_chunk_rows(monkeypatch, 256, bundle.map_shape)
    preds = bundle.map_rows(rows, lambda maps: classify_gzsl(small_system, maps))
    assert preds.tolist() == [classify_gzsl(small_system, fmap[None])[0] for fmap in fmaps]
    set_chunk_rows(monkeypatch, batch, bundle.map_shape)  # the whole batch in one forward
    assert np.array_equal(bundle.map_rows(rows, lambda maps: classify_gzsl(small_system, maps)),
                          preds)
    assert np.array_equal(classify_gzsl(small_system, fmaps), preds)


def test_batched_classify_routes_each_row(small_system, tiny_bundle, monkeypatch):
    fmaps = tiny_bundle.features[tiny_bundle.test_indices()]
    degrees = np.where(np.arange(fmaps.shape[0]) % 3 == 0, -np.inf, np.inf)
    monkeypatch.setattr(pipeline, "disagreement_degree", lambda e, feats: degrees[:len(feats)])
    routed = classify_gzsl(small_system, fmaps)
    want = np.where(degrees < 0,
                    predict(small_system.zsl_model, fmaps, small_system.unseen_table),
                    predict(small_system.gzsl_model, fmaps, small_system.bundle.table))
    assert routed.tolist() == want.tolist()


def test_classify_uncalibrated_raises(small_system, tiny_bundle, monkeypatch):
    monkeypatch.setattr(small_system.detector, "theta", None)
    with pytest.raises(NotCalibratedError):
        classify_gzsl(small_system, tiny_bundle.features[:3])


@pytest.mark.parametrize("seed", range(10))
def test_restricted_argmax_consistent_with_full(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, c=6, ch=4, k=2, s=5)
    table = random_table(rng, 8, 5)
    unseen_ids = [2, 5, 7]
    sub = table.subset(unseen_ids)
    fmap = rng.normal(size=(1, 3, 3, 6))
    full_winner = predict(model, fmap, table)[0]
    if full_winner in unseen_ids:
        assert predict(model, fmap, sub)[0] == full_winner


def test_single_unseen_class(small_system, tiny_bundle):
    only = small_system.unseen_table.subset([int(tiny_bundle.unseen_ids[0])])
    fmap = tiny_bundle.features[tiny_bundle.test_indices()[:1]]
    want = [int(tiny_bundle.unseen_ids[0])]
    assert predict(small_system.zsl_model, fmap, only).tolist() == want


def test_system_refuses_a_model_trained_on_another_bundle(small_system, tiny_bundle):
    """Each of the three models, trained on a bundle of another seed, is
    refused by name: scored on that split, its own training classes could
    count as unseen. Calibration refuses the foreign detector too."""
    other = gen_synthetic(dataclasses.replace(TINY_SPEC, seed=TINY_SPEC.seed + 1))
    cfg = TrainConfig(seed=1, epochs=0, head_count=2, hidden_channels=4, fold_count=2,
                      ddm_hidden=8)
    foreign = {"detector": train_ddm(other, cfg), "zsl_model": train_setnet(other, cfg)}
    foreign["gzsl_model"] = foreign["zsl_model"]
    own = {name: getattr(small_system, name) for name in foreign}
    for name, model in foreign.items():
        with pytest.raises(ValueError, match=f"^bundle is not the bundle the {name} was trained on$"):
            GzslSystem(**dict(own, **{name: model}), bundle=tiny_bundle)
    GzslSystem(**foreign, bundle=other)
    with pytest.raises(ValueError, match="^bundle is not the bundle the detector was trained on$"):
        calibrate_ensemble(foreign["detector"], tiny_bundle, 0.11)
    assert foreign["detector"].theta is None
