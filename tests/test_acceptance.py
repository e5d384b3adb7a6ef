"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Heavy models are trained
once per session in the fixtures below and shared across criteria.
"""

import math
import time

import numpy as np
import pytest

from setnet import diffmath as dm
from setnet.dataio import SyntheticSpec, gen_synthetic, load_bundle, save_bundle
from setnet.metrics import harmonic_mean, per_class_accuracy, per_class_top1, tnr_at_fnr
from setnet.model import (attention_maps, diversity_loss, ensemble_logits,
                          predict, total_loss)
from setnet.ood import calibrate_theta, confidence, disagreement, init_ddm, partition_classes
from setnet.pipeline import GzslSystem, classify_gzsl
from setnet.train import (TrainConfig, calibrate_ensemble, load_setnet_checkpoint,
                          save_checkpoint, train_ddm, train_setnet)

import conftest
from conftest import (DIV_SCALE, fold_ids_of, id_classes, random_model, random_table, safe_instance,
                      stacked_batch, subddm_loss_and_grads)
from oracles import (confidence_brute, disagreement_brute, diversity_brute,
                     ensemble_logits_brute, hellinger_sq_brute, per_class_top1_brute,
                     ridge_prototype_acc, tnr_at_fnr_brute)

SEEDS = (0, 1, 2)
FNR_GRID = [0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.17, 0.19]
SETNET_CFG = dict(learning_rate=4.0, epochs=150, batch_size=8,
                  head_count=4, diversity_weight=0.2)
DDM_CFG = dict(learning_rate=0.2, epochs=150, fold_count=5)


def report(n: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, detail


@pytest.fixture(scope="module")
def bundle():
    return gen_synthetic(SyntheticSpec())


@pytest.fixture(scope="module")
def zsl_models(bundle):
    """Criterion-5 models (K=4, lambda=0.2), with their training wall time."""
    t0 = time.perf_counter()
    models = {s: train_setnet(bundle, TrainConfig(seed=s, **SETNET_CFG)) for s in SEEDS}
    return models, time.perf_counter() - t0


@pytest.fixture(scope="module")
def unseen_eval(bundle):
    unseen = set(bundle.unseen_ids.tolist())
    idx = np.array([i for i in bundle.test_indices() if int(bundle.labels[i]) in unseen])
    return idx, bundle.unseen_table()


def zsl_acc(model, bundle, idx, table):
    preds = [predict(model, bundle.features[i:i + 1], table)[0] for i in idx]
    return per_class_top1(preds, bundle.labels[idx], table.class_ids)


# ---------------------------------------------------------------------------

def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    worst_total = {1: 0.0, 3: 0.0}
    for batch in worst_total:
        for seed in range(20):
            model, fmaps, table, labels = safe_instance(seed, h=4, w=4, c=8, ch=6, k=3,
                                                        d=5, s=5, batch=batch)
            err = dm.grad_check(lambda p: total_loss(model, fmaps, labels, table, DIV_SCALE),
                                model.parameters(), eps=1e-4)
            worst_total[batch] = max(worst_total[batch], err)

    # the fold-stacked detector loss at I=3: 5 classes in folds of 2, 2 and 1
    # give 3, 3 and 4 ID classes, so two folds have a padded output column,
    # and the folds' row counts differ, so the stack has padding rows
    worst_sub = 0.0
    classes = list(range(5))
    for seed in range(20):
        rng = np.random.default_rng([seed, 0xACC1])
        e = init_ddm(id_classes(classes, partition_classes(classes, 3, seed)), 8, 16, [rng] * 3)
        chunks = []
        for i, (n_id, n_ood) in enumerate([(4, 3), (3, 2), (2, 1)]):
            feats = rng.normal(size=(n_id + n_ood, 4, 4, 8)).mean(axis=(1, 2))
            if np.abs(feats @ e.w1[i] + e.b1[i]).min() < 1e-3:
                e.b1[i] += 2e-3  # keep the probe off the ReLU kink
            chunks.append((feats[:n_id], rng.choice(fold_ids_of(e, i), size=n_id), feats[n_id:]))
        batch = stacked_batch(e, chunks)

        def fold_sum(p):  # p holds e's own arrays, which grad_check perturbs
            losses, grads = subddm_loss_and_grads(e, *batch)
            return float(losses.sum()), grads

        worst_sub = max(worst_sub, dm.grad_check(fold_sum, e.parameters(), eps=1e-4))

    elapsed = time.perf_counter() - t0
    report(1, max(worst_total.values()) <= 1e-4 and worst_sub <= 1e-4 and elapsed < 30,
           f"grad_check max rel err: total_loss B=1 {worst_total[1]:.2e}, "
           f"B=3 {worst_total[3]:.2e}, stacked subddm_loss I=3 {worst_sub:.2e} (<=1e-4), "
           f"{elapsed:.1f}s (<30s)")


def test_criterion_2_formula_oracles():
    t0 = time.perf_counter()
    worst = {name: 0.0 for name in
             ("hellinger_sq", "diversity_loss", "ensemble_logits", "confidence",
              "disagreement", "per_class_top1", "tnr_at_fnr")}
    for seed in range(100):
        rng = np.random.default_rng([seed, 0xACC2])

        p = rng.uniform(size=6); p /= p.sum()
        q = rng.uniform(size=6); q /= q.sum()
        pair = diversity_loss(np.stack([p, q])[None, :, None, :])[0]  # 2 H^2(p, q)
        worst["hellinger_sq"] = max(worst["hellinger_sq"],
                                    abs(pair - 2 * hellinger_sq_brute(p, q)))

        maps = attention_maps(random_model(rng, c=5, ch=4, k=3), rng.normal(size=(1, 3, 4, 5)))
        worst["diversity_loss"] = max(worst["diversity_loss"],
                                      abs(diversity_loss(maps)[0] - diversity_brute(maps[0])))

        model = random_model(rng, c=5, ch=4, k=2, s=4)
        feats = rng.normal(size=(2, 5))
        table = random_table(rng, 6, 4)
        got = ensemble_logits(model, feats[None], table)[0]
        want = ensemble_logits_brute(model.proj_w, model.proj_b, feats, table.vectors)
        worst["ensemble_logits"] = max(worst["ensemble_logits"], float(np.abs(got - want).max()))

        # a ragged 3-fold ensemble (3, 3 and 4 ID classes): every fold's column
        e = init_ddm(id_classes(range(5), partition_classes(range(5), 3, seed)), 5, 8, [rng] * 3)
        feat = rng.normal(size=5)
        got = confidence(e, feat[None])[0]
        for i, n in enumerate(e.class_counts):
            hidden = np.maximum(feat @ e.w1[i] + e.b1[i], 0.0)
            probs = dm.softmax(hidden @ e.w2[i, :, :n] + e.b2[i, :n])
            worst["confidence"] = max(worst["confidence"], abs(got[i] - confidence_brute(probs)))

        scores = rng.normal(size=5)
        worst["disagreement"] = max(worst["disagreement"],
                                    abs(disagreement(scores[None])[0] - disagreement_brute(scores)))

        labels = rng.integers(0, 4, size=30)
        preds = rng.integers(0, 4, size=30)
        worst["per_class_top1"] = max(
            worst["per_class_top1"],
            abs(per_class_top1(preds, labels, range(4))
                - per_class_top1_brute(preds, labels, range(4))))

        seen_d = rng.normal(size=20)
        unseen_d = rng.normal(loc=-0.3, size=15)
        got_pairs = tnr_at_fnr(seen_d, unseen_d, FNR_GRID)
        want_pairs = tnr_at_fnr_brute(seen_d, unseen_d, FNR_GRID)
        worst["tnr_at_fnr"] = max(worst["tnr_at_fnr"],
                                  max(abs(a[1] - b[1]) for a, b in zip(got_pairs, want_pairs)))

    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in worst.items() if v > 1e-10}
    report(2, not bad and elapsed < 30,
           f"100 random instances per formula, worst diff "
           f"{max(worst.values()):.2e} (<=1e-10), {elapsed:.1f}s (<30s)")


def test_criterion_3_paper_arithmetic():
    rows = [((0.643, 0.694), 66.8), ((0.618, 0.779), 68.9), ((0.377, 0.345), 36.0)]
    diffs = [abs(100 * harmonic_mean(u, s) - expected) for (u, s), expected in rows]
    report(3, all(d <= 0.05 for d in diffs),
           "harmonic mean reproduces reported GZSL rows: "
           + ", ".join(f"{e} (diff {d:.3f})" for ((_, _), e), d in zip(rows, diffs)))


def test_criterion_4_calibration_exactness():
    rng = np.random.default_rng(0xACC4)
    ok = True
    for n in (50, 100, 173):
        degrees = rng.permutation(np.linspace(0.0, 1.0, n) + rng.uniform(0, 1e-6, n))
        for target in FNR_GRID:
            theta = calibrate_theta(degrees, target)
            flagged = int((degrees < theta).sum())
            ok &= flagged == math.floor(n * target)
    report(4, ok, "empirical FNR == floor(n*target)/n over the full target grid "
                  "at n in {50, 100, 173}")


def test_criterion_5_end_to_end_zsl(bundle, zsl_models, unseen_eval):
    models, train_time = zsl_models
    idx, table = unseen_eval
    t0 = time.perf_counter()
    accs = [zsl_acc(models[s], bundle, idx, table) for s in SEEDS]
    elapsed = train_time + (time.perf_counter() - t0)
    mean_acc = float(np.mean(accs))
    oracle_acc, _ = ridge_prototype_acc(bundle)
    report(5, mean_acc >= 0.5 and mean_acc >= oracle_acc and elapsed < 300,
           f"seed-mean unseen ACC {mean_acc:.3f} >= 0.5 and >= prototype oracle "
           f"{oracle_acc:.3f}; {elapsed:.1f}s (<300s)")


def test_criterion_6_diversity_effect(bundle, zsl_models):
    models, _ = zsl_models
    test_idx = bundle.test_indices()

    def mean_pairwise(model):
        vals = []
        for i in test_idx:
            maps = attention_maps(model, bundle.features[i:i + 1])
            k = maps.shape[1]
            vals.append(diversity_loss(maps)[0] / (k * (k - 1)))
        return float(np.mean(vals))

    with_reg = float(np.mean([mean_pairwise(models[s]) for s in SEEDS]))
    cfg_off = dict(SETNET_CFG, diversity_weight=0.0)
    without = float(np.mean([mean_pairwise(train_setnet(bundle, TrainConfig(seed=s, **cfg_off)))
                             for s in SEEDS]))
    report(6, with_reg > without + 0.05,
           f"mean pairwise squared-Hellinger of attention maps: with regularizer "
           f"{with_reg:.3f} vs without {without:.3f} (margin >= 0.05)")


def test_criterion_7_detector_routing_effect(bundle, zsl_models):
    models, _ = zsl_models
    test_idx = bundle.test_indices()
    seen = set(bundle.seen_ids.tolist())
    unseen = set(bundle.unseen_ids.tolist())

    def gzsl_h(preds):
        pc = per_class_accuracy(preds, bundle.labels[test_idx], bundle.table.class_ids)
        u = float(np.mean([a for c, a in pc.items() if c in unseen]))
        s = float(np.mean([a for c, a in pc.items() if c in seen]))
        return harmonic_mean(u, s)

    routed_h, direct_h = [], []
    for s in SEEDS:
        gzsl_model = train_setnet(bundle, TrainConfig(seed=s + 1000, **SETNET_CFG))
        ensemble = train_ddm(bundle, TrainConfig(seed=s, **DDM_CFG))
        calibrate_ensemble(ensemble, bundle, 0.11)
        system = GzslSystem(detector=ensemble, zsl_model=models[s], gzsl_model=gzsl_model,
                            bundle=bundle)
        routed_h.append(gzsl_h([classify_gzsl(system, bundle.features[i:i + 1])[0]
                                for i in test_idx]))
        direct_h.append(gzsl_h([predict(gzsl_model, bundle.features[i:i + 1], bundle.table)[0]
                                for i in test_idx]))
    routed, direct = float(np.mean(routed_h)), float(np.mean(direct_h))
    report(7, routed >= direct,
           f"GZSL harmonic mean with detector routing {routed:.3f} >= without {direct:.3f} "
           f"(I=5, FNR=0.11, 3 seeds)")


def test_criterion_8_ensemble_size_trend(bundle, zsl_models, unseen_eval):
    models, _ = zsl_models
    idx, table = unseen_eval
    acc_k4 = float(np.mean([zsl_acc(models[s], bundle, idx, table) for s in SEEDS]))
    cfg_k1 = dict(SETNET_CFG, head_count=1)
    acc_k1 = float(np.mean([zsl_acc(train_setnet(bundle, TrainConfig(seed=s, **cfg_k1)),
                                    bundle, idx, table) for s in SEEDS]))
    report(8, acc_k4 >= acc_k1 - 0.02,
           f"unseen ACC at K=4 {acc_k4:.3f} >= K=1 {acc_k1:.3f} - 2pp")


def test_criterion_9_determinism_and_formats(bundle, tmp_path):
    b1, b2 = tmp_path / "b1.sdnb", tmp_path / "b2.sdnb"
    save_bundle(bundle, b1)
    save_bundle(load_bundle(b1), b2)
    bundle_ok = b1.read_bytes() == b2.read_bytes()

    cfg = TrainConfig(seed=0, epochs=2, head_count=2, hidden_channels=4,
                      learning_rate=0.5)
    c1, c2 = tmp_path / "m1.sdnc", tmp_path / "m2.sdnc"
    save_checkpoint(c1, train_setnet(bundle, cfg), cfg)
    model, cfg_back = load_setnet_checkpoint(c1)
    save_checkpoint(c2, model, cfg_back)
    ckpt_ok = c1.read_bytes() == c2.read_bytes()

    from setnet.cli import main
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for r in (r1, r2):
        assert main(["eval-zsl", "--setnet", str(c1), "--bundle", str(b1),
                     "--report", str(r)]) == 0
    json_ok = r1.read_bytes() == r2.read_bytes()

    report(9, bundle_ok and ckpt_ok and json_ok,
           f"bitwise bundle round trip {bundle_ok}, checkpoint round trip {ckpt_ok}, "
           f"identical-seed result JSON {json_ok}")
