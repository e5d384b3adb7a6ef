"""Golden digests: the determinism contract as a test.

A fixed tiny config runs every CLI stage in process, and the SHA-256 of
every bundle, checkpoint and report it writes is pinned below. A second
config trains at the desk head count (K=4, so the diversity sum runs over
several head pairs) with a ragged last batch on 4x4 maps, and pins the
checkpoints of both trainers. Identical seeds must give identical bytes
across changes as well as within one run. The digests depend on the
floating-point build (numpy and its BLAS), so a different build may need
its own baseline. Change a digest only on purpose, and log every
re-baseline in CHANGES.md.
"""

import hashlib
import json

import pytest

from setnet.cli import main

SYNTH = {"seen_classes": 5, "unseen_classes": 2, "samples_per_class": 10,
         "height": 3, "width": 3, "channels": 8, "semantic_dim": 8,
         "attrs_per_class": 2, "noise": 0.1, "jitter": 1, "seed": 7}
TRAIN = {"learning_rate": 0.5, "epochs": 3, "batch_size": 8, "seed": 2,
         "head_count": 2, "hidden_channels": 4, "fold_count": 3, "ddm_hidden": 8}

GOLDEN = {
    "data.sdnb": "c2dfb00b49e7db75abd1c207ced6b8dab1c94ccbd8f451f612f5640f25c048d2",
    "zsl.sdnc": "22ce795868d7fb430172e641a37d06712938f9d8d3bb14d81a42d9060d72ef4d",
    "gzsl.sdnc": "edbbac7858d30739826ca60350a6ff21ae1ddb07cc084f3ee160c34e692886a1",
    "zsl.json": "475007815e9e305b8e1ec583c6551a4db921b6504b94e0a2e1bd8a19149b0b1e",
    "ddm.sdnc": "2313eb445985414ccfdd57dd8a303eac5a231ae40d89f4a3e768528dd0327a5a",
    "ddm-cal.sdnc": "67647538c5af33b5072d683636cb33e4d8fb890c3a55de57b1caebca2532c188",
    "gzsl.json": "8e5248739ac59d54aa576c068ea99989159e3bff59a77a578763e9f6c0bce55c",
    "ood.json": "3dd849a961806e24f9b39d7b6302ec88511a4309708403f1ea57fbbf3dfcd055",
}

# K=4 heads, hidden 16, batch 8 over 45 training samples (a last batch of 5)
SYNTH_K4 = dict(SYNTH, height=4, width=4, samples_per_class=11, seed=3)
TRAIN_K4 = dict(TRAIN, learning_rate=4.0, head_count=4, hidden_channels=16)

GOLDEN_K4 = {
    "zsl.sdnc": "8faedf3993e951d46799a91ca48d28efe31e41bd86899c19a63d0dbbe7c84ea9",
    "ddm.sdnc": "f89be35b76790a48043ba9f82c09089ca30630861d5bbb99f02489e618dc4d10",
}


def _run(*argv):
    assert main([str(a) for a in argv]) == 0, argv


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    cfg = root / "run.json"
    cfg.write_text(json.dumps({"synthetic": SYNTH, "train": TRAIN}))

    _run("gen-synth", "--config", cfg, "--out", root / "data.sdnb")
    train = ("--bundle", root / "data.sdnb", "--config", cfg)
    _run("train-setnet", *train, "--out", root / "zsl.sdnc")
    _run("train-setnet", *train, "--seed", 1000, "--out", root / "gzsl.sdnc")
    _run("train-ddm", *train, "--learning-rate", 0.2, "--out", root / "ddm.sdnc")
    _run("calibrate", "--ddm", root / "ddm.sdnc", "--bundle", root / "data.sdnb",
         "--fnr", 0.11, "--out", root / "ddm-cal.sdnc")
    _run("eval-zsl", "--setnet", root / "zsl.sdnc", "--bundle", root / "data.sdnb",
         "--report", root / "zsl.json")
    _run("eval-gzsl", "--zsl", root / "zsl.sdnc", "--gzsl", root / "gzsl.sdnc",
         "--ddm", root / "ddm-cal.sdnc", "--bundle", root / "data.sdnb",
         "--report", root / "gzsl.json")
    _run("eval-ood", "--ddm", root / "ddm-cal.sdnc", "--bundle", root / "data.sdnb",
         "--report", root / "ood.json")
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in GOLDEN}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(artifacts, name):
    assert artifacts[name] == GOLDEN[name]


@pytest.fixture(scope="module")
def artifacts_k4(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_k4")
    cfg = root / "run.json"
    cfg.write_text(json.dumps({"synthetic": SYNTH_K4, "train": TRAIN_K4}))
    _run("gen-synth", "--config", cfg, "--out", root / "data.sdnb")
    train = ("--bundle", root / "data.sdnb", "--config", cfg)
    _run("train-setnet", *train, "--out", root / "zsl.sdnc")
    _run("train-ddm", *train, "--learning-rate", 0.2, "--out", root / "ddm.sdnc")
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in GOLDEN_K4}


@pytest.mark.parametrize("name", sorted(GOLDEN_K4))
def test_golden_digest_desk_heads(artifacts_k4, name):
    assert artifacts_k4[name] == GOLDEN_K4[name]
