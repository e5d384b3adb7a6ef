"""Golden digests: the determinism contract as a test.

A fixed tiny config runs every CLI stage in process, and the SHA-256 of
every bundle, checkpoint and report it writes is pinned below. A second
config trains at the desk head count (K=4, so the diversity sum runs over
several head pairs) with a ragged last batch on 4x4 maps, and pins the
checkpoints of both trainers. Three more configs pin the bundle alone: no
jitter, no noise, and a jitter of 2 on a 7x7 grid, where the clamp at the
map border is reached from both sides. Identical seeds must give identical
bytes across changes as well as within one run. The digests depend on the
floating-point build (numpy and its BLAS), so a different build may need
its own baseline. Change a digest only on purpose, and log every
re-baseline in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import setnet
from setnet.cli import main

SYNTH = {"seen_classes": 5, "unseen_classes": 2, "samples_per_class": 10,
         "height": 3, "width": 3, "channels": 8, "semantic_dim": 8,
         "attrs_per_class": 2, "noise": 0.1, "jitter": 1, "seed": 7}
TRAIN = {"learning_rate": 0.5, "epochs": 3, "batch_size": 8, "seed": 2,
         "head_count": 2, "hidden_channels": 4, "fold_count": 3, "ddm_hidden": 8}

GOLDEN = {
    "data.sdnb": "c2dfb00b49e7db75abd1c207ced6b8dab1c94ccbd8f451f612f5640f25c048d2",
    "zsl.sdnc": "0ea47905dcb13186ccfcc71edb376e1de0dd23d35a559919db75dd65d892963a",
    "gzsl.sdnc": "6561a484a39c02b03abce31915e60765804768457ce71fb61c7870f4c8e7fe66",
    "zsl.json": "475007815e9e305b8e1ec583c6551a4db921b6504b94e0a2e1bd8a19149b0b1e",
    "ddm.sdnc": "c424da38628d92e43fb24ca06b272958564f20adb4df1c3c38898abda4879f4f",
    "ddm-cal.sdnc": "611eae551a72feb8b357b750aeca1feb847378e9147315b6466284607f92bb79",
    "gzsl.json": "8e5248739ac59d54aa576c068ea99989159e3bff59a77a578763e9f6c0bce55c",
    "ood.json": "3dd849a961806e24f9b39d7b6302ec88511a4309708403f1ea57fbbf3dfcd055",
}

# K=4 heads, hidden 16, batch 8 over 45 training samples (a last batch of 5)
SYNTH_K4 = dict(SYNTH, height=4, width=4, samples_per_class=11, seed=3)
TRAIN_K4 = dict(TRAIN, learning_rate=4.0, head_count=4, hidden_channels=16)

GOLDEN_K4 = {
    "zsl.sdnc": "455d3006afd5dab658ca590268b2e7f32e2c95944b33249c8a8dd06c4ebc4029",
    "ddm.sdnc": "0f421b89b3784c48c8fc2c3e7c75ad2f2a43ba087640d4f23a6d4d817164c499",
}


# gen-synth alone: each config differs from SYNTH in the keys named
SYNTH_VARIANTS = {
    "jitter0": dict(SYNTH, jitter=0),
    "noise0": dict(SYNTH, noise=0.0),
    "jitter2_7x7": dict(SYNTH, jitter=2, height=7, width=7),
}

GOLDEN_SYNTH = {
    "jitter0": "2079fddb479dca896e8397371805cd23efcbe56f409fa18ee98f82d57f43fac4",
    "noise0": "6a9202db382c2e1591cb26eb3197ee5b014c4dbd2d34553e1c70b08c79f95e28",
    "jitter2_7x7": "9cffbf5d1faf0de6f9c2025595dc62f028cdac699199af21607580740554e971",
}


def _run(*argv):
    assert main([str(a) for a in argv]) == 0, argv


def _pipeline(root):
    """Every CLI stage of the tiny config, as argv lists, writing under root."""
    cfg = root / "run.json"
    cfg.write_text(json.dumps({"synthetic": SYNTH, "train": TRAIN}))
    train = ("--bundle", root / "data.sdnb", "--config", cfg)
    stages = [
        ("gen-synth", "--config", cfg, "--out", root / "data.sdnb"),
        ("train-setnet", *train, "--out", root / "zsl.sdnc"),
        ("train-setnet", *train, "--seed", 1000, "--out", root / "gzsl.sdnc"),
        ("train-ddm", *train, "--learning-rate", 0.2, "--out", root / "ddm.sdnc"),
        ("calibrate", "--ddm", root / "ddm.sdnc", "--bundle", root / "data.sdnb",
         "--fnr", 0.11, "--out", root / "ddm-cal.sdnc"),
        ("eval-zsl", "--setnet", root / "zsl.sdnc", "--bundle", root / "data.sdnb",
         "--report", root / "zsl.json"),
        ("eval-gzsl", "--zsl", root / "zsl.sdnc", "--gzsl", root / "gzsl.sdnc",
         "--ddm", root / "ddm-cal.sdnc", "--bundle", root / "data.sdnb",
         "--report", root / "gzsl.json"),
        ("eval-ood", "--ddm", root / "ddm-cal.sdnc", "--bundle", root / "data.sdnb",
         "--report", root / "ood.json"),
    ]
    return [[str(a) for a in argv] for argv in stages]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for argv in _pipeline(root):
        _run(*argv)
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


@pytest.mark.parametrize("variant", sorted(GOLDEN_SYNTH))
def test_golden_bundle_digest(tmp_path, variant):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"synthetic": SYNTH_VARIANTS[variant]}))
    _run("gen-synth", "--config", cfg, "--out", tmp_path / "data.sdnb")
    assert hashlib.sha256((tmp_path / "data.sdnb").read_bytes()).hexdigest() == GOLDEN_SYNTH[variant]


def test_no_cli_stage_imports_numpy_ma(tmp_path):
    """numpy's set operations (np.unique and what calls it) import numpy.ma,
    12-17 ms of start-up in every process; the stages must not need them."""
    script = ("import sys\n"
              "from setnet.cli import main\n"
              f"for argv in {_pipeline(tmp_path)!r}:\n"
              "    assert main(argv) == 0, argv\n"
              "    assert 'numpy.ma' not in sys.modules, argv[0]\n"
              "print('ok')\n")
    # the child imports the same package the tests do, installed or not
    package_root = os.path.dirname(os.path.dirname(setnet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr.strip().splitlines()[-1:]
    assert proc.stdout.splitlines()[-1] == "ok"
