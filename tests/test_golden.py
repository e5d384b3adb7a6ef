"""Golden digests: the determinism contract as a test.

A fixed tiny config runs every CLI stage in process, and the SHA-256 of
every bundle, checkpoint, report and ``eval-zsl --attn`` attention CSV it writes is
pinned below; the same stages run as ``python -m setnet.cli`` processes
must write the same bytes. A second config trains at the desk head count
(K=4, so the diversity sum runs over several head pairs) with a ragged last
batch on 4x4 maps, and pins the checkpoints of both trainers. Three more configs pin the bundle alone: no
jitter, no noise, and a jitter of 2 on a 7x7 grid, where the clamp at the
map border is reached from both sides. Identical seeds must give identical
bytes across changes as well as within one run. The digests depend on the
floating-point build (numpy and its BLAS), so a different build may need
its own baseline. Change a digest only on purpose, and log every
re-baseline in CHANGES.md.

Run as a script, with setnet importable (installed, or ``PYTHONPATH=src``),
it prints every pinned artifact's current digest on stdout as the dict
literals below (the commands' own output goes to stderr), for an
on-purpose re-baseline:

    python tests/test_golden.py
"""

import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import setnet
from setnet.cli import main
from setnet.dataio import DatasetBundle, SyntheticSpec, gen_synthetic, load_bundle, save_bundle

SYNTH = {"seen_classes": 5, "unseen_classes": 2, "samples_per_class": 10,
         "height": 3, "width": 3, "channels": 8, "semantic_dim": 8,
         "attrs_per_class": 2, "noise": 0.1, "jitter": 1, "seed": 7}
FNR_GRID = [0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.17, 0.19]
TRAIN = {"learning_rate": 0.5, "epochs": 3, "batch_size": 8, "seed": 2,
         "head_count": 2, "hidden_channels": 4, "fold_count": 3, "ddm_hidden": 8}

GOLDEN = {
    "data.sdnb": "627fa0bf0a2c40490728164e2794bf91a53ca6342c40063040ac36a994fe6a22",
    "zsl.sdnc": "8e586c1f368df6bbd1298cc09fa603f491db0019d2458d4c87a9972cc65769cd",
    "gzsl.sdnc": "da73ec507603a809bccb4f17defdd2c844673d2c3448eeaef595453e2f2d293b",
    "zsl.json": "475007815e9e305b8e1ec583c6551a4db921b6504b94e0a2e1bd8a19149b0b1e",
    "ddm.sdnc": "21c01fc8571a0ce951e46f03ed06c16e4cff8e5e380b96e6b86e7d0611f96756",
    "ddm-cal.sdnc": "5f8b951c464a2476432db4ef4aa88f283b6b573f329fc21d007a2c8338b1c304",
    "gzsl.json": "8e5248739ac59d54aa576c068ea99989159e3bff59a77a578763e9f6c0bce55c",
    "ood.json": "3dd849a961806e24f9b39d7b6302ec88511a4309708403f1ea57fbbf3dfcd055",
    "zsl-attn.csv": "8bc1d980e6fd4ef8831862febcf61d721b709e459a79ff7145500e09c8c91b11",
    "gzsl-attn.csv": "f5a77935ca3442ec66ca3e8112408954865dab68d4a7eeb8f361a2709e0abb96",
}

# K=4 heads, hidden 16, batch 8 over 45 training samples (a last batch of 5)
SYNTH_K4 = dict(SYNTH, height=4, width=4, samples_per_class=11, seed=3)
TRAIN_K4 = dict(TRAIN, learning_rate=4.0, head_count=4, hidden_channels=16)

GOLDEN_K4 = {
    "zsl.sdnc": "97593e430d0907203e43a6b91eb32c4006c193bcef6f983b5e6463dc59367707",
    "ddm.sdnc": "caad48bdad11e25350aa54f2f310ed9f437baf0cc818f129f987ff6289477614",
}


# gen-synth alone: each config differs from SYNTH in the keys named
SYNTH_VARIANTS = {
    "jitter0": dict(SYNTH, jitter=0),
    "noise0": dict(SYNTH, noise=0.0),
    "jitter2_7x7": dict(SYNTH, jitter=2, height=7, width=7),
}

GOLDEN_SYNTH = {
    "jitter0": "1e5466e6c84a72ac0e77bf01bd001e645119ee4710825aec2ad7e815a2595f0c",
    "noise0": "4a39a51df2a15253fef7dc3ece6790c435eb6e5551c37db5b71f47012b573391",
    "jitter2_7x7": "93c1d3b8ef2ddd09b7aaa91bb4a321a39fdcf09c0859f9f78404a1107c0e353b",
}


def _run(*argv):
    assert main([str(a) for a in argv]) == 0, argv


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pipeline(root):
    """Every CLI stage of the tiny config, as argv lists, writing under root."""
    cfg = root / "run.json"
    cfg.write_text(json.dumps({"synthetic": SYNTH, "train": TRAIN, "fnr_grid": FNR_GRID}))
    train = ("--bundle", root / "data.sdnb", "--config", cfg)
    stages = [
        ("gen-synth", "--config", cfg, "--out", root / "data.sdnb"),
        ("train-setnet", *train, "--out", root / "zsl.sdnc"),
        ("train-setnet", *train, "--seed", 1000, "--out", root / "gzsl.sdnc"),
        ("train-ddm", *train, "--learning-rate", 0.2, "--out", root / "ddm.sdnc"),
        ("calibrate", "--ddm", root / "ddm.sdnc", "--bundle", root / "data.sdnb",
         "--fnr", 0.11, "--out", root / "ddm-cal.sdnc"),
        ("eval-zsl", "--setnet", root / "zsl.sdnc", "--bundle", root / "data.sdnb",
         "--report", root / "zsl.json", "--attn", root / "zsl-attn.csv"),
        ("eval-zsl", "--setnet", root / "gzsl.sdnc", "--bundle", root / "data.sdnb",
         "--report", root / "gzsl-zsl.json", "--attn", root / "gzsl-attn.csv"),
        ("eval-gzsl", "--zsl", root / "zsl.sdnc", "--gzsl", root / "gzsl.sdnc",
         "--ddm", root / "ddm-cal.sdnc", "--bundle", root / "data.sdnb",
         "--report", root / "gzsl.json"),
        ("eval-ood", "--ddm", root / "ddm-cal.sdnc", "--bundle", root / "data.sdnb",
         "--config", cfg, "--report", root / "ood.json"),
    ]
    return [[str(a) for a in argv] for argv in stages]


def _pipeline_digests(root) -> dict:
    """The digest of every ``GOLDEN`` artifact, from a run under root."""
    for argv in _pipeline(root):
        _run(*argv)
    return {name: _digest(root / name) for name in GOLDEN}


def _k4_digests(root) -> dict:
    """The digest of every ``GOLDEN_K4`` checkpoint, from a run under root."""
    cfg = root / "run.json"
    cfg.write_text(json.dumps({"synthetic": SYNTH_K4, "train": TRAIN_K4}))
    _run("gen-synth", "--config", cfg, "--out", root / "data.sdnb")
    train = ("--bundle", root / "data.sdnb", "--config", cfg)
    _run("train-setnet", *train, "--out", root / "zsl.sdnc")
    _run("train-ddm", *train, "--learning-rate", 0.2, "--out", root / "ddm.sdnc")
    return {name: _digest(root / name) for name in GOLDEN_K4}


def _synth_digest(root, variant) -> str:
    """The digest of the ``variant`` bundle, written under root."""
    cfg = root / "run.json"
    cfg.write_text(json.dumps({"synthetic": SYNTH_VARIANTS[variant]}))
    _run("gen-synth", "--config", cfg, "--out", root / "data.sdnb")
    return _digest(root / "data.sdnb")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return _pipeline_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(artifacts, name):
    assert artifacts[name] == GOLDEN[name]


@pytest.fixture(scope="module")
def artifacts_k4(tmp_path_factory):
    return _k4_digests(tmp_path_factory.mktemp("golden_k4"))


@pytest.mark.parametrize("name", sorted(GOLDEN_K4))
def test_golden_digest_desk_heads(artifacts_k4, name):
    assert artifacts_k4[name] == GOLDEN_K4[name]


@pytest.mark.parametrize("variant", sorted(GOLDEN_SYNTH))
def test_golden_bundle_digest(tmp_path, variant):
    assert _synth_digest(tmp_path, variant) == GOLDEN_SYNTH[variant]


@pytest.mark.parametrize("workload", ["golden", "desk", "infer"])
def test_an_in_memory_bundle_digest_is_its_file_checksum(tmp_path, workload):
    """A bundle built in memory hashes the bytes ``save_bundle`` writes: its
    ``sha256`` is the checksum the file stores and ``load_bundle`` keeps, for
    the tiny spec and the specs of both benchmark workloads."""
    if workload == "golden":
        spec = SYNTH
    else:
        workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "run.py"))
        spec = workloads["WORKLOADS"][workload].config()["synthetic"]
    bundle = gen_synthetic(SyntheticSpec(**spec))
    digest = bundle.sha256  # before any file exists
    save_bundle(bundle, tmp_path / "data.sdnb")
    assert digest == (tmp_path / "data.sdnb").read_bytes()[-32:].hex()
    assert digest == load_bundle(tmp_path / "data.sdnb").sha256


def test_no_cli_stage_hashes_a_bundle_in_memory(tmp_path, monkeypatch):
    """``gen-synth`` writes its bundle without reading its digest, and every
    other stage loads its bundle, which keeps the stored checksum: no stage
    hashes bundle bytes a second time."""
    def refuse(bundle):
        raise AssertionError("a CLI stage hashed a bundle in memory")

    monkeypatch.setattr(DatasetBundle.sha256, "func", refuse)
    for argv in _pipeline(tmp_path):
        _run(*argv)


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


def test_module_entry_writes_the_in_process_bytes(artifacts, tmp_path):
    """Every stage of the tiny config, run as ``python -m setnet.cli`` (the
    process entry with its collector policy), writes the bytes that ``main``
    writes in process."""
    package_root = os.path.dirname(os.path.dirname(setnet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    for argv in _pipeline(tmp_path):
        proc = subprocess.run([sys.executable, "-m", "setnet.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (argv[0], proc.stderr.strip().splitlines()[-1:])
    assert {name: _digest(tmp_path / name) for name in GOLDEN} == artifacts


if __name__ == "__main__":
    import contextlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        roots = [Path(tmp, name) for name in ("tiny", "k4", *GOLDEN_SYNTH)]
        for root in roots:
            root.mkdir()
        current = {"GOLDEN": _pipeline_digests(roots[0]), "GOLDEN_K4": _k4_digests(roots[1]),
                   "GOLDEN_SYNTH": {variant: _synth_digest(root, variant)
                                    for variant, root in zip(GOLDEN_SYNTH, roots[2:])}}
    for name, digests in current.items():
        print(f"{name} = {{")
        for key, digest in digests.items():
            print(f'    "{key}": "{digest}",')
        print("}\n")
