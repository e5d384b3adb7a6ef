import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import setnet
from setnet.cli import main
from setnet.dataio import load_bundle, read_container
from setnet.model import predict
from setnet.ood import disagreement_degree
from setnet.train import (holdout_indices, load_ddm_checkpoint,
                          load_setnet_checkpoint, pooled_features, save_checkpoint)

from conftest import (INVALID_TRAIN_CONFIGS, MISFIT_DDM, container_bytes, misfit_ddm,
                      per_fold_tensors, report_from_json, resealed)

SYNTH = {"seen_classes": 4, "unseen_classes": 2, "samples_per_class": 10,
         "height": 3, "width": 3, "channels": 8, "semantic_dim": 8,
         "attrs_per_class": 2, "noise": 0.1, "jitter": 1, "seed": 5}
TRAIN = {"learning_rate": 0.5, "epochs": 3, "batch_size": 8, "seed": 1,
         "head_count": 2, "hidden_channels": 4, "fold_count": 2, "ddm_hidden": 8}
FNR_GRID = [0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.17, 0.19]
BAD_MAGIC = "error: bad magic, expected b'SDNT' (at byte offset 0)"
NO_DIGEST = "error: invalid {kind} checkpoint: bundle_sha256 must be 64 lowercase hex digits, got None"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Config, bundle, and checkpoints shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.json"
    cfg.write_text(json.dumps({"synthetic": SYNTH, "train": TRAIN, "fnr_grid": FNR_GRID}))
    bundle = root / "data.sdnb"
    assert main(["gen-synth", "--config", str(cfg), "--out", str(bundle)]) == 0
    setnet_ckpt = root / "model.sdnc"
    assert main(["train-setnet", "--bundle", str(bundle), "--config", str(cfg),
                 "--out", str(setnet_ckpt)]) == 0
    ddm_ckpt = root / "ddm.sdnc"
    assert main(["train-ddm", "--bundle", str(bundle), "--config", str(cfg),
                 "--out", str(ddm_ckpt), "--learning-rate", "0.2"]) == 0
    calibrated = root / "ddm-cal.sdnc"
    assert main(["calibrate", "--ddm", str(ddm_ckpt), "--bundle", str(bundle),
                 "--fnr", "0.11", "--out", str(calibrated)]) == 0
    return {"root": root, "cfg": cfg, "bundle": bundle, "setnet": setnet_ckpt,
            "ddm": ddm_ckpt, "calibrated": calibrated}


# ---------------------------------------------------------------------------
# gen-synth

def test_gen_synth_deterministic(workdir, tmp_path):
    out = tmp_path / "again.sdnb"
    assert main(["gen-synth", "--config", str(workdir["cfg"]), "--out", str(out)]) == 0
    assert out.read_bytes() == workdir["bundle"].read_bytes()


def test_gen_synth_missing_section(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"train": TRAIN}))
    rc = main(["gen-synth", "--config", str(cfg), "--out", str(tmp_path / "x.sdnb")])
    err = capsys.readouterr().err
    assert rc != 0
    assert err.startswith("error:")
    assert "synthetic" in err


def test_gen_synth_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"synthetic": dict(SYNTH, bogus=1)}))
    rc = main(["gen-synth", "--config", str(cfg), "--out", str(tmp_path / "x.sdnb")])
    err = capsys.readouterr().err
    assert rc != 0 and "bogus" in err


def test_gen_synth_default_section_loads(tmp_path):
    cfg = tmp_path / "minimal.json"
    cfg.write_text(json.dumps({"synthetic": {}}))
    out = tmp_path / "default.sdnb"
    assert main(["gen-synth", "--config", str(cfg), "--out", str(out)]) == 0
    bundle = load_bundle(out)
    assert bundle.features.shape == (450, 4, 4, 32)


def test_gen_synth_seed_flag_overrides(workdir, tmp_path):
    out = tmp_path / "seeded.sdnb"
    assert main(["gen-synth", "--config", str(workdir["cfg"]), "--out", str(out),
                 "--seed", "99"]) == 0
    assert out.read_bytes() != workdir["bundle"].read_bytes()


@pytest.mark.parametrize("seed, flag", [(1.5, None), (None, "-1")], ids=["config_fraction", "flag_negative"])
def test_gen_synth_refuses_a_seed_that_is_not_a_nonnegative_integer(tmp_path, capsys, seed, flag):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"synthetic": SYNTH if seed is None else dict(SYNTH, seed=seed)}))
    out = tmp_path / "x.sdnb"
    rc = main(["gen-synth", "--config", str(cfg), "--out", str(out),
               *(["--seed", flag] if flag else [])])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid synthetic config: seed ")
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("noise", float("nan")), ("noise", float("inf")),
                                          ("noise", "0.1"), ("seen_classes", True),
                                          ("samples_per_class", False), ("jitter", True)],
                         ids=["noise_nan", "noise_inf", "noise_text", "seen_classes_bool",
                              "samples_per_class_bool", "jitter_bool"])
def test_gen_synth_refuses_a_bad_noise_or_a_bool_count(tmp_path, capsys, field, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"synthetic": dict(SYNTH, **{field: value})}))  # NaN, Infinity
    out = tmp_path / "x.sdnb"
    assert main(["gen-synth", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: invalid synthetic config: {field} ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# training commands

def train_config(tmp_path, **fields):
    """A run config at ``tmp_path`` whose train section is TRAIN with ``fields``."""
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"synthetic": SYNTH, "train": dict(TRAIN, **fields)}))
    return cfg


def test_train_epoch_csv(workdir, tmp_path, capsys):
    out = tmp_path / "m.sdnc"
    assert main(["train-setnet", "--bundle", str(workdir["bundle"]), "--config",
                 str(train_config(tmp_path, epochs=4)), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "epoch,loss"
    data = lines[1:]
    assert len(data) == 4
    assert [int(row.split(",")[0]) for row in data] == [0, 1, 2, 3]
    float(data[0].split(",")[1])


class _FlushRecorder:
    """A stdout stand-in that records every write and flush."""

    def __init__(self):
        self.events = []

    def write(self, text):
        self.events.append(text)
        return len(text)

    def flush(self):
        self.events.append(None)


@pytest.mark.parametrize("command", ["train-setnet", "train-ddm"])
def test_train_flushes_each_epoch_row(workdir, tmp_path, capsys, monkeypatch, command):
    # each epoch,loss row is flushed as its epoch ends, whatever the stdout
    # buffering, and the CSV text is unchanged
    argv = [command, "--bundle", str(workdir["bundle"]), "--config",
            str(train_config(tmp_path, epochs=4)), "--out", str(tmp_path / "m.sdnc")]
    assert main(argv) == 0
    want = capsys.readouterr().out
    recorder = _FlushRecorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    assert main(argv) == 0
    monkeypatch.undo()
    text, flushed = "", []  # the output written so far at each flush
    for event in recorder.events:
        if event is None:
            flushed.append(text)
        else:
            text += event
    assert text == want
    rows = want.splitlines()[1:]
    assert len(rows) == 4
    assert [t.splitlines()[-1] for t in flushed] == rows  # one flush per row, as it ends
    assert all(t.endswith("\n") for t in flushed)


def test_train_rerun_identical_bytes(workdir, tmp_path):
    out = tmp_path / "m.sdnc"
    main(["train-setnet", "--bundle", str(workdir["bundle"]), "--config",
          str(workdir["cfg"]), "--out", str(out)])
    assert out.read_bytes() == workdir["setnet"].read_bytes()


def test_train_zero_lr_equals_fresh_init(workdir, tmp_path):
    frozen, init = tmp_path / "f.sdnc", tmp_path / "i.sdnc"
    base = ["train-setnet", "--bundle", str(workdir["bundle"]), "--learning-rate", "0"]
    assert main(base + ["--config", str(workdir["cfg"]), "--out", str(frozen)]) == 0
    assert main(base + ["--config", str(train_config(tmp_path, epochs=0)), "--out", str(init)]) == 0
    a, _ = load_setnet_checkpoint(frozen)
    b, _ = load_setnet_checkpoint(init)
    for name, p in a.parameters().items():
        np.testing.assert_array_equal(p, b.parameters()[name])


def test_train_missing_section(workdir, tmp_path, capsys):
    cfg = tmp_path / "nosect.json"
    cfg.write_text(json.dumps({"synthetic": SYNTH}))
    rc = main(["train-setnet", "--bundle", str(workdir["bundle"]), "--config", str(cfg),
               "--out", str(tmp_path / "x.sdnc")])
    err = capsys.readouterr().err
    assert rc != 0 and "train" in err


@pytest.mark.parametrize("command", ["train-setnet", "train-ddm"])
@pytest.mark.parametrize("field, value, message", INVALID_TRAIN_CONFIGS.values(),
                         ids=INVALID_TRAIN_CONFIGS)
def test_train_rejects_an_invalid_config_before_the_header(workdir, tmp_path, capsys, command,
                                                           field, value, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"synthetic": SYNTH, "train": {**TRAIN, field: value}}))
    out = tmp_path / "x.sdnc"
    rc = main([command, "--bundle", str(workdir["bundle"]), "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    err_lines = captured.err.strip().splitlines()
    assert rc != 0 and captured.out == ""
    assert len(err_lines) == 1 and err_lines[0].startswith(f"error: invalid train config: {message}")
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--ep", "1"), ("--learn", "0.1")], ids=["ep", "learn"])
def test_train_refuses_an_abbreviated_option(workdir, tmp_path, capsys, flag, value):
    # an option answers to its full name only, not to a prefix of it
    out = tmp_path / "x.sdnc"
    rc = main(["train-setnet", "--bundle", str(workdir["bundle"]), "--config", str(workdir["cfg"]),
               "--out", str(out), flag, value])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [f"error: unrecognized arguments: {flag} {value}"]


@pytest.mark.parametrize("command", ["train-setnet", "train-ddm"])
def test_train_non_finite_loss_fails_without_checkpoint(workdir, tmp_path, capsys, command):
    out = tmp_path / "x.sdnc"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be one more stderr line
        rc = main([command, "--bundle", str(workdir["bundle"]), "--config", str(workdir["cfg"]),
                   "--out", str(out), "--learning-rate", "1e308"])
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert rc != 0
    assert len(err_lines) == 1 and err_lines[0].startswith("error:")
    assert "non-finite training loss" in err_lines[0] and "epoch" in err_lines[0]
    assert not out.exists()


# ---------------------------------------------------------------------------
# calibrate

def test_calibrate_flags_floor_fraction(workdir):
    ensemble, cfg = load_ddm_checkpoint(workdir["calibrated"])
    bundle = load_bundle(workdir["bundle"])
    held = holdout_indices(bundle, cfg.seed)
    # the same batched call calibration makes: a per-sample degree can differ
    # in the last bits and flip the strict comparison at the k-th point
    degrees = disagreement_degree(ensemble, pooled_features(bundle, held))
    assert int((degrees < ensemble.theta).sum()) == math.floor(held.size * 0.11)


def test_calibrate_refuses_a_bundle_the_detector_was_not_trained_on(workdir, tmp_path, capsys):
    bundles = {}
    for seed in (1, 2):
        bundles[seed] = tmp_path / f"seed{seed}.sdnb"
        assert main(["gen-synth", "--config", str(workdir["cfg"]), "--out", str(bundles[seed]),
                     "--seed", str(seed)]) == 0
    ddm = tmp_path / "ddm1.sdnc"
    assert main(["train-ddm", "--bundle", str(bundles[1]), "--config", str(workdir["cfg"]),
                 "--out", str(ddm), "--learning-rate", "0.2"]) == 0
    capsys.readouterr()
    out = tmp_path / "cal.sdnc"
    rc = main(["calibrate", "--ddm", str(ddm), "--bundle", str(bundles[2]),
               "--fnr", "0.11", "--out", str(out)])
    captured = capsys.readouterr()
    err_lines = captured.err.strip().splitlines()
    assert rc != 0 and not out.exists() and "theta=" not in captured.out
    assert len(err_lines) == 1 and err_lines[0].startswith("error:")
    assert "not the bundle the detector was trained on" in err_lines[0]
    assert main(["calibrate", "--ddm", str(ddm), "--bundle", str(bundles[1]),
                 "--fnr", "0.11", "--out", str(out)]) == 0


def test_calibrate_refuses_a_detector_without_bundle_digest(workdir, tmp_path, capsys):
    # a detector that does not record its training bundle could be
    # calibrated on a split it was not trained on
    bare = unbound(workdir["ddm"], "ddm", tmp_path / "bare.sdnc")
    capsys.readouterr()
    out = tmp_path / "x.sdnc"
    rc = main(["calibrate", "--ddm", str(bare), "--bundle", str(workdir["bundle"]),
               "--fnr", "0.11", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and not out.exists() and captured.out == ""
    assert captured.err.splitlines() == [NO_DIGEST.format(kind="ddm")]


@pytest.mark.parametrize("command", ["eval-zsl", "calibrate"])
def test_checkpoint_text_that_is_not_utf8_fails_with_one_error_line(workdir, tmp_path, capsys,
                                                                     command):
    source = workdir["setnet" if command == "eval-zsl" else "ddm"]
    data = bytearray(source.read_bytes())
    data[12] = 0xFF  # the first byte of the header JSON
    bad = tmp_path / "bad.sdnc"
    bad.write_bytes(resealed(data))
    argv = (["eval-zsl", "--setnet", str(bad), "--report", str(tmp_path / "r.json")]
            if command == "eval-zsl" else
            ["calibrate", "--ddm", str(bad), "--fnr", "0.11", "--out", str(tmp_path / "c.sdnc")])
    capsys.readouterr()
    rc = main([*argv, "--bundle", str(workdir["bundle"])])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: header is not UTF-8 (at byte offset 12)"]


@pytest.mark.parametrize("defect", MISFIT_DDM)
def test_calibrate_refuses_a_detector_whose_shapes_do_not_fit(workdir, tmp_path, capsys, defect):
    ensemble, cfg = load_ddm_checkpoint(workdir["ddm"])
    misfit_ddm(ensemble, defect)
    bad, out = tmp_path / "bad.sdnc", tmp_path / "c.sdnc"
    save_checkpoint(bad, ensemble, cfg)
    capsys.readouterr()
    rc = main(["calibrate", "--ddm", str(bad), "--bundle", str(workdir["bundle"]),
               "--fnr", "0.11", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid ddm checkpoint: ")
    assert not out.exists()


def test_calibrate_refuses_a_per_fold_detector_of_an_earlier_version(workdir, tmp_path, capsys):
    # version 1 checkpoints started with "SDNC"
    ensemble, cfg = load_ddm_checkpoint(workdir["ddm"])
    old, out = tmp_path / "old.sdnc", tmp_path / "c.sdnc"
    per_fold = container_bytes("ddm", {"config": dataclasses.asdict(cfg)}, per_fold_tensors(ensemble))
    old.write_bytes(b"SDNC" + per_fold[4:])
    capsys.readouterr()
    rc = main(["calibrate", "--ddm", str(old), "--bundle", str(workdir["bundle"]),
               "--fnr", "0.11", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [BAD_MAGIC]
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval-zsl", "calibrate"])
def test_a_version_1_file_fails_with_one_error_line(workdir, tmp_path, capsys, command):
    """A bundle and a detector checkpoint that start with the version 1
    magic, "SDNB" and "SDNC": each is refused as any other bad magic."""
    old, out = tmp_path / "old", tmp_path / "out"
    if command == "eval-zsl":
        old.write_bytes(b"SDNB" + workdir["bundle"].read_bytes()[4:])
        argv = ["eval-zsl", "--setnet", str(workdir["setnet"]), "--bundle", str(old),
                "--report", str(out)]
    else:
        old.write_bytes(b"SDNC" + workdir["ddm"].read_bytes()[4:])
        argv = ["calibrate", "--ddm", str(old), "--bundle", str(workdir["bundle"]),
                "--fnr", "0.11", "--out", str(out)]
    capsys.readouterr()
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [BAD_MAGIC]


def test_calibrate_bad_fnr(workdir, tmp_path, capsys):
    rc = main(["calibrate", "--ddm", str(workdir["ddm"]), "--bundle", str(workdir["bundle"]),
               "--fnr", "1.5", "--out", str(tmp_path / "x.sdnc")])
    assert rc != 0
    assert capsys.readouterr().err.startswith("error:")


def test_recalibrate_deterministic(workdir, tmp_path):
    out1, out2 = tmp_path / "c1.sdnc", tmp_path / "c2.sdnc"
    for out in (out1, out2):
        assert main(["calibrate", "--ddm", str(workdir["calibrated"]), "--bundle",
                     str(workdir["bundle"]), "--fnr", "0.19", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    e1, _ = load_ddm_checkpoint(out1)
    ec, _ = load_ddm_checkpoint(workdir["calibrated"])
    assert e1.theta != ec.theta  # 0.19 quantile differs from 0.11 on this holdout


# ---------------------------------------------------------------------------
# eval commands

def test_eval_zsl_report(workdir, tmp_path, capsys):
    report_path = tmp_path / "zsl.json"
    attn_path = tmp_path / "attn.csv"
    assert main(["eval-zsl", "--setnet", str(workdir["setnet"]), "--bundle",
                 str(workdir["bundle"]), "--report", str(report_path),
                 "--attn", str(attn_path)]) == 0
    out = capsys.readouterr().out
    assert "%" in out
    report = report_from_json(report_path.read_text())
    assert report.acc is not None and 0 <= report.acc <= 1
    assert report.per_class
    blocks = [b for b in attn_path.read_text().split("\n\n") if b.strip()]
    assert len(blocks) == TRAIN["head_count"]


@pytest.mark.parametrize("sample", ["-1", "60"])
def test_eval_zsl_refuses_an_attn_sample_out_of_range_before_any_output(workdir, tmp_path, capsys,
                                                                        sample):
    report, attn = tmp_path / "zsl.json", tmp_path / "attn.csv"
    capsys.readouterr()
    rc = main(["eval-zsl", "--setnet", str(workdir["setnet"]), "--bundle", str(workdir["bundle"]),
               "--report", str(report), "--attn", str(attn), "--attn-sample", sample])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not report.exists() and not attn.exists()
    assert captured.err.splitlines() == [f"error: --attn-sample {sample} out of range for 60 samples"]


def test_eval_gzsl_report_consistent(workdir, tmp_path):
    report_path = tmp_path / "gzsl.json"
    assert main(["eval-gzsl", "--zsl", str(workdir["setnet"]), "--ddm",
                 str(workdir["calibrated"]), "--bundle", str(workdir["bundle"]),
                 "--report", str(report_path)]) == 0
    report = report_from_json(report_path.read_text())
    assert report.h is not None  # report_from_json re-validates Eq.-consistency


def test_eval_gzsl_degenerate_threshold_matches_direct(workdir, tmp_path):
    from setnet.train import save_checkpoint
    ensemble, cfg = load_ddm_checkpoint(workdir["ddm"])
    ensemble.theta = -1e300
    never = tmp_path / "never.sdnc"
    save_checkpoint(never, ensemble, cfg)
    report_path = tmp_path / "gzsl-never.json"
    assert main(["eval-gzsl", "--zsl", str(workdir["setnet"]), "--ddm", str(never),
                 "--bundle", str(workdir["bundle"]), "--report", str(report_path)]) == 0
    report = report_from_json(report_path.read_text())
    bundle = load_bundle(workdir["bundle"])
    model, _ = load_setnet_checkpoint(workdir["setnet"])
    for i in bundle.test_indices():
        cls = int(bundle.labels[i])
        want = predict(model, bundle.features[i:i + 1], bundle.table)[0]
        if cls in report.per_class and want != cls:
            assert report.per_class[cls] < 1.0
            break
    # routed == direct for every class accuracy
    from setnet.metrics import per_class_accuracy
    direct = [predict(model, bundle.features[i:i + 1], bundle.table)[0]
              for i in bundle.test_indices()]
    want_pc = per_class_accuracy(direct, bundle.labels[bundle.test_indices()],
                                 bundle.table.class_ids)
    assert report.per_class == want_pc


def test_eval_ood_curves(workdir, tmp_path):
    report_path = tmp_path / "ood.json"
    curves_path = tmp_path / "curves.csv"
    assert main(["eval-ood", "--ddm", str(workdir["calibrated"]), "--bundle",
                 str(workdir["bundle"]), "--config", str(workdir["cfg"]),
                 "--report", str(report_path), "--curves", str(curves_path)]) == 0
    report = report_from_json(report_path.read_text())
    tnrs = [t for _, t in report.tnr_at_fnr]
    assert all(a <= b + 1e-12 for a, b in zip(tnrs, tnrs[1:]))
    lines = curves_path.read_text().splitlines()
    assert lines[0] == "fnr,tnr"
    assert len(lines) == 1 + 8


@pytest.mark.parametrize("entry", ["0.1", True, None, [0.1]], ids=["string", "bool", "null", "list"])
def test_eval_ood_refuses_an_fnr_grid_entry_that_is_not_a_number(workdir, tmp_path, capsys, entry):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"fnr_grid": [entry, 0.2]}))
    report = tmp_path / "ood.json"
    capsys.readouterr()
    rc = main(["eval-ood", "--ddm", str(workdir["calibrated"]), "--bundle", str(workdir["bundle"]),
               "--report", str(report), "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2 and not report.exists() and captured.out == ""
    assert captured.err.splitlines() == ["error: config key 'fnr_grid' must be a nonempty list of numbers"]


@pytest.mark.parametrize("config", ["absent", "without_grid"])
def test_eval_ood_refuses_a_run_without_an_fnr_grid(workdir, tmp_path, capsys, config):
    """The FNR grid comes from the config only: eval-ood requires --config,
    and a config without 'fnr_grid' is refused, not given a default grid."""
    cfg = tmp_path / "no-grid.json"
    cfg.write_text(json.dumps({"synthetic": SYNTH, "train": TRAIN}))
    report = tmp_path / "ood.json"
    argv = ["eval-ood", "--ddm", str(workdir["calibrated"]), "--bundle", str(workdir["bundle"]),
            "--report", str(report)]
    capsys.readouterr()
    rc = main(argv if config == "absent" else argv + ["--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2 and not report.exists() and captured.out == ""
    assert captured.err.splitlines() == [
        "error: the following arguments are required: --config" if config == "absent"
        else "error: missing required key 'fnr_grid' in config"]
    assert main(argv + ["--config", str(workdir["cfg"])]) == 0


def test_eval_gzsl_refuses_attn(workdir, tmp_path, capsys):
    """eval-zsl is the one attention exporter: eval-gzsl has no --attn."""
    report, attn = tmp_path / "gzsl.json", tmp_path / "x.csv"
    argv = ["eval-gzsl", "--zsl", str(workdir["setnet"]), "--ddm", str(workdir["calibrated"]),
            "--bundle", str(workdir["bundle"]), "--report", str(report)]
    capsys.readouterr()
    rc = main(argv + ["--attn", str(attn)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not report.exists() and not attn.exists()
    assert captured.err.splitlines() == [f"error: unrecognized arguments: --attn {attn}"]
    assert main(argv) == 0


def test_eval_zsl_refuses_a_bundle_with_other_channels(workdir, tmp_path, capsys):
    cfg = tmp_path / "six.json"
    cfg.write_text(json.dumps({"synthetic": dict(SYNTH, channels=6)}))
    bundle = tmp_path / "six.sdnb"
    assert main(["gen-synth", "--config", str(cfg), "--out", str(bundle)]) == 0
    model, train_cfg = load_setnet_checkpoint(workdir["setnet"])
    model.bundle_sha256 = load_bundle(bundle).sha256  # so the digest check cannot refuse it first
    bound = tmp_path / "bound.sdnc"
    save_checkpoint(bound, model, train_cfg)
    report = tmp_path / "zsl.json"
    capsys.readouterr()
    rc = main(["eval-zsl", "--setnet", str(bound), "--bundle", str(bundle),
               "--report", str(report)])
    captured = capsys.readouterr()
    assert rc == 1 and not report.exists() and captured.out == ""
    assert captured.err.splitlines() == [
        "error: channel mismatch: feature maps have 6 channels, the model takes 8"]


@pytest.mark.parametrize("command", ["eval-ood", "calibrate"])
def test_detector_refuses_a_bundle_with_other_channels(workdir, tmp_path, capsys, command):
    cfg = tmp_path / "six.json"
    cfg.write_text(json.dumps({"synthetic": dict(SYNTH, channels=6)}))
    bundle = tmp_path / "six.sdnb"
    assert main(["gen-synth", "--config", str(cfg), "--out", str(bundle)]) == 0
    ensemble, train_cfg = load_ddm_checkpoint(workdir["calibrated"])
    ensemble.bundle_sha256 = load_bundle(bundle).sha256  # so the digest check cannot refuse it first
    bound = tmp_path / "bound.sdnc"
    save_checkpoint(bound, ensemble, train_cfg)
    out = tmp_path / "out"
    rest = (["--fnr", "0.11", "--out"] if command == "calibrate"
            else ["--config", str(workdir["cfg"]), "--report"])
    capsys.readouterr()
    rc = main([command, "--ddm", str(bound), "--bundle", str(bundle), *rest, str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and not out.exists() and captured.out == ""
    assert captured.err.splitlines() == [
        "error: channel mismatch: features have 6 channels, the detector takes 8"]


def unbound(source, kind, path):
    """A copy at ``path`` of the ``kind`` checkpoint ``source`` without its
    training-bundle digest."""
    meta, tensors, _ = read_container(source, kind)
    del meta["bundle_sha256"]
    path.write_bytes(container_bytes(kind, meta, tensors))
    return path


@pytest.fixture(scope="module")
def foreign(workdir, tmp_path_factory):
    """A SetNet and a detector trained, and the detector calibrated, on a
    seed-1 bundle, and a seed-2 bundle neither was trained on."""
    root = tmp_path_factory.mktemp("foreign")
    bundles = {seed: root / f"seed{seed}.sdnb" for seed in (1, 2)}
    for seed, path in bundles.items():
        assert main(["gen-synth", "--config", str(workdir["cfg"]), "--out", str(path),
                     "--seed", str(seed)]) == 0
    setnet, ddm, calibrated = root / "setnet1.sdnc", root / "ddm1.sdnc", root / "ddm1-cal.sdnc"
    assert main(["train-setnet", "--bundle", str(bundles[1]), "--config", str(workdir["cfg"]),
                 "--out", str(setnet)]) == 0
    assert main(["train-ddm", "--bundle", str(bundles[1]), "--config", str(workdir["cfg"]),
                 "--out", str(ddm), "--learning-rate", "0.2"]) == 0
    assert main(["calibrate", "--ddm", str(ddm), "--bundle", str(bundles[1]),
                 "--fnr", "0.11", "--out", str(calibrated)]) == 0
    return {"bundles": bundles, "setnet": setnet, "ddm": calibrated, "cfg": workdir["cfg"]}


def eval_argv(command, setnet, ddm, bundle, report, config):
    """eval-gzsl with the model ``setnet``, or eval-ood with the run config ``config``."""
    given = ["--zsl", str(setnet)] if command == "eval-gzsl" else ["--config", str(config)]
    return [command, *given, "--ddm", str(ddm), "--bundle", str(bundle), "--report", str(report)]


@pytest.mark.parametrize("command", ["eval-gzsl", "eval-ood"])
def test_eval_refuses_a_bundle_the_detector_was_not_trained_on(foreign, tmp_path, capsys, command):
    capsys.readouterr()
    report = tmp_path / "r.json"
    rc = main(eval_argv(command, foreign["setnet"], foreign["ddm"], foreign["bundles"][2], report,
                        foreign["cfg"]))
    captured = capsys.readouterr()
    err_lines = captured.err.strip().splitlines()
    assert rc == 1 and not report.exists() and captured.out == ""
    assert len(err_lines) == 1 and err_lines[0].startswith("error:")
    assert "not the bundle the detector was trained on" in err_lines[0]
    assert main(eval_argv(command, foreign["setnet"], foreign["ddm"], foreign["bundles"][1],
                          report, foreign["cfg"])) == 0


@pytest.fixture(scope="module")
def swapped_split(tmp_path_factory):
    """Bundles A (4 seen, 2 unseen classes) and B (2 seen, 4 unseen) from one
    synthetic seed, so they hold the same maps and table and differ only in
    the split: B's "unseen" classes 2 and 3 are seen classes of A. A SetNet
    trained on each, and a detector trained and calibrated on B."""
    root = tmp_path_factory.mktemp("swapped")
    files = {name: root / name for name in ("a.sdnb", "b.sdnb", "a.sdnc", "b.sdnc", "ddm-b.sdnc")}
    for name, seen in (("a", 4), ("b", 2)):
        cfg = root / f"{name}.json"
        cfg.write_text(json.dumps({"synthetic": dict(SYNTH, seen_classes=seen,
                                                     unseen_classes=6 - seen), "train": TRAIN}))
        bundle = str(files[f"{name}.sdnb"])
        assert main(["gen-synth", "--config", str(cfg), "--out", bundle]) == 0
        assert main(["train-setnet", "--bundle", bundle, "--config", str(cfg),
                     "--out", str(files[f"{name}.sdnc"])]) == 0
    assert main(["train-ddm", "--bundle", str(files["b.sdnb"]), "--config", str(root / "b.json"),
                 "--out", str(files["ddm-b.sdnc"]), "--learning-rate", "0.2"]) == 0
    assert main(["calibrate", "--ddm", str(files["ddm-b.sdnc"]), "--bundle", str(files["b.sdnb"]),
                 "--fnr", "0.11", "--out", str(files["ddm-b.sdnc"])]) == 0
    return files


@pytest.mark.parametrize("models", [("eval-zsl", "a.sdnc"), ("eval-gzsl", "a.sdnc"),
                                    ("eval-gzsl", "b.sdnc", "a.sdnc")],
                         ids=["zsl", "gzsl_zsl_route", "gzsl_full_route"])
def test_eval_refuses_a_model_trained_on_another_split(swapped_split, tmp_path, capsys, models):
    """A model trained on A and scored on B would call its own training
    classes unseen; each command names the checkpoint it refuses."""
    command, *names = models
    flags = ["--setnet"] if command == "eval-zsl" else ["--zsl", "--gzsl"]
    argv = [command, "--bundle", str(swapped_split["b.sdnb"]), "--report", str(tmp_path / "r.json")]
    if command == "eval-gzsl":
        argv += ["--ddm", str(swapped_split["ddm-b.sdnc"])]
    capsys.readouterr()
    given = [a for flag, name in zip(flags, names) for a in (flag, str(swapped_split[name]))]
    rc = main(argv + given)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == "" and not (tmp_path / "r.json").exists()
    assert captured.err.splitlines() == [
        f"error: bundle is not the bundle the model {swapped_split['a.sdnc']} was trained on"]
    own = [a for flag in flags[:len(names)] for a in (flag, str(swapped_split["b.sdnc"]))]
    assert main(argv + own) == 0


@pytest.mark.parametrize("command", ["eval-zsl", "eval-gzsl"])
def test_eval_refuses_a_model_without_bundle_digest(workdir, tmp_path, capsys, command):
    bare = unbound(workdir["setnet"], "setnet", tmp_path / "bare-setnet.sdnc")
    reports = {setnet: tmp_path / f"{setnet.stem}.json" for setnet in (bare, workdir["setnet"])}

    def argv(setnet):
        if command == "eval-zsl":
            return ["eval-zsl", "--setnet", str(setnet), "--bundle", str(workdir["bundle"]),
                    "--report", str(reports[setnet])]
        return eval_argv(command, setnet, workdir["calibrated"], workdir["bundle"], reports[setnet],
                         workdir["cfg"])

    capsys.readouterr()
    assert main(argv(bare)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not reports[bare].exists()
    assert captured.err.splitlines() == [NO_DIGEST.format(kind="setnet")]
    assert main(argv(workdir["setnet"])) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["eval-gzsl", "eval-ood"])
def test_eval_refuses_a_detector_without_bundle_digest(workdir, tmp_path, capsys, command):
    bare = unbound(workdir["calibrated"], "ddm", tmp_path / "bare.sdnc")
    reports = {ddm: tmp_path / f"{ddm.stem}.json" for ddm in (bare, workdir["calibrated"])}
    capsys.readouterr()
    assert main(eval_argv(command, workdir["setnet"], bare, workdir["bundle"], reports[bare],
                          workdir["cfg"])) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not reports[bare].exists()
    assert captured.err.splitlines() == [NO_DIGEST.format(kind="ddm")]
    assert main(eval_argv(command, workdir["setnet"], workdir["calibrated"], workdir["bundle"],
                          reports[workdir["calibrated"]], workdir["cfg"])) == 0
    assert capsys.readouterr().err == ""


def test_eval_reports_idempotent(workdir, tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for p in (p1, p2):
        assert main(["eval-zsl", "--setnet", str(workdir["setnet"]), "--bundle",
                     str(workdir["bundle"]), "--report", str(p)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# failure modes

def test_wrong_checkpoint_kind_fails(workdir, tmp_path, capsys):
    rc = main(["eval-zsl", "--setnet", str(workdir["calibrated"]), "--bundle",
               str(workdir["bundle"]), "--report", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert rc != 0 and err.startswith("error:") and "\n" not in err.strip("\n")


def test_a_detector_whose_theta_is_a_bool_fails_with_one_error_line(workdir, tmp_path, capsys):
    # a hand-edited "theta": true would gate every row against 1.0
    meta, tensors, _ = read_container(workdir["calibrated"], "ddm")
    edited, report = tmp_path / "edited.sdnc", tmp_path / "r.json"
    edited.write_bytes(container_bytes("ddm", dict(meta, theta=True), tensors))
    capsys.readouterr()
    rc = main(["eval-gzsl", "--zsl", str(workdir["setnet"]), "--ddm", str(edited),
               "--bundle", str(workdir["bundle"]), "--report", str(report)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == "" and not report.exists()
    assert captured.err.splitlines() == [
        "error: invalid ddm checkpoint: theta must be a finite number, got True"]


def test_uncalibrated_ddm_fails(workdir, tmp_path, capsys):
    rc = main(["eval-gzsl", "--zsl", str(workdir["setnet"]), "--ddm", str(workdir["ddm"]),
               "--bundle", str(workdir["bundle"]), "--report", str(tmp_path / "r.json")])
    assert rc != 0
    assert capsys.readouterr().err.startswith("error:")


def test_missing_flag_fails_with_prefix(capsys):
    rc = main(["calibrate", "--fnr", "0.1"])
    assert rc != 0
    assert capsys.readouterr().err.startswith("error:")


def test_a_config_paths_section_is_an_unknown_key(workdir, tmp_path, capsys):
    """Paths come from flags only: a "paths" section is refused, not ignored,
    and --bundle and --out are required."""
    cfg = tmp_path / "paths.json"
    cfg.write_text(json.dumps({"train": TRAIN, "paths": {"report": str(tmp_path / "r.json"),
                                                         "setnet": str(tmp_path / "m.sdnc")}}))
    out = tmp_path / "x.sdnc"
    capsys.readouterr()
    rc = main(["train-setnet", "--bundle", str(workdir["bundle"]), "--config", str(cfg),
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err.splitlines() == ["error: unknown config key 'paths'"]
    for command, flag in (("gen-synth", "--out"), ("train-setnet", "--out"),
                          ("train-ddm", "--bundle")):
        argv = [command, "--config", str(workdir["cfg"]), "--bundle", str(workdir["bundle"]),
                "--out", str(out)]
        del argv[argv.index(flag):argv.index(flag) + 2]
        if command == "gen-synth":
            del argv[argv.index("--bundle"):argv.index("--bundle") + 2]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: the following arguments are required: {flag}"]


def test_console_script_entry_point(workdir, tmp_path):
    out = tmp_path / "script.sdnb"
    # the child imports the same package the tests do, installed or not
    package_root = os.path.dirname(os.path.dirname(setnet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "setnet.cli", "gen-synth",
                           "--config", str(workdir["cfg"]), "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert out.read_bytes() == workdir["bundle"].read_bytes()
