"""Command-line surface: synthesize data, train, calibrate, evaluate.

One JSON config file is the source of truth for a run; only the seeds and
the learning rate have override flags. Every command is deterministic given
identical inputs and seeds, and every failure exits nonzero with a single
``error:`` line on stderr.

Each command is one short process, so its entry owns the garbage collector:
``python -m setnet.cli`` imports with it off, and ``run`` (the ``setnet``
script too) freezes what the imports made, which lives until exit, so that no
collection walks it again. ``main(argv)`` leaves the collector as it finds it.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # the process entry imports with the collector off
    gc.disable()

import argparse
import dataclasses
import json
import sys

import numpy as np

from .dataio import DatasetBundle, SyntheticSpec, gen_synthetic, load_bundle, save_bundle
from .metrics import (EvalReport, harmonic_mean, per_class_accuracy, per_class_top1,
                      save_curves_csv, save_report, tnr_at_fnr)
from .model import attention_maps, export_attention, predict
from .ood import export_degrees_csv
from .pipeline import GzslSystem, classify_gzsl
from .train import (TrainConfig, calibrate_ensemble, check_training_bundle, detector_degrees,
                    load_ddm_checkpoint, load_setnet_checkpoint, save_checkpoint, train_ddm,
                    train_setnet)

_TOP_KEYS = {"train", "synthetic", "fnr_grid"}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # subparsers too: no option answers to a prefix of its name
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # single-line error contract
        raise CliError(message)


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise CliError(f"config is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise CliError("config root must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise CliError(f"unknown config key {sorted(unknown)[0]!r}")
    return doc


def _required(config: dict, key: str):
    if key not in config:
        raise CliError(f"missing required key {key!r} in config")
    return config[key]


def _build(cls, config: dict, key: str, overrides: dict):
    """``cls`` from the config section ``key``, with the given overrides."""
    section = _required(config, key)
    if not isinstance(section, dict):
        raise CliError(f"config key {key!r} must be an object")
    unknown = set(section) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise CliError(f"unknown config key {key}.{sorted(unknown)[0]!r}")
    merged = dict(section)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return cls(**merged)
    except (TypeError, ValueError) as e:
        raise CliError(f"invalid {key} config: {e}") from e


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}%"


def _print_epoch(epoch: int, loss: float) -> None:
    print(f"{epoch},{repr(float(loss))}", flush=True)


# ---------------------------------------------------------------------------
# command handlers

def _cmd_gen_synth(args) -> None:
    spec = _build(SyntheticSpec, _load_config(args.config), "synthetic", {"seed": args.seed})
    save_bundle(gen_synthetic(spec), args.out)
    print(f"wrote bundle to {args.out}")


def _cmd_train(args) -> None:
    """train-setnet and train-ddm: stream the epoch,loss CSV, then save."""
    cfg = _build(TrainConfig, _load_config(args.config), "train",
                 {"seed": args.seed, "learning_rate": args.learning_rate})
    bundle = load_bundle(args.bundle)
    print("epoch,loss")
    trainer = train_setnet if args.command == "train-setnet" else train_ddm
    save_checkpoint(args.out, trainer(bundle, cfg, epoch_callback=_print_epoch), cfg)


def _load_model(path, bundle: DatasetBundle):
    """The SetNet checkpoint ``path``, refused unless trained on ``bundle``."""
    model, _ = load_setnet_checkpoint(path)
    check_training_bundle(model, bundle, f"model {path}")
    return model


def _load_detector(args):
    """The --ddm detector, its config and the --bundle bundle, refused unless trained on it."""
    ensemble, cfg = load_ddm_checkpoint(args.ddm)
    bundle = load_bundle(args.bundle)
    check_training_bundle(ensemble, bundle)
    return ensemble, cfg, bundle


def _cmd_calibrate(args) -> None:
    ensemble, cfg, bundle = _load_detector(args)
    calibrate_ensemble(ensemble, bundle, args.fnr)
    save_checkpoint(args.out, ensemble, cfg)
    print(f"theta={repr(float(ensemble.theta))}")


def _test_indices_in(bundle: DatasetBundle, class_ids) -> np.ndarray:
    test = bundle.test_indices()
    return test[np.isin(bundle.labels[test], class_ids)]


def _cmd_eval_zsl(args) -> None:
    bundle = load_bundle(args.bundle)
    model = _load_model(args.setnet, bundle)
    table = bundle.unseen_table()
    idx = _test_indices_in(bundle, bundle.unseen_ids)
    if idx.size == 0:
        raise CliError("bundle has no unseen-class test samples")
    sample = int(bundle.test_indices()[0]) if args.attn_sample is None else args.attn_sample
    if args.attn is not None and not 0 <= sample < bundle.sample_count:
        raise CliError(f"--attn-sample {sample} out of range for {bundle.sample_count} samples")
    preds = bundle.map_rows(idx, lambda maps: predict(model, maps, table))
    labels = bundle.labels[idx]
    per_class = per_class_accuracy(preds, labels, table.class_ids)
    acc = per_class_top1(preds, labels, table.class_ids)
    save_report(EvalReport(acc=acc, per_class=per_class), args.report)
    if args.attn is not None:
        export_attention(attention_maps(model, bundle.features[sample:sample + 1])[0], args.attn)
    print(f"unseen acc = {_pct(acc)}")


def _cmd_eval_gzsl(args) -> None:
    ensemble, _, bundle = _load_detector(args)
    zsl_model = _load_model(args.zsl, bundle)
    gzsl_model = zsl_model if args.gzsl is None else _load_model(args.gzsl, bundle)
    system = GzslSystem(ensemble, zsl_model, gzsl_model, bundle)
    idx = bundle.test_indices()
    if idx.size == 0:
        raise CliError("bundle has no test samples")
    preds = bundle.map_rows(idx, lambda maps: classify_gzsl(system, maps))
    labels = bundle.labels[idx]
    per_class = per_class_accuracy(preds, labels, bundle.table.class_ids)
    seen_ids = set(bundle.seen_ids.tolist())  # every other table class is unseen
    seen = [a for c, a in per_class.items() if c in seen_ids]
    unseen = [a for c, a in per_class.items() if c not in seen_ids]
    acc_seen = float(np.mean(seen)) if seen else 0.0
    acc_unseen = float(np.mean(unseen)) if unseen else 0.0
    h = harmonic_mean(acc_unseen, acc_seen)
    report = EvalReport(acc=per_class_top1(preds, labels, bundle.table.class_ids),
                        acc_seen=acc_seen, acc_unseen=acc_unseen, h=h,
                        per_class=per_class)
    save_report(report, args.report)
    print(f"seen acc = {_pct(acc_seen)}  unseen acc = {_pct(acc_unseen)}  H = {_pct(h)}")


def _cmd_eval_ood(args) -> None:
    grid = _required(_load_config(args.config), "fnr_grid")
    if (not isinstance(grid, list) or not grid
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in grid)):
        raise CliError("config key 'fnr_grid' must be a nonempty list of numbers")
    ensemble, _, bundle = _load_detector(args)
    seen_idx = _test_indices_in(bundle, bundle.seen_ids)
    unseen_idx = _test_indices_in(bundle, bundle.unseen_ids)
    if seen_idx.size == 0 or unseen_idx.size == 0:
        raise CliError("bundle needs both seen-class and unseen-class test samples")
    seen_deg = detector_degrees(ensemble, bundle, seen_idx)
    unseen_deg = detector_degrees(ensemble, bundle, unseen_idx)
    pairs = tnr_at_fnr(seen_deg, unseen_deg, grid)
    save_report(EvalReport(tnr_at_fnr=pairs), args.report)
    if args.curves is not None:
        save_curves_csv(pairs, args.curves)
    if args.degrees_seen is not None:
        export_degrees_csv(seen_deg, args.degrees_seen)
    if args.degrees_unseen is not None:
        export_degrees_csv(unseen_deg, args.degrees_unseen)
    for fnr, tnr in pairs:
        print(f"tnr@fnr={fnr:g} = {_pct(tnr)}")


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="setnet",
                     description="Diverse-attention zero-shot classification "
                                 "with an inner-disagreement OOD gate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic feature-map bundle")
    p.add_argument("--config", required=True, help="run config JSON with a 'synthetic' section")
    p.add_argument("--out", required=True, help="output bundle path (.sdnb)")
    p.add_argument("--seed", type=int, help="override synthetic.seed")
    p.set_defaults(func=_cmd_gen_synth)

    for name, desc in (("train-setnet", "train a classification model"),
                       ("train-ddm", "train a detector ensemble")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--bundle", required=True, help="input bundle path")
        p.add_argument("--config", required=True, help="run config JSON with a 'train' section")
        p.add_argument("--out", required=True, help="output checkpoint path")
        p.add_argument("--seed", type=int)
        p.add_argument("--learning-rate", type=float)
        p.set_defaults(func=_cmd_train)

    p = sub.add_parser("calibrate", help="set the detector threshold from held-out seen data")
    p.add_argument("--ddm", required=True, help="trained detector checkpoint")
    p.add_argument("--bundle", required=True)
    p.add_argument("--fnr", type=float, required=True, help="target false-negative rate in (0, 1)")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("eval-zsl", help="unseen-class accuracy of a model")
    p.add_argument("--setnet", required=True, help="model checkpoint")
    p.add_argument("--bundle", required=True)
    p.add_argument("--report", required=True, help="output report JSON")
    p.add_argument("--attn", help="optional attention-map CSV export")
    p.add_argument("--attn-sample", type=int, help="bundle sample index for --attn")
    p.set_defaults(func=_cmd_eval_zsl)

    p = sub.add_parser("eval-gzsl", help="detector-gated accuracy over all classes")
    p.add_argument("--zsl", required=True, help="unseen-route model checkpoint")
    p.add_argument("--gzsl", help="full-table model checkpoint (defaults to --zsl)")
    p.add_argument("--ddm", required=True, help="calibrated detector checkpoint")
    p.add_argument("--bundle", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_eval_gzsl)

    p = sub.add_parser("eval-ood", help="TNR@FNR curve for a detector ensemble")
    p.add_argument("--ddm", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--curves", help="optional (fnr, tnr) CSV")
    p.add_argument("--config", required=True, help="run config JSON with an 'fnr_grid' list")
    p.add_argument("--degrees-seen", help="optional CSV of seen-class test degrees")
    p.add_argument("--degrees-unseen", help="optional CSV of unseen-class test degrees")
    p.set_defaults(func=_cmd_eval_ood)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # non-finite results are caught and reported as errors, so numpy's
        # floating-point messages would only add lines to stderr
        with np.errstate(all="ignore"):
            args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # library-level failures keep their message
        msg = " ".join(str(e).split()) or type(e).__name__
        print(f"error: {msg}", file=sys.stderr)
        return 1
    return 0


def run() -> int:
    gc.freeze()
    gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
