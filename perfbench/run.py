"""End-to-end benchmark of the setnet CLI pipeline.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 60 --trace 0

Runs the README command sequence as separate ``python -m setnet.cli``
processes, one at a time (a closed loop with one client), from the source
tree next to this directory:

    gen-synth -> train-setnet (seed t) -> train-setnet (seed t+1000)
    -> train-ddm --learning-rate 0.2 -> calibrate --fnr 0.11
    -> eval-zsl -> eval-gzsl -> eval-ood

``--trace 0`` runs the pipeline once per quality trial (trial seeds are
derived from ``--seed``), repeats trial 0 to check that same-seed artifacts
are byte-identical, then keeps repeating trials while ``--seconds`` allows.
Timings are medians over all pipelines; quality is the mean over trials.

``--trace 1`` runs trial 0 untraced, then again with timing wrappers
around the layer functions (see traced_cli.py), repeating that pair while
``--seconds`` allows, and reports per-layer medians plus the tracing
overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A stage invocation counts as
failed when it exits nonzero, prints an ``error:`` line, writes output that
does not parse or is out of range, or writes bytes that differ from an
earlier run with the same seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0  # the whole run, stages included
FNR = 0.11
GZSL_SEED_OFFSET = 1000

# configs/default.json at the time the benchmark was defined, pinned here so
# that a later edit of that file does not silently change the workloads.
DESK_SYNTHETIC = {"seen_classes": 10, "unseen_classes": 5, "samples_per_class": 30,
                  "height": 4, "width": 4, "channels": 32, "semantic_dim": 16,
                  "attrs_per_class": 4, "noise": 0.1, "jitter": 1, "seed": 0}
DESK_TRAIN = {"learning_rate": 4.0, "epochs": 150, "batch_size": 8, "seed": 0,
              "diversity_weight": 0.2, "head_count": 4, "hidden_channels": 16,
              "fold_count": 5, "diversity_sign": -1, "ddm_hidden": 64}
FNR_GRID = [0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.17, 0.19]


@dataclasses.dataclass(frozen=True)
class Workload:
    synthetic: dict
    epochs: int   # for train-setnet and train-ddm
    trials: int   # independent seeds whose quality is averaged

    def config(self) -> dict:
        return {"synthetic": {**DESK_SYNTHETIC, **self.synthetic},
                "train": {**DESK_TRAIN, "epochs": self.epochs},
                "fnr_grid": FNR_GRID}

    def test_counts(self) -> tuple[int, int]:
        """(seen, unseen) test samples, as gen_synthetic splits them."""
        syn = self.config()["synthetic"]
        per_class = int(round(syn["samples_per_class"] * 0.2))
        return syn["seen_classes"] * per_class, syn["unseen_classes"] * syn["samples_per_class"]


# Why each workload exists is written down in README.md next to this file.
# Epochs are cut from 150 so that six trials and a same-seed repeat fit one run.
WORKLOADS = {
    # configs/default.json data: 4x4x32 maps, 10 seen + 5 unseen classes, 30 per class.
    "desk": Workload(synthetic={}, epochs=30, trials=6),
    # Desk maps, 20 unseen classes, 120 per class: eval stages carry the pipeline.
    "infer": Workload(synthetic={"unseen_classes": 20, "samples_per_class": 120},
                      epochs=8, trials=6),
}

STAGES = ["gen_synth", "train_setnet", "train_ddm", "calibrate", "eval_zsl", "eval_gzsl", "eval_ood"]


@dataclasses.dataclass
class StageRun:
    stage: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None


class Runner:
    """Starts one CLI process at a time and accounts for every invocation."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {**os.environ, **BLAS_PIN, "PYTHONPATH": str(SRC)}
        self.runs: list[StageRun] = []

    @property
    def failed(self) -> int:
        return sum(r.error is not None for r in self.runs)

    def spawn(self, argv: list[str], cwd: Path, log: Path):
        """Run argv to completion; return (wall_s, cpu_s, rss_mb, code, stdout, stderr)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return 0.0, 0.0, 0.0, None, "", "run deadline passed before start"
        with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = log.with_suffix(".out").read_text(errors="replace")
        stderr = log.with_suffix(".err").read_text(errors="replace")
        return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode, stdout, stderr)

    def stage(self, stage: str, argv: list[str], cwd: Path, check=None) -> StageRun:
        wall, cpu, rss, code, stdout, stderr = self.spawn(argv, cwd, cwd / f"{len(self.runs):03d}-{stage}")
        error = None
        lines = stdout.splitlines() + stderr.splitlines()
        if code != 0:
            error = f"exit code {code}: {stderr.strip()[-300:]}"
        elif any(line.startswith("error:") for line in lines):
            error = "printed an error: line"
        elif check is not None:
            try:
                error = check(stdout)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
                error = f"{type(e).__name__}: {e}"
        run = StageRun(stage, wall, cpu, rss, error)
        self.runs.append(run)
        if error is not None:
            print(f"perfbench: {stage} failed in {cwd.name}: {error}", file=sys.stderr)
        return run

    def skip(self, stage: str, why: str) -> None:
        self.runs.append(StageRun(stage, 0.0, 0.0, 0.0, why))


# ---------------------------------------------------------------------------
# output checks

def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _rate(value) -> float:
    if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        raise ValueError(f"rate {value!r} outside [0, 1]")
    return float(value)


def check_epochs(epochs: int):
    def check(stdout: str) -> str | None:
        lines = stdout.splitlines()
        if not lines or lines[0] != "epoch,loss":
            return "missing epoch,loss header"
        rows = lines[1:]
        if len(rows) != epochs:
            return f"{len(rows)} loss rows, expected {epochs}"
        for i, row in enumerate(rows):
            epoch, loss = row.split(",")
            if int(epoch) != i:
                return f"row {i} is labelled epoch {epoch}"
            _finite(loss)
        return None
    return check


def check_theta(stdout: str) -> str | None:
    lines = [line for line in stdout.splitlines() if line.startswith("theta=")]
    if len(lines) != 1:
        return "no theta= line"
    _finite(lines[0][len("theta="):])
    return None


def _report(path: Path) -> dict:
    doc = json.loads(path.read_text())
    for cls, acc in doc["per_class"].items():
        int(cls)
        _rate(acc)
    return doc


def check_zsl(path: Path):
    def check(_stdout: str) -> str | None:
        doc = _report(path)
        acc = _rate(doc["acc"])
        if abs(acc - statistics.fmean(doc["per_class"].values())) > 1e-9:
            return "acc is not the mean of per-class accuracy"
        return None
    return check


def check_gzsl(path: Path):
    def check(_stdout: str) -> str | None:
        doc = _report(path)
        seen, unseen, h = (_rate(doc[k]) for k in ("acc_seen", "acc_unseen", "h"))
        _rate(doc["acc"])
        expected = 2 * seen * unseen / (seen + unseen) if seen + unseen else 0.0
        if abs(h - expected) > 1e-9:
            return "h is not the harmonic mean of acc_seen and acc_unseen"
        return None
    return check


def check_ood(path: Path, seen_csv: Path, unseen_csv: Path, counts: tuple[int, int]):
    def check(_stdout: str) -> str | None:
        pairs = json.loads(path.read_text())["tnr_at_fnr"]
        for fnr, tnr in pairs:
            _rate(fnr)
            _rate(tnr)
        if not any(abs(fnr - FNR) < 1e-12 for fnr, _ in pairs):
            return f"report has no TNR at FNR {FNR}"
        for csv, expected in zip((seen_csv, unseen_csv), counts):
            values = [_finite(v) for v in csv.read_text().split()]
            if len(values) != expected:
                return f"{csv.name} has {len(values)} degrees, expected {expected}"
        return None
    return check


def check_exists(path: Path):
    def check(_stdout: str) -> str | None:
        return None if path.stat().st_size > 0 else f"{path.name} is empty"
    return check


# ---------------------------------------------------------------------------
# one pipeline

@dataclasses.dataclass
class Pipeline:
    directory: Path
    seed: int
    runs: list[StageRun]
    writers: dict[str, StageRun]  # artifact file name -> the run that last wrote it
    complete: bool

    def wall(self, *stages: str) -> float:
        return sum(r.wall_s for r in self.runs if r.stage in stages)


def run_pipeline(runner: Runner, wl: Workload, seed: int, directory: Path,
                 traced: bool = False, after_stage=None) -> Pipeline:
    """The README CLI sequence for one seed, in its own directory.

    ``traced`` runs every stage through traced_cli.py, which writes one
    spans file per stage under ``directory/spans``. ``after_stage(stage,
    directory)`` is a test seam called after each stage.
    """
    (directory / "spans").mkdir(parents=True)
    config = directory / "config.json"
    config.write_text(json.dumps(wl.config(), indent=2))
    d = directory
    seen_n, unseen_n = wl.test_counts()
    plan = [
        ("gen_synth", ["gen-synth", "--config", config, "--out", d / "data.sdnb", "--seed", seed],
         check_exists(d / "data.sdnb"), ["data.sdnb"]),
        ("train_setnet", ["train-setnet", "--bundle", d / "data.sdnb", "--config", config,
                          "--seed", seed, "--out", d / "zsl.sdnc"], check_epochs(wl.epochs), ["zsl.sdnc"]),
        ("train_setnet", ["train-setnet", "--bundle", d / "data.sdnb", "--config", config,
                          "--seed", seed + GZSL_SEED_OFFSET, "--out", d / "gzsl.sdnc"],
         check_epochs(wl.epochs), ["gzsl.sdnc"]),
        ("train_ddm", ["train-ddm", "--bundle", d / "data.sdnb", "--config", config,
                       "--seed", seed, "--learning-rate", 0.2, "--out", d / "ddm.sdnc"],
         check_epochs(wl.epochs), []),
        ("calibrate", ["calibrate", "--ddm", d / "ddm.sdnc", "--bundle", d / "data.sdnb",
                       "--fnr", FNR, "--out", d / "ddm.sdnc"], check_theta, ["ddm.sdnc"]),
        ("eval_zsl", ["eval-zsl", "--setnet", d / "zsl.sdnc", "--bundle", d / "data.sdnb",
                      "--report", d / "zsl.json"], check_zsl(d / "zsl.json"), ["zsl.json"]),
        ("eval_gzsl", ["eval-gzsl", "--zsl", d / "zsl.sdnc", "--gzsl", d / "gzsl.sdnc",
                       "--ddm", d / "ddm.sdnc", "--bundle", d / "data.sdnb",
                       "--report", d / "gzsl.json"], check_gzsl(d / "gzsl.json"), ["gzsl.json"]),
        ("eval_ood", ["eval-ood", "--ddm", d / "ddm.sdnc", "--bundle", d / "data.sdnb",
                      "--config", config, "--report", d / "ood.json",
                      "--degrees-seen", d / "deg_seen.csv", "--degrees-unseen", d / "deg_unseen.csv"],
         check_ood(d / "ood.json", d / "deg_seen.csv", d / "deg_unseen.csv", (seen_n, unseen_n)),
         ["ood.json", "deg_seen.csv", "deg_unseen.csv"]),
    ]
    first = len(runner.runs)
    writers: dict[str, StageRun] = {}
    for i, (stage, args, check, outputs) in enumerate(plan):
        args = [str(a) for a in args]
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"),
                    str(directory / "spans" / f"{i}-{stage}.json"), "--", *args]
        else:
            argv = [sys.executable, "-m", "setnet.cli", *args]
        run = runner.stage(stage, argv, directory, check)
        writers.update(dict.fromkeys(outputs, run))
        if run.error is not None:
            for later, *_ in plan[i + 1:]:
                runner.skip(later, f"skipped after {stage} failed")
            break
        if after_stage is not None:
            after_stage(stage, directory)
    runs = runner.runs[first:]
    return Pipeline(directory, seed, runs, writers, all(r.error is None for r in runs))


def compare_artifacts(reference: Pipeline, repeat: Pipeline) -> None:
    """Mark a repeat's stage failed where its bytes differ from the reference."""
    if not (reference.complete and repeat.complete):
        return
    for name, run in repeat.writers.items():
        if (reference.directory / name).read_bytes() != (repeat.directory / name).read_bytes():
            run.error = f"{name} differs from the same-seed run in {reference.directory.name}"
            print(f"perfbench: {run.error}", file=sys.stderr)


# ---------------------------------------------------------------------------
# quality read-outs

def auroc(seen: list[float], unseen: list[float]) -> float:
    """P(seen degree > unseen degree), ties counted half (Mann-Whitney U)."""
    values = sorted([(v, 1) for v in seen] + [(v, 0) for v in unseen])
    rank_sum, i = 0.0, 0
    while i < len(values):
        j = i
        while j < len(values) and values[j][0] == values[i][0]:
            j += 1
        mean_rank = (i + 1 + j) / 2.0
        rank_sum += mean_rank * sum(label for _, label in values[i:j])
        i = j
    n_s, n_u = len(seen), len(unseen)
    return (rank_sum - n_s * (n_s + 1) / 2.0) / (n_s * n_u)


def quality(p: Pipeline) -> dict[str, float]:
    d = p.directory
    ood = json.loads((d / "ood.json").read_text())
    degrees = [[float(v) for v in (d / f).read_text().split()] for f in ("deg_seen.csv", "deg_unseen.csv")]
    return {"zsl_acc": json.loads((d / "zsl.json").read_text())["acc"],
            "gzsl_h": json.loads((d / "gzsl.json").read_text())["h"],
            "ood_auroc": auroc(*degrees),
            "ood_tnr": next(t for f, t in ood["tnr_at_fnr"] if abs(f - FNR) < 1e-12)}


# ---------------------------------------------------------------------------
# provenance

PROBE = """
import json, time
t = time.perf_counter()
import setnet.cli
import_s = time.perf_counter() - t
import numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (TypeError, KeyError):  # numpy < 1.26 has no dict form
    blas = "unknown"
print(json.dumps({"import_s": import_s, "setnet": setnet.cli.__file__,
                  "numpy": numpy.__version__, "blas": blas}))
"""


def probe(runner: Runner, directory: Path) -> dict:
    """Time a fresh interpreter importing setnet.cli, and read versions."""
    _, _, _, code, stdout, stderr = runner.spawn([sys.executable, "-c", PROBE], directory,
                                                 directory / "probe")
    if code != 0:
        raise RuntimeError(f"cannot import setnet.cli from {SRC}: {stderr.strip()[-300:]}")
    doc = json.loads(stdout.splitlines()[-1])
    if not Path(doc["setnet"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"setnet.cli resolved to {doc['setnet']}, not under {SRC}")
    return doc


def provenance(versions: dict) -> dict:
    files = sorted((SRC / "setnet").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or commit
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": versions["numpy"], "blas": versions["blas"], "blas_pin": BLAS_PIN,
            "git_commit": commit, "src_setnet_sha256": digest.hexdigest(),
            "src_setnet_lines": lines}


# ---------------------------------------------------------------------------
# the two kinds of run

def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median_of(pipelines: list[Pipeline], fn):
    values = [fn(p) for p in pipelines if p.complete]
    return statistics.median(values) if values else None


def elapsed_with_one_more(start: float, done: int) -> float:
    """Projected run time if one more pipeline of average length is run."""
    elapsed = time.monotonic() - start
    return elapsed + elapsed / done


def end_to_end(runner: Runner, wl: Workload, seed: int, seconds: float, work: Path) -> dict:
    start = time.monotonic()
    trials = [run_pipeline(runner, wl, seed * wl.trials + j, work / f"trial{j}")
              for j in range(wl.trials)]
    pipelines = list(trials)
    # Same-seed repeats: the determinism check, and more timing samples.
    repeat = 0
    while repeat == 0 or elapsed_with_one_more(start, len(pipelines)) <= seconds:
        ref = trials[repeat % wl.trials]
        again = run_pipeline(runner, wl, ref.seed, work / f"repeat{repeat}")
        compare_artifacts(ref, again)
        pipelines.append(again)
        repeat += 1
    seen_n, unseen_n = wl.test_counts()
    after_setup = STAGES[1:]
    metrics = {
        "setup_s": metric(median_of(pipelines, lambda p: p.wall("gen_synth")), "s"),
        "pipeline_s": metric(median_of(pipelines, lambda p: p.wall(*after_setup)), "s"),
        "train_setnet_s": metric(median_of(pipelines, lambda p: p.wall("train_setnet")), "s"),
        "train_ddm_s": metric(median_of(pipelines, lambda p: p.wall("train_ddm")), "s"),
        "eval_s": metric(median_of(pipelines, lambda p: p.wall("eval_zsl", "eval_gzsl", "eval_ood")), "s"),
        "gzsl_samples_per_s": metric(median_of(pipelines, lambda p: (seen_n + unseen_n) / p.wall("eval_gzsl")),
                                     "samples/s"),
        "peak_rss_mb": metric(max(r.rss_mb for r in runner.runs), "MB"),
    }
    done = [quality(p) for p in trials if p.complete]
    for name in ("zsl_acc", "gzsl_h", "ood_auroc"):
        value = statistics.fmean(q[name] for q in done) if len(done) == len(trials) else None
        metrics[name] = metric(value, "fraction")
    print(json.dumps({"pipelines": [{"dir": p.directory.name, "seed": p.seed,
                                     **{s: round(p.wall(s), 4) for s in STAGES}} for p in pipelines],
                      "quality": done}))
    return metrics


# (metric, unit, targets whose totals it sums, field)
LAYER_METRICS = [
    ("dataio.gen_synthetic.busy_s", "s", ["dataio.gen_synthetic"], "busy_s"),
    ("dataio.save_bundle.busy_s", "s", ["dataio.save_bundle"], "busy_s"),
    ("dataio.load_bundle.busy_s", "s", ["dataio.load_bundle"], "busy_s"),
    ("dataio.load_bundle.calls", "count", ["dataio.load_bundle"], "calls"),
    *[(f"model.{fn}.{field}", unit, [f"model.{fn}"], field)
      for fn in ("total_loss", "diversity_loss", "predict", "attention_maps")
      for field, unit in (("calls", "count"), ("busy_s", "s"))],
    ("train.train_setnet.self_s", "s", ["train.train_setnet"], "self_s"),
    ("train.train_ddm.self_s", "s", ["train.train_ddm"], "self_s"),
    ("train.sgd_step.calls", "count", ["train._sgd_step"], "calls"),
    ("train.sgd_step.busy_s", "s", ["train._sgd_step"], "busy_s"),
    ("train.pooled_features.busy_s", "s", ["train.pooled_features"], "busy_s"),
    ("train.calibrate_ensemble.busy_s", "s", ["train.calibrate_ensemble"], "busy_s"),
    ("train.save_checkpoint.busy_s", "s", ["train.save_checkpoint"], "busy_s"),
    ("train.load_checkpoint.busy_s", "s",
     ["train.load_setnet_checkpoint", "train.load_ddm_checkpoint"], "busy_s"),
    *[(f"ood.{fn}.{field}", unit, [f"ood.{fn}"], field)
      for fn in ("subddm_loss", "confidence", "disagreement_degree", "detect")
      for field, unit in (("calls", "count"), ("busy_s", "s"))],
    *[(f"diffmath.{fn}.{field}", unit, [f"diffmath.{fn}"], field)
      for fn in ("softmax", "cross_entropy_from_logits", "cross_entropy_grad", "kl_to_uniform", "entropy")
      for field, unit in (("calls", "count"), ("busy_s", "s"))],
    ("pipeline.classify_gzsl.calls", "count", ["pipeline.classify_gzsl"], "calls"),
    ("pipeline.classify_gzsl.busy_s", "s", ["pipeline.classify_gzsl"], "busy_s"),
    ("metrics.per_class_accuracy.busy_s", "s", ["metrics.per_class_accuracy"], "busy_s"),
    ("metrics.tnr_at_fnr.busy_s", "s", ["metrics.tnr_at_fnr"], "busy_s"),
]


def span_totals(p: Pipeline) -> tuple[dict[str, dict[str, float]], set[str]]:
    """Per-target totals summed over a traced pipeline's stages, and the
    targets traced_cli.py could not find."""
    totals: dict[str, dict[str, float]] = {}
    missing: set[str] = set()
    for f in sorted((p.directory / "spans").glob("*.json")):
        doc = json.loads(f.read_text())
        missing.update(doc["missing"])
        for name, t in doc["totals"].items():
            acc = totals.setdefault(name, {})
            for key, value in t.items():
                acc[key] = acc.get(key, 0) + value
    return totals, missing


def per_layer(runner: Runner, wl: Workload, seed: int, seconds: float, work: Path) -> dict:
    """Untraced/traced pairs of trial 0 while ``seconds`` allows; medians over pairs."""
    trial_seed = seed * wl.trials
    start = time.monotonic()
    plain: list[Pipeline] = []
    traced: list[Pipeline] = []
    while not plain or elapsed_with_one_more(start, len(plain)) <= seconds:
        k = len(plain)
        plain.append(run_pipeline(runner, wl, trial_seed, work / f"untraced{k}"))
        traced.append(run_pipeline(runner, wl, trial_seed, work / f"traced{k}", traced=True))
        if k:
            compare_artifacts(plain[0], plain[k])
        compare_artifacts(plain[0], traced[k])
    if not all(p.complete for p in plain + traced):
        return {}  # the failures are counted; there is nothing sound to report
    import_s = statistics.median(probe(runner, work)["import_s"] for _ in range(3))
    spans = [span_totals(p) for p in traced]
    missing = set().union(*(m for _, m in spans))

    metrics: dict[str, dict] = {}
    for stage in STAGES:
        runs = [[r for r in p.runs if r.stage == stage] for p in plain]
        metrics[f"cli.{stage}.wall_s"] = metric(statistics.median(sum(r.wall_s for r in rs) for rs in runs), "s")
        metrics[f"cli.{stage}.cpu_s"] = metric(statistics.median(sum(r.cpu_s for r in rs) for rs in runs), "s")
        metrics[f"cli.{stage}.rss_mb"] = metric(max(r.rss_mb for rs in runs for r in rs), "MB")
    metrics["cli.import_s"] = metric(import_s, "s")

    def layer(name, unit, targets, value):
        if any(t in missing for t in targets):
            metrics[name] = {"value": None, "unit": unit, "missing": "target function not found"}
        else:
            metrics[name] = metric(statistics.median_low(value(totals) for totals, _ in spans), unit)

    for name, unit, targets, field in LAYER_METRICS:
        layer(name, unit, targets,
              lambda totals, targets=targets, field=field: sum(totals.get(t, {}).get(field, 0) for t in targets))
    first = plain[0].directory
    metrics["dataio.bundle_bytes"] = metric((first / "data.sdnb").stat().st_size, "bytes")
    metrics["train.checkpoint_bytes"] = metric(
        sum((first / f).stat().st_size for f in ("zsl.sdnc", "gzsl.sdnc", "ddm.sdnc")), "bytes")
    layer("pipeline.routed_unseen_share", "fraction", ["ood.detect"],
          lambda totals: totals["ood.detect"].get("unseen", 0) / max(totals["ood.detect"]["calls"], 1))
    metrics["ood.tnr_at_fnr_0.11"] = metric(quality(plain[0])["ood_tnr"], "fraction")
    untraced_s = statistics.median(p.wall(*STAGES[1:]) for p in plain)
    traced_s = statistics.median(p.wall(*STAGES[1:]) for p in traced)
    metrics["trace.untraced_pipeline_s"] = metric(untraced_s, "s")
    metrics["trace.traced_pipeline_s"] = metric(traced_s, "s")
    metrics["trace.overhead"] = metric(traced_s / untraced_s - 1.0, "fraction")
    return metrics


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object (provenance goes to stdout)."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    runner = Runner(time.monotonic() + DEADLINE_S)
    try:
        versions = probe(runner, work)  # also fills the bytecode cache before timing
        print(json.dumps({"provenance": provenance(versions)}))
        if trace:
            metrics = per_layer(runner, wl, seed, seconds, work)
        else:
            metrics = end_to_end(runner, wl, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": runner.failed == 0, "attempted": len(runner.runs),
            "failed": runner.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup on termination
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "setnet" / "cli.py").is_file():
        print(f"error: no setnet source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
