"""Evaluation: per-class top-1 accuracy, harmonic mean, TNR@FNR curves.

All rates are fractions in [0, 1]; only the CLI renders percentages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .ood import calibrate_theta


def per_class_accuracy(preds, labels, classes) -> dict[int, float]:
    """Accuracy per class, skipping classes with no samples."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape:
        raise ValueError("predictions and labels differ in length")
    if preds.size == 0:
        raise ValueError("empty evaluation set")
    class_set = {int(c) for c in classes}
    if not set(labels.tolist()) <= class_set:
        raise ValueError("a label falls outside the evaluated class set")
    out: dict[int, float] = {}
    for cls in sorted(class_set):
        mask = labels == cls
        if mask.any():
            out[cls] = float((preds[mask] == cls).mean())
    return out


def per_class_top1(preds, labels, classes) -> float:
    """Mean over classes of within-class top-1 accuracy (not per-sample)."""
    per_class = per_class_accuracy(preds, labels, classes)
    if not per_class:
        raise ValueError("no evaluated class has samples")
    return float(np.mean(list(per_class.values())))


def harmonic_mean(unseen_acc: float, seen_acc: float) -> float:
    """2us/(u+s); 0 when both accuracies are 0."""
    for v in (unseen_acc, seen_acc):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"accuracy {v} outside [0, 1]")
    if unseen_acc + seen_acc == 0:
        return 0.0
    return 2.0 * unseen_acc * seen_acc / (unseen_acc + seen_acc)


def tnr_at_fnr(seen_degrees, unseen_degrees, fnr_grid) -> list[tuple[float, float]]:
    """For each target FNR: threshold from the seen degrees, then the
    fraction of unseen degrees strictly below it (unseen = negative)."""
    seen = np.asarray(seen_degrees, dtype=np.float64).ravel()
    unseen = np.asarray(unseen_degrees, dtype=np.float64).ravel()
    if seen.size == 0 or unseen.size == 0:
        raise ValueError("degree lists must be nonempty")
    out = []
    for fnr in fnr_grid:
        theta = calibrate_theta(seen, float(fnr))
        out.append((float(fnr), float((unseen < theta).mean())))
    return out


@dataclass
class EvalReport:
    """Evaluation summary; optional fields stay None when not applicable."""

    acc: float | None = None
    acc_seen: float | None = None
    acc_unseen: float | None = None
    h: float | None = None
    per_class: dict[int, float] = field(default_factory=dict)
    tnr_at_fnr: list[tuple[float, float]] | None = None

    def __post_init__(self):
        for v in (self.acc, self.acc_seen, self.acc_unseen, self.h):
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"rate {v} outside [0, 1]")
        if self.h is not None:
            expected = harmonic_mean(self.acc_unseen, self.acc_seen)
            if abs(self.h - expected) > 1e-9:
                raise ValueError("harmonic mean inconsistent with its operands")

    def to_json(self) -> str:
        doc = {
            "acc": self.acc,
            "acc_seen": self.acc_seen,
            "acc_unseen": self.acc_unseen,
            "h": self.h,
            "per_class": {str(k): v for k, v in sorted(self.per_class.items())},
            "tnr_at_fnr": self.tnr_at_fnr,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_report(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_json())


def save_curves_csv(pairs, path) -> None:
    """Two-column (fnr, tnr) CSV with a header row."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("fnr,tnr\n")
        for fnr, tnr in pairs:
            fh.write(f"{repr(float(fnr))},{repr(float(tnr))}\n")
