"""Routing of test samples: detector first, then the matching classifier.

A batch is gated as a whole: every sample whose disagreement degree falls
strictly below the calibrated threshold goes to the unseen-class-only
model/table, the rest go to the full-table model, so a batch costs one
detector pass and at most two batched predictions. The two models may be
the same object when sharing is preferred over independently seeded
training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffmath import spatial_mean
from .model import SemanticTable, SetNetModel, predict
from .ood import DdmEnsemble, disagreement_degree


@dataclass
class GzslSystem:
    """Calibrated detector plus the two classification heads and tables."""

    detector: DdmEnsemble
    zsl_model: SetNetModel
    gzsl_model: SetNetModel
    unseen_table: SemanticTable
    full_table: SemanticTable

    def __post_init__(self):
        unseen = set(self.unseen_table.class_ids.tolist())
        full = set(self.full_table.class_ids.tolist())
        if not unseen < full:
            raise ValueError("unseen-class table must be a strict subset of the full table")


def classify_gzsl(sys: GzslSystem, fmaps: np.ndarray):
    """Detector-gated prediction over the appropriate label set.

    Takes one (H, W, C) map, giving an int, or a (B, H, W, C) batch, giving
    the (B,) predicted class ids.
    """
    theta = sys.detector.calibrated_theta()
    fmaps = np.asarray(fmaps, dtype=np.float64)
    batch = fmaps if fmaps.ndim == 4 else fmaps[None]
    unseen = disagreement_degree(sys.detector, spatial_mean(batch)) < theta
    preds = np.empty(batch.shape[0], dtype=np.int64)
    for rows, model, table in ((unseen, sys.zsl_model, sys.unseen_table),
                               (~unseen, sys.gzsl_model, sys.full_table)):
        if rows.any():
            preds[rows] = predict(model, batch[rows], table)
    return int(preds[0]) if fmaps.ndim == 3 else preds
