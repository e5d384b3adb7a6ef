"""Routing of test samples: detector first, then the matching classifier.

A batch is gated ``CHUNK_ROWS`` rows at a time: every sample whose
disagreement degree falls strictly below the calibrated threshold goes to
the unseen-class-only model/table, the rest go to the full-table model, so a
chunk costs one detector pass and at most two batched predictions. The two
models may be the same object when sharing is preferred over independently
seeded training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffmath import in_chunks, spatial_mean
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
    fmaps = np.asarray(fmaps)
    batch = fmaps if fmaps.ndim == 4 else fmaps[None]

    def chunk(rows):
        part = batch[rows]
        unseen = disagreement_degree(sys.detector, spatial_mean(part)) < theta
        preds = np.empty(part.shape[0], dtype=np.int64)
        for routed, model, table in ((unseen, sys.zsl_model, sys.unseen_table),
                                     (~unseen, sys.gzsl_model, sys.full_table)):
            if routed.any():
                preds[routed] = predict(model, part[routed], table)
        return preds

    preds = in_chunks(chunk, len(batch))
    return int(preds[0]) if fmaps.ndim == 3 else preds
