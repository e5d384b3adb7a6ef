"""Routing of test samples: detector first, then the matching classifier.

Every sample of a batch whose disagreement degree falls strictly below the
calibrated threshold goes to the unseen-class-only model/table, the rest go
to the full-table model, so a batch costs one detector pass and at most two
batched predictions. The tables come from the split of the bundle all three
models were trained on; the two models may be one object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import DatasetBundle
from .diffmath import spatial_mean
from .model import SetNetModel, predict
from .ood import DdmEnsemble, disagreement_degree
from .train import check_training_bundle


@dataclass
class GzslSystem:
    """Calibrated detector and the two classification heads, all trained on ``bundle``."""

    detector: DdmEnsemble
    zsl_model: SetNetModel
    gzsl_model: SetNetModel
    bundle: DatasetBundle

    def __post_init__(self):
        for name in ("detector", "zsl_model", "gzsl_model"):
            check_training_bundle(getattr(self, name), self.bundle, name)
        self.unseen_table = self.bundle.unseen_table()  # derived once, not per batch


def classify_gzsl(sys: GzslSystem, fmaps: np.ndarray) -> np.ndarray:
    """Detector-gated prediction over the appropriate label set: the (B,)
    predicted class ids of a (B, H, W, C) batch."""
    theta = sys.detector.calibrated_theta()
    fmaps = np.asarray(fmaps)
    unseen = disagreement_degree(sys.detector, spatial_mean(fmaps)) < theta
    preds = np.empty(fmaps.shape[0], dtype=np.int64)
    for routed, model, table in ((unseen, sys.zsl_model, sys.unseen_table),
                                 (~unseen, sys.gzsl_model, sys.bundle.table)):
        if routed.any():
            preds[routed] = predict(model, fmaps[routed], table)
    return preds
