"""Routing of test samples: detector first, then the matching classifier.

A sample flagged unseen goes to the unseen-class-only model/table; anything
else goes to the full-table model. The two models may be the same object
when sharing is preferred over independently seeded training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffmath import spatial_mean
from .model import SemanticTable, SetNetModel, predict
from .ood import DdmEnsemble, Domain, detect


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


def classify_gzsl(sys: GzslSystem, fmap: np.ndarray) -> int:
    """Detector-gated prediction over the appropriate label set."""
    if detect(sys.detector, spatial_mean(fmap)) is Domain.UNSEEN:
        return predict(sys.zsl_model, fmap, sys.unseen_table)
    return predict(sys.gzsl_model, fmap, sys.full_table)
