"""The inference and loss functions take only batches.

One map, feature or score row is a batch of one; passing it unbatched is a
``ValueError`` that names the batch shape the function expects, never a
scalar result.
"""

import re

import numpy as np
import pytest

from setnet import diffmath, model, ood, pipeline
from setnet.dataio import DatasetBundle
from setnet.model import SemanticTable

from conftest import DIV_SCALE, random_model, random_table

H, W, C, K, S = 3, 4, 6, 2, 5


@pytest.fixture(scope="module")
def parts():
    rng = np.random.default_rng(0xBA7C)
    net = random_model(rng, c=C, ch=4, k=K, s=S)
    table = random_table(rng, 4, S)
    detector = ood.init_ddm([[0, 1], [1, 2], [0, 2]], C, 4, [rng] * 3)
    detector.theta = 0.1
    bundle = DatasetBundle(features=np.zeros((1, H, W, C), np.float32), labels=[0], seen_ids=[0, 1],
                           train_flags=[False], table=SemanticTable(
                               class_ids=table.class_ids, vectors=table.vectors.astype(np.float32)))
    net.bundle_sha256 = detector.bundle_sha256 = bundle.sha256
    system = pipeline.GzslSystem(detector=detector, zsl_model=net, gzsl_model=net, bundle=bundle)
    return {"net": net, "table": table, "detector": detector, "system": system,
            "fmap": rng.normal(size=(H, W, C)), "pooled": rng.normal(size=(K, C)),
            "maps": np.full((K, H, W), 1 / (H * W)), "feat": rng.normal(size=C),
            "scores": np.array([0.1, 0.5, 0.2])}


# name -> (call on an input x, the parts key of the unbatched x, the batch
# shape the refusal names)
CASES = {
    "model.attention_maps": (lambda p, x: model.attention_maps(p["net"], x),
                             "fmap", "(B, H, W, C)"),
    "model.class_scores": (lambda p, x: model.class_scores(p["net"], x, p["table"]),
                           "fmap", "(B, H, W, C)"),
    "model.predict": (lambda p, x: model.predict(p["net"], x, p["table"]),
                      "fmap", "(B, H, W, C)"),
    "model.total_loss": (lambda p, x: model.total_loss(p["net"], x, [0], p["table"], DIV_SCALE),
                         "fmap", "(B, H, W, C)"),
    "model.ensemble_logits": (lambda p, x: model.ensemble_logits(p["net"], x, p["table"]),
                              "pooled", "(B, K, V)"),
    "model.diversity_loss": (lambda p, x: model.diversity_loss(x), "maps", "(B, K, H, W)"),
    "ood.confidence": (lambda p, x: ood.confidence(p["detector"], x), "feat", "(B, C)"),
    "ood.disagreement": (lambda p, x: ood.disagreement(x), "scores", "(B, I)"),
    "ood.disagreement_degree": (lambda p, x: ood.disagreement_degree(p["detector"], x),
                                "feat", "(B, C)"),
    "pipeline.classify_gzsl": (lambda p, x: pipeline.classify_gzsl(p["system"], x),
                               "fmap", "(B, H, W, C)"),
    "diffmath.spatial_mean": (lambda p, x: diffmath.spatial_mean(x), "fmap", "(B, H, W, C)"),
}


@pytest.mark.parametrize("name", CASES)
def test_an_unbatched_input_is_refused(parts, name):
    call, key, shape = CASES[name]
    with pytest.raises(ValueError, match=re.escape(f"expected a {shape}")):
        call(parts, parts[key])
