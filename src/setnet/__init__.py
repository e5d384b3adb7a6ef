"""Diverse multi-attention zero-shot classification with an
inner-disagreement OOD gate, built for precomputed or synthetic feature
maps at desk scale."""

from .dataio import DatasetBundle, SplitSpec, SyntheticSpec, gen_synthetic, load_bundle, save_bundle
from .errors import FormatError, NotCalibratedError
from .metrics import EvalReport, harmonic_mean, per_class_top1, tnr_at_fnr
from .model import (AttentionStack, ProjectorEnsemble, SemanticTable, SetNetModel,
                    attention_maps, diversity_loss, ensemble_logits, export_attention,
                    predict, total_loss)
from .ood import (DdmEnsemble, Domain, FoldPartition, calibrate_theta,
                  confidence, detect, disagreement, partition_classes, subddm_loss)
from .pipeline import GzslSystem, classify_gzsl
from .train import (TrainConfig, calibrate_ensemble, load_ddm_checkpoint,
                    load_setnet_checkpoint, save_checkpoint, train_ddm, train_setnet)

__version__ = "0.1.0"
