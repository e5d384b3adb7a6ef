"""Diverse multi-attention zero-shot classification with an inner-disagreement
OOD gate, for precomputed or synthetic feature maps at desk scale. ``import
setnet`` loads no numpy and no submodule: each public name loads on first read."""

import importlib

_HOME = {name: module for module, names in {  # public name -> home module, for PEP 562
    "dataio": "DatasetBundle SplitSpec SyntheticSpec gen_synthetic load_bundle save_bundle",
    "errors": "FormatError NotCalibratedError", "pipeline": "GzslSystem classify_gzsl",
    "metrics": "EvalReport harmonic_mean per_class_top1 tnr_at_fnr",
    "model": "SemanticTable SetNetModel attention_maps diversity_loss ensemble_logits "
             "export_attention predict total_loss",
    "ood": "DdmEnsemble Domain FoldPartition calibrate_theta confidence detect disagreement "
           "partition_classes subddm_loss",
    "train": "TrainConfig calibrate_ensemble load_ddm_checkpoint load_setnet_checkpoint "
             "save_checkpoint train_ddm train_setnet",
}.items() for name in names.split()}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
