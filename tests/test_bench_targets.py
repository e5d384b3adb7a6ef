"""Every function the benchmark's per-layer metrics wrap exists in setnet.

``perfbench/run.py`` names the wrapped functions in ``LAYER_METRICS`` as
"module.function" targets. A target that is renamed or deleted makes its
metric read null, which the benchmark's own selftest reports but this suite
would not; this test fails first.
"""

import importlib
import runpy
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def layer_targets() -> list[str]:
    layer_metrics = runpy.run_path(str(RUN_PY))["LAYER_METRICS"]  # not run as __main__
    return sorted({target for _, _, targets, _ in layer_metrics for target in targets})


@pytest.mark.parametrize("target", layer_targets())
def test_benchmark_layer_target_is_a_setnet_callable(target):
    module, name = target.split(".")
    assert callable(getattr(importlib.import_module(f"setnet.{module}"), name, None))
