"""Peak memory of the eval commands grows with the bundle, not with copies of it.

Each eval command runs in its own process, which reports its peak resident
set size (``VmHWM``) as it exits. Linux's ``ru_maxrss`` would not do: a child
inherits the peak of the process it was forked from, and the test process is
larger than an eval command. Growing the unseen test set 4x must grow the
peak of ``eval-gzsl`` and ``eval-ood`` by at most 1.5x the growth of the
bundle file: the file bytes, which the features are a view of, plus small
per-sample arrays (labels, pooled features, degrees, predictions).
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import setnet
from setnet.cli import main

SYNTH = {"seen_classes": 4, "unseen_classes": 5, "samples_per_class": 200, "height": 4,
         "width": 4, "channels": 32, "semantic_dim": 16, "attrs_per_class": 2, "noise": 0.1,
         "jitter": 1, "seed": 4}
TRAIN = {"learning_rate": 0.5, "epochs": 1, "batch_size": 8, "seed": 1, "head_count": 2,
         "hidden_channels": 4, "fold_count": 2, "ddm_hidden": 8}
FNR_GRID = [0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.17, 0.19]
GROWTH_BOUND = 1.5
# runs one CLI command, then prints the peak RSS of this process image in kB
CHILD = ("import re, sys\nfrom setnet.cli import main\ncode = main(sys.argv[1:])\n"
         "status = open('/proc/self/status').read()\n"
         "print('VmHWM', re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))\nsys.exit(code)")


def peak_rss_bytes(argv) -> int:
    """Peak RSS of one setnet CLI command in a fresh process; it must succeed."""
    env = dict(os.environ, PYTHONPATH=str(Path(setnet.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, *map(str, argv)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return int(re.search(r"^VmHWM (\d+)$", proc.stdout, re.M).group(1)) * 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_eval_peak_rss_grows_with_the_bundle_not_with_copies(tmp_path):
    sizes, peaks = [], {"eval-gzsl": [], "eval-ood": []}
    for unseen in (SYNTH["unseen_classes"], 4 * SYNTH["unseen_classes"]):
        d = tmp_path / f"unseen{unseen}"
        d.mkdir()
        cfg = d / "run.json"
        cfg.write_text(json.dumps({"synthetic": dict(SYNTH, unseen_classes=unseen),
                                   "train": TRAIN, "fnr_grid": FNR_GRID}))
        bundle, model, ddm = d / "data.sdnb", d / "zsl.sdnc", d / "ddm.sdnc"
        for argv in (["gen-synth", "--config", cfg, "--out", bundle],
                     ["train-setnet", "--bundle", bundle, "--config", cfg, "--out", model],
                     ["train-ddm", "--bundle", bundle, "--config", cfg, "--out", ddm],
                     ["calibrate", "--ddm", ddm, "--bundle", bundle, "--fnr", 0.11, "--out", ddm]):
            assert main([str(a) for a in argv]) == 0
        sizes.append(bundle.stat().st_size)
        peaks["eval-gzsl"].append(peak_rss_bytes(["eval-gzsl", "--zsl", model, "--ddm", ddm,
                                                  "--bundle", bundle, "--report", d / "g.json"]))
        peaks["eval-ood"].append(peak_rss_bytes(["eval-ood", "--ddm", ddm, "--bundle", bundle,
                                                 "--config", cfg, "--report", d / "o.json"]))
    bundle_growth = sizes[1] - sizes[0]
    assert bundle_growth > 5e6  # large enough to stand out of the noise in a peak
    for command, (small, large) in peaks.items():
        ratio = (large - small) / bundle_growth
        assert ratio <= GROWTH_BOUND, (f"{command}: peak RSS grew {(large - small) / 1e6:.1f} MB "
                                       f"for {bundle_growth / 1e6:.1f} MB of bundle ({ratio:.2f}x)")
