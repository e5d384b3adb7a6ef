"""Run one ``setnet.cli`` command with timing wrappers around the layer
functions, then write the per-function totals as JSON.

    python perfbench/traced_cli.py SPANS.json -- <setnet.cli arguments>

Each wrapper times its call and charges that time to the enclosing wrapped
call, so a target's self time is its spans minus their child spans. Totals
stay in memory and are written when the command exits. A function is
wrapped on every module
binding that holds it, so ``from .model import predict`` in two modules
is traced at both call sites. A target that no longer exists is listed
under ``missing`` instead of being reported as zero.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from run import LAYER_METRICS

# "module.function" names the per-layer metrics are built from.
TARGETS = sorted({target for _, _, targets, _ in LAYER_METRICS for target in targets})


class Tracer:
    """Per-target call count, inclusive time and self time."""

    def __init__(self):
        self.totals: dict[str, dict[str, float]] = {}
        self._open: list[float] = []  # child time accumulated by each open span

    def wrap(self, name: str, fn, on_result=None):
        totals = self.totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                totals["calls"] += 1
                totals["busy_s"] += duration
                totals["self_s"] += duration - children
            if on_result is not None:
                on_result(totals, result)
            return result

        return traced


def _count_unseen(totals, verdict) -> None:
    totals["unseen"] = totals.get("unseen", 0) + (verdict.name == "UNSEEN")


def install(tracer: Tracer) -> list[str]:
    """Wrap every binding of every target; return the targets not found."""
    import setnet.cli  # noqa: F401  (loads every setnet module)

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "setnet" or n.startswith("setnet."))]
    missing = []
    for target in TARGETS:
        mod_name, fn_name = target.split(".")
        original = getattr(sys.modules.get(f"setnet.{mod_name}"), fn_name, None)
        if not callable(original):
            missing.append(target)
            continue
        wrapped = tracer.wrap(target, original, _count_unseen if target == "ood.detect" else None)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS.json -- <setnet.cli arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    missing = install(tracer)
    import setnet.cli

    code = setnet.cli.main(argv[2:])
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump({"totals": tracer.totals, "missing": missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
