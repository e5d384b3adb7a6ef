"""Fast self-test of the benchmark harness at tiny sizes (about 20 s).

    python3 perfbench/selftest.py

Checks that both kinds of run emit exactly the metrics BENCHMARK.json
names, each with its unit, and that corrupted artifacts trip the failure
counter. Exits nonzero and names each problem when a check fails.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import run

TINY = run.Workload(synthetic={"unseen_classes": 2, "samples_per_class": 5}, epochs=1, trials=1)


def metric_problems(result: dict, declared: list[dict], mode: str) -> list[str]:
    problems = []
    expected = {m["name"]: m["unit"] for m in declared}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in expected.keys() - emitted.keys():
        problems.append(f"{mode}: {name} not emitted")
    for name in emitted.keys() - expected.keys():
        problems.append(f"{mode}: {name} emitted but not declared")
    for name in expected.keys() & emitted.keys():
        if expected[name] != emitted[name]:
            problems.append(f"{mode}: {name} has unit {emitted[name]}, declared {expected[name]}")
        value = result["metrics"][name]["value"]
        if not isinstance(value, (int, float)):
            problems.append(f"{mode}: {name} has value {value!r}")
    if result["failed"] or not result["correct"]:
        problems.append(f"{mode}: {result['failed']} of {result['attempted']} operations failed")
    return problems


def corruption_problems(work: Path) -> list[str]:
    problems = []

    # A truncated checkpoint must make the next stage that loads it fail.
    runner = run.Runner(time.monotonic() + 120)

    def truncate(stage, directory):
        if stage == "train_setnet" and not (directory / "gzsl.sdnc").exists():
            path = directory / "zsl.sdnc"
            path.write_bytes(path.read_bytes()[:-16])

    run.run_pipeline(runner, TINY, 1, work / "truncated", after_stage=truncate)
    if runner.failed == 0:
        problems.append("a truncated checkpoint did not count as a failure")

    # Same-seed artifacts that differ must count as a failure.
    runner = run.Runner(time.monotonic() + 120)
    first = run.run_pipeline(runner, TINY, 1, work / "first")
    again = run.run_pipeline(runner, TINY, 1, work / "again")
    report = again.directory / "zsl.json"
    report.write_bytes(report.read_bytes() + b" ")
    run.compare_artifacts(first, again)
    if runner.failed != 1:
        problems.append(f"a changed report counted {runner.failed} failures, expected 1")

    # Output checks on damaged stage output.
    zsl = work / "bad_zsl.json"
    zsl.write_text(json.dumps({"acc": 1.5, "per_class": {"10": 1.5}}))
    damaged = [
        ("a NaN loss row", run.check_epochs(2), "epoch,loss\n0,0.5\n1,nan\n"),
        ("a missing loss row", run.check_epochs(2), "epoch,loss\n0,0.5\n"),
        ("a non-finite theta", run.check_theta, "theta=inf\n"),
        ("a rate above 1", run.check_zsl(zsl), ""),
    ]
    for what, check, stdout in damaged:
        try:
            error = check(stdout)
        except ValueError as e:
            error = str(e)
        if error is None:
            problems.append(f"{what} passed the output check")
    return problems


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(TINY, seed=1, seconds=1, trace=trace)
        problems += metric_problems(result, declared[key], key)
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as work:
        problems += corruption_problems(Path(work))
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
