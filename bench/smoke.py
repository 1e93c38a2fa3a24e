#!/usr/bin/env python3
"""Smoke test of the benchmark itself; takes about half a minute.

    python3 bench/smoke.py

1. Pins every workload at a tiny size into a scratch directory and runs
   it untraced and traced: every metric named in BENCHMARK.json must be
   reported with its unit, no command may fail, and the traced self times
   must add up to the traced pass time.
2. Corrupts a pinned expected output and a pinned input: the runs must
   then report failed commands and correct = false.
3. Runs the real command once and checks its last line, then runs it from
   a copy holding only BENCHMARK.json and the benchmark directory, where it
   must fail without printing a result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pin  # noqa: E402
import run  # noqa: E402
from workloads import BENCH, ROOT, WORKLOADS, Generate, use_source_tree  # noqa: E402

#: (band, and for verify-diagnose the diagnosed prefix and its failing
#: instance count) per workload, small enough to run in about a second.
TINY = {
    "strong-h3g2": dict(band=(8, 9)),
    "classic-h4g1": dict(band=(6, 7)),
    "mianchowla-h2g1": dict(band=(30, 31)),
    "verify-diagnose": dict(band=(20, 21), diagnose_n=4, diagnose_failures=65),
}


def spec_metrics(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def check_metrics(result: dict, key: str, where: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != spec_metrics(key):
        raise AssertionError(f"{where}: metrics {got} differ from BENCHMARK.json {key}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{where}: {name} has no numeric value")


def tiny_runs(pinned: Path) -> None:
    for name, sizes in TINY.items():
        workload = dataclasses.replace(WORKLOADS[name], **sizes)
        pin.pin(workload, pinned)
        plain, _ = run.measure(workload, 1, 0.5, False, pinned)
        check_metrics(plain, "end_to_end", name)
        traced, _ = run.measure(workload, 1, 0.5, True, pinned)
        check_metrics(traced, "per_layer", f"{name} traced")
        for result in (plain, traced):
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{name}: {result['failed']} failed commands")
        layers = {k: m["value"] for k, m in traced["metrics"].items()}
        # Time outside every span is only the benchmark's own call overhead.
        if abs(layers["trace.unaccounted_s"]) > 0.002 + 0.01 * layers["trace.wall_s"]:
            raise AssertionError(f"{name}: self times leave {layers['trace.unaccounted_s']}"
                                 f" s of {layers['trace.wall_s']} s unaccounted")
        print(f"ok {name} at {sizes['band']}")

        corrupt(workload, pinned)
        with contextlib.redirect_stderr(io.StringIO()):
            broken, _ = run.measure(workload, 1, 0.5, False, pinned)
        if broken["correct"] or broken["failed"] < 1:
            raise AssertionError(f"{name}: a corrupted pin went unnoticed")
        print(f"ok {name}: corrupted pin reported as {broken['failed']} failed")


def corrupt(workload, pinned: Path) -> None:
    """Change one term of an expected output (generate) or an input file
    (verify-diagnose)."""
    n = workload.band[0]
    if isinstance(workload, Generate):
        path = pinned / f"{workload.name}-n{n}.json"
        doc = json.loads(path.read_text())
        doc["terms"][-1] += 1
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        # a + b = c + x with x the new last term: the input is no longer
        # a Sidon set, so verify must exit 1.
        path = workload.verify_input(n, pinned)
        terms = [int(line.split()[1]) for line in path.read_text().splitlines()]
        terms[-1] = terms[-2] + terms[-3] - terms[-4]
        path.write_text("".join(f"{i} {t}\n" for i, t in enumerate(terms, 1)))


def real_command() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = spec["command"] + ["--workload", "classic-h4g1", "--seed", "3",
                              "--seconds", "1", "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=180).stdout
    result = json.loads(out.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        raise AssertionError(f"unexpected last line: {result}")
    check_metrics(result, "end_to_end", "bench/run.py")
    print("ok bench/run.py prints the end-to-end metrics")

    with tempfile.TemporaryDirectory(prefix=".smoke-bare-", dir=BENCH) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns(".*", "__pycache__"))
        done = subprocess.run(argv, cwd=bare, capture_output=True, text=True,
                              timeout=180)
        if done.returncode == 0 or done.stdout.strip():
            raise AssertionError("run without the package must fail silently")
    print("ok bench/run.py fails without the package")


def main() -> int:
    use_source_tree()
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory(prefix=".smoke-", dir=BENCH) as tmp:
        tiny_runs(Path(tmp))
    real_command()
    return 0


if __name__ == "__main__":
    sys.exit(main())
