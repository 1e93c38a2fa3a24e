#!/usr/bin/env python3
"""bhgreedy benchmark: time the commands of one workload and check every
output against pinned bytes.

    python3 bench/run.py --workload strong-h3g2 --seed 1 --seconds 25 --trace 0

A run makes passes until --seconds is used up; a pass runs the workload's
commands once for every size in its band, in an order drawn from --seed.
Start-up (a fresh interpreter that imports the package and loads the
workload's pinned files) is timed before each pass and after the last.  Every command runs
in-process through bhgreedy.cli.main on one thread, with the guard
environment variables unset and without --workers.

The end-to-end times are reported at reference speed: a fixed pure-Python
reference loop is timed before and after every timed command and start-up,
and each time is scaled by REF_SECONDS over the mean of the two reference
times beside it.  A shared host's speed drifts by a third or more over
minutes; the scaling takes that drift out of the comparison of two commits.

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
passes alternate between untraced and traced, and it reports the per-layer
metrics of the traced passes (see bench/spans.py).  The line before it
records the machine, the interpreter and the commit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from workloads import (  # noqa: E402
    BENCH,
    CAP_VARS,
    PINNED,
    ROOT,
    WORKLOADS,
    load_expected,
    use_source_tree,
)

#: Start-up is timed at least this many times per run, once before each
#: pass and the rest after the last; the median is reported.
SETUP_PROBES = 15

#: The reference loop takes this long at reference speed (about its time on
#: a 2-CPU Xeon VM with CPython 3.11).
REF_SECONDS = 0.1

#: Terms of the reference loop: the first Mian-Chowla terms.
REF_TERMS = (1, 2, 4, 8, 13, 21, 31, 45, 66, 81, 97, 123, 148, 182, 204, 252, 290,
             361, 401, 475, 565, 593, 662, 775, 822, 916, 970, 1016, 1159, 1312,
             1395, 1523, 1572, 1821, 1896, 2029)

END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

PER_LAYER_UNITS = {
    "greedy.scan_s": "s",
    "greedy.self_s": "s",
    "greedy.step_max_s": "s",
    "greedy.candidates_per_s": "1/s",
    "greedy.candidates_tested": "count",
    "greedy.steps": "count",
    "sumrep.add_element_s": "s",
    "sumrep.add_element_calls": "count",
    "sumrep.rep_histogram_s": "s",
    "sumrep.rep_histogram_calls": "count",
    "sumrep.table_entries": "count",
    "verify.prefix_enum_s": "s",
    "verify.multisets_enumerated": "count",
    "verify.multisets_per_s": "1/s",
    "verify.window_scan_s": "s",
    "verify.window_candidates": "count",
    "verify.window_candidates_per_s": "1/s",
    "verify.instance_failures": "count",
    "verify.bound_check_s": "s",
    "formats.render_s": "s",
    "formats.read_s": "s",
    "formats.output_bytes": "count",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "host.wall_s": "s",
    "host.ref_loop_s": "s",
}


def reference_loop() -> int:
    """Fixed pure-Python work like the package's: counts the 3-sums of
    REF_TERMS in a dict, 23 times over.  It lives in the benchmark, so it
    is the same code on every commit."""
    reps: dict[int, int] = {}
    for _ in range(23):
        reps.clear()
        for i, a in enumerate(REF_TERMS):
            for b in REF_TERMS[i:]:
                for c in REF_TERMS:
                    reps[a + b + c] = reps.get(a + b + c, 0) + 1
    return len(reps)


class RefClock:
    """Scales a run's times to reference speed.

    The reference loop is timed once at the start and again after each
    timed piece of work; a piece's time is scaled by REF_SECONDS over the
    mean of the reference times just before and just after it.
    """

    def __init__(self):
        self.ref_times = [self._time_ref()]

    @staticmethod
    def _time_ref() -> float:
        t0 = perf_counter()
        reference_loop()
        return perf_counter() - t0

    def scale(self, elapsed: float) -> float:
        """Time the reference after a piece of work that took elapsed
        seconds, and return that time at reference speed."""
        before = self.ref_times[-1]
        self.ref_times.append(self._time_ref())
        return elapsed * REF_SECONDS / ((before + self.ref_times[-1]) / 2)


def time_setup(workload_name: str) -> float:
    """Start-up time of a fresh interpreter that imports the package and
    loads the workload's pinned files.

    The probe reports the moment it is ready on the system-wide monotonic
    clock, so the time excludes interpreter shut-down and the parent's wait.
    """
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload_name],
                          cwd=ROOT, check=True, timeout=60, capture_output=True, text=True)
    return float(done.stdout) - t0


def run_op(main, op, expected: dict) -> tuple[float, bool]:
    """Run one command; returns its wall time and whether its output, exit
    code and (for diagnose) failing-instance count match the pins."""
    stdout = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(list(op.argv))
    except Exception:
        traceback.print_exc()
        return perf_counter() - t0, False
    elapsed = perf_counter() - t0
    if op.output is None:
        output = stdout.getvalue().encode()
    elif op.output.exists():
        output = op.output.read_bytes()
        op.output.unlink()
    else:
        output = None
    ok = code == op.exit_code and output == expected[op.expected]
    if ok and op.failing_instances is not None:
        ledger = json.loads(output)
        ok = sum(not i["holds"] for i in ledger["instances"]) == op.failing_instances
    if not ok:
        print(f"FAILED: bhgreedy {' '.join(op.argv)} (exit {code})", file=sys.stderr)
    return elapsed, ok


def run_passes(workload, rng: random.Random, seconds: float, trace: bool,
               clock: RefClock, pinned: Path = PINNED, before_pass=None):
    """Run passes until the time budget is spent, calling before_pass, if
    given, ahead of each one.

    Returns the untraced pass times, both as measured and at reference
    speed, the traced passes as (time, Tracer) pairs, and the number of
    commands attempted and failed.  A pass starts only if the last one,
    repeated, would still end within the budget; a run makes at least one
    pass of each kind it reports.
    """
    from bhgreedy import cli

    expected = load_expected(workload, pinned)
    untraced, untraced_ref, traced = [], [], []
    attempted = failed = 0
    start = perf_counter()
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH) as tmp:
        while True:
            pass_start = perf_counter()
            if before_pass is not None:
                before_pass()
            ops = workload.ops(rng.sample(workload.band, len(workload.band)),
                               pinned, Path(tmp))
            tracer = spans.Tracer() if trace and len(untraced) > len(traced) else None
            main, restore = cli.main, None
            if tracer is not None:
                restore = spans.install(tracer)
                main = tracer.wrap("cli", cli.main)
            wall = wall_ref = 0.0
            try:
                for op in ops:
                    elapsed, ok = run_op(main, op, expected)
                    wall += elapsed
                    wall_ref += clock.scale(elapsed)
                    attempted += 1
                    failed += not ok
            finally:
                if restore is not None:
                    restore()
            if tracer is None:
                untraced.append(wall)
                untraced_ref.append(wall_ref)
            else:
                traced.append((wall, tracer))
            done = untraced and (traced or not trace)
            now = perf_counter()
            if done and now - start + (now - pass_start) > seconds:
                break
    return untraced, untraced_ref, traced, attempted, failed


def end_to_end(untraced_ref: list[float], setup_s: float) -> dict[str, float]:
    return {
        "wall_ref_s": statistics.median(untraced_ref),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def pass_layers(wall: float, tracer: spans.Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    self_times = tracer.self_times()
    out = {metric: self_times[layer] for layer, metric in spans.SPAN_METRICS.items()}
    out.update(tracer.counts)
    steps = tracer.step_times
    out["greedy.scan_s"] = math.fsum(steps)
    out["greedy.step_max_s"] = max(steps, default=0.0)
    for rate, count, seconds in (
            ("greedy.candidates_per_s", "greedy.candidates_tested", "greedy.scan_s"),
            ("verify.multisets_per_s", "verify.multisets_enumerated",
             "verify.prefix_enum_s"),
            ("verify.window_candidates_per_s", "verify.window_candidates",
             "verify.window_scan_s")):
        out[rate] = out.get(count, 0) / out[seconds] if out[seconds] else 0.0
    out["trace.wall_s"] = wall
    out["trace.unaccounted_s"] = wall - sum(self_times.values())
    return out


def per_layer(untraced: list[float], traced: list,
              ref_times: list[float]) -> dict[str, float]:
    """Median over the traced passes of each per-layer metric; counts take
    the lower median, which keeps them whole.  The host.* metrics give the
    untraced pass time as measured and the reference loop's time."""
    passes = [pass_layers(wall, tracer) for wall, tracer in traced]
    out = {name: (statistics.median_low if unit == "count" else statistics.median)(
               [p.get(name, 0) for p in passes])
           for name, unit in PER_LAYER_UNITS.items()}
    out["host.wall_s"] = statistics.median(untraced)
    out["host.ref_loop_s"] = statistics.median(ref_times)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["host.wall_s"]
    return out


def measure(workload, seed: int, seconds: float, trace: bool,
            pinned: Path = PINNED) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and a record of the
    passes made, the untraced pass time as measured and the reference
    loop's time.

    Start-up probes are spread over the run, so that a short stretch in
    which the machine runs slow does not set their median.
    """
    setup = []
    clock = RefClock()
    untraced, untraced_ref, traced, attempted, failed = run_passes(
        workload, random.Random(seed), seconds, trace, clock, pinned,
        None if trace else
        lambda: setup.append(clock.scale(time_setup(workload.name))))
    if trace:
        values = per_layer(untraced, traced, clock.ref_times)
        units = PER_LAYER_UNITS
    else:
        setup += [clock.scale(time_setup(workload.name))
                  for _ in range(SETUP_PROBES - len(setup))]
        values = end_to_end(untraced_ref, statistics.median(setup))
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, {"passes": len(untraced) + len(traced),
                    "wall_s": statistics.median(untraced),
                    "ref_loop_s": statistics.median(clock.ref_times)}


def environment(workload, seed: int) -> dict:
    try:
        model = next((line.split(":", 1)[1].strip()
                      for line in Path("/proc/cpuinfo").read_text().splitlines()
                      if line.startswith("model name")), None)
    except OSError:
        model = None
    return {
        "workload": workload.name, "seed": seed, "band": list(workload.band),
        "cpu_count": os.cpu_count(), "cpu_model": model or platform.processor(),
        "python": platform.python_version(), "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose, packed = ROOT / ".git" / name, ROOT / ".git" / "packed-refs"
    if loose.is_file():
        return loose.read_text().strip()
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_source_tree()
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for var in CAP_VARS:
        os.environ.pop(var, None)
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    result, record = measure(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"env": dict(environment(workload, args.seed), **record)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
