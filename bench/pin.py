#!/usr/bin/env python3
"""Write the pinned inputs and expected outputs the benchmark checks against.

    python3 bench/pin.py [workload ...]

For every size in each workload's band this runs the workload's commands
once and stores their output bytes in bench/pinned.  Each pinned sequence
is then re-checked once through the independent route, ``bhgreedy
verify`` (full enumeration): every generated sequence, every verify input
and the terms of the diagnose ledger.  The diagnose ledger must fail the
workload's pinned number of instances and no other.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    BENCH,
    CAP_VARS,
    PINNED,
    ROOT,
    WORKLOADS,
    Generate,
    rel,
    use_source_tree,
)


def bhgreedy(*argv) -> tuple[int, str]:
    from bhgreedy.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([str(a) for a in argv])
    return code, stdout.getvalue()


def check(code: int, want: int, what: str) -> None:
    if code != want:
        raise SystemExit(f"{what}: exit {code}, expected {want}")


def verify_file(path: Path, h: int, g: int, *extra) -> None:
    code, _ = bhgreedy("verify", "--h", h, "--g", g, rel(path), *extra)
    check(code, 0, f"bhgreedy verify of {rel(path)}")


def pin_inputs(workload, pinned: Path) -> None:
    """Write the sequence files a verify-diagnose workload reads."""
    code, text = bhgreedy("generate", "--algo", "strong", "--h", 2, "--g", 1,
                          "--n", max(workload.band), "--format", "bfile")
    check(code, 0, "generate of the verify input")
    lines = text.splitlines(keepends=True)
    for n in workload.band:
        workload.verify_input(n, pinned).write_text("".join(lines[:n]))
    code, text = bhgreedy("generate", "--algo", "strong",
                          "--h", workload.diagnose_h, "--g", workload.diagnose_g,
                          "--n", workload.diagnose_n, "--format", "bfile")
    check(code, 0, "generate of the diagnose input")
    workload.diagnose_input(pinned).write_text(text)


def pin(workload, pinned: Path = PINNED) -> None:
    """Pin every output of the workload's band and re-check it."""
    pinned.mkdir(parents=True, exist_ok=True)
    if not isinstance(workload, Generate):
        pin_inputs(workload, pinned)
    with tempfile.TemporaryDirectory(prefix=".pin-", dir=BENCH) as tmp:
        for op in workload.ops(workload.band, pinned, Path(tmp)):
            code, stdout = bhgreedy(*op.argv)
            check(code, op.exit_code, "bhgreedy " + " ".join(op.argv))
            if op.output is None:
                op.expected.write_text(stdout)
            else:
                op.expected.write_bytes(op.output.read_bytes())
            if op.failing_instances is not None:
                ledger = json.loads(op.expected.read_text())
                failing = sum(not i["holds"] for i in ledger["instances"])
                if failing != op.failing_instances:
                    raise SystemExit(f"{rel(op.expected)}: {failing} failing "
                                     f"instances, pinned {op.failing_instances}")

    if isinstance(workload, Generate):
        bound = ["--bound", "classic"] if workload.algo == "classic" else []
        for n in workload.band:
            verify_file(pinned / f"{workload.name}-n{n}.json",
                        workload.h, workload.g, *bound)
    else:
        for n in workload.band:
            verify_file(workload.verify_input(n, pinned), 2, 1)
        verify_file(pinned / f"{workload.name}-ledger.json",
                    workload.diagnose_h, workload.diagnose_g)


def main(argv) -> int:
    use_source_tree()
    for var in CAP_VARS:
        os.environ.pop(var, None)
    os.chdir(ROOT)
    for name in argv or sorted(WORKLOADS):
        pin(WORKLOADS[name])
        print(f"pinned and verified {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
