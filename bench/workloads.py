"""Benchmark workloads: the bhgreedy commands each one runs, and the pinned
inputs and expected outputs those commands must reproduce.

Every operation is a command line a user would type, run in-process through
``bhgreedy.cli.main``.  A workload has a band of sizes; one pass of the
benchmark runs the workload's commands once for every size in the band, in
an order drawn from the seed, so every pass does the same total work and
pass times stay comparable across seeds.

Pinned files live in ``bench/pinned`` and are written by ``bench/pin.py``;
each one is named after its workload and size.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINNED = BENCH / "pinned"

#: Environment variables that silently change the package's guards.
CAP_VARS = ("BHG_MEMORY_CAP", "BHG_ENUM_CAP", "BHG_SCAN_CAP", "BHG_WINDOW_CAP")


@dataclass(frozen=True)
class Op:
    """One bhgreedy command and the bytes it must reproduce.

    output is the file the command writes, or None when it writes the
    result to stdout.  failing_instances, when set, is the number of ledger
    instances that must fail (the documented profile_growth red).
    """

    argv: tuple[str, ...]
    exit_code: int
    expected: Path
    output: Optional[Path] = None
    failing_instances: Optional[int] = None


@dataclass(frozen=True)
class Generate:
    """``bhgreedy generate`` at (h, g, n) for every n in the band."""

    name: str
    algo: str
    h: int
    g: int
    band: tuple[int, ...]

    def ops(self, order, pinned: Path, out: Path) -> list[Op]:
        """The commands of one pass, one per size in order."""
        return [Op(("generate", "--algo", self.algo, "--h", str(self.h),
                    "--g", str(self.g), "--n", str(n)),
                   0, pinned / f"{self.name}-n{n}.json")
                for n in order]


@dataclass(frozen=True)
class VerifyDiagnose:
    """``bhgreedy verify`` of the n-term Mian-Chowla fixture for every n in
    the band, then one ``bhgreedy diagnose`` of a fixed strong prefix.

    diagnose exits 1 by design: the literal profile_growth inequality fails
    for h >= 3 (see the package README), and diagnose_failures pins how many
    ledger instances fail.
    """

    name: str
    band: tuple[int, ...]
    diagnose_h: int
    diagnose_g: int
    diagnose_n: int
    diagnose_failures: int

    def verify_input(self, n: int, pinned: Path) -> Path:
        return pinned / f"{self.name}-n{n}.bfile"

    def diagnose_input(self, pinned: Path) -> Path:
        return pinned / (f"{self.name}-h{self.diagnose_h}g{self.diagnose_g}"
                         f"n{self.diagnose_n}.bfile")

    def ops(self, order, pinned: Path, out: Path) -> list[Op]:
        """The commands of one pass: a verify per size in order, then the
        diagnose."""
        report, ledger = out / "report.json", out / "ledger.json"
        ops = [Op(("verify", "--h", "2", "--g", "1",
                   rel(self.verify_input(n, pinned)), "--report", rel(report)),
                  0, pinned / f"{self.name}-n{n}.report.json", report)
               for n in order]
        ops.append(Op(("diagnose", "--h", str(self.diagnose_h),
                       "--g", str(self.diagnose_g),
                       "--input", rel(self.diagnose_input(pinned)),
                       "--out", rel(ledger)),
                      1, pinned / f"{self.name}-ledger.json", ledger,
                      failing_instances=self.diagnose_failures))
        return ops


def rel(path: Path) -> str:
    """Path relative to the repository root, so that pinned reports, which
    echo their input path, read the same in every checkout."""
    return str(path.relative_to(ROOT))


WORKLOADS = {w.name: w for w in (
    Generate("strong-h3g2", "strong", 3, 2, (40, 41, 42)),
    Generate("classic-h4g1", "classic", 4, 1, (17, 18, 19)),
    Generate("mianchowla-h2g1", "strong", 2, 1, (238, 239, 240)),
    VerifyDiagnose("verify-diagnose", (198, 199, 200), 3, 2, 7, 162),
)}


def use_source_tree() -> None:
    """Import bhgreedy from this checkout's src/ tree, not an installed copy."""
    if not (SRC / "bhgreedy" / "cli.py").is_file():
        raise FileNotFoundError(f"no bhgreedy package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_expected(workload, pinned: Path = PINNED) -> dict[Path, bytes]:
    """Read every pinned expected output of the workload's band."""
    return {op.expected: op.expected.read_bytes()
            for op in workload.ops(workload.band, pinned, pinned)}
