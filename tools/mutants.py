#!/usr/bin/env python3
"""Check that the tests kill a fixed list of hand-made mutants.

    python3 tools/mutants.py              # run every mutant
    python3 tools/mutants.py NAME [...]   # run the named mutants

Each mutant replaces one exact text of a file under src/ with another, in
a copy of src/, tests/ and pyproject.toml made in a temporary directory
(set TMPDIR to choose where), and runs the mutant's tests there with
pytest.  A mutant is killed when a test fails, and survives when they
all pass.  The run exits 1 on a survivor, on any other pytest outcome
(a test id that collects nothing, say), or when an old text does not
occur exactly once in its file, so a mutant that no longer matches the
code fails rather than passing unseen; it exits 0 when every mutant is
killed.  Standard library only, apart from the pytest that runs the
tests; the sixteen mutants take about 13 s on a 2-CPU Xeon.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the repository
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the root


GREEDY = "src/bhgreedy/greedy.py"
CLI = "src/bhgreedy/cli.py"
FORMATS = "src/bhgreedy/formats.py"
VERIFY = "src/bhgreedy/verify.py"
PINNED_TEXTS = "tests/test_cli.py::test_top_level_texts_are_pinned"
CANONICAL = "tests/test_formats.py::test_canonical_json_matches_json_dumps"
WRITTEN_PASS = ("tests/test_greedy.py::"
                "test_written_pass_matches_the_reference_and_undoes_what_it_rejects")
MERGED_PAIRS = "tests/test_verify.py::test_scan_merges_pairs_of_different_k_on_one_sum"
ROUTES_ON_RUNS = ("tests/test_verify.py::"
                  "test_count_route_matches_the_merged_scan_on_strong_runs")

MUTANTS = [
    # A whole replay (a pending pass rolled back, a pass that fails the
    # level check at its end, or the pairs of a candidate admitted
    # read-only) skips the pass's last pair, at h*m.
    Mutant("undo-skips-last-pair", GREEDY,
           "    def _replay(self, m: int, last: int, stop: Optional[int] = None,",
           "    def _replay(self, m: int, last: int, stop: Optional[int] = 0,",
           (WRITTEN_PASS,)),
    # An undo after an exit skips every pair of the exit's k.
    Mutant("undo-skips-exit-k", GREEDY,
           "        for k in range(1, last + 1):\n            km = k * m\n"
           "            for y, c in tables[h - k].items():\n"
           "                if k == last and y == stop:",
           "        for k in range(1, last):\n            km = k * m\n"
           "            for y, c in tables[h - k].items():\n"
           "                if k == last and y == stop:",
           (WRITTEN_PASS,)),
    # distinct counts only the sums a pass raises from 0 to exactly 1, and
    # misses a c >= 2 pair on a fresh sum.
    Mutant("distinct-counts-only-now-1", GREEDY,
           "        self.pending = m, gains[1]",
           "        self.pending = m, fresh",
           ("tests/test_greedy.py::"
            "test_g_above_one_run_trips_a_cap_just_below_its_entry_count_at_its_last_term",)),
    # A candidate admitted read-only counts every sum of the enlarged set
    # as new to distinct.
    Mutant("read-only-distinct-counts-all", GREEDY,
           "                self.pending = m, levels[0] - base[0]",
           "                self.pending = m, levels[0]",
           (WRITTEN_PASS,)),
    # A pass admitted and not joined is never rolled back, so the next
    # pass reads its writes.
    Mutant("no-pending-rollback", GREEDY,
           "        if self.pending[0]:\n            self.rollback()\n",
           "",
           ("tests/test_greedy.py::test_fused_scan_paths_match_contract_op",)),
    # The scan never switches to read-only passes after a level stop.
    Mutant("never-read-only", GREEDY,
           "        if limits and self.tripped:",
           "        if False:",
           ("tests/test_greedy.py::test_scan_classifies_read_only_once_a_pass_stops_at_a_level",)),
    # The strong scan takes its level limits for a set two terms larger.
    Mutant("n-next-plus-two", GREEDY,
           "        n_next = len(t) + 1",
           "        n_next = len(t) + 2",
           ("tests/test_greedy.py::test_level_limit_is_exclusive_in_whole_runs",)),
    # holds reads ">" as ">=", so an equal pair holds under both.
    Mutant("holds-ge", VERIFY,
           "            return self.lhs > self.rhs",
           "            return self.lhs >= self.rhs",
           ("tests/test_verify.py::test_inequality_holds_reads_its_relation",)),
    # The window scan never merges the pairs that share a sum, so each keeps
    # its own effect(lo, c).
    Mutant("merge-dropped", VERIFY,
           "verdict(fresh + merges[m] + sum(",
           "verdict(fresh + sum(",
           (MERGED_PAIRS, ROUTES_ON_RUNS)),
    # The generic verdict reads the hits at m = 0, which come from x = y.
    Mutant("generic-reads-m-0", VERIFY,
           "    generic = verdict(fresh)\n",
           "    generic = verdict(fresh + sum([get(0, 0) * shift for get, shift in classes]))\n",
           (ROUTES_ON_RUNS,)),
    # A merged sum counts for t_count once per pair that reaches it.
    Mutant("t-count-per-pair", VERIFY,
           "effect(lo, sum(cs)) - sum(",
           "effect(lo, sum(cs)) + (len(cs) - 1) * effect(lo, 0) - sum(",
           (MERGED_PAIRS,)),
    # The whole parser also sets the subcommands metavar, so its "required"
    # and "invalid choice" errors name the five choices, not "command".
    Mutant("metavar-on-both-paths", CLI,
           '    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"',
           '    metavar = "{" + ",".join(COMMANDS) + "}"',
           (PINNED_TEXTS,)),
    # A parser built for one subcommand sets no metavar, so the usage line
    # of "unrecognized arguments" lists only that subcommand.
    Mutant("metavar-dropped", CLI,
           '    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)',
           '    sub = parser.add_subparsers(dest="command", required=True)',
           (PINNED_TEXTS, "tests/test_cli.py::test_main_parses_as_the_whole_parser_does")),
    # The row path takes a bool for an int, so a later row's true prints 1.
    Mutant("row-int-isinstance", FORMATS,
           "            and set(map(type, chain.from_iterable(map(dict.values, rows)))) == {int})",
           "            and all(isinstance(v, int)\n"
           "                    for v in chain.from_iterable(map(dict.values, rows))))",
           (CANONICAL,)),
    # The row template keeps the first row's key order, unsorted.
    Mutant("row-keys-unsorted", FORMATS,
           "            keys = sorted(value[0])",
           "            keys = list(value[0])",
           (CANONICAL, "tests/test_cli.py::test_generate_json_has_the_json_dumps_bytes")),
    # The row path reads no later row's key set, so a row's extra key is
    # dropped and a missing one raises KeyError.
    Mutant("row-key-check-dropped", FORMATS,
           "    return (all(row.keys() == keys for row in rows)\n            and ",
           "    return (True\n            and ",
           (CANONICAL,)),
]


def stale(mutant: Mutant) -> bool:
    """Whether the old text does not occur exactly once in its file."""
    return (ROOT / mutant.path).read_text().count(mutant.old) != 1


def run_tests(mutant: Mutant, work: Path) -> int:
    """Apply mutant to a fresh copy under work, run its tests there, and
    return pytest's exit code: 1 when a test failed."""
    copy = work / mutant.name
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", copy)
    target = copy / mutant.path
    target.write_text(target.read_text().replace(mutant.old, mutant.new, 1))
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *mutant.tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    shutil.rmtree(copy)
    return result.returncode


def main(argv: list[str]) -> int:
    names = {m.name for m in MUTANTS}
    unknown = [a for a in argv if a not in names]
    if unknown:
        print(__doc__.strip(), file=sys.stderr)
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="bhg-mutants-") as tmp:
        for mutant in chosen:
            if stale(mutant):
                verdict = "STALE: the old text does not occur exactly once"
            else:
                code = run_tests(mutant, Path(tmp))
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exited with {code}")
            bad += verdict != "killed"
            print(f"{'ok  ' if verdict == 'killed' else 'FAIL'} {mutant.name}: {verdict}")
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
