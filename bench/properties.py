#!/usr/bin/env python3
"""Replay the pinned runs and record the workload properties that later
speed-up claims name, in bench/properties.json.

    python3 bench/properties.py

For each generate workload the replay re-runs every step of the largest
pinned run with the public candidate_delta and is_strong_candidate
functions, and asserts that each step accepts exactly the pinned term after
exactly the pinned scan_length tests.  It counts a test as a dead re-test
when the candidate already failed B_h[g] at an earlier step: representation
counts only grow, so such a candidate fails again and is not re-evaluated.
The replay is slow and is kept out of the timed runs.

Recorded per size in the band:
  dead_retest_share    dead re-tests / candidates tested
  candidates_per_step  candidates tested / scans (the first term needs none)
  table_entries        sum-table entries after the last term is added
and for verify-diagnose the enumeration and window-scan sizes.
"""

from __future__ import annotations

import json
import sys
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import BENCH, PINNED, WORKLOADS, Generate, use_source_tree  # noqa: E402


def replay(workload: Generate, doc: dict) -> list[dict]:
    """Per-step counts of the pinned run doc; raises on any mismatch."""
    from bhgreedy import SumTableSet, is_strong_candidate

    h, g = workload.h, workload.g
    if workload.algo == "classic" and g != 1:
        raise ValueError("the strong candidate test equals the classic one only for g = 1")
    t = SumTableSet(h)
    t.add_element(doc["terms"][0])
    dead: set[int] = set()
    steps = []
    for meta in doc["per_step"][1:]:
        n, term = meta["n"], meta["term"]
        restart = workload.algo == "strong" and g > 1
        start = 1 if restart else t.elements[-1] + 1
        profile = t.rep_histogram(g)
        tested = retests = 0
        accepted = None
        for m in range(start, term + 1):
            if m in t:
                continue
            tested += 1
            if m in dead:
                retests += 1
                continue
            verdict = is_strong_candidate(t, t.candidate_delta(m), n, h, g, profile)
            if verdict.accepted:
                accepted = m
                break
            if verdict.reason == "bhg":
                dead.add(m)
        if accepted != term or tested != meta["scan_length"]:
            raise AssertionError(
                f"{workload.name} step {n}: replay accepted {accepted} after "
                f"{tested} tests; pinned {term} after {meta['scan_length']}")
        t.add_element(term)
        steps.append({"tested": tested, "retests": retests,
                      "entries": t.entry_count()})
    return steps


def generate_properties(workload: Generate) -> dict:
    top = max(workload.band)
    doc = json.loads((PINNED / f"{workload.name}-n{top}.json").read_text())
    steps = replay(workload, doc)
    out = {}
    for n in workload.band:
        prefix = steps[:n - 1]
        tested = sum(s["tested"] for s in prefix)
        retests = sum(s["retests"] for s in prefix)
        out[str(n)] = {
            "candidates_tested": tested,
            "dead_retests": retests,
            "dead_retest_share": round(retests / tested, 4),
            "candidates_per_step": round(tested / len(prefix), 1),
            "table_entries": prefix[-1]["entries"],
        }
    return out


def verify_diagnose_properties(workload) -> dict:
    from bhgreedy import theorem_bound

    ledger = json.loads((PINNED / f"{workload.name}-ledger.json").read_text())
    h, g, n_diag = workload.diagnose_h, workload.diagnose_g, workload.diagnose_n
    out = {str(n): {"multisets_enumerated": sum(comb(k + 1, 2) for k in range(1, n + 1))}
           for n in workload.band}
    out["diagnose"] = {
        "h": h, "g": g, "n": n_diag,
        "window_candidates": sum(theorem_bound(n + 1, h, g).floor
                                 for n in range(2, n_diag + 1)),
        "instances": len(ledger["instances"]),
        "failing_instances": sum(not i["holds"] for i in ledger["instances"]),
    }
    return out


def main() -> int:
    use_source_tree()
    props = {}
    for name, workload in WORKLOADS.items():
        if isinstance(workload, Generate):
            props[name] = generate_properties(workload)
        else:
            props[name] = verify_diagnose_properties(workload)
        print(f"{name}: {json.dumps(props[name])}", file=sys.stderr)
    (BENCH / "properties.json").write_text(json.dumps(props, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
