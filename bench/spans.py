"""Outside-in tracing: spans around the public entry points of each bhgreedy
layer, installed by patching them from the benchmark's own files.

Nothing in the package changes.  Each wrapped call records a span (layer
name, parent span, start, end) in memory; a layer's self time is its span's
duration minus the durations of its direct child spans.  Counters are taken
at the same boundaries from the call's arguments and result, never inside a
scan, so the per-candidate accept closures are left untouched.
"""

from __future__ import annotations

import functools
from collections import Counter
from math import comb
from time import perf_counter

#: Layers that own spans, and the metric that reports each one's self time.
SPAN_METRICS = {
    "cli": "cli.self_s",
    "greedy": "greedy.self_s",
    "sumrep.add_element": "sumrep.add_element_s",
    "sumrep.rep_histogram": "sumrep.rep_histogram_s",
    "verify.prefix_enum": "verify.prefix_enum_s",
    "verify.window_scan": "verify.window_scan_s",
    "verify.bound_check": "verify.bound_check_s",
    "formats.render": "formats.render_s",
    "formats.read": "formats.read_s",
}


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, parent index, start, end]
        self.counts: Counter = Counter()
        self.step_times: list[float] = []
        self._stack: list[int] = []

    def wrap(self, layer, fn, count=None):
        """fn wrapped in a span; count(tracer, result, *args, **kwargs), if
        given, runs after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [layer, parent, perf_counter(), None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Self time per layer, summed over the recorded spans."""
        child_time = [0.0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = dict.fromkeys(SPAN_METRICS, 0.0)
        for (layer, _, start, end), children in zip(self.spans, child_time):
            out[layer] += end - start - children
        return out


# ---------------------------------------------------------------------------
# Counters taken at span boundaries


def _count_greedy(tracer, rec, *args, **kwargs):
    steps = rec.per_step[1:]  # the first term is committed without a scan
    tracer.counts["greedy.steps"] += len(steps)
    tracer.counts["greedy.candidates_tested"] += sum(s.scan_length for s in steps)
    tracer.step_times.extend(s.elapsed for s in steps)


def _count_add_element(tracer, result, table_set, a):
    tracer.counts["sumrep.add_element_calls"] += 1
    entries = table_set.entry_count()
    if entries > tracer.counts["sumrep.table_entries"]:
        tracer.counts["sumrep.table_entries"] = entries


def _count_rep_histogram(tracer, result, *args, **kwargs):
    tracer.counts["sumrep.rep_histogram_calls"] += 1


def _count_prefix_enum(tracer, result, terms, h, g, **kwargs):
    # verify_strong_prefixes enumerates every size-h multiset of every prefix.
    tracer.counts["verify.multisets_enumerated"] += sum(
        comb(n + h - 1, h) for n in range(1, len(result) + 1))


def _count_window_scan(tracer, diag, *args, **kwargs):
    tracer.counts["verify.window_candidates"] += sum(r.window_hi for r in diag.reports)
    tracer.counts["verify.instance_failures"] += len(diag.failures())


def _count_render(tracer, text, *args, **kwargs):
    tracer.counts["formats.output_bytes"] += len(text.encode())


def install(tracer: Tracer):
    """Patch the public entry points; returns a function that restores them.

    strong_greedy, classic_greedy, render_terms and read_terms are patched
    where bhgreedy.cli looks them up.  proof_diagnostics calls
    verify_strong_prefixes through its module, so a diagnose run's prefix
    enumeration shows as a child of its window scan.
    """
    from bhgreedy import cli, sumrep, verify

    patches = [
        (cli, "strong_greedy", "greedy", _count_greedy),
        (cli, "classic_greedy", "greedy", _count_greedy),
        (sumrep.SumTableSet, "add_element", "sumrep.add_element", _count_add_element),
        (sumrep.SumTableSet, "rep_histogram", "sumrep.rep_histogram",
         _count_rep_histogram),
        (verify, "verify_strong_prefixes", "verify.prefix_enum", _count_prefix_enum),
        (verify, "proof_diagnostics", "verify.window_scan", _count_window_scan),
        (verify, "strong_bound_check", "verify.bound_check", None),
        (verify, "classic_bound_check", "verify.bound_check", None),
        (cli, "render_terms", "formats.render", _count_render),
        (cli, "read_terms", "formats.read", None),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in patches]
    for owner, attr, layer, count in patches:
        setattr(owner, attr, tracer.wrap(layer, getattr(owner, attr), count))

    def restore():
        for owner, attr, original in saved:
            setattr(owner, attr, original)

    return restore
