"""The benchmark's tracer patches the package from outside (bench/spans.py);
these tests keep its patch points in step with the package."""

import importlib.util
from pathlib import Path

from bhgreedy import Params, SumTableSet, cli, strong_greedy, sumrep, verify

ROOT = Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_generate_counts_and_restores(capsys):
    # A (3, 2) run keeps its own tables, with r(x) in a flat array, and
    # inserts into no SumTableSet, so the tracer's add_element span records
    # no call from it; a g = 1 run keeps no sum table (below).  The span
    # still counts the reference SumTableSet, here built from the run's
    # terms while the tracer is installed.
    spans = load_spans()
    owners = (cli, sumrep.SumTableSet, verify)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        # install looks every patch point up, so a renamed one fails here;
        # each one it patched wraps the original.
        patched = {name: (value, old[name])
                   for owner, old in zip(owners, before)
                   for name, value in vars(owner).items() if value is not old[name]}
        assert patched
        for name, (value, original) in patched.items():
            assert value.__wrapped__ is original, name
        code = cli.main(["generate", "--h", "3", "--g", "2", "--n", "12",
                         "--format", "csv"])
        assert code == 0
        terms = [int(line.split(",")[1]) for line in capsys.readouterr().out.split()]
        assert terms == strong_greedy(Params(3, 2, 12)).terms
        assert tracer.counts["sumrep.add_element_calls"] == 0
        assert tracer.counts["sumrep.table_entries"] == 0
        assert "sumrep.add_element" not in {layer for layer, *_ in tracer.spans}
        t = SumTableSet(3)
        for a in terms:
            t.add_element(a)
    finally:
        restore()
    assert tracer.counts["sumrep.table_entries"] == t.entry_count()
    assert tracer.counts["sumrep.add_element_calls"] == 12
    assert tracer.counts["greedy.steps"] == 11
    assert {"greedy", "sumrep.add_element", "formats.render"} <= {
        layer for layer, *_ in tracer.spans}
    assert [dict(vars(owner)) for owner in owners] == before


def test_traced_pair_run_adds_no_table_element(capsys):
    # A g = 1 scan builds no SumTableSet, at h = 2 or 3, so a traced run
    # records no add_element call and no table entry, and still finds its
    # terms.
    spans = load_spans()
    for h, n in [(2, 30), (3, 20)]:
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            code = cli.main(["generate", "--h", str(h), "--g", "1", "--n", str(n),
                             "--format", "csv"])
        finally:
            restore()
        assert code == 0
        terms = [int(line.split(",")[1]) for line in capsys.readouterr().out.split()]
        assert terms == strong_greedy(Params(h, 1, n)).terms
        assert tracer.counts["sumrep.add_element_calls"] == 0
        assert tracer.counts["sumrep.table_entries"] == 0
        assert tracer.counts["greedy.steps"] == n - 1
