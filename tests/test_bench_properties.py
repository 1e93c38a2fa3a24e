"""The benchmark's property replay (bench/properties.py) re-runs pinned runs
through the package's public candidate test; these tests keep the calls it
makes in step with the package."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from bhgreedy import Params, SumTableSet, classic_greedy, strong_greedy
from bhgreedy.formats import render_terms

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def properties(monkeypatch):
    # properties.py puts bench/ on sys.path to import its workloads module.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "bench_properties", ROOT / "bench" / "properties.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("workloads", None)


@pytest.mark.parametrize("generator,h,g,n", [
    (strong_greedy, 3, 2, 9), (classic_greedy, 3, 1, 8), (strong_greedy, 2, 1, 20),
])
def test_replay_reproduces_small_runs(properties, generator, h, g, n):
    # replay raises unless every step accepts the rendered term after
    # exactly its scan_length tests.
    rec = generator(Params(h, g, n))
    workload = properties.Generate("replay", rec.algorithm, h, g, (n,))
    steps = properties.replay(workload, json.loads(render_terms(rec, "json")))
    assert [s["tested"] for s in steps] == [m.scan_length for m in rec.per_step[1:]]
    t = SumTableSet(h)
    for a in rec.terms:
        t.add_element(a)
    assert steps[-1]["entries"] == t.entry_count()
    # Only a scan that restarts at 1 meets a candidate it saw break B_h[g].
    assert any(s["retests"] for s in steps) == (rec.algorithm == "strong" and g > 1)
