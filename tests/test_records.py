"""Value semantics of the package's records, and what importing and running
the package loads.

The immutable records are named tuples and the two mutable ones, the run
record and the diagnostics ledger, are plain classes with slots, so no
record generates code when its module is imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bhgreedy import (BhgCheck, BoundEntry, BoundReport, CandidateDelta,
                      CandidateVerdict, ForbiddenSetReport, InequalityInstance,
                      Params, PrefixCheck, ProofDiagnostics, SequenceRecord,
                      StepMeta, Threshold)
from bhgreedy.cli import FitResult

ROOT = Path(__file__).resolve().parent.parent

#: One instance of each immutable record, its fields in declaration order.
IMMUTABLE = [
    (Params, {"h": 2, "g": 1, "n_terms": 5}),
    (StepMeta, {"n": 2, "term": 2, "scan_length": 1, "bound_floor": 16,
                "elapsed": 0.5}),
    (Threshold, {"rhs_pow": 64, "g": 2}),
    (CandidateVerdict, {"accepted": False, "reason": "bhg", "s": None, "x": 7}),
    (CandidateDelta, {"m": 3, "added": {6: 1}}),
    (BhgCheck, {"ok": False, "x": 9, "count": 3}),
    (PrefixCheck, {"n": 3, "bhg": BhgCheck(True), "level_ok": False,
                   "failed_s": 2, "level_count": 12}),
    (BoundEntry, {"n": 2, "term": 3, "term_pow": 9, "rhs_pow": 16}),
    (BoundReport, {"kind": "strong-ceiling", "h": 2, "g": 1,
                   "entries": [BoundEntry(1, 1, 1, 2)]}),
    (ForbiddenSetReport, {"h": 2, "g": 1, "n": 3, "window_hi": 128,
                          "members": 3, "bhg_breaks": 10, "level_breaks": (0,),
                          "union_size": 13, "union_cap": 127,
                          "first_admissible": 5}),
    (InequalityInstance, {"name": "promotion_witness", "step": 3, "lhs": 4,
                          "rhs": 2, "relation": ">", "s": 2, "m": 11}),
    (FitResult, {"slope": 2.5, "intercept": 0.25, "n_points": 4,
                 "start_index": 5}),
]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls,fields", IMMUTABLE,
                         ids=[cls.__name__ for cls, _ in IMMUTABLE])
def test_immutable_record_is_a_value(cls, fields):
    record = cls(*fields.values())
    assert record == cls(**fields)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"
    name = next(k for k, v in fields.items() if type(v) is int)
    assert record != cls(**dict(fields, **{name: fields[name] + 1}))
    if all(_hashable(v) for v in fields.values()):
        assert hash(record) == hash(cls(**fields))
    else:
        with pytest.raises(TypeError):
            hash(record)
    for name in (next(iter(fields)), "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)


def test_records_keep_their_defaults_and_derived_fields():
    assert BhgCheck(True) == BhgCheck(True, None, None)
    assert CandidateVerdict(True) == CandidateVerdict(True, None, None, None)
    assert InequalityInstance("window_union", 2, 13, 127).relation == "<="
    assert PrefixCheck(3, BhgCheck(True), True).ok
    assert not PrefixCheck(3, BhgCheck(False, 9, 3), True).ok
    assert Threshold.for_level(3, 2, 2, 1) == Threshold(3 ** 4, 2)
    assert Threshold(64, 2).floor == 8 and Threshold(64, 2).admits(8)
    # BhgCheck.count is the field, not tuple.count.
    assert BhgCheck(False, 9, 3).count == 3


@pytest.mark.parametrize("args,message", [
    ((1, 1, 5), "h must be >= 2, got 1"),
    ((2, 0, 5), "g must be >= 1, got 0"),
    ((2, 1, 0), "n_terms must be >= 1, got 0"),
])
def test_params_rejects_out_of_range_fields(args, message):
    with pytest.raises(ValueError, match=message):
        Params(*args)
    fields = dict(zip(("h", "g", "n_terms"), args))
    with pytest.raises(ValueError, match=message):
        Params(**fields)
    with pytest.raises(ValueError, match=message):
        Params(2, 1, 5)._replace(**fields)


#: Both mutable records: the required fields, then the lists that default
#: to a fresh empty list.
MUTABLE = [
    (SequenceRecord, {"params": Params(2, 1, 3), "algorithm": "strong"},
     ("terms", "per_step")),
    (ProofDiagnostics, {"h": 2, "g": 1, "terms": [1, 2, 4]},
     ("prefix_checks", "reports", "instances")),
]


@pytest.mark.parametrize("cls,required,lists", MUTABLE,
                         ids=[cls.__name__ for cls, _, _ in MUTABLE])
def test_mutable_record_compares_by_fields(cls, required, lists):
    a, b = cls(*required.values()), cls(**required)
    assert a == b
    assert all(getattr(a, name) == [] for name in lists)
    assert all(getattr(a, name) is not getattr(b, name) for name in lists)
    getattr(a, lists[0]).append(1)
    assert a != b
    setattr(b, lists[0], [1])
    assert a == b
    assert a != tuple(required.values())
    fields = {**required, **{name: getattr(a, name) for name in lists}}
    assert cls(*fields.values()) == a
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(AttributeError):
        a.extra = 1


#: Modules the package must not load on import: the dataclass machinery
#: and what it imports, and the exact-rational and statistics modules that
#: only fit and BoundEntry.ratio read.
HEAVY = ["dataclasses", "inspect", "fractions", "decimal", "statistics"]


def _loaded_by(code: str) -> dict:
    """Run code in a fresh interpreter, where checkpoint(label) records the
    modules of HEAVY loaded since start-up; return the records by label,
    "end" taken after code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    script = "\n".join([
        "import json, sys",
        "before = set(sys.modules)",
        f"heavy = {HEAVY!r}",
        "seen = {}",
        "def checkpoint(label):",
        "    seen[label] = [m for m in heavy if m in sys.modules and m not in before]",
        code,
        "checkpoint('end')",
        "print(json.dumps(seen))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_generated_code_and_no_unread_module():
    assert _loaded_by("import bhgreedy.cli") == {"end": []}


def test_generate_and_verify_load_no_fractions_and_fit_does():
    seen = _loaded_by("\n".join([
        "import contextlib, io",
        "from bhgreedy import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(['generate', '--h', '2', '--g', '1', '--n', '30']) == 0",
        "    assert cli.main(['verify', '--h', '2', '--g', '1',",
        "                     'bench/pinned/verify-diagnose-n198.bfile']) == 0",
        "checkpoint('generate+verify')",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(['fit', '--h', '2', '--g', '1',",
        "                     'bench/pinned/verify-diagnose-n198.bfile']) == 0",
    ]))
    assert seen["generate+verify"] == []
    # The same check sees the modules once a command reads them.
    assert {"fractions", "statistics"} <= set(seen["end"])
