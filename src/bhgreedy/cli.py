"""Command-line interface.

Subcommands
    generate   run a greedy generator and write the sequence (json/csv/bfile)
    verify     re-check a sequence file from scratch (strong conditions and
               term-size ceilings, or the plain B_h[g] property only)
    diagnose   run the per-step forbidden-candidate window scans and print
               the inequality ledger
    compare    run both generators side by side and report the first
               divergence (for g = 1 they must agree exactly)
    fit        least-squares growth exponent of a sequence file, reported
               against the proven exponent h+(h-1)/g and the trivial
               floor h

Exit codes
    0  success
    1  verification failure (a check ran and failed)
    2  usage or input error
    3  resource guard exceeded
    4  internal-bound contradiction (strong scan exhausted its ceiling)

Guard defaults honour the environment variables BHG_MEMORY_CAP,
BHG_ENUM_CAP, BHG_SCAN_CAP, and BHG_WINDOW_CAP; command-line flags override
them, and every cap must be >= 1.  All runs are deterministic: there is no
randomness anywhere, and written files are byte-identical across repeated
runs with equal options (timings are emitted only with --timings, in a
separate JSON block).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import verify as verify_mod
from .errors import (
    BhgError,
    FitError,
    GuardExceeded,
    InputFormatError,
    ScanExceededBound,
)
from .formats import FORMATS, read_terms, render_terms
from .greedy import (
    ALGORITHM_CLASSIC,
    ALGORITHM_STRONG,
    Params,
    SequenceRecord,
    classic_greedy,
    strong_greedy,
)
from .sumrep import DEFAULT_MAX_ENTRIES, DEFAULT_MAX_ENUMERATION

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_BOUND_CONTRADICTION = 4

ENV_MEMORY_CAP = "BHG_MEMORY_CAP"
ENV_ENUM_CAP = "BHG_ENUM_CAP"
ENV_SCAN_CAP = "BHG_SCAN_CAP"
ENV_WINDOW_CAP = "BHG_WINDOW_CAP"


def _env_int(name: str, fallback: Optional[int]) -> Optional[int]:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"environment variable {name} must be an integer, got {raw!r}")


@dataclass(frozen=True)
class FitResult:
    """Tail-half log-log regression of a_n against n."""

    slope: float
    intercept: float
    n_points: int
    start_index: int


def fit_growth(terms) -> FitResult:
    """Least-squares slope of log a_n against log n over the tail half.

    The head of a sequence is dominated by small-n transients, so only
    indices n > len(terms)//2 enter the fit.  Purely descriptive.
    """
    terms = list(terms)
    if len(terms) < 8:
        raise FitError(f"need at least 8 terms, got {len(terms)}")
    if any(t < 1 for t in terms):
        raise FitError("terms must be positive")
    start = len(terms) // 2 + 1
    xs = [math.log(n) for n in range(start, len(terms) + 1)]
    ys = [math.log(terms[n - 1]) for n in range(start, len(terms) + 1)]
    if len(set(ys)) < 2:
        raise FitError("degenerate input: constant tail")
    reg = statistics.linear_regression(xs, ys)
    return FitResult(reg.slope, reg.intercept, len(xs), start)


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhgreedy",
        description="Generate and verify B_h[g] sequences with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p, need_n=True):
        p.add_argument("--h", type=int, required=True, help="order h >= 2")
        p.add_argument("--g", type=int, required=True, help="multiplicity bound g >= 1")
        if need_n:
            p.add_argument("--n", type=int, required=True, help="number of terms")

    def add_guards(p):
        p.add_argument("--memory-cap", type=int, default=None,
                       help=f"sum-table entry cap (env {ENV_MEMORY_CAP})")
        p.add_argument("--enum-cap", type=int, default=None,
                       help=f"brute-force enumeration cap (env {ENV_ENUM_CAP})")

    def add_scan_cap(p):
        p.add_argument("--scan-cap", type=int, default=None,
                       help=f"classic-greedy scan ceiling (env {ENV_SCAN_CAP})")

    gen = sub.add_parser("generate", help="generate a sequence")
    add_params(gen)
    gen.add_argument("--algo", choices=(ALGORITHM_STRONG, ALGORITHM_CLASSIC),
                     default=ALGORITHM_STRONG)
    gen.add_argument("--format", choices=FORMATS, default="json")
    gen.add_argument("--out", default=None, help="output path (default stdout)")
    add_scan_cap(gen)
    gen.add_argument("--timings", action="store_true",
                     help="include wall-clock timings in JSON output")
    add_guards(gen)
    gen.set_defaults(func=_cmd_generate)

    ver = sub.add_parser("verify", help="re-check a sequence file from scratch")
    add_params(ver, need_n=False)
    ver.add_argument("input", help="sequence file (bfile, csv, or json)")
    ver.add_argument("--format", choices=("auto",) + FORMATS, default="auto")
    ver.add_argument("--bhg-only", action="store_true",
                     help="check only the B_h[g] property of the full set")
    ver.add_argument("--bound", choices=("theorem", "classic", "none"),
                     default="theorem",
                     help="which term-size ceiling to check (default theorem)")
    ver.add_argument("--report", default=None, help="write a JSON report here")
    add_guards(ver)
    ver.set_defaults(func=_cmd_verify)

    dia = sub.add_parser("diagnose",
                         help="window-scan inequality ledger for a strong run")
    add_params(dia, need_n=False)
    dia.add_argument("--n", type=int, default=None,
                     help="terms to generate (ignored with --input)")
    dia.add_argument("--input", default=None,
                     help="diagnose this sequence file instead of generating")
    dia.add_argument("--sample-budget", type=int,
                     default=verify_mod.DEFAULT_SAMPLE_BUDGET,
                     help="profile_growth samples per step and level")
    dia.add_argument("--window-cap", type=int, default=None,
                     help=f"window-scan size cap (env {ENV_WINDOW_CAP})")
    dia.add_argument("--out", default=None, help="write the JSON ledger here")
    add_guards(dia)
    dia.set_defaults(func=_cmd_diagnose)

    cmp_ = sub.add_parser("compare", help="classic vs strong, side by side")
    add_params(cmp_)
    add_guards(cmp_)
    add_scan_cap(cmp_)
    cmp_.set_defaults(func=_cmd_compare)

    fit = sub.add_parser("fit", help="growth-exponent fit of a sequence file")
    add_params(fit, need_n=False)
    fit.add_argument("input", help="sequence file (bfile, csv, or json)")
    fit.add_argument("--format", choices=("auto",) + FORMATS, default="auto")
    fit.set_defaults(func=_cmd_fit)

    return parser


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cap(args, attr: str, env: str, default: Optional[int]) -> Optional[int]:
    """A guard value: its flag, else the environment variable env, else
    default.  A value below 1 is a usage error naming where it came from."""
    cap, source = getattr(args, attr), "--" + attr.replace("_", "-")
    if cap is None:
        cap, source = _env_int(env, default), f"environment variable {env}"
    if cap is not None and cap < 1:
        raise ValueError(f"{source} must be >= 1, got {cap}")
    return cap


def _caps(args):
    return (_cap(args, "memory_cap", ENV_MEMORY_CAP, DEFAULT_MAX_ENTRIES),
            _cap(args, "enum_cap", ENV_ENUM_CAP, DEFAULT_MAX_ENUMERATION))


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_generate(args) -> int:
    params = Params(args.h, args.g, args.n)
    memory_cap, _ = _caps(args)
    if args.algo == ALGORITHM_STRONG and args.scan_cap is not None:
        raise ValueError("--scan-cap applies only to --algo classic")
    scan_cap = _cap(args, "scan_cap", ENV_SCAN_CAP, None)
    if args.algo == ALGORITHM_STRONG:
        rec = strong_greedy(params, max_entries=memory_cap)
        bound_ok = verify_mod.strong_bound_check(rec).ok
    else:
        rec = classic_greedy(params, scan_cap=scan_cap, max_entries=memory_cap)
        bound_ok = verify_mod.classic_bound_check(rec).ok if params.g == 1 else None
    text = render_terms(rec, args.format, bound_ok=bound_ok,
                        include_timings=args.timings)
    _write_out(text, args.out)
    if args.out is not None:
        print(f"wrote {len(rec.terms)} terms to {args.out} "
              f"({args.algo}, h={params.h}, g={params.g})", file=sys.stderr)
    if bound_ok is False:
        print("bound check FAILED", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _cmd_verify(args) -> int:
    _, enum_cap = _caps(args)
    terms = read_terms(args.input, args.format)
    h, g = args.h, args.g
    if h < 2 or g < 1:
        raise ValueError(f"need h >= 2 and g >= 1, got h={h}, g={g}")
    report: dict = {"h": h, "g": g, "n_terms": len(terms), "input": args.input}
    ok = True

    if args.bhg_only:
        res = verify_mod.verify_bhg(terms, h, g, max_enumeration=enum_cap)
        report["bhg"] = {"ok": res.ok, "x": res.x, "count": res.count}
        if res.ok:
            print(f"ok: all {len(terms)} terms form a B_{h}[{g}] set")
        else:
            print(f"FAIL: sum {res.x} has {res.count} representations (> {g})")
            ok = False
    else:
        checks = verify_mod.verify_strong_prefixes(terms, h, g,
                                                   max_enumeration=enum_cap)
        bad = [c for c in checks if not c.ok]
        report["prefixes"] = {
            "checked": len(checks),
            "failures": [
                {"n": c.n, "bhg_ok": c.bhg.ok, "x": c.bhg.x,
                 "count": c.bhg.count, "failed_s": c.failed_s,
                 "level_count": c.level_count}
                for c in bad
            ],
        }
        if bad:
            ok = False
            for c in bad:
                if not c.bhg.ok:
                    print(f"FAIL prefix n={c.n}: sum {c.bhg.x} has "
                          f"{c.bhg.count} representations (> {g})")
                else:
                    print(f"FAIL prefix n={c.n}: level {c.failed_s} count "
                          f"{c.level_count} exceeds its ceiling")
        else:
            print(f"ok: all {len(checks)} prefixes satisfy both strong-set conditions")

        if args.bound != "none":
            params = Params(h, g, len(terms))
            rec = SequenceRecord(params, ALGORITHM_STRONG, list(terms), [])
            if args.bound == "theorem":
                bres = verify_mod.strong_bound_check(rec)
            else:
                bres = verify_mod.classic_bound_check(rec)
            report["bound"] = {
                "kind": bres.kind,
                "ok": bres.ok,
                "failures": [{"n": e.n, "term": e.term} for e in bres.failures()],
            }
            if bres.ok:
                print(f"ok: {bres.kind} holds at every index "
                      f"(worst ratio {float(bres.worst.ratio):.3g} at n={bres.worst.n})")
            else:
                ok = False
                for e in bres.failures():
                    print(f"FAIL {bres.kind} at n={e.n}: term {e.term}")

    report["ok"] = ok
    if args.report:
        _write_out(json.dumps(report, indent=2, sort_keys=True) + "\n", args.report)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _cmd_diagnose(args) -> int:
    memory_cap, enum_cap = _caps(args)
    window_cap = _cap(args, "window_cap", ENV_WINDOW_CAP, verify_mod.DEFAULT_MAX_WINDOW)
    h, g = args.h, args.g
    if args.input is not None:
        terms = read_terms(args.input)
        params = Params(h, g, len(terms))
        rec = SequenceRecord(params, ALGORITHM_STRONG, terms, [])
    else:
        if args.n is None:
            raise ValueError("diagnose needs --n or --input")
        rec = strong_greedy(Params(h, g, args.n), max_entries=memory_cap)
    diag = verify_mod.proof_diagnostics(
        rec, sample_budget=args.sample_budget,
        max_window=window_cap, max_enumeration=enum_cap)

    for c in diag.failed_prefixes():
        if not c.bhg.ok:
            print(f"step={c.n} prefix_strong: sum {c.bhg.x} has "
                  f"{c.bhg.count} representations (> {g}) FAIL")
        else:
            print(f"step={c.n} prefix_strong: level {c.failed_s} count "
                  f"{c.level_count} exceeds its ceiling FAIL")
    counts: dict[str, int] = {}
    for inst in diag.instances:
        counts[inst.name] = counts.get(inst.name, 0) + 1
        if not inst.holds:
            print(inst.describe())
    for name in sorted(counts):
        failed = sum(1 for i in diag.instances if i.name == name and not i.holds)
        status = "ok" if failed == 0 else f"{failed} FAILED"
        print(f"{name}: {counts[name]} instances, {status}")
    print(f"diagnostics: {'ok' if diag.ok else 'FAILED'} "
          f"({len(diag.instances)} inequality instances, "
          f"{len(diag.prefix_checks)} prefixes)")

    if args.out:
        doc = {
            "h": h, "g": g, "terms": diag.terms, "ok": diag.ok,
            "prefix_failures": [
                {"n": c.n, "bhg_ok": c.bhg.ok, "x": c.bhg.x, "count": c.bhg.count,
                 "failed_s": c.failed_s, "level_count": c.level_count}
                for c in diag.failed_prefixes()
            ],
            "reports": [
                {"n": r.n, "window_hi": r.window_hi, "members": r.members,
                 "bhg_breaks": r.bhg_breaks, "level_breaks": list(r.level_breaks),
                 "union_size": r.union_size, "union_cap": r.union_cap,
                 "first_admissible": r.first_admissible}
                for r in diag.reports
            ],
            "instances": [
                {"name": i.name, "step": i.step, "s": i.s, "m": i.m,
                 "lhs": i.lhs, "relation": i.relation, "rhs": i.rhs,
                 "holds": i.holds}
                for i in diag.instances
            ],
        }
        _write_out(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK if diag.ok else EXIT_VERIFY_FAIL


def _cmd_compare(args) -> int:
    params = Params(args.h, args.g, args.n)
    memory_cap, _ = _caps(args)
    classic = classic_greedy(params, scan_cap=_cap(args, "scan_cap", ENV_SCAN_CAP, None),
                             max_entries=memory_cap)
    strong = strong_greedy(params, max_entries=memory_cap)
    width = max(len(str(t)) for t in classic.terms + strong.terms)
    print(f"{'n':>4}  {'classic':>{width}}  {'strong':>{width}}")
    divergence = None
    for i, (c, s) in enumerate(zip(classic.terms, strong.terms), 1):
        marker = ""
        if c != s and divergence is None:
            divergence = i
            marker = "  <- first divergence"
        print(f"{i:>4}  {c:>{width}}  {s:>{width}}{marker}")
    if divergence is None:
        print("identical")
        return EXIT_OK
    print(f"diverge at n={divergence}")
    if params.g == 1:
        print("ERROR: classic and strong must agree for g = 1", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _cmd_fit(args) -> int:
    terms = read_terms(args.input, args.format)
    h, g = args.h, args.g
    if h < 2 or g < 1:
        raise ValueError(f"need h >= 2 and g >= 1, got h={h}, g={g}")
    res = fit_growth(terms)
    proven = Fraction(h * g + h - 1, g)
    print(f"fitted exponent: {res.slope:.4f} "
          f"(tail half: n = {res.start_index}..{len(terms)}, {res.n_points} points)")
    print(f"proven ceiling exponent h+(h-1)/g: {float(proven):.4f} ({proven})")
    print(f"trivial floor exponent h: {h}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry points


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (InputFormatError, FitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ScanExceededBound as e:
        print(f"internal-bound contradiction: {e}", file=sys.stderr)
        return EXIT_BOUND_CONTRADICTION
    except GuardExceeded as e:
        print(f"guard exceeded: {e}", file=sys.stderr)
        return EXIT_GUARD
    except BhgError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
