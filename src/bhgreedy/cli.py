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
    2  usage or input error, a file that cannot be read or written included
    3  resource guard exceeded
    4  internal-bound contradiction (strong scan exhausted its ceiling)

Guard defaults honour the environment variables BHG_MEMORY_CAP,
BHG_ENUM_CAP, BHG_SCAN_CAP, and BHG_WINDOW_CAP; command-line flags override
them, and every cap must be >= 1.  Each subcommand takes, and checks, only
the caps it reads: generate and compare the memory and scan caps, verify
the enumeration cap, and diagnose the enumeration and window caps, and the
memory cap with --n.
All runs are deterministic: there is no randomness anywhere, and written
files are byte-identical across repeated runs with equal options (timings
are emitted only with --timings, in a separate JSON block).
"""

import argparse
import math
import os
import sys
from collections import Counter
from typing import NamedTuple, Optional

from . import verify as verify_mod
from .errors import BhgError, FitError, GuardExceeded, ScanExceededBound
from .formats import FORMATS, INT_FIELD, canonical_json, read_terms, render_terms
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

# One row per guard, the --<name>-cap flag: its environment variable,
# default (None: no cap) and help text.
GUARDS = {
    "memory": ("BHG_MEMORY_CAP", DEFAULT_MAX_ENTRIES, "sum-table entry cap"),
    "enum": ("BHG_ENUM_CAP", DEFAULT_MAX_ENUMERATION, "brute-force enumeration cap"),
    "scan": ("BHG_SCAN_CAP", None, "classic-greedy scan ceiling"),
    "window": ("BHG_WINDOW_CAP", verify_mod.DEFAULT_MAX_WINDOW, "window-scan size cap"),
}


def _integer(raw: str) -> int:
    """int(raw) for an optional sign and ASCII digits, surrounding spaces
    allowed, as in bfile and csv fields; int() alone would also take
    1_000 and non-ASCII digits.  The type of every integer flag."""
    if not INT_FIELD.fullmatch(raw.strip()):
        raise argparse.ArgumentTypeError(f"must be an integer, got {raw!r}")
    return int(raw)


def _env_int(name: str, fallback: Optional[int]) -> Optional[int]:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return _integer(raw)
    except argparse.ArgumentTypeError as e:
        raise ValueError(f"environment variable {name} {e}") from None


class FitResult(NamedTuple):
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
    import statistics  # not at the top: only fit reads it
    reg = statistics.linear_regression(xs, ys)
    return FitResult(reg.slope, reg.intercept, len(xs), start)


# ---------------------------------------------------------------------------
# Argument parsing


# The subcommands and their help lines, in the order the top-level help
# lists them.
COMMANDS = {
    "generate": "generate a sequence",
    "verify": "re-check a sequence file from scratch",
    "diagnose": "window-scan inequality ledger for a strong run",
    "compare": "classic vs strong, side by side",
    "fit": "growth-exponent fit of a sequence file",
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser of the CLI: the top-level parser and the
    subparser of command with its options, or all five subparsers with
    theirs when command is None.

    argparse hands the rest of argv to the one subparser that argv's first
    token names, so a parser built for that command parses, prints and
    fails as the whole tree does.  Its one top-level text is the usage
    line of "unrecognized arguments", and the subcommands metavar keeps
    all five names in it.  The whole tree, which prints the top-level help
    and the other top-level errors, sets no metavar: argparse would name
    the subcommand argument by it, not by "command", in its "required"
    and "invalid choice" errors.
    """
    parser = argparse.ArgumentParser(
        prog="bhgreedy",
        description="Generate and verify B_h[g] sequences with exact arithmetic.",
    )
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def add_params(p, need_n=True):
        p.add_argument("--h", type=_integer, required=True, help="order h >= 2")
        p.add_argument("--g", type=_integer, required=True, help="multiplicity bound g >= 1")
        if need_n:
            p.add_argument("--n", type=_integer, required=True, help="number of terms")

    def add_input(p):
        add_params(p, need_n=False)
        p.add_argument("input", help="sequence file (bfile, csv, or json)")
        p.add_argument("--format", choices=("auto",) + FORMATS, default="auto")

    def add_caps(p, *caps):
        for cap in caps:
            env, _, text = GUARDS[cap]
            p.add_argument(f"--{cap}-cap", type=_integer, default=None,
                           help=f"{text} (env {env})")

    for name in (COMMANDS if command is None else (command,)):
        p = sub.add_parser(name, help=COMMANDS[name])
        if name == "generate":
            add_params(p)
            p.add_argument("--algo", choices=(ALGORITHM_STRONG, ALGORITHM_CLASSIC),
                           default=ALGORITHM_STRONG)
            p.add_argument("--format", choices=FORMATS, default="json")
            p.add_argument("--out", default=None, help="output path (default stdout)")
            p.add_argument("--timings", action="store_true",
                           help="include wall-clock timings in JSON output")
            add_caps(p, "memory", "scan")
            p.set_defaults(func=_cmd_generate)
        elif name == "verify":
            add_input(p)
            p.add_argument("--bhg-only", action="store_true",
                           help="check only the B_h[g] property of the full set")
            p.add_argument("--bound", choices=("theorem", "classic", "none"),
                           default=None,
                           help="which term-size ceiling to check (default theorem; "
                                "not with --bhg-only, which checks no ceiling)")
            p.add_argument("--report", default=None, help="write a JSON report here")
            add_caps(p, "enum")
            p.set_defaults(func=_cmd_verify)
        elif name == "diagnose":
            add_params(p, need_n=False)
            source = p.add_mutually_exclusive_group(required=True)
            source.add_argument("--n", type=_integer, help="terms to generate")
            source.add_argument("--input",
                                help="diagnose this sequence file instead of generating")
            p.add_argument("--sample-budget", type=_integer,
                           default=verify_mod.DEFAULT_SAMPLE_BUDGET,
                           help="sample every max(1, window // N)-th candidate "
                                "for profile_growth, at most 2N per step "
                                "(N >= 1, default %(default)s)")
            p.add_argument("--out", default=None, help="write the JSON ledger here")
            add_caps(p, "memory", "enum", "window")
            p.set_defaults(func=_cmd_diagnose)
        elif name == "compare":
            add_params(p)
            add_caps(p, "memory", "scan")
            p.set_defaults(func=_cmd_compare)
        else:  # fit
            add_input(p)
            p.set_defaults(func=_cmd_fit)

    return parser


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cap(args, name: str) -> Optional[int]:
    """The value of the guard name: its flag, else its environment
    variable, else its default (GUARDS).  A value below 1 is a usage error
    naming where it came from."""
    env, default, _ = GUARDS[name]
    cap, source = getattr(args, f"{name}_cap"), f"--{name}-cap"
    if cap is None:
        cap, source = _env_int(env, default), f"environment variable {env}"
    if cap is not None and cap < 1:
        raise ValueError(f"{source} must be >= 1, got {cap}")
    return cap


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _prefix_failure(c: verify_mod.PrefixCheck) -> dict:
    """A failed prefix as the JSON object of verify and diagnose files."""
    return {"n": c.n, "bhg_ok": c.bhg.ok, "x": c.bhg.x, "count": c.bhg.count,
            "failed_s": c.failed_s, "level_count": c.level_count}


def _bhg_text(res: verify_mod.BhgCheck, g: int) -> str:
    """Why a set is not B_h[g], as verify and diagnose print it."""
    return f"sum {res.x} has {res.count} representations (> {g})"


def _prefix_text(c: verify_mod.PrefixCheck, g: int) -> str:
    """Why a failed prefix fails, as verify and diagnose print it."""
    if not c.bhg.ok:
        return _bhg_text(c.bhg, g)
    return f"level {c.failed_s} count {c.level_count} exceeds its ceiling"


def _read_input(args) -> tuple[list[int], int, int]:
    """The terms of the input file of verify or fit, read in its --format,
    with --h and --g, checked."""
    terms, h, g = read_terms(args.input, args.format), args.h, args.g
    if h < 2 or g < 1:
        raise ValueError(f"need h >= 2 and g >= 1, got h={h}, g={g}")
    return terms, h, g


def _read_record(terms: list[int], h: int, g: int) -> SequenceRecord:
    """terms read from a file, as the record of a strong run the checks
    take."""
    return SequenceRecord(Params(h, g, len(terms)), ALGORITHM_STRONG, terms, [])


def _cmd_generate(args) -> int:
    params = Params(args.h, args.g, args.n)
    memory_cap = _cap(args, "memory")
    if args.algo == ALGORITHM_STRONG and args.scan_cap is not None:
        raise ValueError("--scan-cap applies only to --algo classic")
    if args.timings and args.format != "json":
        raise ValueError("--timings applies only to --format json")
    scan_cap = _cap(args, "scan")
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
    enum_cap = _cap(args, "enum")
    terms, h, g = _read_input(args)
    if args.bhg_only and args.bound is not None:
        raise ValueError("--bound does not apply with --bhg-only, "
                         "which checks no ceiling")
    bound = args.bound or "theorem"
    if bound == "classic" and g != 1:
        raise ValueError("classic ceiling is only proven for g = 1")
    report: dict = {"h": h, "g": g, "n_terms": len(terms), "input": args.input}
    ok = True

    if args.bhg_only:
        res = verify_mod.verify_bhg(terms, h, g, max_enumeration=enum_cap)
        report["bhg"] = res._asdict()
        if res.ok:
            print(f"ok: all {len(terms)} terms form a B_{h}[{g}] set")
        else:
            print(f"FAIL: {_bhg_text(res, g)}")
            ok = False
    else:
        checks = verify_mod.verify_strong_prefixes(terms, h, g,
                                                   max_enumeration=enum_cap)
        bad = [c for c in checks if not c.ok]
        report["prefixes"] = {
            "checked": len(checks),
            "failures": [_prefix_failure(c) for c in bad],
        }
        if bad:
            ok = False
            for c in bad:
                print(f"FAIL prefix n={c.n}: {_prefix_text(c, g)}")
        else:
            print(f"ok: all {len(checks)} prefixes satisfy both strong-set conditions")

        if bound != "none":
            bres = (verify_mod.strong_bound_check if bound == "theorem"
                    else verify_mod.classic_bound_check)(_read_record(terms, h, g))
            failures = bres.failures()
            report["bound"] = {
                "kind": bres.kind,
                "ok": not failures,
                "failures": [{"n": e.n, "term": e.term} for e in failures],
            }
            if not failures:
                # worst is a max over every entry: read it once.
                worst = bres.worst
                print(f"ok: {bres.kind} holds at every index "
                      f"(worst ratio {worst.term_pow / worst.rhs_pow:.3g} "
                      f"at n={worst.n})")
            else:
                ok = False
                for e in failures:
                    print(f"FAIL {bres.kind} at n={e.n}: term {e.term}")

    report["ok"] = ok
    if args.report:
        _write_out(canonical_json(report), args.report)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _cmd_diagnose(args) -> int:
    if args.input is None:
        memory_cap = _cap(args, "memory")
    elif args.memory_cap is not None:
        raise ValueError("--memory-cap applies only with --n")
    enum_cap = _cap(args, "enum")
    window_cap = _cap(args, "window")
    if args.sample_budget < 1:
        raise ValueError(f"--sample-budget must be >= 1, got {args.sample_budget}")
    h, g = args.h, args.g
    if args.input is not None:
        rec = _read_record(read_terms(args.input), h, g)
    else:
        rec = strong_greedy(Params(h, g, args.n), max_entries=memory_cap)
    diag = verify_mod.proof_diagnostics(
        rec, sample_budget=args.sample_budget,
        max_window=window_cap, max_enumeration=enum_cap)

    failed_prefixes = diag.failed_prefixes()
    holds = [inst.holds for inst in diag.instances]
    ok = not failed_prefixes and all(holds)
    for c in failed_prefixes:
        print(f"step={c.n} prefix_strong: {_prefix_text(c, g)} FAIL")
    counts = Counter(inst.name for inst in diag.instances)
    failed_counts = Counter()
    for inst, held in zip(diag.instances, holds):
        if not held:
            failed_counts[inst.name] += 1
            print(inst.describe())
    for name in sorted(counts):
        status = f"{failed_counts[name]} FAILED" if failed_counts[name] else "ok"
        print(f"{name}: {counts[name]} instances, {status}")
    print(f"diagnostics: {'ok' if ok else 'FAILED'} "
          f"({len(diag.instances)} inequality instances, "
          f"{len(diag.prefix_checks)} prefixes)")

    if args.out:
        doc = {
            "h": h, "g": g, "terms": diag.terms, "ok": ok,
            "prefix_failures": [_prefix_failure(c) for c in failed_prefixes],
            # h and g stand once, at the top of the ledger, not in each row.
            "reports": [{k: v for k, v in r._asdict().items() if k not in ("h", "g")}
                        for r in diag.reports],
            "instances": [
                {"name": i.name, "step": i.step, "s": i.s, "m": i.m,
                 "lhs": i.lhs, "relation": i.relation, "rhs": i.rhs,
                 "holds": held}
                for i, held in zip(diag.instances, holds)
            ],
        }
        _write_out(canonical_json(doc), args.out)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _cmd_compare(args) -> int:
    params = Params(args.h, args.g, args.n)
    memory_cap = _cap(args, "memory")
    classic = classic_greedy(params, scan_cap=_cap(args, "scan"),
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
    terms, h, g = _read_input(args)
    res = fit_growth(terms)
    from fractions import Fraction  # not at the top: only fit reads it
    proven = Fraction(h * g + h - 1, g)
    print(f"fitted exponent: {res.slope:.4f} "
          f"(tail half: n = {res.start_index}..{len(terms)}, {res.n_points} points)")
    print(f"proven ceiling exponent h+(h-1)/g: {float(proven):.4f} ({proven})")
    print(f"trivial floor exponent h: {h}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry points


def main(argv=None) -> int:
    """Run the command of argv (default sys.argv[1:]) and return its exit
    code.

    When argv[0] names a subcommand, only the top-level parser and that
    subcommand's subparser are built, since argparse dispatches to it and
    no other.  Any other argv (empty, help, "--", a leading "-" token, an
    unknown name) gets the whole tree, which prints the top-level help or
    error.  Either way the output and exit code are those of the whole
    tree; see build_parser.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ScanExceededBound as e:
        print(f"internal-bound contradiction: {e}", file=sys.stderr)
        return EXIT_BOUND_CONTRADICTION
    except GuardExceeded as e:  # a BhgError: keep it before the last clause
        print(f"guard exceeded: {e}", file=sys.stderr)
        return EXIT_GUARD
    except (OSError, ValueError, BhgError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
