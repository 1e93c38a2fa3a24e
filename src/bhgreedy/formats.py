"""Sequence file formats: b-file, CSV, and JSON.

b-file
    One term per line, ``n a_n`` with 1-based n in generation order.
    Lines that are blank or start with ``#`` are ignored when reading.

CSV
    ``n,a_n`` rows without a header (a literal ``n,a_n`` header row is
    tolerated when reading).

JSON
    An object carrying the full run record (see SEQUENCE_SCHEMA below); a
    bare JSON array of terms is also accepted when reading.  Every JSON
    file the package writes goes through canonical_json: sorted keys,
    two-space indentation and a trailing newline, the bytes of
    ``json.dumps(doc, indent=2, sort_keys=True)`` plus that newline, so
    identical runs produce byte-identical files.  Lists of rows, dicts with
    the same keys and JSON scalar values (the per-step rows, the ledger's
    inequality instances), are filled into one row template.
    Wall-clock timings are emitted only on request and live in their own
    block, keeping the default output deterministic.
"""

import json
import re
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterator, Optional

from .errors import InputFormatError
from .greedy import SequenceRecord

SEQUENCE_SCHEMA = "bhg-sequence/1"

FORMATS = ("json", "csv", "bfile")

#: A b-file or CSV field, or a guard variable: an optional sign and ASCII
#: digits, nothing else that int() would take (underscores, non-ASCII digits).
INT_FIELD = re.compile(r"[+-]?[0-9]+")

#: A b-file or CSV row that _parse_rows takes without further checks: two
#: INT_FIELDs split by whitespace, or by a comma with optional whitespace
#: either side.  \s is the whitespace of str.split and str.strip.
_ROWS = {None: re.compile(rf"({INT_FIELD.pattern})\s+({INT_FIELD.pattern})"),
         ",": re.compile(rf"({INT_FIELD.pattern})\s*,\s*({INT_FIELD.pattern})")}

#: json's spelling of the floats that have no JSON literal.
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    """value as json.dumps writes it."""
    text = float.__repr__(value)
    return _FLOAT_WORDS.get(text, text)


#: The encoder of each JSON scalar type, by exact type, for every scalar written.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def canonical_json(doc) -> str:
    """doc rendered as ``json.dumps(doc, indent=2, sort_keys=True)`` renders
    it, plus a trailing newline.

    json.dumps falls back to its pure-Python encoder whenever indent is
    set, and spends a generator frame on every value; this writer builds
    each container in one join and renders a list of plain ints in one
    pass.  A list of two or more non-empty dicts with the same str keys
    whose values are all JSON scalars (str, int, float, bool or None, by
    exact type) is rendered from one row template, one field for each
    sorted key, filled once per row: a column of plain ints is written by
    '%d', any other column is encoded once, value by value by its type,
    and filled in by '%s'.  Keys must be str: any other key, or a value
    that is not a dict, list, tuple, str, int, float, bool or None, raises
    TypeError.
    """
    return _encode(doc, "\n") + "\n"


def _encode(value, newline: str) -> str:
    """value rendered at the indentation that newline, a line break and
    the current indent, carries.  A scalar is written by its encoder in
    _SCALARS; a subclass of str, int or float, which has none, is written
    by json.dumps, which raises TypeError on a value it cannot write."""
    if (scalar := _SCALARS.get(type(value))) is not None:
        return scalar(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        types = set(map(type, value))
        if types == {int}:
            body = map(int.__repr__, value)
        elif types != {dict} or (body := _scalar_rows(value, inner)) is None:
            body = [_encode(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(body) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not str.
        return ("{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": "
             + (int.__repr__(v) if type(v) is int else _encode(v, inner))
             for k, v in sorted(value.items())]) + newline + "}")
    return json.dumps(value)


def _scalar_rows(rows: list, inner: str) -> Optional[Iterator[str]]:
    """rows, a list of dicts, rendered row by row from one template at the
    indentation that inner carries, or None unless it holds at least two
    non-empty dicts with the same str keys and only JSON scalar values.
    The first row is checked before the keys and values of the others."""
    first = rows[0]
    if not (len(rows) > 1 and first
            and set(map(type, first)) == {str}
            and set(map(type, first.values())) <= _SCALARS.keys()):
        return None
    keys = first.keys()
    if not all(row.keys() == keys for row in rows):
        return None
    keys = sorted(keys)
    columns, fields = [], []
    for key in keys:
        column = list(map(itemgetter(key), rows))
        types = set(map(type, column))
        if types == {int}:  # bools excluded: %d would write True as 1
            fields.append("%d")
        elif types <= _SCALARS.keys():
            fields.append("%s")
            column = (list(map(_SCALARS[types.pop()], column)) if len(types) == 1
                      else [_SCALARS[type(v)](v) for v in column])
        else:
            return None
        columns.append(column)
    # A "%" in a key is doubled so that the template reads it as text.
    cell = inner + "  "
    template = ("{" + cell + ("," + cell).join(
        [encode_basestring_ascii(k).replace("%", "%%") + ": " + field
         for k, field in zip(keys, fields)]) + inner + "}")
    return map(template.__mod__, zip(*columns))


def render_bfile(terms) -> str:
    return "".join(f"{n} {a}\n" for n, a in enumerate(terms, 1))


def render_csv(terms) -> str:
    return "".join(f"{n},{a}\n" for n, a in enumerate(terms, 1))


def render_json(rec: SequenceRecord, *, bound_ok: Optional[bool] = None,
                include_timings: bool = False) -> str:
    doc = {
        "schema": SEQUENCE_SCHEMA,
        "algorithm": rec.algorithm,
        "params": {
            "h": rec.params.h,
            "g": rec.params.g,
            "n_terms": rec.params.n_terms,
        },
        "terms": list(rec.terms),
        "sorted": rec.is_sorted,
        "bound_ok": bound_ok,
        "per_step": [
            {"n": st.n, "term": st.term, "scan_length": st.scan_length,
             "bound": st.bound_floor}
            for st in rec.per_step
        ],
    }
    if include_timings:
        doc["timings"] = {
            "per_step_seconds": [round(st.elapsed, 6) for st in rec.per_step],
            "total_seconds": round(sum(st.elapsed for st in rec.per_step), 6),
        }
    return canonical_json(doc)


def render_terms(rec: SequenceRecord, fmt: str, *,
                 bound_ok: Optional[bool] = None,
                 include_timings: bool = False) -> str:
    if fmt == "bfile":
        return render_bfile(rec.terms)
    if fmt == "csv":
        return render_csv(rec.terms)
    if fmt == "json":
        return render_json(rec, bound_ok=bound_ok, include_timings=include_timings)
    raise ValueError(f"unknown format {fmt!r}")


def detect_format(text: str) -> str:
    """Best-effort format sniffing for reading: JSON documents start with
    '{' or '[', CSV rows contain commas, anything else is read as b-file."""
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped[0] in "{[":
            return "json"
        if "," in stripped:
            return "csv"
        return "bfile"
    raise InputFormatError("empty input")


def parse_terms(text: str, fmt: str = "auto") -> list[int]:
    """Parse a term list from file contents; raises InputFormatError with a
    line number on malformed rows."""
    if fmt == "auto":
        fmt = detect_format(text)
    if fmt == "json":
        return _parse_json(text)
    if fmt == "csv":
        return _parse_rows(text, sep=",", allow_header=True)
    if fmt == "bfile":
        return _parse_rows(text, sep=None, allow_header=False)
    raise ValueError(f"unknown format {fmt!r}")


def read_terms(path, fmt: str = "auto") -> list[int]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_terms(fh.read(), fmt)


def _parse_json(text: str) -> list[int]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputFormatError(f"invalid JSON: {e.msg}", line=e.lineno) from e
    if isinstance(doc, list):
        terms = doc
    elif isinstance(doc, dict) and "terms" in doc:
        terms = doc["terms"]
    else:
        raise InputFormatError("JSON input must be an array or carry a 'terms' array")
    # bool is a subclass of int, so JSON true and false need their own check.
    if not isinstance(terms, list) or not all(type(t) is int for t in terms):
        raise InputFormatError("'terms' must be an array of integers")
    if not terms:
        raise InputFormatError("empty term list")
    return list(terms)


def _parse_rows(text: str, sep, allow_header: bool) -> list[int]:
    """The terms of b-file (sep None) or CSV (sep ",") rows, blank and
    comment lines skipped.  Each stripped line is first matched against
    the row pattern of its format; only a line it refuses is split at sep
    and its fields checked one by one, so that it raises the error that
    names its fault, unless it is a CSV header."""
    row = _ROWS[sep]
    terms = []
    expected = 1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = row.fullmatch(line)
        if match is not None:
            n, a = match.groups()
        else:
            if allow_header and expected == 1 and line.lower().replace(" ", "") == "n,a_n":
                continue
            parts = [part.strip() for part in line.split(sep)]
            if len(parts) != 2:
                raise InputFormatError(
                    f"expected 'n{sep or ' '}a_n', got {line!r}", line=lineno)
            if not all(INT_FIELD.fullmatch(part) for part in parts):
                raise InputFormatError(f"non-integer field in {line!r}", line=lineno)
            n, a = parts
        if int(n) != expected:
            raise InputFormatError(
                f"index {int(n)} out of order (expected {expected})", line=lineno)
        terms.append(int(a))
        expected += 1
    if not terms:
        raise InputFormatError("empty input")
    return terms
