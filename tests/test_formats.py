"""Tests for the sequence file formats."""

import ast
import json
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bhgreedy import InputFormatError, Params, strong_greedy
from bhgreedy.formats import (
    _scalar_rows,
    canonical_json,
    detect_format,
    parse_terms,
    render_bfile,
    render_csv,
    render_json,
    render_terms,
)

TERMS = [1, 2, 4, 8, 13]


def test_render_bfile():
    assert render_bfile([1, 2]) == "1 1\n2 2\n"


def test_render_csv():
    assert render_csv([1, 2]) == "1,1\n2,2\n"


def test_bfile_round_trip():
    text = render_bfile(TERMS)
    assert parse_terms(text, "bfile") == TERMS
    assert parse_terms(text) == TERMS  # auto-detected


def test_csv_round_trip():
    text = render_csv(TERMS)
    assert parse_terms(text, "csv") == TERMS
    assert parse_terms(text) == TERMS
    assert parse_terms("n,a_n\n" + text) == TERMS  # header tolerated
    assert parse_terms("1, 1\n2,+2\n", "csv") == [1, 2]  # spaces, a sign


def test_json_round_trip():
    rec = strong_greedy(Params(2, 1, 5))
    text = render_json(rec, bound_ok=True)
    doc = json.loads(text)
    assert doc["terms"] == rec.terms
    assert doc["algorithm"] == "strong"
    assert doc["params"] == {"h": 2, "g": 1, "n_terms": 5}
    assert doc["sorted"] is True
    assert doc["bound_ok"] is True
    assert [st["bound"] for st in doc["per_step"]] == \
        [m.bound_floor for m in rec.per_step]
    assert "timings" not in doc
    assert parse_terms(text) == rec.terms


def test_json_timings_live_in_their_own_block():
    rec = strong_greedy(Params(2, 1, 5))
    with_t = json.loads(render_json(rec, include_timings=True))
    without = json.loads(render_json(rec))
    assert "timings" in with_t
    del with_t["timings"]
    assert with_t == without


def test_json_accepts_bare_array():
    assert parse_terms("[1, 2, 4]") == [1, 2, 4]


def test_bfile_comments_and_blanks_ignored():
    assert parse_terms("# header\n\n1 1\n2 2\n") == [1, 2]


def test_detect_format():
    assert detect_format("1 1\n") == "bfile"
    assert detect_format("1,1\n") == "csv"
    assert detect_format('{"terms": [1]}') == "json"
    assert detect_format("[1, 2]") == "json"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InputFormatError) as exc:
        parse_terms("1 1\n2 oops\n", "bfile")
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)

    with pytest.raises(InputFormatError) as exc:
        parse_terms("1,1\n3,4\n", "csv")
    assert exc.value.line == 2  # index out of order

    with pytest.raises(InputFormatError):
        parse_terms("", "bfile")


@pytest.mark.parametrize("text,fmt,message", [
    ("[]", "json", "empty term list"),
    ('{"terms": []}', "json", "empty term list"),
    ("1 1\n2 2 3\n", "bfile", "line 2: expected 'n a_n', got '2 2 3'"),
    ("1,1\n2,2,3\n", "csv", "line 2: expected 'n,a_n', got '2,2,3'"),
])
def test_malformed_input_names_its_fault(text, fmt, message):
    with pytest.raises(InputFormatError, match=f"^{re.escape(message)}$"):
        parse_terms(text, fmt)


def test_parse_terms_refuses_an_unknown_format():
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        parse_terms("1 1\n", "xml")
    with pytest.raises(InputFormatError):
        parse_terms("not json {", "json")
    with pytest.raises(InputFormatError):
        parse_terms('{"no_terms": 1}', "json")
    with pytest.raises(InputFormatError):
        parse_terms('{"terms": [1, "x"]}', "json")


@pytest.mark.parametrize("text", [
    "[true, 2, 4]",
    "[1, false]",
    '{"terms": [1, true]}',
])
def test_json_booleans_are_not_terms(text):
    with pytest.raises(InputFormatError):
        parse_terms(text, "json")


@pytest.mark.parametrize("text,fmt", [
    ("1 1\n2 2_0\n", "bfile"),
    ("1 1\n2 \u0662\n", "bfile"),  # ARABIC-INDIC DIGIT TWO
    ("1,1\n2,1_6\n", "csv"),
    ("1,1\n\uff12,4\n", "csv"),  # FULLWIDTH DIGIT TWO
])
def test_row_fields_are_ascii_integers_only(text, fmt):
    with pytest.raises(InputFormatError) as exc:
        parse_terms(text, fmt)
    assert exc.value.line == 2


#: (text, format, and the terms, or the error text and line, that
#: splitting each line at its separator and checking each field give).
#: Of the whitespace separators \x1c-\x1f, str.splitlines breaks a line at
#: all but \x1f.
ROW_CASES = [
    ("1\t5\n2 \t 7\n", "bfile", [5, 7]),
    ("1\u20035\n2\u30007\n", "bfile", [5, 7]),
    ("1\x1c5\n", "bfile", ("line 1: expected 'n a_n', got '1'", 1)),
    ("1 5\x1d\n", "bfile", [5]),
    ("1\x1f5\n2\xa06\n", "csv", ("line 1: expected 'n,a_n', got '1\\x1f5'", 1)),
    ("1\x1f5\n2\xa06\n", "bfile", [5, 6]),
    ("1 +7\n+2 -0\n", "bfile", [7, 0]),
    ("1 007\n002 5\n", "bfile", [7, 5]),
    ("1 , 5\n2\t,6\n3,\u20037\n", "csv", [5, 6, 7]),
    ("n,a_n\n1,5\n", "csv", [5]),
    (" N , A_N \n1,5\n", "csv", [5]),
    ("1,5\nn,a_n\n", "csv", ("line 2: non-integer field in 'n,a_n'", 2)),
    ("n,a_n\n", "csv", ("empty input", None)),
    ("1 1_000\n", "bfile", ("line 1: non-integer field in '1 1_000'", 1)),
    ("1,1_000\n", "csv", ("line 1: non-integer field in '1,1_000'", 1)),
    ("1 \u0661\n", "bfile", ("line 1: non-integer field in '1 \u0661'", 1)),
    ("1 5 9\n", "bfile", ("line 1: expected 'n a_n', got '1 5 9'", 1)),
    ("1,5,9\n", "csv", ("line 1: expected 'n,a_n', got '1,5,9'", 1)),
    ("1,5,\n", "csv", ("line 1: expected 'n,a_n', got '1,5,'", 1)),
    ("1\n", "bfile", ("line 1: expected 'n a_n', got '1'", 1)),
    ("1\n", "csv", ("line 1: expected 'n,a_n', got '1'", 1)),
    ("1,5\n", "bfile", ("line 1: expected 'n a_n', got '1,5'", 1)),
    ("1 5\n", "csv", ("line 1: expected 'n,a_n', got '1 5'", 1)),
    ("1 5\n3 7\n", "bfile", ("line 2: index 3 out of order (expected 2)", 2)),
    ("-1 5\n", "bfile", ("line 1: index -1 out of order (expected 1)", 1)),
    ("1 +-5\n", "bfile", ("line 1: non-integer field in '1 +-5'", 1)),
    ("\n# note\n1 5\n   \n#2 6\n2 6\n", "bfile", [5, 6]),
    ("1 5\r\n2 6\r\n", "bfile", [5, 6]),
    ("\n  \n# only a comment\n", "bfile", ("empty input", None)),
    ("# n,a_n\n1,5\n", "csv", [5]),
]


@pytest.mark.parametrize("text,fmt,expected", ROW_CASES)
def test_rows_parse_as_split_and_checked(text, fmt, expected):
    """The row pattern takes exactly the lines that splitting at the
    separator and checking each field takes; any other line raises the
    error, with the line number, that the field checks name."""
    if isinstance(expected, list):
        assert parse_terms(text, fmt) == expected
        return
    with pytest.raises(InputFormatError) as exc:
        parse_terms(text, fmt)
    assert (str(exc.value), exc.value.line) == expected


def test_render_terms_dispatch():
    rec = strong_greedy(Params(2, 1, 3))
    assert render_terms(rec, "bfile") == "1 1\n2 2\n3 4\n"
    assert render_terms(rec, "csv") == "1,1\n2,2\n3,4\n"
    assert json.loads(render_terms(rec, "json"))["terms"] == [1, 2, 4]
    with pytest.raises(ValueError):
        render_terms(rec, "xml")


# ---------------------------------------------------------------------------
# canonical_json against json.dumps(indent=2, sort_keys=True)

#: Every code point, control characters and lone surrogates included.
KEYS = st.text(st.characters(exclude_categories=()), max_size=6)
FLOATS = st.one_of(
    st.floats(),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: round(x, 6)),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0]),
)
INTS = st.one_of(
    st.integers(),
    st.integers(min_value=2 ** 64).flatmap(lambda x: st.sampled_from([x, -x])),
)
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, KEYS)


#: The values of one column of rows: plain ints, ints beside bools or
#: beside None, floats, strings, or any JSON scalars.
COLUMNS = st.sampled_from([INTS, st.one_of(INTS, st.booleans()),
                           st.one_of(INTS, st.none()), FLOATS, KEYS, SCALARS])
#: Values that json.dumps refuses.
UNSERIALIZABLE = st.sampled_from([Fraction(1, 2), Decimal("1.5"), 1j, b"x", {1}])


@st.composite
def scalar_rows(draw, flaws=("cell", "extra", "missing"), always=False):
    """0-6 dicts over one key set, each inserted in its own order, with the
    values of each key drawn from its own column strategy; in some lists
    (in all, with always) one later row has one of flaws: a list or dict
    "cell", an "extra" or a "missing" key, a non-str "key", or an
    "unserializable" value."""
    keys = draw(st.lists(KEYS, min_size=1 if always else 0, max_size=4, unique=True))
    columns = {k: draw(COLUMNS) for k in keys}
    rows = [{k: draw(columns[k]) for k in draw(st.permutations(keys))}
            for _ in range(draw(st.integers(2 if always else 0, 6)))]
    if len(rows) > 1 and (always or draw(st.booleans())):
        row = rows[draw(st.integers(1, len(rows) - 1))]
        flaw = draw(st.sampled_from(flaws))
        if flaw == "extra":
            row[draw(KEYS.filter(lambda k: k not in row))] = draw(SCALARS)
        elif flaw == "key":
            row[draw(st.one_of(st.integers(), st.none(), st.booleans()))] = draw(SCALARS)
        elif row:
            key = draw(st.sampled_from(sorted(row)))
            if flaw == "cell":
                row[key] = draw(st.one_of(st.lists(SCALARS, max_size=2),
                                          st.dictionaries(KEYS, SCALARS, max_size=2)))
            elif flaw == "unserializable":
                row[key] = draw(UNSERIALIZABLE)
            else:
                del row[key]
    return rows


#: The lists canonical_json renders from one row template, and near misses.
ROWS = scalar_rows()
DOCS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.integers(), max_size=6),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
        st.dictionaries(KEYS, children, max_size=4),
        ROWS,
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(DOCS, ROWS))
@example({"b": [], "a": (), "c": {}, "d": [1, -2, 2 ** 70], "e": [1, True]})
@example({"\ud800": "\x00\u2028\U0001f600", "\x7f": ["\udfff"]})
@example([float("nan"), float("inf"), float("-inf"), -0.0, round(2 / 3, 6)])
@example([{}, {}])
@example({"rows": [{"a": 1}, {"a": -2 ** 70}, {"a": 0}]})
@example([{"a": 1, "b": 2}])
@example([{"b": 1, "a": 2}, {"a": 3, "b": 4}, {"b": 2 ** 64, "a": -5}])
@example([{"\u2028": 1, '"': 2, "%": 3}, {"%": 4, '"': 5, "\u2028": 6}])
@example([{"a": 1}, {"a": True}])
@example([{"a": 1}, {"a": 2, "b": 3}])
@example([{"a": 1, "b": 2}, {"a": 3}])
@example([{"a": True, "b": None}, {"a": False, "b": 1}])
@example([{"a": 1, "b": "x"}, {"a": None, "b": 2}])
@example([{"f": float("nan")}, {"f": float("-inf")}, {"f": -0.0}, {"f": 1}])
@example([{"%d": "%s\x00\ud800"}, {"%d": '"\u2028'}])
@example([{"a": 1}, {"a": [1]}])
@example([{"a": None}, {"a": {"b": 1}}])
def test_canonical_json_matches_json_dumps(doc):
    assert canonical_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Subclasses of the scalar types, each with a repr that json never reads:
# json writes a str, int or float subclass by its value, as the base type.
class S(str):
    def __repr__(self):
        return "S()"


class I(int):
    def __repr__(self):
        return "I()"


class F(float):
    def __repr__(self):
        return "F()"


SUBCLASS_SCALARS = [S("a \ud800"), S(""), I(7), I(-2 ** 70), F(1.5), F(2 / 3),
                    F(float("nan")), F(float("inf")), F(float("-inf")), F(-0.0)]
#: Lists of same-key dicts in which a subclass value, in the first row or
#: a later one, keeps the row template from taking them.
SUBCLASS_ROWS = [
    [{"a": I(1), "b": "x"}, {"a": 2, "b": "y"}],
    [{"a": 1, "b": "x"}, {"a": I(2), "b": S("y")}],
    [{"f": F(float("nan"))}, {"f": F(float("inf"))}, {"f": F(float("-inf"))},
     {"f": F(-0.0)}],
    [{"a": None, "b": True}, {"a": F(0.5), "b": False}],
]


@pytest.mark.parametrize("doc", [
    *SUBCLASS_SCALARS,
    SUBCLASS_SCALARS,
    tuple(SUBCLASS_SCALARS),
    [I(1), 2, 3],
    [I(1), I(2)],
    {"i": I(3), "f": F(-0.0), "s": S("x"), "n": F(float("nan")), S("k"): [I(4)]},
    *SUBCLASS_ROWS,
])
def test_canonical_json_writes_scalar_subclasses_as_json_does(doc):
    assert canonical_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("rows", SUBCLASS_ROWS)
def test_row_template_declines_scalar_subclasses(rows):
    assert _scalar_rows(rows, "\n  ") is None


@pytest.mark.parametrize("doc", [
    {1: 2}, {None: 1}, {"a": {2.5: 1}}, {(1, 2): 3}, {"a": 1, 3: 4},
    [1, {False: 0}], [{"a": 1}, {1: 2}], [{1: 2}, {1: 3}],
])
def test_canonical_json_refuses_non_str_keys(doc):
    with pytest.raises(TypeError):
        canonical_json(doc)


@settings(max_examples=100, deadline=None)
@given(scalar_rows(("key",), always=True))
def test_canonical_json_refuses_a_non_str_key_in_rows(rows):
    with pytest.raises(TypeError):
        canonical_json(rows)


@pytest.mark.parametrize("doc", [
    {1, 2}, object(), b"bytes", Fraction(1, 2), Decimal("1.5"), 1j,
    {"a": [1, {"b": frozenset()}]}, [1, 2, range(3)],
])
def test_canonical_json_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        canonical_json(doc)


@settings(max_examples=100, deadline=None)
@given(scalar_rows(("unserializable",), always=True))
def test_canonical_json_refuses_in_rows_what_json_refuses(rows):
    with pytest.raises(TypeError):
        json.dumps(rows, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        canonical_json(rows)


def test_no_indented_json_dumps_in_the_package():
    """An indented json.dump(s) runs CPython's pure-Python encoder; every
    writer of the package goes through canonical_json instead."""
    package = Path(__file__).resolve().parent.parent / "src" / "bhgreedy"
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
        and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert calls == []
