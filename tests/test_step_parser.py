"""STEP parser tests: hand-parsed expectations, round trips, positioned
errors, an independent record scanner, and the record pattern against the
token loop."""

from __future__ import annotations

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimvec import step_parser
from bimvec.errors import BimvecError
from bimvec.step_parser import (
    DERIVED,
    MAX_NESTING,
    EntityRef,
    EnumToken,
    StepEntity,
    StepModel,
    StepValue,
    TypedValue,
    parse_step,
    parse_step_file,
    serialize_step,
    validate_references,
)

from conftest import wrap

# A stand-in for the record pattern that never matches, so that the token
# loop reads every record.
_NO_RECORD_RE = re.compile("(x)?(x)?(x)?")

FIXTURE_FILES = ["minimal.ifc", "empty.ifc", "values.ifc", "two_space.ifc",
                 "dangling.ifc"]


# ---------------------------------------------------------------------------
# parse_step examples
# ---------------------------------------------------------------------------

def test_parses_single_wall_record():
    model = parse_step(
        "ISO-10303-21; HEADER; FILE_DESCRIPTION((''),'2;1'); ENDSEC; "
        "DATA; #1=IFCWALL('g',$,'W1',$,$,$,$,$); ENDSEC; END-ISO-10303-21;"
    )
    assert len(model) == 1
    entity = model.entities[1]
    assert entity.type_name == "IFCWALL"
    assert len(entity.attributes) == 8
    assert entity.attributes[0] == "g"
    assert entity.attributes[1] is None


def test_empty_data_section():
    model = parse_step(wrap(""))
    assert len(model) == 0


def test_aggregate_enum_and_real():
    model = parse_step(wrap("#2=IFCDOOR(('a',#3),.T.,1.5E0);"))
    entity = model.entities[2]
    assert entity.attributes == [["a", EntityRef(3)], EnumToken("T"), 1.5]


def test_typed_values_and_markers():
    model = parse_step(wrap("#4=IFCX(IFCBOOLEAN(.F.),*,$,-2,());"))
    assert model.entities[4].attributes == [
        TypedValue("IFCBOOLEAN", EnumToken("F")), DERIVED, None, -2, [],
    ]


def test_quote_escape_and_control_directive_passthrough():
    model = parse_step(wrap(r"#5=IFCX('it''s','\X2\00E9\X0\ raw');"))
    assert model.entities[5].attributes == ["it's", "\\X2\\00E9\\X0\\ raw"]


def test_multi_line_record_and_comments():
    model = parse_step(wrap(
        "/* a comment with #9=FAKE(); inside */\n"
        "#6=IFCX(1,\n  2,\n  3);"
    ))
    assert model.entities[6].attributes == [1, 2, 3]


def test_header_records_are_kept():
    model = parse_step(wrap("#1=IFCX(0);"))
    assert model.header["FILE_DESCRIPTION"] == [[""], "2;1"]


def test_in_id_order_regardless_of_file_order():
    model = parse_step(wrap("#3=IFCB(0);\n#1=IFCA(0);\n#4=IFCA(0);\n#2=IFCC(0);"))
    assert [e.id for e in model.of_types(["IFCA", "IFCB", "IFCC"])] == [1, 2, 3, 4]
    assert [e.id for e in model.of_types(["IFCA", "IFCX"])] == [1, 4]


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

def test_missing_sentinel_is_malformed():
    with pytest.raises(BimvecError, match="^missing ISO-10303-21 sentinel at start of file$"):
        parse_step("DATA; #1=IFCX(0); ENDSEC; END-ISO-10303-21;")


def test_missing_data_section_is_malformed():
    with pytest.raises(BimvecError, match="^file has no DATA section$"):
        parse_step("ISO-10303-21; HEADER; ENDSEC; END-ISO-10303-21;")


def test_missing_end_sentinel_is_malformed():
    with pytest.raises(BimvecError, match="^missing END-ISO-10303-21 sentinel$"):
        parse_step("ISO-10303-21; DATA; #1=IFCX(0); ENDSEC;")


def test_unterminated_string_position():
    text = "ISO-10303-21;\nDATA;\n#1=IFCWALL('oops);\nENDSEC;\nEND-ISO-10303-21;"
    with pytest.raises(BimvecError, match=r"^unterminated string \(line 3, column 12\)$"):
        parse_step(text)


def test_unbalanced_parentheses_position():
    text = "ISO-10303-21;\nDATA;\n#1=IFCWALL(1,(2);\nENDSEC;\nEND-ISO-10303-21;"
    with pytest.raises(BimvecError,
                       match=r"^expected '\)', found ';' \(line 3, column 17\)$"):
        parse_step(text)


_HEAD = "ISO-10303-21;\nDATA;\n"


_LEXICAL_ERRORS = [
    (wrap("#1=IFCX(0);\n  /* never closed"), "unterminated comment", (7, 3)),
    (wrap("#1=IFCX(#);"), "expected digits after '#'", (6, 9)),
    (wrap("#1=IFCX(#0);"), "entity id must be positive", (6, 9)),
    (wrap("#1=IFCX(#00);"), "entity id must be positive", (6, 9)),
    (wrap("#1=IFCX(0);\n#00=IFCX(1);"), "entity id must be positive", (7, 1)),
    (wrap("#1=IFCX(.T,1);"), "malformed enumeration token", (6, 9)),
    (wrap("#1=IFCX(1.5E);"), "malformed real exponent", (6, 9)),
    (wrap("#1=IFCX(0,\f1);"), "unexpected character '\\x0c'", (6, 11)),
    (_HEAD + "#1=IFCX('ab''", "unterminated string", (3, 9)),
    (wrap("#1=IFCX('one\ntwo',\n/* three\nfour */ 5 ?);"),
     "unexpected character '?'", (9, 11)),
    # The token after a record, or after its type name, is read before the
    # duplicate-id or type-name check, so that token's lexical error wins.
    (wrap("#1=IFCX(0);\n#1=IFCY(1);#0"), "entity id must be positive", (7, 12)),
    (wrap("#1=IFCX(0);\n#1=IFCY(1); /* open"), "unterminated comment", (7, 13)),
    (wrap("#1=IFCX(0);\n#1=IFCY(1);?"), "unexpected character '?'", (7, 12)),
    (wrap("#1=IFC-X?(0);"), "unexpected character '?'", (6, 9)),
]
_LEXICAL_ERROR_IDS = ["comment", "hash", "hash-zero", "hash-zeros", "id-zeros", "enum",
                      "exponent", "form-feed", "quote-at-end", "multi-line",
                      "duplicate-then-hash-zero", "duplicate-then-comment",
                      "duplicate-then-stray", "bad-type-then-stray"]


@pytest.mark.parametrize("text,message,position", _LEXICAL_ERRORS, ids=_LEXICAL_ERROR_IDS)
def test_lexical_error_positions(text, message, position):
    with pytest.raises(BimvecError) as exc_info:
        parse_step(text)
    assert str(exc_info.value) == "{} (line {}, column {})".format(message, *position)


def _nested(kind: str, levels: int) -> str:
    opening = "(" if kind == "aggregate" else "IFCLABEL("
    return wrap(f"#1=IFCX({opening * levels}1{')' * levels});")


@pytest.mark.parametrize("kind", ["aggregate", "typed"])
@pytest.mark.parametrize("levels", [MAX_NESTING + 1, 1000, 5000])
def test_deep_nesting_is_a_positioned_syntax_error(kind, levels):
    with pytest.raises(BimvecError) as exc_info:
        parse_step(_nested(kind, levels))
    # The error points at the opening of level MAX_NESTING + 1.
    opening_width = 1 if kind == "aggregate" else len("IFCLABEL(")
    column = len("#1=IFCX(") + MAX_NESTING * opening_width + 1
    assert str(exc_info.value) == \
        f"values nested deeper than {MAX_NESTING} levels (line 6, column {column})"


@pytest.mark.parametrize("kind", ["aggregate", "typed"])
def test_nesting_at_the_limit_parses(kind):
    value = parse_step(_nested(kind, MAX_NESTING)).entities[1].attributes[0]
    for _ in range(MAX_NESTING):
        value = value[0] if kind == "aggregate" else value.value
    assert value == 1


_LONG = "7" * 5000
_HEADER_TEXT = ("ISO-10303-21;\nHEADER;\nFILE_DESCRIPTION((''),'2;1');\nFILE_X(1,{});\n"
                "ENDSEC;\nDATA;\nENDSEC;\nEND-ISO-10303-21;\n")


_NUMBER_RULE_ERRORS = [
    (wrap(f"#1=IFCX(1,{_LONG});"), "integer has 5,000 digits, more than 640", (6, 11)),
    (wrap(f"#1=IFCX(-{_LONG});"), "integer has 5,000 digits, more than 640", (6, 9)),
    (wrap(f"#{_LONG}=IFCX(1);"), "integer has 5,000 digits, more than 640", (6, 1)),
    (wrap(f"#1=IFCX((#2,#{_LONG}));"), "integer has 5,000 digits, more than 640", (6, 13)),
    (wrap(f"#1=IFCX(1 {_LONG});"), "integer has 5,000 digits, more than 640", (6, 11)),
    (wrap(f"#1=IFCX(0);\n#1=IFCY(1);#{_LONG}"), "integer has 5,000 digits, more than 640",
     (7, 12)),
    (wrap("#1=IFCX(" + "9" * 641 + ");"), "integer has 641 digits, more than 640", (6, 9)),
    (wrap("#1=IFCX(IFCREAL(1.0E999));"), "real overflows to infinity", (6, 17)),
    (wrap("#1=IFCX(-1.0E999);"), "real overflows to infinity", (6, 9)),
    (_HEADER_TEXT.format("1.0E999"), "real overflows to infinity", (4, 10)),
    (_HEADER_TEXT.format("-1.0E999"), "real overflows to infinity", (4, 10)),
]
_NUMBER_RULE_ERROR_IDS = ["integer", "negative-integer", "entity-id", "reference",
                          "found-integer", "duplicate-then-reference", "one-digit-over",
                          "typed-real", "negative-real", "header-real", "header-negative-real"]


@pytest.mark.parametrize("text,message,position", _NUMBER_RULE_ERRORS,
                         ids=_NUMBER_RULE_ERROR_IDS)
def test_number_rule_is_a_positioned_syntax_error(text, message, position):
    with pytest.raises(BimvecError) as exc_info:
        parse_step(text)
    assert str(exc_info.value) == "{} (line {}, column {})".format(message, *position)


@pytest.mark.parametrize("text,message,position", _LEXICAL_ERRORS + _NUMBER_RULE_ERRORS + [
    (wrap("#1=IFCX(0);\n#1=IFCY(1);"), "duplicate entity id #1", (7, 1)),
    (wrap("#1=IFCX(0);\n#2=(IFCA(0) IFCB(1));"), "complex entity instances are not supported",
     (7, 4)),
], ids=_LEXICAL_ERROR_IDS + _NUMBER_RULE_ERROR_IDS + ["duplicate", "complex"])
def test_errors_keep_their_positions_when_the_record_pattern_reads(monkeypatch, text, message,
                                                                   position):
    """With a span of 1 the record pattern reads each record after
    ``DATA;`` first, and the token loop still gives each error."""
    monkeypatch.setattr(step_parser, "_SPAN", 1)
    with pytest.raises(BimvecError) as exc_info:
        parse_step(text)
    assert str(exc_info.value) == "{} (line {}, column {})".format(message, *position)


def test_number_rule_at_its_limits_parses():
    digits = "9" * step_parser.MAX_DIGITS
    model = parse_step(wrap(f"#{digits}=IFCX(-{digits},#{digits},1.7E308,-0.1E-999);"))
    assert model.entities[int(digits)].attributes == [-int(digits), EntityRef(int(digits)),
                                                      1.7e308, -0.0]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no integer string limit")
@pytest.mark.parametrize("limit", [0, 640])
def test_integer_limit_is_the_parsers_own(limit):
    """Whatever the interpreter's limit, the parser accepts MAX_DIGITS
    digits and rejects one more with its own positioned message."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        digits = "7" * step_parser.MAX_DIGITS
        assert parse_step(wrap(f"#1=IFCX({digits});")).entities[1].attributes == [int(digits)]
        with pytest.raises(BimvecError) as exc_info:
            parse_step(wrap(f"#1=IFCX({_LONG});"))
    finally:
        sys.set_int_max_str_digits(saved)
    assert str(exc_info.value) == "integer has 5,000 digits, more than 640 (line 6, column 9)"


def test_parse_error_names_the_file(tmp_path):
    path = tmp_path / "model.ifc"
    path.write_text(wrap("#1=IFCX(1,,2);"))
    with pytest.raises(BimvecError) as exc_info:
        parse_step_file(path)
    assert str(exc_info.value) == f"{path}: expected a value, found ',' (line 6, column 11)"


def test_duplicate_id_rejected():
    with pytest.raises(BimvecError, match=r"^duplicate entity id #1 \(line 7, column 1\)$"):
        parse_step(wrap("#1=IFCX(0);\n#1=IFCY(1);"))


def test_complex_instances_rejected_with_position():
    with pytest.raises(BimvecError, match=r"^complex entity instances are not supported "
                                          r"\(line 6, column 4\)$"):
        parse_step(wrap("#1=(IFCA(0) IFCB(1));"))


def test_invalid_bytes_are_malformed(tmp_path):
    path = tmp_path / "model.ifc"
    path.write_bytes(b"ISO-10303-21;\n\xff\xfe\x00 not utf8")
    with pytest.raises(BimvecError, match=rf"^{re.escape(str(path))}, line 2: not UTF-8 text$"):
        parse_step_file(path)


# Texts whose strings and comments hold ';', '/*' and "''", so that short
# spans are cut inside them; the last three end in an error.
_SPAN_EDGE_TEXTS = [
    wrap("/* a; b /* c; 'q' */\n#1=IFCX('s;t','/*;*/','it''s;',(1,2.5E-3,.T.));\n"
         "#2=IFCLABEL(IFCTEXT('x'';'), $, *, #1);/**/"),
    wrap("#1=IFCX('a;b');\n#1=IFCY('c;d');"),
    wrap("#1=IFCX('a;b');\n#2=IFCY('c;d); /* e; f"),
    wrap("#1=IFCX(0);\n/* never closed; 'x' ;"),
]


def _outcome(text: str):
    try:
        model = parse_step(text)
    except BimvecError as exc:
        return str(exc)
    return repr(model.header), repr(list(model.entities.values()))


def _edge_texts(data_dir) -> list[str]:
    texts = [path.read_text(encoding="utf-8") for path in sorted(data_dir.glob("*.ifc"))]
    return texts + _SPAN_EDGE_TEXTS


@pytest.mark.parametrize("span", [1, 7, 64])
def test_span_size_changes_no_model_or_error(monkeypatch, data_dir, span):
    texts = _edge_texts(data_dir)
    expected = [_outcome(text) for text in texts]
    assert sum(isinstance(outcome, str) for outcome in expected) == 3
    monkeypatch.setattr(step_parser, "_SPAN", span)
    assert [_outcome(text) for text in texts] == expected


@pytest.mark.parametrize("span", [1, 1 << 16])
def test_token_loop_alone_gives_the_same_model_or_error(monkeypatch, data_dir, span):
    texts = _edge_texts(data_dir)
    expected = [_outcome(text) for text in texts]
    monkeypatch.setattr(step_parser, "_SPAN", span)
    monkeypatch.setattr(step_parser, "_RECORD_RE", _NO_RECORD_RE)
    assert [_outcome(text) for text in texts] == expected


def _outcomes_with_and_without_scan(text: str) -> tuple:
    """The outcome of parsing ``text`` with the record pattern, and with
    the token loop alone. A span of 1 lets the pattern read every record
    after ``DATA;``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(step_parser, "_SPAN", 1)
        scanned = _outcome(text)
        patch.setattr(step_parser, "_RECORD_RE", _NO_RECORD_RE)
        return scanned, _outcome(text)


_DIGITS = "7" * step_parser.MAX_DIGITS
_DEEPEST = "(" * step_parser._SCAN_DEPTH + "1" + ")" * step_parser._SCAN_DEPTH


# Records at the record pattern's edges, and whether the pattern reads them;
# every other record goes to the token loop.
@pytest.mark.parametrize("record,scanned", [
    (f"#{_DIGITS}=IFCX(#{_DIGITS});", True),
    (f"#1=IFCX(#9{_DIGITS});", False),
    (f"#9{_DIGITS}=IFCX(1);", False),
    ("#01=IFCX(#002);", False),
    (f"#{'0' * 640}1=IFCX(1);", False),
    ("#1=IFCX(#0);", False),
    ("#0=IFCX(1);", False),
    ("#1=IFCX(#00);", False),
    (f"#1=IFCX({'9' * 200},-{'9' * 200});", True),
    (f"#1=IFCX({'9' * 201});", False),
    (f"#1=IFCX({_DIGITS});", False),
    (f"#1=IFCX(-{_DIGITS}9);", False),
    ("#1=IFCX(1.5E-99,-2.E+12,3e7);", True),
    ("#1=IFCX(1.5E-100);", False),
    ("#1=IFCX(1.0E308);", False),
    ("#1=IFCX(1.0E309);", False),
    (f"#1=IFCX({'9' * 200}.5E99);", True),
    (f"#1=IFCX({'9' * 201}.5);", False),
    (f"#1=IFCX({'9' * 400}.);", False),
    (f"#1=IFCX({_DEEPEST});", True),
    (f"#1=IFCX(({_DEEPEST}));", False),
    ("#1=IFCX(IFCLABEL('a'),(IFCREAL(1.5)));", True),
    ("#1=IFCX(IFCLINEINDEX((1,2)));", False),
    ("#1=IFCX(IFCX(IFCY(1)));", False),
    ("#1=IFCX(IFCLABEL());", False),
    ("#1=IFCX(IFCLABEL(1,2));", False),
    ("#1=IFCX(1 /* one */, 2);", False),
    ("#1=IFCX(1,\r\n 2)\t;", True),
    ("#1=ifcWall_2($);", True),
    ("#1=IFC-X($);", False),
    ("#1=IFCX(IFC-LABEL('a'));", True),
    ("#1=IFCX((1,),2);", False),
    ("#1=IFCX((,1));", False),
    ("#1=IFCX(( ),'it''s;',.T.,*,$);", True),
    ("#1=IFCX('open);", False),
    ("#1=IFCX(1)", False),
], ids=lambda value: value if isinstance(value, bool) else None)
def test_record_pattern_edges_agree_with_token_loop(record, scanned):
    assert bool(step_parser._RECORD_RE.fullmatch(record)) == scanned
    text = wrap(record + "\n#2=IFCY(#1);")
    with_scan, without_scan = _outcomes_with_and_without_scan(text)
    assert with_scan == without_scan
    assert isinstance(with_scan, str) == (record in _FAILING_EDGES)


_FAILING_EDGES = {f"#1=IFCX(-{_DIGITS}9);", f"#1=IFCX(#9{_DIGITS});",
                  f"#9{_DIGITS}=IFCX(1);", f"#{'0' * 640}1=IFCX(1);", "#1=IFCX(#0);",
                  "#0=IFCX(1);", "#1=IFCX(#00);", "#1=IFCX(1.0E309);",
                  f"#1=IFCX({'9' * 400}.);", "#1=IFCX(IFCLABEL());",
                  "#1=IFCX(IFCLABEL(1,2));", "#1=IFC-X($);", "#1=IFCX((1,),2);",
                  "#1=IFCX((,1));", "#1=IFCX('open);", "#1=IFCX(1)"}


# ---------------------------------------------------------------------------
# validate_references
# ---------------------------------------------------------------------------

def test_reference_closed_model():
    model = parse_step(wrap("#1=IFCX(#2);\n#2=IFCY(0);"))
    assert validate_references(model) == []


def test_single_dangling_reference():
    model = parse_step(wrap("#1=IFCX(#9);"))
    assert validate_references(model) == [(1, 9)]


def test_dangling_references_in_ascending_order():
    model = parse_step(wrap("#2=IFCX((#9,1));\n#1=IFCY(IFCREF(#9));"))
    assert validate_references(model) == [(1, 9), (2, 9)]


def test_dangling_fixture_expected_pairs(data_dir):
    model = parse_step_file(data_dir / "dangling.ifc")
    assert validate_references(model) == [(10, 99), (11, 98)]


# ---------------------------------------------------------------------------
# round trip and totality over the fixture corpus
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_fixture_round_trip(data_dir, name):
    model = parse_step_file(data_dir / name)
    again = parse_step(serialize_step(model))
    assert again.entities == model.entities
    assert again.header == model.header


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_fixture_entity_count_matches_independent_scan(data_dir, name):
    raw = (data_dir / name).read_text(encoding="utf-8")
    model = parse_step_file(data_dir / name)
    assert len(model) == _independent_record_count(raw)


def _independent_record_count(raw: str) -> int:
    """Count '#id=' records with a scanner that shares no code with the
    parser: strip comments and strings character-wise, then regex-count."""
    out = []
    i = 0
    in_string = False
    while i < len(raw):
        ch = raw[i]
        if in_string:
            if ch == "'" and i + 1 < len(raw) and raw[i + 1] == "'":
                i += 2
                continue
            if ch == "'":
                in_string = False
            i += 1
            continue
        if ch == "'":
            in_string = True
            i += 1
            continue
        if ch == "/" and raw[i:i + 2] == "/*":
            end = raw.index("*/", i)
            i = end + 2
            continue
        out.append(ch)
        i += 1
    return len(re.findall(r"#\d+\s*=", "".join(out)))


def test_parse_is_deterministic(data_dir):
    raw = (data_dir / "two_space.ifc").read_text(encoding="utf-8")
    first = parse_step(raw)
    second = parse_step(raw)
    assert first.entities == second.entities
    assert first.header == second.header


# ---------------------------------------------------------------------------
# property: serialization round-trips arbitrary value trees
# ---------------------------------------------------------------------------

_type_names = st.from_regex(r"[A-Z][A-Z0-9_]{0,10}", fullmatch=True)

_scalars = st.one_of(
    st.integers(min_value=-10**12, max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=20),
    st.builds(EnumToken, _type_names),
    st.builds(EntityRef, st.integers(min_value=1, max_value=99999)),
    st.none(),
    st.just(DERIVED),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.builds(TypedValue, _type_names, children),
    ),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_values, max_size=6))
def test_value_round_trip_property(attributes):
    model = StepModel(entities={1: StepEntity(1, "IFCTEST", list(attributes))})
    again = parse_step(serialize_step(model))
    assert again.entities == model.entities


def _reals(value: StepValue):
    if isinstance(value, float):
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from _reals(item)
    elif isinstance(value, TypedValue):
        yield from _reals(value.value)


_STEP_REAL = re.compile(r"[+-]?[0-9]+\.[0-9]*(E[+-]?[0-9]+)?")


@pytest.mark.parametrize("value,text", [
    (1e16, "1.E+16"), (1.5e-07, "1.5E-07"), (1e-05, "1.E-05"), (-0.0, "-0.0"), (0.5, "0.5"),
    (1.7976931348623157e308, "1.7976931348623157E+308"),
])
def test_reals_are_written_as_step_reals(value, text):
    model = StepModel(entities={1: StepEntity(1, "IFCX", [value])})
    assert serialize_step(model).split("#1=IFCX(")[1].split(")")[0] == text


@settings(max_examples=60, deadline=None)
@given(st.lists(_values, max_size=6))
def test_serialized_reals_match_the_real_syntax(attributes):
    """ISO 10303-21 writes a REAL with a '.' in its mantissa and an
    upper-case 'E'; each real reads back equal."""
    for value in _reals(attributes):
        text = serialize_step(StepModel(entities={1: StepEntity(1, "IFCX", [value])}))
        assert _STEP_REAL.fullmatch(text.split("#1=IFCX(")[1].split(")")[0])
        assert parse_step(text).entities[1].attributes == [value]


_MUTATIONS = "()',#.;$*/ eE-"


@settings(max_examples=60, deadline=None)
@given(st.lists(_values, min_size=1, max_size=4), st.data())
def test_mutated_records_read_alike_with_and_without_scan(attributes, data):
    """Each deletion or repetition of one character in a serialized record,
    and each of ``_MUTATIONS`` in place of one of its characters, gives the
    same model or error whether the record pattern reads the records or the
    token loop does. Each value is a record of its own, so that one value
    that the pattern leaves to the token loop leaves it only its record."""
    model = StepModel(entities={i: StepEntity(i, "IFCTEST", [value])
                                for i, value in enumerate(attributes, start=1)})
    records = serialize_step(model).split("DATA;\n")[1].split("\nENDSEC;")[0].split("\n")
    which = data.draw(st.integers(0, len(records) - 1))
    record = records[which]
    at = data.draw(st.integers(0, len(record) - 1))
    mutants = [record[:i] + record[i + 1:] for i in range(len(record))]
    mutants += [record[:i] + record[i] + record[i:] for i in range(len(record))]
    mutants += [record[:at] + swap + record[at + 1:] for swap in _MUTATIONS]
    for mutant in mutants:
        text = "\n".join(records[:which] + [mutant] + records[which + 1:] + ["#99=IFCY(#1);"])
        with_scan, without_scan = _outcomes_with_and_without_scan(wrap(text))
        assert with_scan == without_scan, mutant
