"""STEP parser tests: hand-parsed expectations, round trips, positioned
errors, and an independent record scanner."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimvec.errors import BimvecError
from bimvec.step_parser import (
    DERIVED,
    MAX_NESTING,
    EntityRef,
    EnumToken,
    StepEntity,
    StepModel,
    TypedValue,
    parse_step,
    parse_step_file,
    serialize_step,
    validate_references,
)

from conftest import wrap

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
    model = parse_step(wrap("#3=IFCB(0);\n#1=IFCA(0);\n#2=IFCC(0);"))
    assert [e.id for e in model.in_id_order()] == [1, 2, 3]


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


@pytest.mark.parametrize("text,message,position", [
    (wrap("#1=IFCX(0);\n  /* never closed"), "unterminated comment", (7, 3)),
    (wrap("#1=IFCX(#);"), "expected digits after '#'", (6, 9)),
    (wrap("#1=IFCX(#0);"), "entity id must be positive", (6, 9)),
    (wrap("#1=IFCX(.T,1);"), "malformed enumeration token", (6, 9)),
    (wrap("#1=IFCX(1.5E);"), "malformed real exponent", (6, 9)),
    (wrap("#1=IFCX(0,\f1);"), "unexpected character '\\x0c'", (6, 11)),
    (_HEAD + "#1=IFCX('ab''", "unterminated string", (3, 9)),
    (wrap("#1=IFCX('one\ntwo',\n/* three\nfour */ 5 ?);"),
     "unexpected character '?'", (9, 11)),
], ids=["comment", "hash", "hash-zero", "enum", "exponent", "form-feed",
        "quote-at-end", "multi-line"])
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


def test_duplicate_id_rejected():
    with pytest.raises(BimvecError, match=r"^duplicate entity id #1 \(line 7, column 1\)$"):
        parse_step(wrap("#1=IFCX(0);\n#1=IFCY(1);"))


def test_complex_instances_rejected_with_position():
    with pytest.raises(BimvecError, match=r"^complex entity instances are not supported "
                                          r"\(line 6, column 4\)$"):
        parse_step(wrap("#1=(IFCA(0) IFCB(1));"))


def test_invalid_bytes_are_malformed():
    with pytest.raises(BimvecError, match="^file is not valid UTF-8: 'utf-8' codec can't "
                                          "decode byte 0xff in position 0: invalid start byte$"):
        parse_step(b"\xff\xfe\x00 not utf8")


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
    raw = (data_dir / "two_space.ifc").read_bytes()
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
