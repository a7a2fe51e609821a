"""Parser for the ISO 10303-21 clear-text encoding that carries IFC models.

The parser is schema-agnostic: any entity type token is accepted and no
EXPRESS validation is attempted. It covers the full value grammar (integers,
reals, strings with ``''`` escapes, enumeration tokens, entity references,
typed values, nested aggregates, ``$`` and ``*`` markers) and reports
positioned errors for anything it cannot read. ``\\X\\``/``\\S\\`` control
directives inside strings are passed through verbatim.

One compiled regex tokenizes the text as a stream. Filler between tokens is
exactly space, tab, CR, LF and ``/* */`` comments; any other character there,
such as a form feed or a non-ASCII letter, is an error. Outside strings and
comments the tokens are ASCII: keywords ``[A-Za-z_][A-Za-z0-9_-]*`` and digits
``0-9``. Tokens carry character offsets; the 1-based line and column of an
error are computed from its offset only when the error is raised.

Complex entity instances (``#id=(A(...) B(...));``) are not supported and
raise a :class:`~bimvec.errors.BimvecError` ending ``(line L, column C)``.
"""

from __future__ import annotations

import enum
import logging
import re
from dataclasses import dataclass, field
from typing import Iterator, Union

from .errors import BimvecError

logger = logging.getLogger(__name__)

_TYPE_NAME_RE = re.compile(r"[A-Z0-9_]+")
# Deepest nesting of aggregates and typed values inside one record; the
# parser recurses once per level, so this keeps it far from Python's limit.
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# Value model
# ---------------------------------------------------------------------------

class Marker(enum.Enum):
    """Non-value attribute markers: ``*`` (derived in a subtype)."""

    DERIVED = "*"


DERIVED = Marker.DERIVED


@dataclass(frozen=True)
class EntityRef:
    """Reference to another entity instance (``#123``)."""

    entity_id: int

    def __post_init__(self):
        if self.entity_id <= 0:
            raise ValueError(f"entity id must be positive, got {self.entity_id}")


@dataclass(frozen=True)
class EnumToken:
    """Enumeration literal, the text between dots (``.T.`` -> ``T``)."""

    name: str


@dataclass(frozen=True)
class TypedValue:
    """A value wrapped in a defined-type constructor, e.g. ``IFCBOOLEAN(.T.)``."""

    type_name: str
    value: "StepValue"


# A parsed attribute value. ``None`` is the unset marker ``$``; aggregates
# are plain lists and may nest arbitrarily.
StepValue = Union[
    int, float, str, EntityRef, EnumToken, TypedValue, None, Marker, list
]


@dataclass(frozen=True)
class StepEntity:
    """One ``#id=TYPE(...)`` record from the DATA section."""

    id: int
    type_name: str
    attributes: list

    def __post_init__(self):
        if self.id <= 0:
            raise ValueError(f"entity id must be positive, got {self.id}")
        if not _TYPE_NAME_RE.fullmatch(self.type_name):
            raise ValueError(f"invalid entity type name {self.type_name!r}")


@dataclass
class StepModel:
    """Parsed STEP file: header records plus an id-indexed entity table."""

    header: dict[str, list] = field(default_factory=dict)
    entities: dict[int, StepEntity] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entities)

    def __contains__(self, entity_id: int) -> bool:
        return entity_id in self.entities

    def in_id_order(self) -> Iterator[StepEntity]:
        """Iterate entities in ascending id order regardless of file order."""
        for entity_id in sorted(self.entities):
            yield self.entities[entity_id]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# One alternative per token kind; ``error`` catches the first character of
# anything else. The string pattern has no backtracking path that could close
# a string early, so ``'ab''`` at end of input stays unterminated.
_TOKEN_RE = re.compile(r"""
    (?P<filler>(?:[ \t\r\n]|/\*.*?\*/)+)
  | (?P<punct>[(),;=$*])
  | (?P<string>'[^']*(?:''[^']*)*'(?!'))
  | (?P<ref>\#[0-9]+)
  | (?P<enum>\.[A-Za-z0-9_]+\.)
  | (?P<number>[+-]?[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]*)?)
  | (?P<keyword>[A-Za-z_][A-Za-z0-9_-]*)
  | (?P<error>.)
""", re.VERBOSE | re.DOTALL)

_LEX_ERRORS = {
    "'": "unterminated string",
    "#": "expected digits after '#'",
    ".": "malformed enumeration token",
}


def _syntax_error(text: str, message: str, offset: int) -> BimvecError:
    """``message`` with the 1-based line and column of a character offset,
    computed only when an error is reported."""
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return BimvecError(f"{message} (line {line}, column {column})")


def _tokenize(text: str) -> Iterator[tuple[str, object, int]]:
    """Yield ``(kind, value, offset)`` for each token, then ``("eof", None,
    len(text))``. A punctuation character is its own kind; keywords and
    enumeration names are upper-cased and strings unescaped."""
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "filler":
            continue
        token = match.group()
        offset = match.start()
        if kind == "punct":
            yield token, token, offset
        elif kind == "keyword":
            yield kind, token.upper(), offset
        elif kind == "ref":
            entity_id = int(token[1:])
            if entity_id == 0:
                raise _syntax_error(text, "entity id must be positive", offset)
            yield kind, entity_id, offset
        elif kind == "number":
            if token[-1] in "eE+-":
                raise _syntax_error(text, "malformed real exponent", offset)
            if "." in token or "e" in token or "E" in token:
                yield kind, float(token), offset
            else:
                yield kind, int(token), offset
        elif kind == "string":
            yield kind, token[1:-1].replace("''", "'"), offset
        elif kind == "enum":
            yield kind, token[1:-1].upper(), offset
        elif text.startswith("/*", offset):
            raise _syntax_error(text, "unterminated comment", offset)
        else:
            message = _LEX_ERRORS.get(token, f"unexpected character {token!r}")
            raise _syntax_error(text, message, offset)
    yield "eof", None, len(text)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    """Recursive descent over the token stream with one token of lookahead
    (``_kind``, ``_value``, ``_offset``)."""

    def __init__(self, text: str):
        self._text = text
        self._tokens = _tokenize(text)
        self._value = None
        self._advance()

    def _advance(self):
        """Move to the next token and return the value of the current one."""
        value = self._value
        self._kind, self._value, self._offset = next(self._tokens)
        return value

    def _error(self, message: str) -> BimvecError:
        return _syntax_error(self._text, message, self._offset)

    def _describe(self) -> str:
        if self._kind == "eof":
            return "end of input"
        return repr(self._value)

    def _accept(self, keyword: str) -> bool:
        """Consume ``KEYWORD;`` if the current token is ``keyword``."""
        if self._kind != "keyword" or self._value != keyword:
            return False
        self._advance()
        self._expect(";")
        return True

    def _expect(self, char: str) -> None:
        if self._kind != char:
            raise self._error(f"expected {char!r}, found {self._describe()}")
        self._advance()

    def parse_file(self) -> StepModel:
        if not self._accept("ISO-10303-21"):
            raise BimvecError("missing ISO-10303-21 sentinel at start of file")

        model = StepModel()
        saw_data = False
        while True:
            if self._accept("HEADER"):
                self._parse_header_section(model)
            elif self._accept("DATA"):
                self._parse_data_section(model)
                saw_data = True
            elif self._accept("END-ISO-10303-21"):
                break
            elif self._kind == "eof":
                raise BimvecError("missing END-ISO-10303-21 sentinel")
            else:
                raise self._error(f"unexpected {self._describe()} at file level")
        if not saw_data:
            raise BimvecError("file has no DATA section")
        if self._kind != "eof":
            raise self._error(f"unexpected {self._describe()} after end sentinel")
        return model

    def _parse_header_section(self, model: StepModel) -> None:
        while not self._accept("ENDSEC"):
            if self._kind != "keyword":
                raise self._error(
                    f"expected header record, found {self._describe()}"
                )
            keyword = self._advance()
            self._expect("(")
            values = self._parse_value_list()
            self._expect(")")
            self._expect(";")
            model.header[keyword] = values

    def _parse_data_section(self, model: StepModel) -> None:
        while not self._accept("ENDSEC"):
            if self._kind != "ref":
                raise self._error(
                    f"expected '#' instance record, found {self._describe()}"
                )
            ref_offset = self._offset
            entity_id = self._advance()
            self._expect("=")
            if self._kind == "(":
                raise self._error("complex entity instances are not supported")
            if self._kind != "keyword":
                raise self._error(f"expected entity type, found {self._describe()}")
            type_offset = self._offset
            type_name = self._advance()
            if not _TYPE_NAME_RE.fullmatch(type_name):
                raise _syntax_error(self._text,
                                    f"invalid entity type name {type_name!r}",
                                    type_offset)
            self._expect("(")
            attributes = self._parse_value_list()
            self._expect(")")
            self._expect(";")
            if entity_id in model.entities:
                raise _syntax_error(self._text, f"duplicate entity id #{entity_id}",
                                    ref_offset)
            model.entities[entity_id] = StepEntity(entity_id, type_name, attributes)

    def _parse_value_list(self, depth: int = 0) -> list:
        if self._kind == ")":
            return []
        values = [self._parse_value(depth)]
        while self._kind == ",":
            self._advance()
            values.append(self._parse_value(depth))
        return values

    def _parse_value(self, depth: int) -> StepValue:
        """``depth`` counts the aggregates and typed values around it."""
        kind = self._kind
        if kind in ("(", "keyword") and depth == MAX_NESTING:
            raise self._error(f"values nested deeper than {MAX_NESTING} levels")
        if kind == "number" or kind == "string":
            return self._advance()
        if kind == "ref":
            return EntityRef(self._advance())
        if kind == "enum":
            return EnumToken(self._advance())
        if kind == "$":
            self._advance()
            return None
        if kind == "*":
            self._advance()
            return DERIVED
        if kind == "(":
            self._advance()
            values = self._parse_value_list(depth + 1)
            self._expect(")")
            return values
        if kind == "keyword":
            type_name = self._advance()
            self._expect("(")
            inner = self._parse_value(depth + 1)
            self._expect(")")
            return TypedValue(type_name, inner)
        raise self._error(f"expected a value, found {self._describe()}")


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def parse_step(source: bytes | str) -> StepModel:
    """Parse a complete STEP file into a :class:`StepModel`.

    ``source`` is the file content as bytes (decoded as UTF-8) or text.
    Raises :class:`BimvecError` for missing sentinels or sections and, with
    a 1-based ``(line L, column C)`` suffix, for lexical and grammatical
    problems and a repeated id.
    """
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BimvecError(f"file is not valid UTF-8: {exc}") from None
    return _Parser(source).parse_file()


def parse_step_file(path) -> StepModel:
    """Read and parse a ``.ifc`` file from disk."""
    with open(path, "rb") as fp:
        return parse_step(fp.read())


def validate_references(model: StepModel) -> list[tuple[int, int]]:
    """Return every dangling (referencing id, missing id) pair.

    Pairs are unique and sorted ascending; an empty list means the model is
    reference-closed.
    """
    dangling: set[tuple[int, int]] = set()
    for entity in model.in_id_order():
        for ref_id in _iter_reference_ids(entity.attributes):
            if ref_id not in model.entities:
                dangling.add((entity.id, ref_id))
    return sorted(dangling)


def _iter_reference_ids(value: StepValue) -> Iterator[int]:
    if isinstance(value, EntityRef):
        yield value.entity_id
    elif isinstance(value, list):
        for item in value:
            yield from _iter_reference_ids(item)
    elif isinstance(value, TypedValue):
        yield from _iter_reference_ids(value.value)


# ---------------------------------------------------------------------------
# Serialization (round-trip support)
# ---------------------------------------------------------------------------

def serialize_step(model: StepModel) -> str:
    """Render a model back to STEP text.

    Re-parsing the output yields an entity table equal field-for-field to
    the input model (strings compared after unescaping).
    """
    lines = ["ISO-10303-21;", "HEADER;"]
    for keyword, values in model.header.items():
        lines.append(f"{keyword}({_format_values(values)});")
    lines.append("ENDSEC;")
    lines.append("DATA;")
    for entity in model.in_id_order():
        lines.append(
            f"#{entity.id}={entity.type_name}({_format_values(entity.attributes)});"
        )
    lines.append("ENDSEC;")
    lines.append("END-ISO-10303-21;")
    return "\n".join(lines) + "\n"


def _format_values(values: list) -> str:
    return ",".join(_format_value(v) for v in values)


def _format_value(value: StepValue) -> str:
    if value is None:
        return "$"
    if value is DERIVED:
        return "*"
    if isinstance(value, bool):
        # bools never come out of the parser; guard against accidental input
        raise TypeError("boolean is not a STEP value; use EnumToken('T'/'F')")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_real(value)
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, EnumToken):
        return f".{value.name}."
    if isinstance(value, EntityRef):
        return f"#{value.entity_id}"
    if isinstance(value, TypedValue):
        return f"{value.type_name}({_format_value(value.value)})"
    if isinstance(value, list):
        return f"({_format_values(value)})"
    raise TypeError(f"cannot serialize {type(value).__name__} as a STEP value")


def _format_real(value: float) -> str:
    text = repr(value)
    # Guarantee the literal re-parses as a real, not an integer.
    if "." not in text and "e" not in text and "E" not in text:
        text += "."
    return text
