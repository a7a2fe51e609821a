"""Parser for the ISO 10303-21 clear-text encoding that carries IFC models.

The parser is schema-agnostic: any entity type token is accepted and no
EXPRESS validation is attempted. It covers the full value grammar (integers,
reals, strings with ``''`` escapes, enumeration tokens, entity references,
typed values, nested aggregates, ``$`` and ``*`` markers); ``\\X\\``/``\\S\\``
control directives inside strings are passed through verbatim.

It is the only checker of STEP values, so :class:`StepEntity` and
:class:`EntityRef` are plain records. Ids and references are positive, type
names are ``[A-Z0-9_]+`` once upper-cased, values nest at most
``MAX_NESTING`` deep, and one number rule holds: an integer, id or reference
has at most ``MAX_DIGITS`` digits, and a real value is finite. Anything else,
complex entity instances (``#id=(A(...) B(...));``) included, raises a
:class:`~bimvec.errors.BimvecError`, ending ``(line L, column C)`` unless it
is a missing sentinel or section.

Filler between tokens is exactly space, tab, CR, LF and ``/* */`` comments;
any other character there, such as a form feed or a non-ASCII letter, is an
error. Outside strings and comments the tokens are ASCII: keywords
``[A-Za-z_][A-Za-z0-9_-]*`` and digits ``0-9``.

DATA records are checked by one compiled record pattern, built from the
token sub-patterns, that ``finditer`` runs in C. It matches only records
that the token loop reads without error, and a matched record keeps its
value text undecoded until its ``attributes`` are first read. Any statement
that it does not match goes to the token loop, which is the only decoder and
the only source of errors: the header, comments inside or before a record,
aggregates nested deeper than the pattern covers, ids with a leading zero,
numbers near the number rule's limits, repeated ids, and every error. The token loop reads about
1 KiB at a time, cut after a ``;``; one ``findall`` of a compiled regex turns
that span into plain token strings, and one loop reads them, nesting values
on a stack. A span whose problem may come from its cut is read again, twice
as long. An error's 1-based line and column are computed only when it is
raised.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Union

from .errors import BimvecError
from .fileio import read_text

_TYPE_NAME_RE = re.compile(r"[A-Z0-9_]+")
# Deepest nesting of aggregates and typed values inside one record;
# serialize_step and reference_ids recurse once per level, so this keeps them
# far from Python's limit.
MAX_NESTING = 100
# Most digits in an integer, id or reference: the lowest limit that
# sys.set_int_max_str_digits accepts, so int() reads them under any limit.
MAX_DIGITS = 640


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
StepValue = Union[int, float, str, EntityRef, EnumToken, TypedValue, None, Marker, list]


class StepEntity:
    """One ``#id=TYPE(...)`` record from the DATA section. A record that the
    record pattern matched comes with its value text, ``(...)``, as ``body``
    and None as ``attributes``; the token loop decodes it when
    ``attributes`` is first read."""

    __slots__ = ("id", "type_name", "_attributes", "_body")

    def __init__(self, id: int, type_name: str, attributes: list | None,
                 body: str | None = None) -> None:
        self.id, self.type_name, self._attributes, self._body = id, type_name, attributes, body

    @property
    def attributes(self) -> list:
        if self._attributes is None:
            self._attributes, self._body = _decode(self._body), None
        return self._attributes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepEntity):
            return NotImplemented
        return ((self.id, self.type_name, self.attributes)
                == (other.id, other.type_name, other.attributes))

    def __repr__(self) -> str:
        return (f"StepEntity(id={self.id!r}, type_name={self.type_name!r}, "
                f"attributes={self.attributes!r})")


@dataclass
class StepModel:
    """Parsed STEP file: header records plus an id-indexed entity table."""

    header: dict[str, list] = field(default_factory=dict)
    entities: dict[int, StepEntity] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entities)

    def of_types(self, type_names: Iterable[str]) -> list[StepEntity]:
        """The entities of the types ``type_names``, in ascending id order
        regardless of file order."""
        wanted = set(type_names)
        found = [entity for entity in self.entities.values() if entity.type_name in wanted]
        found.sort(key=attrgetter("id"))
        return found


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Token sub-patterns, shared by the token and record patterns. The string
# pattern has no backtracking path that could close a string early, so
# ``'ab''`` at end of input stays unterminated.
_SPACE = r"[ \t\r\n]*"
_STRING = r"'[^']*(?:''[^']*)*'(?!')"
_ENUM = r"\.[A-Za-z0-9_]+\."
_KEYWORD = r"[A-Za-z_][A-Za-z0-9_-]*"

# Filler is folded into the match before each token, the one group: punct,
# string, reference, enumeration, number, keyword, the empty end of the text
# searched, or one character of anything else.
_TOKEN_RE = re.compile(rf"""
    {_SPACE}(?:/\*.*?\*/{_SPACE})*
    ( [(),;=$*] | {_STRING} | \#[0-9]+ | {_ENUM}
    | [+-]?[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]*)? | {_KEYWORD} | \Z | . )
""", re.VERBOSE | re.DOTALL)


def _record_pattern(depth: int) -> str:
    """A DATA record that the token loop reads without error, its filler
    only spaces, tabs and line ends, as ``#(id)=(type)(body);``, with
    aggregates nested at most ``depth`` deep in the body and typed values
    only around a plain value. Ids have no leading zero, and a number has
    at most 200 digits before its '.' and 2 in its exponent, so it keeps
    the number rule and a real is below 1e299."""
    entity_id = rf"[1-9][0-9]{{0,{MAX_DIGITS - 1}}}"
    plain = (rf"(?:[$*]|\#{entity_id}|{_STRING}|{_ENUM}"
             rf"|[+-]?[0-9]{{1,200}}(?:\.[0-9]*)?(?:[eE][+-]?[0-9]{{1,2}})?)")
    base = rf"(?:{plain}|{_KEYWORD}{_SPACE}\({_SPACE}{plain}{_SPACE}\))"
    value = base
    for _ in range(depth):
        value = rf"(?:{base}|{_list_of(value)})"
    return (rf"{_SPACE}\#({entity_id}){_SPACE}={_SPACE}([A-Za-z_][A-Za-z0-9_]*){_SPACE}"
            rf"({_list_of(value)}){_SPACE};")


def _list_of(value: str) -> str:
    """An aggregate of ``value``s: each ends at a ',' that another follows,
    or at the ')'. The pattern names ``value`` once, so that each nesting
    level adds to its length instead of multiplying it."""
    return rf"\({_SPACE}(?:{value}{_SPACE}(?:,{_SPACE}(?!\))|(?=\))))*\)"


_SCAN_DEPTH = 2  # IFC nests aggregates 2 deep in a record, as in ((x,y),(x,y))
# One record, or the empty string where no record begins.
_RECORD_RE = re.compile(_record_pattern(_SCAN_DEPTH) + "|")
_REFERENCE_RE = re.compile(rf"{_STRING}|#([0-9]+)")  # a string, or a reference's digits
_SPAN = 1 << 10  # characters the token loop reads at a time; a span ends after the next ';'
_KEYWORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NUMBER_START = frozenset("+-0123456789")
_INFINITIES = frozenset((float("inf"), float("-inf")))
_LEX_ERRORS = {"'": "unterminated string", "#": "expected digits after '#'",
               ".": "malformed enumeration token"}

# The sections, the ``KEYWORD;`` statements that move between them, and each
# section's error for any other statement.
_START, _FILE, _HEADER, _DATA, _END = range(5)
_NEXT_SECTION = {(_START, "ISO-10303-21"): _FILE, (_FILE, "HEADER"): _HEADER,
                 (_FILE, "DATA"): _DATA, (_FILE, "END-ISO-10303-21"): _END,
                 (_HEADER, "ENDSEC"): _FILE, (_DATA, "ENDSEC"): _FILE}
_STATEMENT_ERRORS = ("missing ISO-10303-21 sentinel at start of file",
                     "unexpected {} at file level", "expected header record, found {}",
                     "expected '#' instance record, found {}",
                     "unexpected {} after end sentinel")


class _Fault(Exception):
    """``(message, at[, lexed])``: a problem at token ``at`` of a span (None:
    no position), which ``{}`` in ``message`` names. The last argument is the
    furthest token read when it was found; if that is no token, it wins."""


def _fault_error(text: str, start: int, end: int, tokens: list, fault: _Fault) -> BimvecError:
    """The error for a fault in the span ``text[start:end]``, with the 1-based
    line and column of its token, computed only now."""
    message, at, lexed = fault.args[0], fault.args[1], fault.args[-1]
    matches = list(itertools.islice(_TOKEN_RE.finditer(text, start, end), lexed + 1))
    offset, token = matches[lexed].start(1), tokens[lexed]
    if len(token) == 1 and not re.fullmatch(r"[(),;=$*\w]", token, re.ASCII):
        message = ("unterminated comment" if text.startswith("/*", offset)
                   else _LEX_ERRORS.get(token, f"unexpected character {token!r}"))
    elif token[:1] in _NUMBER_START and token[-1] in "eE+-":
        message = "malformed real exponent"
    else:
        try:
            if token[:1] == "#":
                _entity_id(token)  # a bad id is the error wherever it was read
            if at is None:
                return BimvecError(message)
            found = tokens[at]
            head = found[:1]
            value = (found[1:-1].replace("''", "'") if head == "'"
                     else found[1:-1].upper() if head == "."
                     else _number(found.lstrip("#")) if head == "#" or head in _NUMBER_START
                     else found.upper())
            message = message.format(repr(value) if found else "end of input")
            offset = matches[at].start(1)
        except ValueError as exc:  # the number rule, at the token read last
            message = str(exc)
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return BimvecError(f"{message} (line {line}, column {column})")


def _number(token: str) -> int | float:
    """The value of a number token: a real if it has a '.' or an exponent."""
    return float(token) if "." in token or "e" in token or "E" in token else _integer(token)


def _integer(digits: str) -> int:
    """The number rule for integers: at most ``MAX_DIGITS`` digits, a sign aside."""
    if len(digits) > MAX_DIGITS and (count := len(digits.lstrip("+-"))) > MAX_DIGITS:
        raise ValueError(f"integer has {count:,} digits, more than {MAX_DIGITS}")
    return int(digits)


def _entity_id(token: str) -> int:
    """The id that a ``#`` token names, which must be positive."""
    entity_id = _integer(token[1:])
    if not entity_id:
        raise ValueError("entity id must be positive")
    return entity_id


def _read_span(tokens: list, model: StepModel, section: int, saw_data: bool,
               final: bool, type_names: dict) -> tuple[int, bool]:
    """Read one span's statements into ``model``; return the section and the
    saw-DATA flag at its end. Only the ``final`` span must end the file."""
    entities = model.entities
    i = 0
    while True:
        token = tokens[i]
        head = token[:1]
        if head == "#" and section == _DATA:
            try:
                entity_id = _entity_id(token)
            except ValueError:
                raise _Fault(_STATEMENT_ERRORS[_DATA], i) from None
            if tokens[i + 1] != "=":
                raise _Fault("expected '=', found {}", i + 1)
            type_name = type_names.get(tokens[i + 2])
            if type_name is None:  # the first record of this type
                type_token = tokens[i + 2]
                if type_token == "(":
                    raise _Fault("complex entity instances are not supported", i + 2)
                if type_token[:1] not in _KEYWORD_START:
                    raise _Fault("expected entity type, found {}", i + 2)
                type_name = type_token.upper()
                if not _TYPE_NAME_RE.fullmatch(type_name):
                    raise _Fault(f"invalid entity type name {type_name!r}", i + 2, i + 3)
                type_names[type_token] = type_name
            attributes, end = _read_values(tokens, i + 3)
            if tokens[end] != ";":
                raise _Fault("expected ';', found {}", end)
            if entity_id in entities:
                raise _Fault(f"duplicate entity id #{entity_id}", i, end + 1)
            entities[entity_id] = StepEntity(entity_id, type_name, attributes)
            i = end + 1
            continue
        if not token and (not final or section == _END):
            return section, saw_data
        keyword = token.upper() if head in _KEYWORD_START else None
        following = _NEXT_SECTION.get((section, keyword))
        if following is not None:
            if tokens[i + 1] != ";":
                raise _Fault("expected ';', found {}", i + 1)
            section, saw_data, i = following, saw_data or following == _DATA, i + 2
            if section == _END and not saw_data:
                raise _Fault("file has no DATA section", None, i)
        elif section == _HEADER and keyword:
            model.header[keyword], i = _read_values(tokens, i + 1)
            if tokens[i] != ";":
                raise _Fault("expected ';', found {}", i)
            i += 1
        elif section == _FILE and not token:
            raise _Fault("missing END-ISO-10303-21 sentinel", None, i)
        else:
            raise _Fault(_STATEMENT_ERRORS[section], None if section == _START else i, i)


def _read_values(tokens: list, i: int) -> tuple[list, int]:
    """The values of the list that ``tokens[i]`` must open and the index of
    the token after its ``)``. Enclosing aggregates and typed values wait on
    a stack with their type name, None for an aggregate."""
    if tokens[i] != "(":
        raise _Fault("expected '(', found {}", i)
    values, stack, type_name = [], [], None
    i += 1
    try:
        while True:
            token = tokens[i]
            head = token[0]
            if head == "$":
                values.append(None)
            elif head == "#":
                values.append(EntityRef(_entity_id(token)))
            elif head in _NUMBER_START:
                value = _number(token)
                if value in _INFINITIES:
                    raise _Fault("real overflows to infinity", i)
                values.append(value)
            elif head == "'" and len(token) > 1:
                values.append(token[1:-1].replace("''", "'"))
            elif head == "(" or head in _KEYWORD_START:
                if len(stack) == MAX_NESTING:
                    raise _Fault(f"values nested deeper than {MAX_NESTING} levels", i)
                typed = head != "("
                if typed and tokens[i + 1] != "(":
                    raise _Fault("expected '(', found {}", i + 1)
                stack.append((values, type_name))
                values, type_name = [], token.upper() if typed else None
                i += 1 + typed
                continue
            elif head == "*":
                values.append(DERIVED)
            elif head == "." and len(token) > 1:
                values.append(EnumToken(token[1:-1].upper()))
            elif head == ")" and not values and type_name is None:
                i -= 1  # an empty list, closed below
            else:
                raise _Fault("expected a value, found {}", i)
            i += 1
            # After a value: a comma inside an aggregate, or closing parens.
            while True:
                token = tokens[i]
                i += 1
                if token == "," and type_name is None:
                    break
                if token != ")":
                    raise _Fault("expected ')', found {}", i - 1)
                if not stack:
                    return values, i
                value = values if type_name is None else TypedValue(type_name, values[0])
                values, type_name = stack.pop()
                values.append(value)
    except (IndexError, ValueError):
        # the empty end of the span, or a '#' or number that breaks a rule
        raise _Fault("expected a value, found {}", i)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def parse_step(source: str) -> StepModel:
    """Parse the text of a complete STEP file into a :class:`StepModel`;
    anything the module docstring rejects raises :class:`BimvecError`."""
    model = StepModel()
    section, saw_data, type_names = _START, False, {}
    start, size, end = 0, _SPAN, len(source)
    while True:
        if section == _DATA:
            start = _scan_records(source, start, model.entities, type_names)
        cut = source.find(";", start + size) + 1 or end
        tokens = _TOKEN_RE.findall(source, start, cut)
        kept = len(model.entities), dict(model.header)
        try:
            section, saw_data = _read_span(tokens, model, section, saw_data,
                                           cut == end, type_names)
        except _Fault as fault:
            # Tokens match the whole text's up to the span's last one or an
            # unterminated string or comment; a fault there may come from the cut.
            lexed = fault.args[-1]
            if cut < end and (lexed >= tokens.index("") - 1 or tokens[lexed] in ("'", "/")):
                while len(model.entities) > kept[0]:
                    model.entities.popitem()
                model.header, size = kept[1], size * 2
                continue
            raise _fault_error(source, start, cut, tokens, fault) from None
        if cut == end:
            return model
        start, size = cut, _SPAN


def _scan_records(source: str, start: int, entities: dict, type_names: dict) -> int:
    """Add the records from ``start`` on that the record pattern matches, as
    undecoded entities, up to the first statement that it does not match or
    whose id repeats; return where that statement begins."""
    for match in _RECORD_RE.finditer(source, start):
        digits, type_token, body = match.groups()
        if body is None:
            return match.start()
        entity_id = int(digits)
        if entity_id in entities:
            return match.start()
        type_name = type_names.get(type_token)
        if type_name is None:
            type_name = type_names[type_token] = type_token.upper()
        entities[entity_id] = StepEntity(entity_id, type_name, None, body)
    raise AssertionError("the record pattern matches the empty string")


def _decode(body: str) -> list:
    """The values of a record's value text, read by the token loop."""
    return _read_values(_TOKEN_RE.findall(body), 0)[0]


def parse_step_file(path) -> StepModel:
    """Read and parse a ``.ifc`` file from disk; its errors name the file."""
    text = read_text(path)
    try:
        return parse_step(text)
    except BimvecError as exc:
        raise BimvecError(f"{path}: {exc}") from None


def validate_references(model: StepModel) -> list[tuple[int, int]]:
    """Every dangling (referencing id, missing id) pair, unique and in
    ascending order; an empty list means the model is reference-closed.
    It decodes no record: an undecoded record's references are read from
    its value text, which holds no comment."""
    entities = model.entities
    dangling: set[tuple[int, int]] = set()
    for entity in entities.values():
        body = entity._body
        refs = (reference_ids(entity.attributes) if body is None
                else map(int, filter(None, _REFERENCE_RE.findall(body))))
        for ref_id in refs:
            if ref_id not in entities:
                dangling.add((entity.id, ref_id))
    return sorted(dangling)


def reference_ids(value: StepValue) -> Iterator[int]:
    """The entity ids ``value`` refers to, in order, within lists and typed
    values too."""
    if isinstance(value, EntityRef):
        yield value.entity_id
    elif isinstance(value, list):
        for item in value:
            yield from reference_ids(item)
    elif isinstance(value, TypedValue):
        yield from reference_ids(value.value)


# ---------------------------------------------------------------------------
# Serialization (round-trip support)
# ---------------------------------------------------------------------------

def serialize_step(model: StepModel) -> str:
    """Render a model back to STEP text.

    Re-parsing the output yields an entity table equal field-for-field to
    the input model (strings compared after unescaping).
    """
    lines = ["ISO-10303-21;", "HEADER;"]
    lines += [f"{keyword}({_format_values(values)});" for keyword, values in model.header.items()]
    lines += ["ENDSEC;", "DATA;"]
    lines += [f"#{entity.id}={entity.type_name}({_format_values(entity.attributes)});"
              for entity in map(model.entities.get, sorted(model.entities))]
    lines += ["ENDSEC;", "END-ISO-10303-21;"]
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
        return repr(value)
    if isinstance(value, float):
        # a REAL needs a '.' in its mantissa and an upper-case 'E': 1e-05 -> 1.E-05
        mantissa, _, exponent = repr(value).partition("e")
        return (mantissa if "." in mantissa else mantissa + ".") + (exponent and "E" + exponent)
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
