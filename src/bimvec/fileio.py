"""Atomic file writes (temp file, then rename), and the one input-text rule:
every file is UTF-8, its lines end at ``\n``, and a byte that is not UTF-8
raises ``BimvecError`` as ``path, line N: not UTF-8 text``."""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import os
import re
import tempfile
from typing import Callable, Iterator

from .errors import BimvecError

# What surrogateescape decodes each byte that is not UTF-8 to.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


@contextlib.contextmanager
def atomic_open(path, binary: bool = False):
    """A file beside ``path`` to write, as bytes or as UTF-8 text with no
    newline translation. It replaces ``path`` when the block ends and is
    removed when the block raises, leaving ``path`` as it was."""
    path = os.fspath(path)
    fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-")
    try:
        with (os.fdopen(fd, "wb") if binary
              else os.fdopen(fd, "w", encoding="utf-8", newline="")) as fp:
            yield fp
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def atomic_write_bytes(path, data: bytes) -> None:
    with atomic_open(path, binary=True) as fp:
        fp.write(data)


def atomic_write_text(path, text: str) -> None:
    with atomic_open(path) as fp:
        fp.write(text)


def _not_utf8(path, line_no: int) -> BimvecError:
    return BimvecError(f"{path}, line {line_no}: not UTF-8 text")


def read_text(path) -> str:
    """The whole of ``path`` as text, decoded in one pass."""
    with open(path, "rb") as fp:
        data = fp.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, data.count(b"\n", 0, exc.start) + 1) from None


def open_text(path):
    """``path`` to read as text whose lines end at ``\n`` only, unchecked.
    Surrogateescape decodes a byte that is not UTF-8 to a lone surrogate,
    which only a line that is not ASCII can hold and :func:`checked_lines`
    reports."""
    return open(path, encoding="utf-8", errors="surrogateescape", newline="\n")


def checked_lines(path, lines, line_no: int) -> Iterator[str]:
    """``lines`` of ``path``, numbered from ``line_no``, each checked for a
    byte that is not UTF-8 as it is reached."""
    for line_no, line in enumerate(lines, start=line_no):
        if not line.isascii() and _NOT_UTF8.search(line):
            raise _not_utf8(path, line_no)
        yield line


def text_lines(path) -> Iterator[str]:
    """The lines of ``path``, each ending at ``\n`` only, read as they are
    needed."""
    with open_text(path) as fp:
        yield from checked_lines(path, fp, 1)


def read_json(path):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise BimvecError(f"{path}, line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise BimvecError(f"{path}: JSON nested too deeply") from None


def read_csv(path, header: str, min_fields: int, parse: Callable[[list[str]], object]) -> list:
    """``parse`` of each non-blank row of a CSV file, its fields stripped.
    Row 1 is a header, and skipped, only if its first field is ``header``.
    A short row, a row ``parse`` rejects with ``ValueError`` and one the csv
    module cannot read raise ``BimvecError`` as ``path, row N: reason``; a
    byte that is not UTF-8 as ``path, line N: not UTF-8 text``."""
    out = []
    rows = csv.reader(text_lines(path))
    for row_no in itertools.count(1):
        try:
            row = next(rows, None)
            if row is None:
                return out
            row = [cell.strip() for cell in row]
            if not any(row) or (row_no == 1 and row[0] == header):
                continue
            if len(row) < min_fields:
                raise ValueError(f"has {len(row)} fields, expected at least {min_fields}")
            out.append(parse(row))
        except (csv.Error, ValueError) as exc:
            raise BimvecError(f"{path}, row {row_no}: {exc}") from None
