"""Atomic writes and the CSV header rule."""

from __future__ import annotations

import re

import pytest

from bimvec.errors import BimvecError
from bimvec.fileio import atomic_open, read_csv


def test_atomic_open_replaces_target_on_success(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")
    with atomic_open(target) as fp:
        fp.write("a\r\nb\n")
        assert target.read_text() == "old\n"
    assert target.read_bytes() == b"a\r\nb\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize("existing", [None, b"old\n"], ids=["new", "existing"])
def test_atomic_open_leaves_nothing_when_block_raises(tmp_path, existing):
    target = tmp_path / "out.bin"
    if existing is not None:
        target.write_bytes(existing)
    with pytest.raises(RuntimeError):
        with atomic_open(target, binary=True) as fp:
            fp.write(b"partial")
            raise RuntimeError("stop")
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if existing is None
                                                          else ["out.bin"])
    if existing is not None:
        assert target.read_bytes() == existing


def test_read_csv_header_only_by_name(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("id,value\n\n x , 1 \n")
    assert read_csv(path, "id", 2, tuple) == [("x", "1")]
    assert read_csv(path, "key", 2, tuple) == [("id", "value"), ("x", "1")]



def test_read_csv_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    # Past the text layer's first decoded chunk, so the byte is decoded
    # before the csv reader reaches its row.
    lines = [b"timestamp,sensor_id,channel,value\n"]
    lines += [b"%d,s1,temperature,21.5\n" % (60 * k) for k in range(2000)]
    lines[1501] = lines[1501].replace(b"s1", b"s\xff1")
    path = tmp_path / "readings.csv"
    path.write_bytes(b"".join(lines))
    with pytest.raises(BimvecError, match=rf"^{re.escape(str(path))}, line 1502: not UTF-8 text$"):
        read_csv(path, "timestamp", 4, tuple)
