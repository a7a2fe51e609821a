"""End-to-end command tests: pipeline stages, exit codes, reproducibility."""

from __future__ import annotations

import ast
import contextlib
import hashlib
import importlib
import inspect
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import bimvec
from bimvec import graph as graph_module
from bimvec import temporal
from bimvec.cli import main
from bimvec.config import RelationMapping, RunConfig, TrainConfig, WalkConfig, load_config
from bimvec.errors import BimvecError
from bimvec.graph import PropertyGraph, read_graph
from bimvec.space_grid import spaces_from_graph
from bimvec.temporal import (
    build_snapshots, flatten, load_fixes_csv, load_readings_csv,
)
from bimvec.walks import generate_walks

from conftest import wrap


@pytest.fixture()
def runner():
    return CliRunner()


def _fields(output: str) -> dict[str, str]:
    out = {}
    for line in output.splitlines():
        parts = line.split("\t")
        if len(parts) >= 2:
            out[parts[0]] = parts[1]
    return out


def _build_graph_file(runner, data_dir, tmp_path) -> Path:
    out = tmp_path / "graph.tsv"
    result = runner.invoke(main, [
        "graph", str(data_dir / "two_space.ifc"),
        "--footprints", str(data_dir / "two_space.footprints.json"),
        "--sensors", str(data_dir / "two_space.sensors.json"),
        "--out", str(out), "--cell-size", "2.0",
    ])
    assert result.exit_code == 0, result.output
    return out


def _embed(runner, source: Path, out_dir: Path, extra=()):
    args = [
        "embed", str(source), "--out", str(out_dir),
        "--dimension", "8", "--window", "4", "--epochs", "2",
        "--walk-length", "10", "--walks-per-node", "2",
        "--walk-seed", "3", "--train-seed", "3",
    ] + list(extra)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return result


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

def test_parse_summary(runner, data_dir):
    result = runner.invoke(main, ["parse", str(data_dir / "two_space.ifc")])
    assert result.exit_code == 0
    fields = _fields(result.stdout)
    assert fields["entities"] == "47"
    assert fields["dangling_references"] == "0"


def test_parse_dump_round_trips(runner, data_dir, tmp_path):
    dump = tmp_path / "dump.ifc"
    result = runner.invoke(main, [
        "parse", str(data_dir / "two_space.ifc"), "--dump", str(dump),
    ])
    assert result.exit_code == 0
    second = runner.invoke(main, ["parse", str(dump)])
    assert _fields(second.stdout)["entities"] == "47"


def test_parse_reports_dangling(runner, data_dir):
    result = runner.invoke(main, ["parse", str(data_dir / "dangling.ifc")])
    assert result.exit_code == 0
    assert "dangling\t10\t99" in result.stdout
    assert "dangling\t11\t98" in result.stdout


def test_parse_bad_file_exits_3(runner, tmp_path):
    bad = tmp_path / "bad.ifc"
    bad.write_text("not a step file")
    result = runner.invoke(main, ["parse", str(bad)])
    assert result.exit_code == 3


@pytest.mark.parametrize("body,message", [
    ("#1=IFCX(1,,2);", "expected a value, found ',' (line 6, column 11)"),
    ("#1=IFCX(" + "7" * 5000 + ");", "integer has 5,000 digits, more than 640 (line 6, column 9)"),
    ("#1=IFCX(#" + "7" * 5000 + ");",
     "integer has 5,000 digits, more than 640 (line 6, column 9)"),
    ("#1=IFCX(-1.0E999);", "real overflows to infinity (line 6, column 9)"),
], ids=["syntax", "long-integer", "long-reference", "infinite-real"])
@pytest.mark.parametrize("command", ["parse", "graph"])
def test_bad_ifc_exits_3_naming_file_and_position(runner, data_dir, tmp_path, body, message,
                                                  command):
    bad = tmp_path / "bad.ifc"
    bad.write_text(wrap(body))
    argv = {"parse": ["parse", str(bad)],
            "graph": ["graph", str(bad), "--footprints",
                      str(data_dir / "two_space.footprints.json"),
                      "--out", str(tmp_path / "graph.tsv")]}[command]
    result = runner.invoke(main, argv)
    assert result.exit_code == 3, result.output
    assert result.output.endswith(f"error: {bad}: {message}\n")


def test_parse_deep_nesting_exits_3(runner, tmp_path):
    deep = tmp_path / "deep.ifc"
    deep.write_text(wrap("#1=IFCX(" + "(" * 5000 + "1" + ")" * 5000 + ");"))
    result = runner.invoke(main, ["parse", str(deep)])
    assert result.exit_code == 3, result.output
    assert "nested deeper than" in result.output


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

def test_graph_counts_match_fixture_manifest(runner, data_dir, tmp_path,
                                             fixture_manifest):
    out = _build_graph_file(runner, data_dir, tmp_path)
    graph = PropertyGraph.from_text(out.read_text())
    assert len(graph) == fixture_manifest["nodes"]
    assert graph.edge_count == fixture_manifest["edges"]
    labels = graph.labels()
    assert sum(1 for v in labels.values() if v == "CELL") == \
        fixture_manifest["cells"]
    assert sum(1 for v in labels.values() if v == "SENSOR") == \
        fixture_manifest["sensors"]


def test_graph_unknown_footprint_space_exits_3(runner, data_dir, tmp_path):
    footprints = tmp_path / "bad_footprints.json"
    footprints.write_text(json.dumps(
        [{"space_id": 999, "polygon": [[0, 0], [2, 0], [2, 2], [0, 2]]}]))
    result = runner.invoke(main, [
        "graph", str(data_dir / "two_space.ifc"),
        "--footprints", str(footprints),
        "--out", str(tmp_path / "graph.tsv"),
    ])
    assert result.exit_code == 3


@pytest.mark.parametrize("sidecar", ["footprints", "sensors"])
def test_graph_truncated_sidecar_names_file(runner, data_dir, tmp_path, sidecar):
    paths = {name: data_dir / f"two_space.{name}.json"
             for name in ("footprints", "sensors")}
    text = paths[sidecar].read_text()
    paths[sidecar] = tmp_path / f"{sidecar}.json"
    paths[sidecar].write_text(text[:len(text) // 2])
    result = runner.invoke(main, [
        "graph", str(data_dir / "two_space.ifc"),
        "--footprints", str(paths["footprints"]),
        "--sensors", str(paths["sensors"]),
        "--out", str(tmp_path / "graph.tsv"),
    ])
    assert result.exit_code == 3, result.output
    assert f"{paths[sidecar]}, line " in result.output


_SQUARE = [[0.0, 0.0], [6.0, 0.0], [6.0, 6.0], [0.0, 6.0]]


@pytest.mark.parametrize("footprints,where", [
    ([{"polygon": _SQUARE}], "footprints[0] has no 'space_id'"),
    ({"footprints": [{"space_id": 5, "polygon": _SQUARE}]}, "must be a list"),
    (["oops"], "footprints[0] must be an object"),
    ([{"space_id": 5, "polygon": [[0.0, 0.0], [float("inf"), 0.0], [6.0, 6.0]]}],
     "footprints[0]: polygon[1]"),
    ([{"space_id": 5, "polygon": [[0.0, 0.0], [6.0, 0.0], [float("nan"), 6.0]]}],
     "footprints[0]: polygon[2]"),
    ([{"space_id": 5}], "footprints[0]: polygon"),
    ([{"space_id": 5, "polygon": [[0.0, 0.0], [6.0, 0.0]]}], "footprints[0]: polygon"),
    ([{"space_id": 5, "polygon": [[0.0, 0.0, 0.0], [6.0, 0.0], [6.0, 6.0]]}],
     "footprints[0]: polygon[0]"),
    ([{"space_id": 5, "polygon": [["0", 0.0], [6.0, 0.0], [6.0, 6.0]]}],
     "footprints[0]: polygon[0]"),
    ([{"space_id": 5, "polygon": _SQUARE, "elevation": float("nan")}],
     "footprints[0]: elevation"),
    ([{"space_id": 5, "polygon": _SQUARE}] * 2,
     "footprints[1]: space '5' has a second footprint"),
], ids=["no-space-id", "top-level-object", "non-object", "inf-coordinate",
        "nan-coordinate", "no-polygon", "two-points", "three-numbers",
        "string-coordinate", "nan-elevation", "second-footprint"])
def test_graph_bad_footprints_exit_3(runner, data_dir, tmp_path, footprints, where):
    path = tmp_path / "footprints.json"
    path.write_text(json.dumps(footprints))
    out = tmp_path / "graph.tsv"
    result = runner.invoke(main, [
        "graph", str(data_dir / "two_space.ifc"),
        "--footprints", str(path), "--out", str(out), "--cell-size", "2.0",
    ])
    assert result.exit_code == 3, result.output
    assert where in result.output
    assert not out.exists()


def test_graph_oversized_grid_exits_3(runner, data_dir, tmp_path):
    path = tmp_path / "footprints.json"
    path.write_text(json.dumps([{"space_id": 5, "polygon": [
        [0, 0], [100000, 100000], [99999.99, 100000]]}]))
    result = runner.invoke(main, [
        "graph", str(data_dir / "two_space.ifc"), "--footprints", str(path),
        "--out", str(tmp_path / "graph.tsv"), "--cell-size", "1",
    ])
    assert result.exit_code == 3, result.output
    assert "100000 x 100000 cells" in result.output
    assert "raise --cell-size" in result.output


_GOOD_SENSOR = {"id": "s1", "space_id": 5, "position": [3.0, 3.0]}


@pytest.mark.parametrize("manifest", [
    {"sensors": [{"id": "s1", "space_id": 5}]},
    {"sensors": ["oops"]},
    [_GOOD_SENSOR],
    {"sensors": [{"space_id": 5, "position": [3.0, 3.0]}]},
    {"sensors": [{"id": "s1", "position": [3.0, 3.0]}]},
    {"anchors": [{"space_id": 5, "position": [0.5, 3.0]}]},
    {"sensors": [{**_GOOD_SENSOR, "position": [3.0]}]},
    {"sensors": [{**_GOOD_SENSOR, "position": [3.0, float("nan")]}]},
    {"sensors": [{**_GOOD_SENSOR, "position": ["3", 3.0]}]},
    {"sensors": [{**_GOOD_SENSOR, "radius": [2.0]}]},
    {"sensors": {"s1": _GOOD_SENSOR}},
    {"sensors": [{**_GOOD_SENSOR, "space_id": 99}]},
], ids=["no-position", "non-object", "top-level-array", "no-id", "no-space-id",
        "no-entity-id", "short-position", "nan-position", "string-coordinate",
        "list-radius", "sensors-not-a-list", "space-without-footprint"])
def test_graph_bad_sensor_manifest_exits_3(runner, data_dir, tmp_path, manifest):
    sensors = tmp_path / "sensors.json"
    sensors.write_text(json.dumps(manifest))
    out = tmp_path / "graph.tsv"
    result = runner.invoke(main, [
        "graph", str(data_dir / "two_space.ifc"),
        "--footprints", str(data_dir / "two_space.footprints.json"),
        "--sensors", str(sensors), "--out", str(out), "--cell-size", "2.0",
    ])
    assert result.exit_code == 3, result.output
    assert "error:" in result.output
    assert not out.exists()


@pytest.mark.parametrize("manifest,message", [
    ({"anchors": [{"entity_id": 20, "space_id": 5, "position": [5.5, 3.0], "radius": -1}]},
     "anchors[0]: radius must be >= 0, got -1.0"),
    ({"sensors": [_GOOD_SENSOR, {**_GOOD_SENSOR, "space_id": 7, "position": [9.0, 3.0]}]},
     "sensors[1]: sensor id 's1' repeats"),
    ({"anchors": [{"entity_id": 20, "space_id": 5, "position": [5.5, 3.0]},
                  {"entity_id": 20, "space_id": 7, "position": [6.5, 3.0]},
                  {"entity_id": 20, "space_id": 5, "position": [4.5, 3.0]}]},
     "anchors[2]: entity '20' is anchored in space '5' twice"),
], ids=["negative-radius", "repeated-sensor-id", "repeated-anchor"])
def test_graph_bad_manifest_record_names_file_and_entry(runner, data_dir, tmp_path,
                                                        manifest, message):
    sensors = tmp_path / "sensors.json"
    sensors.write_text(json.dumps(manifest))
    out = tmp_path / "graph.tsv"
    result = runner.invoke(main, [
        "graph", str(data_dir / "two_space.ifc"),
        "--footprints", str(data_dir / "two_space.footprints.json"),
        "--sensors", str(sensors), "--out", str(out), "--cell-size", "2.0",
    ])
    assert result.exit_code == 3, result.output
    assert f"error: {sensors}: {message}" in result.output
    assert not out.exists()


# ---------------------------------------------------------------------------
# snapshot
# ---------------------------------------------------------------------------

def test_snapshot_never_builds_an_adjacency(runner, data_dir, tmp_path, monkeypatch):
    """Window graphs are written, never walked, so none of them pays for
    neighbor queries."""
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    calls = []
    monkeypatch.setattr(PropertyGraph, "adjacency", lambda self: calls.append(self))
    result = runner.invoke(main, [
        "snapshot", str(graph_file),
        "--readings", str(data_dir / "readings.csv"),
        "--fixes", str(data_dir / "fixes.csv"),
        "--out", str(tmp_path / "store"), "--step", "300",
    ])
    assert result.exit_code == 0, result.output
    assert calls == []


def test_snapshot_writes_store(runner, data_dir, tmp_path):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    store_dir = tmp_path / "store"
    result = runner.invoke(main, [
        "snapshot", str(graph_file),
        "--readings", str(data_dir / "readings.csv"),
        "--fixes", str(data_dir / "fixes.csv"),
        "--out", str(store_dir), "--step", "300",
    ])
    assert result.exit_code == 0, result.output
    manifest = json.loads((store_dir / "manifest.json").read_text())
    assert manifest["T"] == 3
    assert manifest["step"] == 300
    assert len(manifest["node_index"]) == manifest["N"]
    tensor_lines = (store_dir / "tensor.csv").read_text().splitlines()
    assert tensor_lines[0] == "t,i,j,w"
    assert len(tensor_lines) > 1
    assert (store_dir / "base.tsv").exists()
    for index in range(manifest["T"]):
        assert (store_dir / "snapshots" / f"{index:06d}.tsv").exists()


@pytest.mark.parametrize("option,rows", [
    ("--readings", "timestamp,sensor_id,channel,value\n0,s1,temperature,nan\n"),
    ("--readings", "timestamp,sensor_id,channel,value\n0,s1,temperature,inf\n"),
    ("--fixes", "timestamp,occupant_id,space_id,x,y\n0,alice,5,1.0,inf\n"),
], ids=["nan-reading", "inf-reading", "inf-fix"])
def test_snapshot_non_finite_input_exits_3(runner, data_dir, tmp_path,
                                           option, rows):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    source = tmp_path / "input.csv"
    source.write_text(rows)
    store_dir = tmp_path / "store"
    result = runner.invoke(main, [
        "snapshot", str(graph_file), option, str(source),
        "--out", str(store_dir), "--step", "300",
    ])
    assert result.exit_code == 3, result.output
    assert "finite" in result.output
    assert not store_dir.exists()


@pytest.mark.parametrize("line,message", [
    ("occupant_radius=nan", "placement radius must be finite and >= 0, got nan"),
    ("occupant_radius=inf", "placement radius must be finite and >= 0, got inf"),
    ("occupant_radius=-1", "placement radius must be finite and >= 0, got -1.0"),
    ("max_gap=-1", "max_gap must be >= 0, got -1"),
], ids=["nan-radius", "inf-radius", "negative-radius", "negative-max-gap"])
def test_snapshot_bad_placement_config_exits_3(runner, data_dir, tmp_path, line, message):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    store_dir = tmp_path / "store"
    result = runner.invoke(main, [
        "--config", str(config), "snapshot", str(graph_file),
        "--fixes", str(data_dir / "fixes.csv"), "--out", str(store_dir),
    ])
    assert result.exit_code == 3, result.output
    assert f"error: {message}\n" in result.output
    assert not store_dir.exists()


@pytest.mark.parametrize("step", ["0", "-5"])
def test_snapshot_step_must_be_positive(runner, data_dir, tmp_path, step):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    store_dir = tmp_path / "store"
    result = runner.invoke(main, [
        "snapshot", str(graph_file), "--fixes", str(data_dir / "fixes.csv"),
        "--out", str(store_dir), "--step", step,
    ])
    assert result.exit_code == 3, result.output
    assert f"error: step must be positive, got {step}\n" in result.output
    assert not store_dir.exists()


def test_snapshot_window_count_is_bounded(runner, data_dir, tmp_path):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    readings = tmp_path / "readings.csv"
    readings.write_text((data_dir / "readings.csv").read_text()
                        + "3000000000,s1,temperature,20.0\n")
    store_dir = tmp_path / "store"
    result = runner.invoke(main, [
        "snapshot", str(graph_file), "--readings", str(readings),
        "--out", str(store_dir), "--step", "1",
    ])
    assert result.exit_code == 3, result.output
    assert "3,000,000,001 windows" in result.output
    assert "raise --step" in result.output
    assert not store_dir.exists()


@pytest.mark.parametrize("edit", ["missing-cell", "extra-cell"])
def test_snapshot_cells_differing_from_footprint_exit_3(runner, data_dir,
                                                        tmp_path, edit):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    lines = graph_file.read_text().splitlines(keepends=True)
    if edit == "missing-cell":
        lines = [line for line in lines if "cell:5:1:1" not in line.split("\t")]
    else:
        lines.append('N\tcell:5:9:9\tCELL\t{"space": "5"}\n')
    graph_file.write_text("".join(lines))
    store_dir = tmp_path / "store"
    result = runner.invoke(main, [
        "snapshot", str(graph_file), "--fixes", str(data_dir / "fixes.csv"),
        "--out", str(store_dir), "--step", "300",
    ])
    assert result.exit_code == 3, result.output
    assert "differ from the cells of its stored footprint" in result.output
    assert not store_dir.exists()


def test_snapshot_builds_no_window_graph(runner, data_dir, tmp_path, monkeypatch):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    copies = []
    copy = PropertyGraph.copy
    monkeypatch.setattr(PropertyGraph, "copy",
                        lambda graph: copies.append(1) or copy(graph))
    store_dir = tmp_path / "store"
    result = runner.invoke(main, [
        "snapshot", str(graph_file),
        "--readings", str(data_dir / "readings.csv"),
        "--fixes", str(data_dir / "fixes.csv"),
        "--out", str(store_dir), "--step", "60",
    ])
    assert result.exit_code == 0, result.output
    windows = json.loads((store_dir / "manifest.json").read_text())["T"]
    assert windows == 11
    assert copies == []


def test_snapshot_renders_no_base_record(runner, data_dir, tmp_path, monkeypatch):
    """``snapshot`` writes the base's records as it read them. It renders
    only a sensor with a reading, once per window that has one, and each
    occupant placement, its node and AT edges once per fix."""
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    calls = []
    encode = graph_module._encode
    monkeypatch.setattr(graph_module, "_encode",
                        lambda value: calls.append(value) or encode(value))
    store_dir, step = tmp_path / "store", 300
    result = runner.invoke(main, [
        "snapshot", str(graph_file),
        "--readings", str(data_dir / "readings.csv"),
        "--fixes", str(data_dir / "fixes.csv"),
        "--out", str(store_dir), "--step", str(step),
    ])
    assert result.exit_code == 0, result.output
    assert (store_dir / "base.tsv").read_bytes() == graph_file.read_bytes()

    def rows(name):
        return [line.split(",") for line in (data_dir / name).read_text().splitlines()[1:]]

    sensors = {(int(row[0]) // step, row[1]) for row in rows("readings.csv")}
    placements = {(int(row[0]) // step, f"occupant:{row[1]}") for row in rows("fixes.csv")}
    at_edges = 0
    for t, occupant in placements:
        lines = (store_dir / "snapshots" / f"{t:06d}.tsv").read_text().splitlines()
        at_edges += sum(line.startswith("E\t") and occupant in line.split("\t")[1:3]
                        for line in lines)
    assert at_edges > 0
    assert len(calls) == len(sensors) + len(placements) + at_edges


# ---------------------------------------------------------------------------
# CSV inputs
# ---------------------------------------------------------------------------

def _snapshot_with(runner, data_dir, tmp_path, option, text):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    source = tmp_path / "input.csv"
    source.write_text(text)
    return runner.invoke(main, [
        "snapshot", str(graph_file), option, str(source),
        "--out", str(tmp_path / "store"), "--step", "300",
    ]), source


@pytest.mark.parametrize("option,text,row", [
    ("--readings", "0.5,s1,temperature,24.5\n300,s1,temperature,24.8\n", 1),
    ("--readings", "timestamp,sensor_id,channel,value\n0,s1,temperature,24.5\n"
                   "0.5,s1,temperature,24.5\n", 3),
    ("--fixes", "0.5,alice,5,1.0,1.0\n300,alice,5,3.2,2.9\n", 1),
    ("--readings", "0,s1,temperature,24.5\n300,s1,temperature\n", 2),
], ids=["reading-row-1", "reading-row-3", "fix-row-1", "short-row"])
def test_snapshot_bad_csv_row_names_file_and_row(runner, data_dir, tmp_path,
                                                 option, text, row):
    result, source = _snapshot_with(runner, data_dir, tmp_path, option, text)
    assert result.exit_code == 3, result.output
    assert f"{source}, row {row}: " in result.output


def test_snapshot_oversized_csv_field_exits_3(runner, data_dir, tmp_path):
    result, source = _snapshot_with(runner, data_dir, tmp_path, "--readings",
                                    f"0,s1,temperature,24.5\n300,{'s' * 140_000},co2,1.0\n")
    assert result.exit_code == 3, result.output
    assert f"{source}, row 2: " in result.output


@pytest.fixture(scope="module")
def checkpoint(data_dir, tmp_path_factory) -> Path:
    tmp_path = tmp_path_factory.mktemp("predict")
    _embed(CliRunner(), _build_graph_file(CliRunner(), data_dir, tmp_path),
           tmp_path / "emb")
    return tmp_path / "emb" / "checkpoint.bin"


@pytest.mark.parametrize("text,row", [
    ("occupant:alice,confortable\n", 1),
    ("node_id,feedback\noccupant:alice,comfortable\noccupant:bob,ok\n", 3),
    (f"node_id,feedback\n{'n' * 140_000},comfortable\n", 2),
], ids=["bad-class-row-1", "bad-class-row-3", "oversized-field"])
def test_predict_bad_labels_name_file_and_row(runner, checkpoint, tmp_path, text, row):
    labels = tmp_path / "labels.csv"
    labels.write_text(text)
    result = runner.invoke(main, ["predict", str(checkpoint), "cell:5:0:0",
                                  "--labels", str(labels)])
    assert result.exit_code == 3, result.output
    assert f"{labels}, row {row}: " in result.output


_FUZZ_FIELDS = ["", " ", "0.5", "-1", "x", "nan", "inf", "1e400", "1e300",
                "3000000000", "9" * 30, "node_id", "timestamp", "comfortable",
                "confortable", "occupant:alice", "5", "s1", '"', 'a"b', "a b",
                "a\tb", "\u00e9", "\x00", "\udcff", "x" * 140_000]


_FUZZ_EDITS = st.lists(st.tuples(
    st.integers(0, 9), st.integers(0, 5), st.sampled_from(["set", "drop", "add", "copy"]),
    st.sampled_from(_FUZZ_FIELDS)), min_size=1, max_size=4)


def _mutated(path: Path, edits, sep: str = ",") -> str:
    rows = [line.split(sep) for line in path.read_text().splitlines()]
    for row, column, edit, field in edits:
        cells = rows[row % len(rows)]
        column %= len(cells) or 1
        if edit == "set" and cells:
            cells[column] = field
        elif edit == "drop" and cells:
            del cells[column]
        elif edit == "add":
            cells.insert(column, field)
        elif edit == "copy":
            rows.insert(row % (len(rows) + 1), list(cells))
        elif edit == "delete" and len(rows) > 1:
            del rows[row % len(rows)]
    return "".join(sep.join(cells) + "\n" for cells in rows)


def _exits_0_or_3_in_time(args) -> None:
    """The command ends within 10 s, with exit 0 or 3: never a traceback
    (exit 1) or an internal error (exit 4)."""
    started = time.monotonic()
    result = CliRunner().invoke(main, args)
    assert time.monotonic() - started < 10
    assert result.exit_code in (0, 3), (args[0], result.output, result.exception)


def _write_mutated(path: Path, source: Path, edits, sep: str = ",") -> None:
    """``_mutated`` text of ``source`` at ``path``; a ``"\\udcff"`` field
    becomes the byte 0xff, which is not UTF-8."""
    path.write_text(_mutated(source, edits, sep), encoding="utf-8", errors="surrogateescape")


@settings(max_examples=50, deadline=None)
@given(readings=_FUZZ_EDITS, fixes=_FUZZ_EDITS, labels=_FUZZ_EDITS)
def test_mutated_csv_inputs_exit_0_or_3(data_dir, checkpoint, readings, fixes, labels):
    """No mutation of the readings, fixes or labels fixture ends in a
    traceback (exit 1) or an internal error (exit 4)."""
    graph_file = checkpoint.parent.parent / "graph.tsv"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, edits in (("readings", readings), ("fixes", fixes), ("labels", labels)):
            _write_mutated(tmp / f"{name}.csv", data_dir / f"{name}.csv", edits)
        results = [CliRunner().invoke(main, [
            "snapshot", str(graph_file), "--readings", str(tmp / "readings.csv"),
            "--fixes", str(tmp / "fixes.csv"), "--out", str(tmp / "store"),
            "--step", "300",
        ]), CliRunner().invoke(main, [
            "predict", str(checkpoint), "cell:5:0:0",
            "--labels", str(tmp / "labels.csv"),
        ])]
    for result in results:
        assert result.exit_code in (0, 3), (result.output, result.exception)


_GRAPH_FUZZ_FIELDS = [
    "", "x", "N", "E", "5", "7", "cell:5:0:0", "sensor:s1", "-1", "0", "nan", "inf",
    "1e400", "a b", "\u00e9", "\x00", "\udcff", "{}", "[1]", "null", '"s"', "[" * 5000,
    '{"space": 5}', '{"space": "9", "x": 1}',
    '{"footprint": [[0, 0]], "grid_cell_size": 0, "grid_origin": [0, 0], "elevation": 0}',
    '{"footprint": 3, "grid_cell_size": "x", "grid_origin": null, "elevation": 1e400}',
]


_GRAPH_FUZZ_EDITS = st.lists(st.tuples(
    st.integers(0, 110), st.integers(0, 6),
    st.sampled_from(["set", "drop", "add", "copy", "delete"]),
    st.sampled_from(_GRAPH_FUZZ_FIELDS)), min_size=1, max_size=4)


@settings(max_examples=50, deadline=None)
@given(edits=_GRAPH_FUZZ_EDITS)
def test_mutated_graph_file_exits_0_or_3(data_dir, checkpoint, edits):
    """No mutation of the two-office graph file ends in a traceback (exit 1)
    or an internal error (exit 4) of ``snapshot`` or ``embed``."""
    with tempfile.TemporaryDirectory() as tmp:
        graph_file = Path(tmp) / "graph.tsv"
        _write_mutated(graph_file, checkpoint.parent.parent / "graph.tsv", edits, "\t")
        results = [CliRunner().invoke(main, [
            "snapshot", str(graph_file), "--readings", str(data_dir / "readings.csv"),
            "--fixes", str(data_dir / "fixes.csv"), "--out", str(Path(tmp) / "store"),
            "--step", "300",
        ]), CliRunner().invoke(main, [
            "embed", str(graph_file), "--out", str(Path(tmp) / "emb"), "--dimension", "4",
            "--window", "2", "--epochs", "1", "--walk-length", "4", "--walks-per-node", "1",
        ])]
    for result in results:
        assert result.exit_code in (0, 3), (result.output, result.exception)


# ---------------------------------------------------------------------------
# embed / query / predict
# ---------------------------------------------------------------------------

def test_embed_outputs_and_projector_files(runner, data_dir, tmp_path):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    out_dir = tmp_path / "emb"
    _embed(runner, graph_file, out_dir)
    assert (out_dir / "checkpoint.bin").exists()
    vectors = (out_dir / "vectors.tsv").read_text().splitlines()
    metadata = (out_dir / "metadata.tsv").read_text().splitlines()
    assert len(vectors) == len(metadata) - 1
    assert all(len(line.split("\t")) == 8 for line in vectors)


def test_embed_deterministic_bytes(runner, data_dir, tmp_path):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    _embed(runner, graph_file, tmp_path / "one")
    _embed(runner, graph_file, tmp_path / "two")
    _embed(runner, graph_file, tmp_path / "three", extra=["--workers", "3"])
    first = (tmp_path / "one" / "checkpoint.bin").read_bytes()
    second = (tmp_path / "two" / "checkpoint.bin").read_bytes()
    third = (tmp_path / "three" / "checkpoint.bin").read_bytes()
    assert first == second == third
    assert (tmp_path / "one" / "vectors.tsv").read_bytes() == \
        (tmp_path / "two" / "vectors.tsv").read_bytes()


def test_embed_from_temporal_store_union(runner, data_dir, tmp_path):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    store_dir = tmp_path / "store"
    result = runner.invoke(main, [
        "snapshot", str(graph_file),
        "--readings", str(data_dir / "readings.csv"),
        "--fixes", str(data_dir / "fixes.csv"),
        "--out", str(store_dir), "--step", "300",
    ])
    assert result.exit_code == 0
    out_dir = tmp_path / "emb_union"
    _embed(runner, store_dir, out_dir, extra=["--flatten", "union"])
    metadata = (out_dir / "metadata.tsv").read_text()
    assert "occupant:alice\tOCCUPANT" in metadata


def _build_store(runner, data_dir, tmp_path) -> Path:
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    store_dir = tmp_path / "store"
    result = runner.invoke(main, [
        "snapshot", str(graph_file),
        "--readings", str(data_dir / "readings.csv"),
        "--fixes", str(data_dir / "fixes.csv"),
        "--out", str(store_dir), "--step", "300",
    ])
    assert result.exit_code == 0, result.output
    return store_dir


def test_embed_store_union_equals_flattened_graph_file(runner, data_dir, tmp_path):
    store_dir = _build_store(runner, data_dir, tmp_path)
    cfg = RunConfig()
    base = PropertyGraph.from_text((tmp_path / "graph.tsv").read_text())
    tg = build_snapshots(
        base, spaces_from_graph(base),
        load_readings_csv(data_dir / "readings.csv"),
        load_fixes_csv(data_dir / "fixes.csv"), 300,
        occupant_radius=cfg.occupant_radius, max_gap=cfg.max_gap)
    union_file = tmp_path / "union.tsv"
    union_file.write_text(flatten(tg, "union").to_text())
    shutil.rmtree(store_dir / "snapshots")  # the union reads no snapshot
    _embed(runner, store_dir, tmp_path / "from_store", extra=["--flatten", "union"])
    _embed(runner, union_file, tmp_path / "from_file")
    for name in ("checkpoint.bin", "vectors.tsv", "metadata.tsv"):
        assert (tmp_path / "from_store" / name).read_bytes() == \
            (tmp_path / "from_file" / name).read_bytes()


def test_embed_store_slice_reads_one_snapshot(runner, data_dir, tmp_path):
    store_dir = _build_store(runner, data_dir, tmp_path)
    kept = tmp_path / "slice.tsv"
    shutil.copy(store_dir / "snapshots" / "000001.tsv", kept)
    for path in [store_dir / "base.tsv", store_dir / "tensor.csv",
                 *(store_dir / "snapshots").glob("*.tsv")]:
        if path.name != "000001.tsv":
            path.unlink()
    _embed(runner, store_dir, tmp_path / "slice", extra=["--flatten", "slice:1"])
    _embed(runner, kept, tmp_path / "file")
    assert (tmp_path / "slice" / "checkpoint.bin").read_bytes() == \
        (tmp_path / "file" / "checkpoint.bin").read_bytes()
    result = runner.invoke(main, ["embed", str(store_dir), "--out",
                                  str(tmp_path / "out"), "--flatten", "slice:3"])
    assert result.exit_code == 3, result.output
    assert "slice 3 out of range for 3 snapshots" in result.output


@pytest.mark.parametrize("edit,message", [
    (lambda m: "{", "manifest.json, line 1"),
    (lambda m: [m], "expected a JSON object"),
    (lambda m: {k: v for k, v in m.items() if k != "T"}, "T must be an integer >= 1"),
    (lambda m: {**m, "T": 0}, "T must be an integer >= 1"),
    (lambda m: {**m, "T": "3"}, "T must be an integer >= 1"),
    (lambda m: {**m, "T": True}, "T must be an integer >= 1"),
    (lambda m: {k: v for k, v in m.items() if k != "node_index"},
     "node_index must be a list of distinct strings"),
    (lambda m: {**m, "node_index": "5"},
     "node_index must be a list of distinct strings"),
    (lambda m: {**m, "node_index": m["node_index"] + m["node_index"][:1]},
     "node_index must be a list of distinct strings"),
    (lambda m: {**m, "node_index": m["node_index"] + [7]},
     "node_index must be a list of distinct strings"),
    (lambda m: {**m, "node_index": m["node_index"][1:]},
     "node_index lacks base node"),
], ids=["not-json", "not-an-object", "no-T", "T-zero", "T-string", "T-bool",
        "no-node-index", "node-index-string", "duplicate-node",
        "non-string-node", "missing-base-node"])
def test_embed_store_bad_manifest_exits_3(runner, data_dir, tmp_path, edit,
                                          message):
    store_dir = _build_store(runner, data_dir, tmp_path)
    path = store_dir / "manifest.json"
    edited = edit(json.loads(path.read_text()))
    path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    result = runner.invoke(main, ["embed", str(store_dir),
                                  "--out", str(tmp_path / "emb")])
    assert result.exit_code == 3, result.output
    assert str(path) in result.output
    assert message in result.output


def _json_input(runner, data_dir, tmp_path, name) -> tuple[Path, list[str]]:
    """A JSON input of ``graph`` or ``embed``, free to overwrite, and the
    command that reads it."""
    if name == "manifest.json":
        store_dir = _build_store(runner, data_dir, tmp_path)
        return store_dir / name, ["embed", str(store_dir), "--out", str(tmp_path / "emb")]
    path = tmp_path / name
    shutil.copy(data_dir / f"two_space.{name}", path)
    inputs = {"footprints.json": data_dir / "two_space.footprints.json",
              "sensors.json": data_dir / "two_space.sensors.json", name: path}
    return path, ["graph", str(data_dir / "two_space.ifc"),
                  "--footprints", str(inputs["footprints.json"]),
                  "--sensors", str(inputs["sensors.json"]),
                  "--out", str(tmp_path / "graph.tsv"), "--cell-size", "2.0"]


@pytest.mark.parametrize("name", ["footprints.json", "sensors.json", "manifest.json"])
def test_deeply_nested_json_exits_3(runner, data_dir, tmp_path, name):
    """JSON nested past the interpreter's recursion limit is a bad input,
    reported with its file."""
    path, args = _json_input(runner, data_dir, tmp_path, name)
    path.write_text("[" * 100_000)
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert f"{path}: JSON nested too deeply" in result.output


@pytest.mark.parametrize("name", ["footprints.json", "sensors.json", "manifest.json"])
def test_non_utf8_json_names_file(runner, data_dir, tmp_path, name):
    path, args = _json_input(runner, data_dir, tmp_path, name)
    text = path.read_bytes()
    path.write_bytes(text[:7] + b"\xff" + text[7:])
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert f"error: {path}, line 2: not UTF-8 text\n" in result.output


_JSON_FUZZ_FIELDS = [
    "", " ", "0", "-1", "0.5", "1e400", "NaN", "Infinity", "null", "true", '"5"', '"x"',
    "[]", "{}", "[0.0", "0.0]", "}", "]", '"space_id": 5', '"space_id": 9',
    '"position": [3.0]', '"radius": -1', '"T": 0', '"T": 1', '"node_index": []',
    "[" * 5000, "\u00e9", "\x00", "\udcff",
]


_JSON_FUZZ_EDITS = st.lists(st.tuples(
    st.integers(0, 15), st.integers(0, 400),
    st.sampled_from(["set", "drop", "add", "copy", "delete"]),
    st.sampled_from(_JSON_FUZZ_FIELDS)), min_size=1, max_size=4)


@pytest.fixture(scope="module")
def built_store(data_dir, tmp_path_factory) -> Path:
    return _build_store(CliRunner(), data_dir, tmp_path_factory.mktemp("fuzz"))


@settings(max_examples=50, deadline=None)
@given(footprints=_JSON_FUZZ_EDITS, sensors=_JSON_FUZZ_EDITS, manifest=_JSON_FUZZ_EDITS)
def test_mutated_json_inputs_exit_0_or_3(data_dir, built_store, footprints, sensors,
                                         manifest):
    """No mutation of the footprints, the sensor manifest or a store's
    ``manifest.json`` ends in a traceback (exit 1) or an internal error
    (exit 4) of ``graph`` or ``embed``."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, edits in (("footprints", footprints), ("sensors", sensors)):
            _write_mutated(tmp / f"{name}.json", data_dir / f"two_space.{name}.json", edits)
        store_dir = shutil.copytree(built_store, tmp / "store")
        _write_mutated(store_dir / "manifest.json", built_store / "manifest.json", manifest)
        results = [CliRunner().invoke(main, [
            "graph", str(data_dir / "two_space.ifc"),
            "--footprints", str(tmp / "footprints.json"),
            "--sensors", str(tmp / "sensors.json"),
            "--out", str(tmp / "graph.tsv"), "--cell-size", "2.0",
        ]), CliRunner().invoke(main, [
            "embed", str(store_dir), "--out", str(tmp / "emb"), "--dimension", "4",
            "--window", "2", "--epochs", "1", "--walk-length", "4", "--walks-per-node", "1",
        ])]
    for result in results:
        assert result.exit_code in (0, 3), (result.output, result.exception)


_IFC_FUZZ_FIELDS = [
    "", "$", "*", "'", "''", "'x'", "(", ")", ");", "((#5)", "#5", "#7", "#16", "#99", "#0",
    "#1=IFCWALL(", "#5=IFCSPACE('g',$,'n',$,$,$,$,$,$,$,$);", ".T.", ".X.", "0.", "-1",
    "1e400", "nan", "IFCLABEL('a')", "IFCBOOLEAN(", "(" * 150, "/*", "*/", "ENDSEC;",
    "DATA;", "END-ISO-10303-21;", "\u00e9", "\x00", "\udcff",
]


_IFC_FUZZ_EDITS = st.lists(st.tuples(
    st.integers(0, 62), st.integers(0, 12),
    st.sampled_from(["set", "drop", "add", "copy", "delete"]),
    st.sampled_from(_IFC_FUZZ_FIELDS)), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(edits=_IFC_FUZZ_EDITS)
def test_mutated_ifc_exits_0_or_3(data_dir, edits):
    """No mutation of the two-office IFC file makes ``parse`` or ``graph``
    end in a traceback or an internal error, or run long."""
    with tempfile.TemporaryDirectory() as tmp:
        ifc = Path(tmp) / "two_space.ifc"
        _write_mutated(ifc, data_dir / "two_space.ifc", edits)
        _exits_0_or_3_in_time(["parse", str(ifc)])
        _exits_0_or_3_in_time([
            "graph", str(ifc), "--footprints", str(data_dir / "two_space.footprints.json"),
            "--sensors", str(data_dir / "two_space.sensors.json"),
            "--out", str(Path(tmp) / "graph.tsv"), "--cell-size", "2.0"])


_TENSOR_FUZZ_FIELDS = [
    "", " ", "t", "0", "1", "2", "3", "-1", "38", "39", "0.5", "1.0", "-1.0", "nan",
    "inf", "1e400", "1e-400", "9" * 30, "x", "0x1", "1_0", "\u00e9", "\x00", "\udcff",
]


_TENSOR_FUZZ_EDITS = st.lists(st.tuples(
    st.integers(0, 220), st.integers(0, 4),
    st.sampled_from(["set", "drop", "add", "copy", "delete"]),
    st.sampled_from(_TENSOR_FUZZ_FIELDS)), min_size=1, max_size=4)


_TINY_EMBED = ["--dimension", "4", "--window", "2", "--epochs", "1",
               "--walk-length", "4", "--walks-per-node", "1"]


@settings(max_examples=100, deadline=None)
@given(base=_GRAPH_FUZZ_EDITS, tensor=_TENSOR_FUZZ_EDITS)
def test_mutated_store_union_exits_0_or_3(built_store, base, tensor):
    """No mutation of a store's ``base.tsv`` or ``tensor.csv`` makes
    ``embed --flatten union`` end in a traceback or an internal error, or
    run long, and the bulk read of ``tensor.csv`` gives the union or the
    error of the per-line checker alone."""
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "store"
        store_dir.mkdir()
        shutil.copy(built_store / "manifest.json", store_dir)
        _write_mutated(store_dir / "base.tsv", built_store / "base.tsv", base, "\t")
        _write_mutated(store_dir / "tensor.csv", built_store / "tensor.csv", tensor)
        _exits_0_or_3_in_time(["embed", str(store_dir), "--flatten", "union",
                               "--out", str(Path(tmp) / "emb")] + _TINY_EMBED)
        assert _union_outcome(store_dir) == _union_outcome(store_dir, per_line=True)


@settings(max_examples=100, deadline=None)
@given(edits=_GRAPH_FUZZ_EDITS)
def test_mutated_store_snapshot_exits_0_or_3(built_store, edits):
    """No mutation of a store's ``snapshots/000001.tsv`` makes
    ``embed --flatten slice:1`` end in a traceback or an internal error, or
    run long."""
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "store"
        (store_dir / "snapshots").mkdir(parents=True)
        shutil.copy(built_store / "manifest.json", store_dir)
        _write_mutated(store_dir / "snapshots" / "000001.tsv",
                       built_store / "snapshots" / "000001.tsv", edits, "\t")
        _exits_0_or_3_in_time(["embed", str(store_dir), "--flatten", "slice:1",
                               "--out", str(Path(tmp) / "emb")] + _TINY_EMBED)


@pytest.mark.parametrize("line,message", [
    (None, "line 1: expected the header t,i,j,w"),
    ("0,0,1", "not enough values to unpack (expected 4, got 3)"),
    ("0,0,1,1.0,2", "too many values to unpack (expected 4)"),
    ("0,0.5,1,1.0", "invalid literal for int()"),
    ("0,0,1,heavy", "could not convert string to float"),
    ("3,0,1,1.0", "need 0 <= t < 3"),
    ("-1,0,1,1.0", "need 0 <= t < 3"),
    ("0,1,1,1.0", "0 <= i < j <"),
    ("0,2,1,1.0", "0 <= i < j <"),
    ("0,0,{N},1.0", "0 <= i < j <"),
    ("0,0,1,nan", "a finite w"),
    ("0,0,1,inf", "a finite w"),
], ids=["header", "three-fields", "five-fields", "real-index", "text-weight",
        "t-past-T", "negative-t", "self-pair", "i-above-j", "j-past-N",
        "nan-weight", "inf-weight"])
def test_embed_store_bad_tensor_exits_3(runner, data_dir, tmp_path, line,
                                        message):
    store_dir = _build_store(runner, data_dir, tmp_path)
    n = json.loads((store_dir / "manifest.json").read_text())["N"]
    path = store_dir / "tensor.csv"
    lines = path.read_text().splitlines()
    if line is None:
        lines[0] = "t,i,j,weight"
    else:
        lines.insert(2, line.format(N=n))
    path.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["embed", str(store_dir),
                                  "--out", str(tmp_path / "emb")])
    assert result.exit_code == 3, result.output
    where = "line 1" if line is None else "line 3"
    assert f"{path}, {where}" in result.output
    assert message in result.output


def _bulk_parse_rejects(rejects: bool):
    """A context in which numpy's bulk parse of every ``tensor.csv`` run
    fails, if ``rejects``."""
    return mock.patch.object(np, "loadtxt", side_effect=ValueError("rejected")) if rejects \
        else contextlib.nullcontext()


def _union_outcome(store_dir: Path, per_line: bool = False) -> str:
    """What ``embed --flatten union`` reads from a store: the union graph's
    text, or the error message. ``per_line`` reads every run of
    ``tensor.csv`` by the per-line checker alone, as the bulk parse does
    with a run it rejects."""
    with _bulk_parse_rejects(per_line):
        try:
            return temporal.read_store(store_dir, "union", None).to_text()
        except BimvecError as exc:
            return str(exc)


def _arabic_digits(text: str) -> str:
    return text.translate({ord(digit): ord("\u0660") + int(digit) for digit in "0123456789"})


def _field(line: str, field: int, rewrite) -> str:
    fields = line.split(",")
    fields[field] = rewrite(fields[field])
    return ",".join(fields)


def _text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


# the two-office store's tensor.csv lines, its header included
_TENSOR_LINES = 219
# Edits of that tensor.csv's text, its lines given (header first), that
# numpy's parser reads otherwise than int() and float() do, each with what
# the per-line checker makes of it: None for the union of the unedited file,
# else the line it names and the start of its message.
_TENSOR_TEXT_EDITS = {
    "blank-line": (lambda lines: _text(lines[:5] + [""] + lines[5:]),
                   (6, "not enough values to unpack")),
    "underscore-index": (lambda lines: _text(lines[:40] + [_field(
        lines[40], 2, lambda j: j[0] + "_" + j[1:])] + lines[41:]), None),
    "signed-index": (lambda lines: _text(
        lines[:7] + [_field(lines[7], 1, lambda i: " +" + i)] + lines[8:]), None),
    "arabic-index": (lambda lines: _text(
        lines[:9] + [_field(lines[9], 2, _arabic_digits)] + lines[10:]), None),
    "exponent-index": (lambda lines: _text(
        lines[:3] + [_field(lines[3], 2, lambda j: "1e2")] + lines[4:]),
        (4, "invalid literal for int() with base 10: '1e2'")),
    "comment-line": (lambda lines: _text(lines[:2] + ["# windows 0 to 2"] + lines[2:]),
                     (3, "not enough values to unpack")),
    "comment-after-row": (lambda lines: _text(lines[:2] + [lines[2] + " # note"] + lines[3:]),
                          (3, "could not convert string to float")),
    "crlf": (lambda lines: _text([line + "\r" for line in lines]), None),
    "cr-in-row": (lambda lines: _text(
        lines[:6] + [_field(lines[6], 1, lambda i: i + "\r")] + lines[7:]), None),
    "cr-joins-rows": (lambda lines: _text(lines[:6] + [lines[6] + "\r" + lines[7]] + lines[8:]),
                      (7, "too many values to unpack")),
    "cr-joins-rows-before-blank": (lambda lines: _text(
        lines[:6] + [lines[6] + "\r" + lines[7], ""] + lines[8:]),
        (7, "too many values to unpack")),
    "no-final-newline": (lambda lines: "\n".join(lines), None),
    "duplicated-rows": (lambda lines: _text(lines[:30] + lines[10:30] + lines[30:]), None),
    "overflowing-weight": (lambda lines: _text(
        lines[:12] + [_field(lines[12], 3, lambda w: "1e999")] + lines[13:]),
        (13, "need 0 <= t <")),
    "bad-row-late": (lambda lines: _text(
        lines[:-3] + [_field(lines[-3], 3, lambda w: "inf")] + lines[-2:]),
        (_TENSOR_LINES - 2, "need 0 <= t <")),
}


@pytest.mark.parametrize("chunk", [1 << 14, 100], ids=["one-run", "runs"])
@pytest.mark.parametrize("edit", sorted(_TENSOR_TEXT_EDITS))
def test_tensor_bulk_read_equals_line_checker(built_store, tmp_path, monkeypatch, edit, chunk):
    """The bulk read of ``tensor.csv`` gives the union, or the message and
    line, of the per-line checker alone, which is the parent reader's: also
    on text that numpy reads otherwise than ``int()`` and ``float()`` do."""
    clean = _union_outcome(built_store)
    store_dir = shutil.copytree(built_store, tmp_path / "store")
    path = store_dir / "tensor.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == _TENSOR_LINES
    rewrite, expected = _TENSOR_TEXT_EDITS[edit]
    path.write_bytes(rewrite(lines).encode())
    monkeypatch.setattr(temporal, "_TENSOR_CHUNK", chunk)
    outcome = _union_outcome(store_dir)
    assert outcome == _union_outcome(store_dir, per_line=True)
    if expected is None:
        assert outcome == clean
    else:
        line, message = expected
        assert outcome.startswith(f"{path}, line {line}: {message}"), outcome


@pytest.mark.parametrize("chunk", [1 << 14, 100], ids=["one-run", "runs"])
@pytest.mark.parametrize("unreadable", [
    lambda line: _field(line, 2, lambda j: "1e2"),
    lambda line: _field(line, 1, lambda i: i + "\udcff"),
], ids=["exponent-index", "not-utf8"])
def test_tensor_first_bad_line_in_run_wins(built_store, tmp_path, monkeypatch, unreadable,
                                           chunk):
    """Inside one run of ``tensor.csv`` (lines 2 to 10 are one run at both
    sizes), a line that breaks a rule is named before a later line that
    cannot be read, on the bulk and the per-line path."""
    store_dir = shutil.copytree(built_store, tmp_path / "store")
    path = store_dir / "tensor.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[4] = _field(lines[4], 3, lambda w: "inf")
    lines[8] = unreadable(lines[8])
    path.write_bytes(_text(lines).encode("utf-8", "surrogateescape"))
    monkeypatch.setattr(temporal, "_TENSOR_CHUNK", chunk)
    for per_line in (False, True):
        outcome = _union_outcome(store_dir, per_line)
        assert outcome.startswith(f"{path}, line 5: need 0 <= t <"), outcome


def _store_pairs(store_dir: Path) -> tuple[list[int], list[int], set]:
    """The store's base node positions, its other node positions, and its
    base pairs."""
    order = json.loads((store_dir / "manifest.json").read_text())["node_index"]
    base = PropertyGraph.from_text((store_dir / "base.tsv").read_text())
    index = {node: k for k, node in enumerate(order)}
    pairs = {tuple(sorted((index[edge.a], index[edge.b]))) for edge in base.edges()}
    inside = [k for k, node in enumerate(order) if node in base]
    return inside, [k for k in range(len(order)) if order[k] not in base], pairs


@pytest.mark.parametrize("per_line", [False, True], ids=["bulk", "per-line"])
@pytest.mark.parametrize("pair", ["base-nodes", "outside-nodes"])
def test_embed_store_rejects_pairs_snapshot_never_writes(runner, built_store, tmp_path,
                                                         per_line, pair):
    """A tensor row whose pair is neither a base edge nor joins a node
    outside the base (an occupant) to a base node exits 3 naming its line,
    whichever path reads it; before, the union turned it into an AT edge."""
    store_dir = shutil.copytree(built_store, tmp_path / "store")
    inside, outside, pairs = _store_pairs(store_dir)
    if pair == "base-nodes":
        i, j = next((i, j) for i in inside for j in inside if i < j and (i, j) not in pairs)
    else:
        i, j = outside[:2]
    path = store_dir / "tensor.csv"
    with path.open("a", encoding="utf-8") as fp:
        fp.write(f"1,{i},{j},1.0\n")
    with _bulk_parse_rejects(per_line):
        result = runner.invoke(main, ["embed", str(store_dir), "--out", str(tmp_path / "emb")]
                               + _TINY_EMBED)
    assert result.exit_code == 3, result.output
    assert (f"{path}, line {_TENSOR_LINES + 1}: pair ({i}, {j}) is neither a base edge "
            f"nor joins an occupant to a base node") in result.output


@pytest.mark.parametrize("per_line", [False, True], ids=["bulk", "per-line"])
@pytest.mark.parametrize("field,value", [(1, "9" * 20), (0, "-" + "9" * 20)],
                         ids=["20-digit-i", "negative-20-digit-t"])
def test_embed_store_index_past_int64_exits_3(runner, built_store, tmp_path, per_line,
                                              field, value):
    """An integer of a tensor row that int64 cannot hold is out of range,
    whichever path reads it, not a traceback."""
    store_dir = shutil.copytree(built_store, tmp_path / "store")
    manifest = json.loads((store_dir / "manifest.json").read_text())
    path = store_dir / "tensor.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[6] = _field(lines[6], field, lambda _: value)
    path.write_text(_text(lines), encoding="utf-8")
    with _bulk_parse_rejects(per_line):
        result = runner.invoke(main, ["embed", str(store_dir), "--out", str(tmp_path / "emb")]
                               + _TINY_EMBED)
    assert result.exit_code == 3, result.output
    assert (f"{path}, line 7: need 0 <= t < {manifest['T']}, 0 <= i < j < {manifest['N']} "
            f"and a finite w") in result.output


def test_embed_store_non_utf8_tensor_names_line(runner, data_dir, tmp_path):
    store_dir = _build_store(runner, data_dir, tmp_path)
    path = store_dir / "tensor.csv"
    lines = path.read_bytes().split(b"\n")
    lines[40] = lines[40].replace(b",", b"\xff,", 1)
    path.write_bytes(b"\n".join(lines))
    result = runner.invoke(main, ["embed", str(store_dir),
                                  "--out", str(tmp_path / "emb")])
    assert result.exit_code == 3, result.output
    assert f"{path}, line 41: not UTF-8 text" in result.output


@pytest.mark.parametrize("name,source", [("graph.tsv", "graph.tsv"),
                                         ("store/base.tsv", "store")])
def test_non_utf8_graph_file_names_line(runner, data_dir, tmp_path, name, source):
    _build_store(runner, data_dir, tmp_path)
    path = tmp_path / name
    lines = path.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b"\t", b"\t\xff", 1)
    path.write_bytes(b"\n".join(lines))
    result = runner.invoke(main, ["embed", str(tmp_path / source),
                                  "--out", str(tmp_path / "emb")])
    assert result.exit_code == 3, result.output
    assert f"error: {path}, line 2: not UTF-8 text\n" in result.output


@pytest.mark.parametrize("sensor_id", ["s\u20281", "s\f1"], ids=["line-separator", "form-feed"])
def test_graph_file_with_any_id_reads_back(runner, data_dir, tmp_path, sensor_id):
    """Graph records end at a newline only, the one character besides
    space, tab and carriage return that an id may not hold."""
    manifest = json.loads((data_dir / "two_space.sensors.json").read_text())
    manifest["sensors"][0]["id"] = sensor_id
    sensors = tmp_path / "sensors.json"
    sensors.write_text(json.dumps(manifest))
    graph_file, store_dir = tmp_path / "graph.tsv", tmp_path / "store"
    for args in (["graph", str(data_dir / "two_space.ifc"),
                  "--footprints", str(data_dir / "two_space.footprints.json"),
                  "--sensors", str(sensors), "--out", str(graph_file), "--cell-size", "2.0"],
                 ["snapshot", str(graph_file), "--fixes", str(data_dir / "fixes.csv"),
                  "--out", str(store_dir)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    _embed(runner, graph_file, tmp_path / "emb")
    metadata = (tmp_path / "emb" / "metadata.tsv").read_text(encoding="utf-8")
    assert f"\nsensor:{sensor_id}\tSENSOR\t" in metadata


def test_embed_store_bad_base_record_names_file(runner, data_dir, tmp_path):
    store_dir = _build_store(runner, data_dir, tmp_path)
    path = store_dir / "base.tsv"
    text = path.read_text()
    path.write_text(text + "N\tbad\n")
    result = runner.invoke(main, ["embed", str(store_dir),
                                  "--out", str(tmp_path / "emb")])
    assert result.exit_code == 3, result.output
    assert f"error: {path}, line {text.count(chr(10)) + 1}: bad node record\n" in result.output


# Records appended to a graph file whose last line is bad, and the reason
# given for that line.
@pytest.mark.parametrize("record,reason", [
    ("N\tx\tX\t[1]\n", "attributes must be a JSON object"),
    ("N\tx\tX\tnull\n", "attributes must be a JSON object"),
    ("N\tx\tX\t{}\nE\t5\tx\tE\t1.0\t5\n", "attributes must be a JSON object"),
    ("N\tx\tX\t" + "[" * 100_000 + "\n", "attributes are nested too deeply"),
    ('N\tx\tX\t{}\nN\ty\tX\t{"a": }\n', "attributes are not JSON: Expecting value"),
    ("N\tx\tX\t{}\nE\t5\tx\tE\tabc\t{}\n", "could not convert string to float: 'abc'"),
    ("N\tx\tX\t{}\nE\t5\tx\tE\t0\t{}\n", "edge weight must be positive and finite, got 0.0"),
    ("N\tx\tX\t{}\nE\t5\tx\tE\tnan\t{}\n", "edge weight must be positive and finite, got nan"),
    ("N\tx\tX\t{}\nN\tx\tX\t{}\n", "node 'x' already exists"),
    ("N\tx\tX\t{}\nE\tx\tnowhere\tE\t1.0\t{}\n", "edge endpoint 'nowhere' is not a node"),
    ("N\tx\tX\t{}\nE\tx\tx\tE\t1.0\t{}\n", "self-loop on 'x' is not allowed"),
    ("N\t\tX\t{}\n", "invalid node id ''"),
    ('N\tx\tX\t{"a": NaN}\n', "attributes hold a non-finite number, NaN"),
    ('N\tx\tX\t{}\nE\t5\tx\tE\t1.0\t{"a": [1, -Infinity]}\n',
     "attributes hold a non-finite number, -Infinity"),
    ('N\tx\tX\t{"a": {"b": 1e999}}\n', "attributes hold a non-finite number, 1e999"),
], ids=["node-list", "node-null", "edge-number", "deep-nesting", "invalid-json",
        "weight-text", "weight-zero", "weight-nan", "duplicate-node", "unknown-endpoint",
        "self-loop", "empty-id", "attribute-nan", "attribute-infinity", "attribute-overflow"])
def test_graph_attributes_not_an_object_exit_3(runner, data_dir, checkpoint, tmp_path,
                                               record, reason):
    """Every rejected graph record names the file and its line."""
    graph_file = tmp_path / "graph.tsv"
    text = (checkpoint.parent.parent / "graph.tsv").read_text() + record
    graph_file.write_text(text)
    line = text.count("\n")
    for argv in (["snapshot", str(graph_file), "--fixes", str(data_dir / "fixes.csv"),
                  "--out", str(tmp_path / "store")],
                 ["embed", str(graph_file), "--out", str(tmp_path / "emb")]):
        result = runner.invoke(main, argv)
        assert result.exit_code == 3, result.output
        assert result.output.endswith(f"error: {graph_file}, line {line}: {reason}\n")


def test_graph_text_reads_back_as_written(checkpoint, tmp_path, monkeypatch):
    """A graph file that ``graph`` wrote reads back to its own text, and
    each line is the one its record renders when built in code: the
    two-office fixture's graph and a generated tower's."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    import gen

    inputs = gen.tower(str(tmp_path / "inputs"), 1)
    paths, tower = inputs["paths"], tmp_path / "tower.tsv"
    result = CliRunner().invoke(main, [
        "graph", paths["ifc"], "--footprints", paths["footprints"],
        "--sensors", paths["sensors"], "--cell-size", str(inputs["cell_size"]),
        "--out", str(tower)])
    assert result.exit_code == 0, result.output
    for path in (checkpoint.parent.parent / "graph.tsv", tower):
        text = path.read_text(encoding="utf-8")
        graph = read_graph(path)
        assert graph.to_text() == text
        rendered = PropertyGraph()
        for node in graph.nodes():
            rendered.add_node(node.id, node.label, node.attributes)
        for edge in graph.edges():
            rendered.add_edge(edge.a, edge.b, edge.label, edge.weight, edge.attributes)
        assert rendered.to_text() == text


def _non_canonical(text: str) -> str:
    """``text`` with each edge's endpoints reversed, a weight ``1.0``
    written ``1``, and each attribute object compact with its keys in
    reverse order."""
    lines = []
    for line in text.splitlines():
        fields = line.split("\t")
        attributes = json.loads(fields[-1])
        fields[-1] = json.dumps(dict(reversed(attributes.items())), separators=(",", ":"))
        if fields[0] == "E":
            fields[1], fields[2] = fields[2], fields[1]
            fields[4] = "1" if fields[4] == "1.0" else fields[4]
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def _graph_content(path: Path) -> tuple:
    """The graph in ``path`` as its ids, labels, weighted edges and decoded
    attributes."""
    graph = read_graph(path)
    return ({node.id: (node.label, dict(node.attributes)) for node in graph.nodes()},
            sorted((edge.a, edge.b, edge.label, edge.weight,
                    json.dumps(dict(edge.attributes), sort_keys=True))
                   for edge in graph.edges()))


def test_non_canonical_graph_file_gives_the_same_graph(runner, data_dir, checkpoint,
                                                       tmp_path):
    """Records are written back as read, so a valid line in another
    spelling stays in it, and every command reads the same graph from it."""
    canonical = checkpoint.parent.parent / "graph.tsv"
    other = tmp_path / "other.tsv"
    other.write_text(_non_canonical(canonical.read_text()))
    assert "\t1\t{" in other.read_text() and '{"relationship":' in other.read_text()
    for name, path in (("canonical", canonical), ("other", other)):
        store = tmp_path / name / "store"
        result = runner.invoke(main, [
            "snapshot", str(path), "--readings", str(data_dir / "readings.csv"),
            "--fixes", str(data_dir / "fixes.csv"), "--out", str(store), "--step", "300"])
        assert result.exit_code == 0, result.output
        _embed(runner, path, tmp_path / name / "emb")
        _embed(runner, store, tmp_path / name / "union", extra=["--flatten", "union"])
    one, two = tmp_path / "canonical", tmp_path / "other"
    assert (sorted((two / "store" / "base.tsv").read_text().splitlines())
            == sorted(other.read_text().splitlines()))
    assert _graph_content(other) == _graph_content(canonical)
    files = sorted(p.relative_to(one).as_posix() for p in one.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(two).as_posix() for p in two.rglob("*") if p.is_file())
    for name in files:
        if name.endswith(".tsv") and name.startswith("store/"):
            assert _graph_content(one / name) == _graph_content(two / name), name
        else:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name


def test_query_filter_returns_only_cells(runner, data_dir, tmp_path):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    out_dir = tmp_path / "emb"
    _embed(runner, graph_file, out_dir)
    result = runner.invoke(main, [
        "query", str(out_dir / "checkpoint.bin"), "cell:5:0:0",
        "-k", "5", "--filter", "CELL",
    ])
    assert result.exit_code == 0, result.output
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 5
    for rank, line in enumerate(lines, start=1):
        fields = line.split("\t")
        assert fields[0] == str(rank)
        assert fields[1].startswith("cell:")
        float(fields[2])


@pytest.mark.parametrize("cut,extra", [(3, b""), (200, b""), (0, b"\0\0")],
                         ids=["cut-3", "cut-200", "trailing-2"])
def test_query_checkpoint_of_wrong_length_exits_3(runner, data_dir, tmp_path,
                                                  cut, extra):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    _embed(runner, graph_file, tmp_path / "emb")
    checkpoint = tmp_path / "emb" / "checkpoint.bin"
    data = checkpoint.read_bytes()
    checkpoint.write_bytes(data[:len(data) - cut] + extra)
    result = runner.invoke(main, ["query", str(checkpoint), "cell:5:0:0"])
    assert result.exit_code == 3, result.output
    assert str(checkpoint) in result.output


@pytest.mark.parametrize("option,value", [("--min-lr", "nan"), ("--initial-lr", "inf")])
def test_embed_non_finite_learning_rate_exits_3(runner, data_dir, tmp_path, option, value):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    result = runner.invoke(main, ["embed", str(graph_file), "--out",
                                  str(tmp_path / "emb"), option, value])
    assert result.exit_code == 3, result.output
    assert "must be finite" in result.output
    assert not (tmp_path / "emb").exists()


@pytest.mark.parametrize("option,message", [
    ("--walks-per-node", "walks_per_node must be >= 1"),
    ("--negatives", "negatives and epochs must be >= 1"),
    ("--epochs", "negatives and epochs must be >= 1"),
    ("--initial-lr", "initial_lr must be > 0 and min_lr >= 0"),
])
def test_embed_zero_walk_or_training_number_exits_3(runner, data_dir, tmp_path, option,
                                                     message):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    result = runner.invoke(main, ["embed", str(graph_file), "--out",
                                  str(tmp_path / "emb"), option, "0"])
    assert result.exit_code == 3, result.output
    assert f"error: {message}\n" in result.output
    assert not (tmp_path / "emb").exists()


@pytest.mark.parametrize("long_id,long_label,message", [
    ("x" * 70_001, "CELL", f"node {'x' * 40 + '...'!r}: its id is 70,001 UTF-8 bytes"),
    ("c", "L" * 70_001, "node 'c': its label is 70,001 UTF-8 bytes"),
    ("\u00e9" * 32_768, "CELL", "its id is 65,536 UTF-8 bytes"),
], ids=["long-id", "long-label", "long-utf8-id"])
def test_embed_id_or_label_too_long_for_checkpoint_exits_3(runner, tmp_path, monkeypatch,
                                                           long_id, long_label, message):
    """A checkpoint stores each id and label with a 16-bit byte length, so a
    longer one is rejected before any walk, and no output is made."""
    import bimvec.walks

    def no_walks(*args, **kwargs):
        raise AssertionError("walked a graph that cannot be saved")

    monkeypatch.setattr(bimvec.walks, "generate_walks", no_walks)
    graph_file = tmp_path / "graph.tsv"
    graph_file.write_text(f"N\ta\tCELL\t{{}}\nN\tb\tCELL\t{{}}\n"
                          f"N\t{long_id}\t{long_label}\t{{}}\n"
                          f"E\ta\tb\tADJACENT\t1.0\t{{}}\n"
                          f"E\tb\t{long_id}\tADJACENT\t1.0\t{{}}\n", encoding="utf-8")
    result = runner.invoke(main, ["embed", str(graph_file), "--out", str(tmp_path / "emb")])
    assert result.exit_code == 3, result.output
    assert message in result.output
    assert "a checkpoint holds at most 65,535" in result.output
    assert not (tmp_path / "emb").exists()


@pytest.mark.parametrize("command", ["query", "predict"])
def test_checkpoint_with_nan_entry_exits_3(runner, data_dir, checkpoint, tmp_path, command):
    bad = tmp_path / "checkpoint.bin"
    data = bytearray(checkpoint.read_bytes())
    data[16 + 4 * 3:16 + 4 * 4] = struct.pack("<f", float("nan"))
    bad.write_bytes(bytes(data))
    extra = ["--labels", str(data_dir / "labels.csv")] if command == "predict" else []
    result = runner.invoke(main, [command, str(bad), "cell:5:0:0"] + extra)
    assert result.exit_code == 3, result.output
    assert f"{bad} has non-finite vector entries" in result.output


def test_checkpoint_with_flipped_vector_byte_exits_3(runner, checkpoint, tmp_path):
    """A finite value changed inside the vector table fails the CRC32."""
    bad = tmp_path / "checkpoint.bin"
    data = bytearray(checkpoint.read_bytes())
    assert struct.unpack_from("<I", data, 4) == (2,)
    data[16 + 4 * 3] ^= 0x01  # the lowest mantissa bit of the fourth entry
    bad.write_bytes(bytes(data))
    result = runner.invoke(main, ["query", str(bad), "cell:5:0:0"])
    assert result.exit_code == 3, result.output
    assert f"{bad} fails its CRC32 check" in result.output


def test_checkpoint_with_non_utf8_vocabulary_byte_fails_its_crc32(runner, checkpoint, tmp_path):
    """The CRC32 is checked before the vocabulary is decoded."""
    bad = tmp_path / "checkpoint.bin"
    data = bytearray(checkpoint.read_bytes())
    data[-10] = 0xff  # inside the last vocabulary entry
    bad.write_bytes(bytes(data))
    result = runner.invoke(main, ["query", str(bad), "cell:5:0:0"])
    assert result.exit_code == 3, result.output
    assert f"{bad} fails its CRC32 check" in result.output


def test_version_1_checkpoint_with_non_utf8_id_names_file(runner, tmp_path):
    path = tmp_path / "v1.bin"
    data = struct.pack("<4sIII", b"BMV1", 1, 2, 1) + struct.pack("<4f", 1, 0, 0, 1)
    path.write_bytes(data + struct.pack("<H", 2) + b"a\xff" + struct.pack("<H", 0))
    result = runner.invoke(main, ["query", str(path), "a"])
    assert result.exit_code == 3, result.output
    assert f"error: {path} has a vocabulary entry that is not UTF-8 text\n" in result.output


_CHECKPOINT_BYTES = [b"\x00", b"\xff", b"\x00\x00\xc0\x7f", b"\x00\x00\x80\x7f",
                     b"\xff\xff\xff\x7f", b"\xff\xff\xff\xff", b"\x00\x00\x00\x00",
                     b"\x01\x00\x00\x00", b"BMV1", b"\xc3\x28", b"\x00\x01"]


@settings(max_examples=60, deadline=None)
@given(edits=st.lists(st.tuples(
    st.one_of(st.integers(0, 20), st.integers(0, 5000)),
    st.sampled_from(["set", "insert", "delete", "cut"]),
    st.one_of(st.sampled_from(_CHECKPOINT_BYTES), st.binary(min_size=1, max_size=4))),
    min_size=1, max_size=4))
def test_mutated_checkpoint_exits_0_or_3(data_dir, checkpoint, edits):
    """No mutation of a checkpoint's bytes makes ``query`` or ``predict``
    end in a traceback (exit 1) or an internal error (exit 4), or run long."""
    data = bytearray(checkpoint.read_bytes())
    for position, edit, value in edits:
        at = position % (len(data) + 1)
        if edit == "set":
            data[at:at + len(value)] = value
        elif edit == "insert":
            data[at:at] = value
        elif edit == "delete":
            del data[at:at + len(value)]
        else:
            del data[at:]
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / "checkpoint.bin"
        mutated.write_bytes(bytes(data))
        for args in (["query", str(mutated), "cell:5:0:0", "-k", "3"],
                     ["predict", str(mutated), "cell:5:0:0",
                      "--labels", str(data_dir / "labels.csv")]):
            _exits_0_or_3_in_time(args)


def test_predict_prints_one_hot(runner, data_dir, tmp_path):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    store_dir = tmp_path / "store"
    runner.invoke(main, [
        "snapshot", str(graph_file),
        "--readings", str(data_dir / "readings.csv"),
        "--fixes", str(data_dir / "fixes.csv"),
        "--out", str(store_dir), "--step", "300",
    ])
    out_dir = tmp_path / "emb"
    _embed(runner, store_dir, out_dir)
    result = runner.invoke(main, [
        "predict", str(out_dir / "checkpoint.bin"), "cell:5:0:0",
        "--labels", str(data_dir / "labels.csv"), "-k", "2",
    ])
    assert result.exit_code == 0, result.output
    one_hot = result.stdout.strip().split("\t")[0]
    assert one_hot in ("[1, 0, 0]", "[0, 1, 0]", "[0, 0, 1]")


# ---------------------------------------------------------------------------
# config handling and exit codes
# ---------------------------------------------------------------------------

def test_config_file_applies_and_flags_override(runner, data_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("cell_size=3.0\nstep=120\n")
    out = tmp_path / "graph.tsv"
    result = runner.invoke(main, [
        "--config", str(config),
        "graph", str(data_dir / "two_space.ifc"),
        "--footprints", str(data_dir / "two_space.footprints.json"),
        "--out", str(out), "--cell-size", "2.0",
    ])
    assert result.exit_code == 0, result.output
    graph = PropertyGraph.from_text(out.read_text())
    # flag wins: cell size 2 means 9 cells per 6x6 space
    assert graph.node("5").attributes["grid_cell_size"] == 2.0


def test_unknown_config_key_exits_2(runner, data_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("not_a_key=1\n")
    result = runner.invoke(main, [
        "--config", str(config), "parse", str(data_dir / "minimal.ifc"),
    ])
    assert result.exit_code == 2


@pytest.mark.parametrize("flag", ["--fixed-window", "--dynamic-window"])
def test_window_switch_flags_exit_2(runner, data_dir, tmp_path, flag):
    """Training always draws a dynamic reach, and embed has no flag to
    switch it: passing one is a usage error."""
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    result = runner.invoke(main, ["embed", str(graph_file), "--out", str(tmp_path / "emb"),
                                  flag])
    assert result.exit_code == 2, result.output
    assert "No such option" in result.output and flag in result.output
    assert not (tmp_path / "emb").exists()


def test_object_prefixes_in_config_are_upper_cased_and_stripped(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("object_prefixes= ifcwall , ifcspace,\n")
    assert load_config(config).object_prefixes == ("IFCWALL", "IFCSPACE")


def test_negative_train_seed_exits_3_naming_seed(runner, data_dir, tmp_path):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    result = runner.invoke(main, ["embed", str(graph_file), "--out", str(tmp_path / "emb"),
                                  "--train-seed", "-1"])
    assert result.exit_code == 3, result.output
    assert "seed must be >= 0, got -1" in result.output
    assert not (tmp_path / "emb").exists()


@pytest.mark.parametrize("text,message", [
    (b"cell_size=2.0\n\xff\n", "not UTF-8 text"),
    (b"relation.IFCRELAGGREGATES=AGG:-1:5\n", ":1: relation rule indices must be >= 0"),
    (b"step=60\nrelation.IFCRELAGGREGATES=AGG:4:-2\n", ":2: relation rule indices must be >= 0"),
    (b"relation.IFCRELAGGREGATES=AG\tG:4:5\n", "invalid relation label 'AG\\tG'"),
    (b"relation.IFCRELAGGREGATES=:4:5\n", "invalid relation label ''"),
    (b"adjacency=hex\n", "adjacency must be rook or queen, got 'hex'"),
    (b"flatten=slice:abc\n", "flatten must be union or slice:<t>, got 'slice:abc'"),
    (b"strict=maybe\n", ":1: not a boolean: 'maybe'"),
    (b"step=60\ndimension=abc\n", ":2: bad value for dimension: 'abc'"),
    (b"step 60\n", ":1: expected key=value"),
    (b"relation_overrides=x\n", ":1: use relation.<TYPE> keys"),
    (b"relation.IFCRELAGGREGATES=AGG:4\n",
     ":1: relation rule must be LABEL:relating:related, got 'AGG:4'"),
    (b"subsample_threshold=0\n", ":1: unknown key 'subsample_threshold'"),
    (b"dynamic_window=true\n", ":1: unknown key 'dynamic_window'"),
], ids=["non-utf8", "negative-relating", "negative-related", "tab-in-label", "empty-label",
        "bad-adjacency", "bad-flatten", "bad-boolean", "bad-integer", "no-equals",
        "relation-overrides-key", "two-part-rule", "subsample-threshold", "dynamic-window"])
def test_bad_config_file_exits_2_naming_it(runner, data_dir, tmp_path, text, message):
    """A config file that cannot be read, or a relation rule that would
    read from the end of the attribute list or write a graph file nothing
    can read back, is a usage error: exit 2, nothing written."""
    config = tmp_path / "run.cfg"
    config.write_bytes(text)
    out = tmp_path / "graph.tsv"
    result = runner.invoke(main, [
        "--config", str(config), "graph", str(data_dir / "two_space.ifc"),
        "--footprints", str(data_dir / "two_space.footprints.json"),
        "--out", str(out), "--cell-size", "2.0",
    ])
    assert result.exit_code == 2, (result.output, result.exception)
    assert f"error: {config}" in result.output
    assert message in result.output
    assert not out.exists()


def test_config_path_that_is_a_directory_exits_2(runner, data_dir, tmp_path):
    result = runner.invoke(main, ["--config", str(tmp_path), "parse",
                                  str(data_dir / "minimal.ifc")])
    assert result.exit_code == 2, (result.output, result.exception)
    assert f"error: {tmp_path}: " in result.output


def test_missing_argument_exits_2(runner):
    result = runner.invoke(main, ["graph"])
    assert result.exit_code == 2


def test_help_documents_every_command(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for command in ("parse", "graph", "snapshot", "embed", "query", "predict"):
        assert command in result.stdout
        sub = runner.invoke(main, [command, "--help"])
        assert sub.exit_code == 0
        assert "--help" in sub.stdout


def test_parse_graph_and_snapshot_never_load_numpy(data_dir, tmp_path):
    """Only the commands that train or read vectors import numpy: the
    package, the CLI module and ``parse``, ``graph`` and ``snapshot`` run
    without it, in a fresh interpreter."""
    graph_file, store = tmp_path / "graph.tsv", tmp_path / "store"
    commands = [
        ["parse", str(data_dir / "two_space.ifc")],
        ["graph", str(data_dir / "two_space.ifc"),
         "--footprints", str(data_dir / "two_space.footprints.json"),
         "--sensors", str(data_dir / "two_space.sensors.json"),
         "--out", str(graph_file), "--cell-size", "2.0"],
        ["snapshot", str(graph_file), "--readings", str(data_dir / "readings.csv"),
         "--fixes", str(data_dir / "fixes.csv"), "--out", str(store)],
    ]
    script = (
        "import sys\n"
        "import bimvec\n"
        "import bimvec.cli\n"
        f"for args in {commands!r}:\n"
        "    bimvec.cli.main(args, standalone_mode=False)\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'numpy'))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(bimvec.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert (store / "tensor.csv").exists()
    assert result.stdout.splitlines()[-1] == "[]"


def _modules_loaded(commands: list[list[str]], names: list[str]) -> tuple[list[str], list]:
    """Run the CLI ``commands`` in one fresh interpreter: their stdout
    lines, and which of the modules ``names`` they loaded."""
    script = (
        "import sys\n"
        "import bimvec.cli\n"
        f"for args in {commands!r}:\n"
        "    bimvec.cli.main(args, standalone_mode=False)\n"
        f"print([name for name in {names!r} if name in sys.modules])\n")
    env = {**os.environ, "PYTHONPATH": str(Path(bimvec.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    return lines[:-1], ast.literal_eval(lines[-1])


def _query_and_predict(checkpoint, tmp_path) -> list[list[str]]:
    labels = tmp_path / "labels.csv"
    labels.write_text("node_id,feedback\ncell:5:0:1,comfortable\ncell:7:0:0,neutral\n")
    return [["query", str(checkpoint), "cell:5:0:0", "-k", "3"],
            ["predict", str(checkpoint), "cell:5:0:0", "--labels", str(labels), "-k", "1"]]


def test_snapshot_query_and_predict_never_load_parser_or_walker(data_dir, checkpoint,
                                                                 tmp_path):
    """``snapshot``, ``query`` and ``predict`` run in a fresh interpreter
    without importing the STEP parser, the IFC mapping or the walker."""
    graph_file, store = _build_graph_file(CliRunner(), data_dir, tmp_path), tmp_path / "store"
    commands = [
        ["snapshot", str(graph_file), "--readings", str(data_dir / "readings.csv"),
         "--fixes", str(data_dir / "fixes.csv"), "--out", str(store)],
    ] + _query_and_predict(checkpoint, tmp_path)
    unused = ["bimvec.ifc_graph", "bimvec.sgns", "bimvec.step_parser", "bimvec.walks"]
    lines, loaded = _modules_loaded(commands, unused)
    assert (store / "tensor.csv").exists()
    assert [line.split("\t")[0] for line in lines[3:6]] == ["1", "2", "3"]
    assert lines[6].startswith("[") and loaded == []


def test_parse_query_and_predict_never_load_temporal_or_grid(data_dir, checkpoint, tmp_path):
    """``parse``, ``query`` and ``predict`` run in a fresh interpreter
    without importing the snapshot builder or the grid."""
    commands = [["parse", str(data_dir / "two_space.ifc")]] + _query_and_predict(
        checkpoint, tmp_path)
    lines, loaded = _modules_loaded(commands, ["bimvec.space_grid", "bimvec.temporal"])
    assert lines[0].startswith("entities\t")
    assert [line.split("\t")[0] for line in lines[-4:-1]] == ["1", "2", "3"]
    assert lines[-1].startswith("[") and loaded == []


def test_graph_never_loads_snapshots_walker_trainer_or_numpy(data_dir, tmp_path,
                                                             fixture_manifest):
    """``graph`` runs in a fresh interpreter without importing the snapshot
    builder, the walker, the trainer, the checkpoint store or numpy."""
    out = tmp_path / "graph.tsv"
    commands = [["graph", str(data_dir / "two_space.ifc"),
                 "--footprints", str(data_dir / "two_space.footprints.json"),
                 "--sensors", str(data_dir / "two_space.sensors.json"),
                 "--cell-size", "2.0", "--out", str(out)]]
    unused = ["bimvec.temporal", "bimvec.walks", "bimvec.sgns", "bimvec.store", "numpy"]
    lines, loaded = _modules_loaded(commands, unused)
    assert lines[:3] == [f"nodes\t{fixture_manifest['nodes']}",
                         f"edges\t{fixture_manifest['edges']}", f"graph\t{out}"]
    assert out.exists() and loaded == []


def test_run_config_defaults_are_the_stage_defaults():
    assert RunConfig().train_config() == TrainConfig()
    assert RunConfig().walk_config() == WalkConfig()
    assert RunConfig().relation_mapping() == RelationMapping()
    assert inspect.signature(build_snapshots).parameters["max_gap"].default \
        == RunConfig().max_gap
    assert inspect.signature(generate_walks).parameters["workers"].default \
        == RunConfig().workers


def _imported(module_name: str, name: str):
    """What ``from module_name import name`` binds: an attribute of the
    module, or else its submodule (``ImportError`` when neither exists)."""
    module = importlib.import_module(module_name)
    if not hasattr(module, name):
        importlib.import_module(f"{module_name}.{name}")
    return getattr(module, name)


def test_benchmark_names_resolve():
    """``bench/layers.py`` calls bimvec in process, so every name it imports
    from bimvec, every ``temporal.X`` and ``space_grid.X`` it reads, and every
    keyword it passes to one of them must still exist."""
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "layers.py").read_text(
        encoding="utf-8"))
    names = {alias.asname or alias.name: _imported(node.module, alias.name)
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bimvec")
             for alias in node.names}
    modules = {name: names[name] for name in ("space_grid", "temporal")}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr):
            missing.append(ast.unparse(node))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            target = names.get(func.id)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id in modules:
            target = getattr(modules[func.value.id], func.attr, None)
        else:
            target = None
        if target is not None:
            parameters = inspect.signature(target).parameters
            missing += [f"{ast.unparse(func)}({kw.arg}=)" for kw in node.keywords
                        if kw.arg is not None and kw.arg not in parameters]
    assert missing == []


def test_only_the_cli_imports_package_modules_inside_functions():
    """Each module imports what it needs at its top, so its imports show its
    dependencies; only the CLI defers them, so a command loads what it runs."""
    found = []
    for path in sorted(Path(bimvec.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}: TYPE_CHECKING" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "TYPE_CHECKING"]
        if path.name == "cli.py":
            continue
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.ImportFrom):
                    modules = [("." * node.level) + (node.module or "")]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}: {module}" for module in modules
                          if module.startswith(".") or module.split(".")[0] == "bimvec"]
    assert found == []


def test_effective_config_is_echoed(runner, data_dir):
    result = runner.invoke(main, ["parse", str(data_dir / "minimal.ifc")])
    assert result.exit_code == 0
    assert "config cell_size=" in result.stderr
    assert "config step=" in result.stderr


def test_log_level_env_var(runner, data_dir):
    result = runner.invoke(main, ["parse", str(data_dir / "minimal.ifc")],
                           env={"BIMVEC_LOG": "ERROR"})
    assert result.exit_code == 0
    assert "config cell_size=" not in result.stderr


def test_graph_and_snapshot_idempotent(runner, data_dir, tmp_path):
    outputs = []
    for run in ("one", "two"):
        graph_file = tmp_path / run / "graph.tsv"
        graph_file.parent.mkdir()
        result = runner.invoke(main, [
            "graph", str(data_dir / "two_space.ifc"),
            "--footprints", str(data_dir / "two_space.footprints.json"),
            "--sensors", str(data_dir / "two_space.sensors.json"),
            "--out", str(graph_file), "--cell-size", "2.0",
        ])
        assert result.exit_code == 0
        store = tmp_path / run / "store"
        result = runner.invoke(main, [
            "snapshot", str(graph_file),
            "--fixes", str(data_dir / "fixes.csv"),
            "--out", str(store), "--step", "300",
        ])
        assert result.exit_code == 0
        outputs.append((
            graph_file.read_bytes(),
            (store / "manifest.json").read_bytes(),
            (store / "tensor.csv").read_bytes(),
        ))
    assert outputs[0] == outputs[1]


# sha256 of the text outputs on the two-office fixture. checkpoint.bin is
# not pinned: its float32 bytes depend on the BLAS build.
PINNED_SHA256 = {
    "graph.tsv":
        "ac29554ddda74f8503b5c859b80e17b90dd431e16e63617ac28e922f787eebdb",
    "p1/walks.txt":
        "cd858e781cedc178ae2318b4eb131bbd7f186d0084f9d823ac487c7a0249116c",
    "q05/walks.txt":
        "0741cee305ed50d12d973d8384b142cd63169bac3effe8936710da178e29e4af",
    "store/base.tsv":
        "ac29554ddda74f8503b5c859b80e17b90dd431e16e63617ac28e922f787eebdb",
    "store/manifest.json":
        "d849079c336a21dd6ecc812420e57608b65f910dd9b7dc501fa208238ae8855e",
    "store/snapshots/000000.tsv":
        "47a15d401afbb12f509e8a02ca7dc52e772bc8369ced60c3b934202d81f1a899",
    "store/snapshots/000001.tsv":
        "0fc0e33d7057f9f96fbe2b4e8bb59b11dcd161ed11e7cd46b5999686b79a9baa",
    "store/snapshots/000002.tsv":
        "884bc679a02cb213b6898958b9f0b5814ed13ba59b44ef6457e7ea5e278f14bc",
    "store/tensor.csv":
        "60441f8fa86eb6f9eeb289b4d58ff65df5e31ddb463729a7b0751f5c6369195f",
}


def test_text_outputs_are_pinned(runner, data_dir, tmp_path):
    store_dir = _build_store(runner, data_dir, tmp_path)
    _embed(runner, tmp_path / "graph.tsv", tmp_path / "p1", extra=["--dump-walks"])
    _embed(runner, tmp_path / "graph.tsv", tmp_path / "q05",
           extra=["--dump-walks", "--q", "0.5"])
    paths = [tmp_path / "graph.tsv", tmp_path / "p1" / "walks.txt",
             tmp_path / "q05" / "walks.txt",
             *sorted(p for p in store_dir.rglob("*") if p.is_file())]
    assert {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths} == PINNED_SHA256


def test_embed_dump_walks(runner, data_dir, tmp_path):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    out_dir = tmp_path / "emb"
    _embed(runner, graph_file, out_dir, extra=["--dump-walks"])
    walks = (out_dir / "walks.txt").read_text().splitlines()
    graph = PropertyGraph.from_text(graph_file.read_text())
    assert len(walks) == 2 * len(graph)  # walks_per_node = 2
    node_ids = set(graph.node_ids())
    assert set(walks[0].split()) <= node_ids


def test_embed_inf_edge_weight_exits_3(runner, tmp_path):
    graph_file = tmp_path / "graph.tsv"
    graph_file.write_text("N\ta\tN\t{}\nN\tb\tN\t{}\n"
                          "N\tc\tN\t{}\nE\ta\tb\tE\t1.0\t{}\n"
                          "E\tb\tc\tE\tinf\t{}\n")
    result = runner.invoke(main, ["embed", str(graph_file),
                                  "--out", str(tmp_path / "emb")])
    assert result.exit_code == 3, result.output
    assert "finite" in result.output


def test_embed_q_out_of_range_exits_3(runner, data_dir, tmp_path):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    result = runner.invoke(main, ["embed", str(graph_file), "--out",
                                  str(tmp_path / "emb"), "--q", "0.05"])
    assert result.exit_code == 3, result.output
    assert "[0.1, 10.0]" in result.output


def test_internal_invariant_maps_to_exit_4():
    from bimvec.cli import _command
    from bimvec.errors import InternalInvariantError

    @_command
    def explode():
        raise InternalInvariantError("boom")

    with pytest.raises(SystemExit) as exc_info:
        explode()
    assert exc_info.value.code == 4


def test_relation_override_in_config(runner, data_dir, tmp_path):
    config = tmp_path / "run.cfg"
    # stop expanding space boundaries
    config.write_text("relation.IFCRELSPACEBOUNDARY=IGNORED:0:0\n")
    out = tmp_path / "graph.tsv"
    result = runner.invoke(main, [
        "--config", str(config),
        "graph", str(data_dir / "two_space.ifc"),
        "--footprints", str(data_dir / "two_space.footprints.json"),
        "--out", str(out), "--cell-size", "2.0",
    ])
    assert result.exit_code == 0, result.output
    graph = PropertyGraph.from_text(out.read_text())
    assert not [e for e in graph.edges() if e.label == "BOUNDED_BY"]
