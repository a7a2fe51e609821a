"""Snapshot construction, tensor export, and flatten tests against
hand-built expected structures."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bimvec.cli import main
from bimvec.config import RunConfig
from bimvec.errors import BimvecError
from bimvec import graph as graph_module
from bimvec.graph import PropertyGraph
from bimvec.space_grid import (
    Footprint,
    attach_fixed_node,
    discretize,
    merge_into,
    spaces_from_graph,
)
from bimvec import temporal
from bimvec.temporal import (
    OccupantFix,
    SensorReading,
    Snapshot,
    TemporalGraph,
    adjacency_tensor,
    build_snapshots,
    flatten,
    load_fixes_csv,
    load_readings_csv,
    store_windows,
)

CELL_A = "cell:5:0:0"  # center (1, 1)
CELL_B = "cell:5:0:1"  # center (3, 1)


def two_cell_base():
    graph = PropertyGraph()
    graph.add_node("5", "IFCSPACE")
    space = discretize(Footprint("5", ((0, 0), (4, 0), (4, 2), (0, 2))), 2.0)
    merge_into(graph, space)
    graph.add_node("sensor:s1", "SENSOR")
    attach_fixed_node(graph, space, "sensor:s1", (1.0, 1.0), 0.0)
    return graph, space


def move_fixes():
    return [
        OccupantFix("occupant:alice", 0, "5", (1.0, 1.0)),
        OccupantFix("occupant:alice", 60, "5", (3.0, 1.0)),
    ]


def _edge_keys(graph):
    return sorted((e.a, e.b, e.label) for e in graph.edges())


def _weighted_edges(graph):
    return sorted((e.a, e.b, e.label, e.weight) for e in graph.edges())


# ---------------------------------------------------------------------------
# build_snapshots
# ---------------------------------------------------------------------------

def test_occupant_move_gives_two_snapshots_with_swapped_edges():
    base, space = two_cell_base()
    tg = build_snapshots(base, [space], [], move_fixes(), 60,
                         occupant_radius=0.5)
    assert len(tg) == 2
    first = _edge_keys(tg.snapshots[0].graph)
    second = _edge_keys(tg.snapshots[1].graph)
    assert (CELL_A, "occupant:alice", "AT") in first
    assert (CELL_B, "occupant:alice", "AT") not in first
    assert (CELL_B, "occupant:alice", "AT") in second
    assert (CELL_A, "occupant:alice", "AT") not in second


def test_sensor_only_snapshot_keeps_base_edges():
    base, space = two_cell_base()
    tg = build_snapshots(
        base, [space], [SensorReading("sensor:s1", 0, "temperature", 24.5)],
        [], 60,
    )
    assert len(tg) == 1
    snapshot = tg.snapshots[0].graph
    assert snapshot.node("sensor:s1").attributes["temperature"] == 24.5
    assert _edge_keys(snapshot) == _edge_keys(base)


def test_feedback_encodes_one_hot():
    base, space = two_cell_base()
    fixes = [OccupantFix("occupant:o", 0, "5", (1.0, 1.0), "uncomfortable")]
    tg = build_snapshots(base, [space], [], fixes, 60)
    node = tg.snapshots[0].graph.node("occupant:o")
    assert node.attributes["feedback"] == [0, 1, 0]


def test_unknown_feedback_rejected():
    with pytest.raises(ValueError):
        OccupantFix("occupant:o", 0, "5", (1.0, 1.0), "meh")


def test_carry_forward_caps_at_max_gap():
    base, space = two_cell_base()
    fixes = [OccupantFix("occupant:o", 0, "5", (1.0, 1.0))]
    readings = [SensorReading("sensor:s1", 300, "co2", 600.0)]
    tg = build_snapshots(base, [space], readings, fixes, 60,
                         occupant_radius=0.5, max_gap=2)
    present = ["occupant:o" in s.graph for s in tg.snapshots]
    assert len(tg) == 6
    assert present == [True, True, True, False, False, False]


def test_latest_fix_in_window_wins():
    base, space = two_cell_base()
    fixes = [
        OccupantFix("occupant:o", 10, "5", (1.0, 1.0)),
        OccupantFix("occupant:o", 50, "5", (3.0, 1.0)),
    ]
    tg = build_snapshots(base, [space], [], fixes, 60, occupant_radius=0.5)
    keys = _edge_keys(tg.snapshots[0].graph)
    assert (CELL_B, "occupant:o", "AT") in keys
    assert (CELL_A, "occupant:o", "AT") not in keys


def test_equal_timestamp_records_normalized_by_node_id():
    base, space = two_cell_base()
    readings = [
        SensorReading("sensor:s1", 0, "temperature", 1.0),
        SensorReading("sensor:s1", 0, "temperature", 2.0),
    ]
    # identical (timestamp, node): input order must not matter
    tg_fwd = build_snapshots(base, [space], readings, [], 60)
    tg_rev = build_snapshots(base, [space], list(reversed(readings)), [], 60)
    value_fwd = tg_fwd.snapshots[0].graph.node("sensor:s1").attributes["temperature"]
    value_rev = tg_rev.snapshots[0].graph.node("sensor:s1").attributes["temperature"]
    assert value_fwd == value_rev


def test_unknown_sensor_and_space_rejected():
    base, space = two_cell_base()
    with pytest.raises(BimvecError, match="^reading references missing sensor 'sensor:ghost'$"):
        build_snapshots(base, [space],
                        [SensorReading("sensor:ghost", 0, "t", 1.0)], [], 60)
    with pytest.raises(BimvecError, match="^fix references space '9' with no grid$"):
        build_snapshots(base, [space], [],
                        [OccupantFix("occupant:o", 0, "9", (0.0, 0.0))], 60)


def test_empty_timeline_rejected():
    base, space = two_cell_base()
    with pytest.raises(BimvecError, match="^no readings and no fixes$"):
        build_snapshots(base, [space], [], [], 60)


def test_snapshot_minus_occupants_recovers_base():
    base, space = two_cell_base()
    tg = build_snapshots(base, [space], [], move_fixes(), 60)
    base_nodes = set(base.node_ids())
    for snapshot in tg.snapshots:
        nodes = {nid for nid in snapshot.graph.node_ids()
                 if snapshot.graph.node(nid).label != "OCCUPANT"}
        assert nodes == base_nodes
        edges = [(e.a, e.b, e.label, e.weight) for e in snapshot.graph.edges()
                 if "occupant:alice" not in (e.a, e.b)]
        assert sorted(edges) == sorted(
            (e.a, e.b, e.label, e.weight) for e in base.edges())


def test_snapshot_construction_deterministic():
    base, space = two_cell_base()
    readings = [SensorReading("sensor:s1", 30, "temperature", 22.0)]
    first = build_snapshots(base, [space], readings, move_fixes(), 60)
    second = build_snapshots(base, [space], list(readings),
                             list(reversed(move_fixes())), 60)
    assert len(first) == len(second)
    for a, b in zip(first.snapshots, second.snapshots):
        assert a.timestamp == b.timestamp
        assert a.graph.to_text() == b.graph.to_text()


def test_window_count_is_bounded_before_any_window_is_built(monkeypatch):
    base, space = two_cell_base()
    monkeypatch.setattr(temporal, "MAX_WINDOWS", 3)
    readings = [SensorReading("sensor:s1", 0, "t", 1.0),
                SensorReading("sensor:s1", 120, "t", 2.0)]
    assert len(build_snapshots(base, [space], readings, [], 60)) == 3
    monkeypatch.setattr(base, "copy", None)  # no window may be built
    readings.append(SensorReading("sensor:s1", 180, "t", 3.0))
    with pytest.raises(ValueError, match=r"spans 180 s.*step 60 s is 4 windows"
                                         r".*raise --step"):
        build_snapshots(base, [space], readings, [], 60)


@pytest.mark.parametrize("occupant,message", [
    ("sensor:s1", "already a base node"),
    ("occupant:a b", "invalid node id"),
], ids=["base-node", "whitespace"])
def test_bad_occupant_id_fails_at_build(occupant, message):
    base, space = two_cell_base()
    fixes = [OccupantFix(occupant, 0, "5", (1.0, 1.0))]
    with pytest.raises(ValueError, match=message):
        build_snapshots(base, [space], [], fixes, 60)


def test_occupant_in_cell_missing_from_base_fails_at_build():
    base, _ = two_cell_base()
    wider = discretize(Footprint("5", ((0, 0), (8, 0), (8, 2), (0, 2))), 2.0)
    fixes = [OccupantFix("occupant:o", 0, "5", (7.0, 1.0))]
    with pytest.raises(BimvecError,
                       match="^fix places 'occupant:o' in missing cell 'cell:5:0:3'$"):
        build_snapshots(base, [wider], [], fixes, 60, occupant_radius=0.5)


def test_snapshot_reads_are_equal_and_independent():
    base, space = two_cell_base()
    readings = [SensorReading("sensor:s1", 0, "temperature", 21.5)]
    tg = build_snapshots(base, [space], readings, move_fixes(), 60)
    first, second = tg.snapshots[0], tg.snapshots[0]
    assert first.timestamp == second.timestamp == 0
    assert first.graph.to_text() == second.graph.to_text()
    first.graph.set_node_attribute("sensor:s1", "temperature", 0.0)
    first.graph.add_node("extra", "X")
    first.graph.add_edge("extra", CELL_A, "E")
    assert second.graph.to_text() == tg.snapshots[0].graph.to_text()
    assert second.graph.node("sensor:s1").attributes["temperature"] == 21.5
    assert "temperature" not in base.node("sensor:s1").attributes
    assert "occupant:alice" not in base
    assert [s.timestamp for s in tg.snapshots] == [0, 60]
    assert tg.snapshots[-1].timestamp == 60


def test_window_graph_shares_untouched_records_with_base():
    base, space = two_cell_base()
    readings = [SensorReading("sensor:s1", 0, "temperature", 21.5)]
    window = build_snapshots(base, [space], readings, move_fixes(), 60).snapshots[0].graph
    assert window.node(CELL_A) is base.node(CELL_A)
    assert window.node("5") is base.node("5")
    assert window.node("sensor:s1") is not base.node("sensor:s1")
    assert all(new is old for new, old in zip(window.edges(), base.edges()))
    assert window.edge_count > base.edge_count


def test_window_text_encodes_only_changed_records(monkeypatch):
    base, space = two_cell_base()
    readings = [SensorReading("sensor:s1", 0, "temperature", 21.5)]
    tg = build_snapshots(base, [space], readings, move_fixes(), 60)
    base.to_text()
    calls = []
    encode = graph_module._encode
    monkeypatch.setattr(graph_module, "_encode",
                        lambda value: calls.append(value) or encode(value))
    # Window 0 changes the sensor and adds alice and her AT edges; window 1
    # only moves alice.
    for index, changed_nodes in ((0, 2), (1, 1)):
        window = tg.snapshots[index].graph
        calls.clear()
        window.to_text()
        assert len(calls) == changed_nodes + window.edge_count - base.edge_count
        calls.clear()
        window.to_text()
        assert calls == []


def test_node_index_is_every_node_of_any_snapshot():
    base, space = two_cell_base()
    fixes = move_fixes() + [OccupantFix("occupant:bob", 600, "5", (1.0, 1.0)),
                            OccupantFix("occupant:eve", 60, "5", (99.0, 99.0))]
    tg = build_snapshots(base, [space], [], fixes, 60, max_gap=2)
    node_ids = sorted({n for s in tg.snapshots for n in s.graph.node_ids()})
    assert tg.node_index == {n: i for i, n in enumerate(node_ids)}
    assert "occupant:bob" in tg.node_index
    assert "occupant:eve" not in tg.node_index


# ---------------------------------------------------------------------------
# adjacency_tensor
# ---------------------------------------------------------------------------

def test_single_edge_tensor():
    graph = PropertyGraph()
    graph.add_node("u", "X")
    graph.add_node("v", "X")
    graph.add_edge("u", "v", "E", 1.0)
    tg = TemporalGraph(graph, [Snapshot(0, graph)], {"u": 0, "v": 1})
    export = adjacency_tensor(tg)
    assert export.manifest["T"] == 1
    assert export.manifest["N"] == 2
    assert export.records == [(0, 0, 1, 1.0)]


def _with_sensor(graph: PropertyGraph) -> PropertyGraph:
    out = graph.copy()
    out.add_node("sensor:x", "SENSOR")
    return out


def test_tensor_matches_hand_built_coordinates():
    base, space = two_cell_base()
    tg = build_snapshots(base, [space], [], move_fixes(), 60,
                         occupant_radius=0.5)
    export = adjacency_tensor(tg)
    index = {nid: i for i, nid in enumerate(export.manifest["node_index"])}
    a, b = index[CELL_A], index[CELL_B]
    occ, sensor = index["occupant:alice"], index["sensor:s1"]
    expected = sorted([
        (0, min(a, b), max(a, b), 1.0),          # ADJACENT
        (0, min(a, sensor), max(a, sensor), 1.0),  # static sensor AT
        (0, min(a, occ), max(a, occ), 1.0),      # occupant in cell A
        (1, min(a, b), max(a, b), 1.0),
        (1, min(a, sensor), max(a, sensor), 1.0),
        (1, min(b, occ), max(b, occ), 1.0),      # occupant moved to cell B
    ])
    assert export.records == expected


def test_tensor_slices_symmetric_zero_diagonal():
    base, space = two_cell_base()
    tg = build_snapshots(base, [space], [], move_fixes(), 60)
    export = adjacency_tensor(tg)
    n = export.manifest["N"]
    for t in range(export.manifest["T"]):
        dense = np.zeros((n, n))
        for rt, i, j, w in export.records:
            if rt == t:
                dense[i, j] = w
                dense[j, i] = w
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0)


def test_empty_slice_still_counted_in_manifest():
    graph = _with_sensor(PropertyGraph())
    readings = [SensorReading("sensor:x", 0, "t", 1.0),
                SensorReading("sensor:x", 120, "t", 2.0)]
    tg = build_snapshots(graph, [], readings, [], 60)
    export = adjacency_tensor(tg)
    assert export.manifest["T"] == 3
    assert export.records == []


# ---------------------------------------------------------------------------
# store_windows
# ---------------------------------------------------------------------------

# Two-office timelines: "x" overwrites the sensors' own x attribute, and the
# (99, 99) fix matches no cell.
_readings = st.lists(st.builds(
    SensorReading, st.sampled_from(["sensor:s1", "sensor:s2"]), st.integers(0, 1500),
    st.sampled_from(["temperature", "co2", "x"]), st.floats(-50, 50)), max_size=8)
_fixes = st.lists(st.builds(
    OccupantFix, st.sampled_from(["occupant:a", "occupant:b", "occupant:c"]),
    st.integers(0, 1500), st.sampled_from(["5", "7"]),
    st.one_of(st.tuples(st.floats(0, 12), st.floats(0, 6)), st.just((99.0, 99.0))),
    st.sampled_from([None, "comfortable", "uncomfortable", "neutral"])), max_size=8)


@settings(max_examples=100, deadline=None)
@given(readings=_readings, fixes=_fixes, step=st.sampled_from([60, 300]),
       max_gap=st.integers(0, 3))
def test_store_windows_equal_snapshot_text_and_tensor(two_space_graph, readings,
                                                      fixes, step, max_gap):
    assume(readings or fixes)
    tg = build_snapshots(two_space_graph, spaces_from_graph(two_space_graph),
                         readings, fixes, step, max_gap=max_gap)
    records = adjacency_tensor(tg).records
    windows = list(store_windows(tg))
    assert len(windows) == len(tg)
    for t, (timestamp, text, rows, count) in enumerate(windows):
        snapshot = tg.snapshots[t]
        assert timestamp == snapshot.timestamp
        assert text == snapshot.graph.to_text()
        expected = [f"{t},{i},{j},{w!r}\n" for rt, i, j, w in records if rt == t]
        assert rows == "".join(expected)
        assert count == len(expected)


# ---------------------------------------------------------------------------
# flatten
# ---------------------------------------------------------------------------

def test_union_weight_is_snapshot_frequency():
    base, space = two_cell_base()
    tg = build_snapshots(base, [space], [], move_fixes(), 60,
                         occupant_radius=0.5)
    union = flatten(tg, "union")
    at = {(e.a, e.b): e.weight for e in union.edges()
          if "occupant:alice" in (e.a, e.b)}
    assert at == {
        (CELL_A, "occupant:alice"): 0.5,
        (CELL_B, "occupant:alice"): 0.5,
    }


def test_union_weights_match_independent_counts():
    base, space = two_cell_base()
    fixes = move_fixes() + [OccupantFix("occupant:alice", 120, "5", (3.0, 1.0))]
    tg = build_snapshots(base, [space], [], fixes, 60, occupant_radius=0.5)
    union = flatten(tg, "union")
    base_keys = {(e.a, e.b, e.label) for e in base.edges()}
    counts: dict = {}
    for snapshot in tg.snapshots:
        for key in {(e.a, e.b, e.label) for e in snapshot.graph.edges()}:
            if key not in base_keys:
                counts[key] = counts.get(key, 0) + 1
    new_edges = [e for e in union.edges() if (e.a, e.b, e.label) not in base_keys]
    assert new_edges
    for edge in new_edges:
        assert 0.0 < edge.weight <= 1.0
        assert edge.weight == counts[(edge.a, edge.b, edge.label)] / len(tg)


def test_union_of_single_snapshot_equals_snapshot():
    base, space = two_cell_base()
    fixes = [OccupantFix("occupant:o", 0, "5", (1.0, 1.0))]
    tg = build_snapshots(base, [space], [], fixes, 60, occupant_radius=0.5)
    union, snapshot = flatten(tg, "union"), tg.snapshots[0].graph
    assert union.labels() == snapshot.labels()
    assert union.node_ids() == snapshot.node_ids()
    assert _weighted_edges(union) == _weighted_edges(snapshot)


def test_flatten_of_plain_snapshot_list():
    base, space = two_cell_base()
    built = build_snapshots(base, [space], [], move_fixes(), 60,
                            occupant_radius=0.5)
    plain = TemporalGraph(base, list(built.snapshots), built.node_index)
    assert adjacency_tensor(plain) == adjacency_tensor(built)
    assert flatten(plain, "union").to_text() == flatten(built, "union").to_text()
    sliced = flatten(plain, "slice", 1)
    assert sliced.to_text() == flatten(built, "slice", 1).to_text()
    sliced.add_node("extra", "X")
    assert "extra" not in plain.snapshots[1].graph


def test_slice_returns_snapshot_and_range_checked():
    base, space = two_cell_base()
    tg = build_snapshots(base, [space], [], move_fixes(), 60)
    assert flatten(tg, "slice", 1).to_text() == tg.snapshots[1].graph.to_text()
    with pytest.raises(BimvecError, match="^slice 5 out of range for 2 snapshots$"):
        flatten(tg, "slice", 5)


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------

def test_load_readings_csv(data_dir):
    readings = load_readings_csv(data_dir / "readings.csv")
    assert len(readings) == 5
    assert readings[0].sensor_node == "sensor:s1"
    assert readings[0].channel == "temperature"
    assert readings[0].value == 24.5


def test_load_fixes_csv(data_dir):
    fixes = load_fixes_csv(data_dir / "fixes.csv")
    assert len(fixes) == 4
    assert fixes[0].occupant_node == "occupant:alice"
    assert fixes[0].space_node == "5"
    assert fixes[0].feedback == "comfortable"
    assert fixes[2].feedback is None  # blank feedback column


def test_snapshot_store_equals_reference_path(tmp_path, monkeypatch):
    """On bench/gen.py's tower-timeline inputs (36 windows), every file
    ``bimvec snapshot`` writes equals the one written from
    ``build_snapshots``, each snapshot graph's ``to_text`` and
    ``adjacency_tensor``."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    import gen

    inputs = gen.tower(str(tmp_path / "inputs"), 1)
    paths, step = inputs["paths"], inputs["step"]
    graph_path, store = tmp_path / "graph.tsv", tmp_path / "store"
    for args in (["graph", paths["ifc"], "--footprints", paths["footprints"],
                  "--sensors", paths["sensors"], "--cell-size", str(inputs["cell_size"]),
                  "--out", str(graph_path)],
                 ["snapshot", str(graph_path), "--readings", paths["readings"],
                  "--fixes", paths["fixes"], "--step", str(step), "--out", str(store)]):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output

    base = PropertyGraph.from_text(graph_path.read_text(encoding="utf-8"))
    cfg = RunConfig()
    tg = build_snapshots(base, spaces_from_graph(base), load_readings_csv(paths["readings"]),
                         load_fixes_csv(paths["fixes"]), step,
                         occupant_radius=cfg.occupant_radius, max_gap=cfg.max_gap)
    export = adjacency_tensor(tg)
    reference = {
        "base.tsv": base.to_text(),
        "manifest.json": json.dumps({**export.manifest, "step": step}, indent=2) + "\n",
        "tensor.csv": "t,i,j,w\n" + "".join(f"{t},{i},{j},{w!r}\n"
                                            for t, i, j, w in export.records),
    }
    for t, snapshot in enumerate(tg.snapshots):
        reference[f"snapshots/{t:06d}.tsv"] = snapshot.graph.to_text()
    assert len(tg) == 36
    written = sorted(p.relative_to(store).as_posix() for p in store.rglob("*") if p.is_file())
    assert written == sorted(reference)
    for name, text in reference.items():
        assert (store / name).read_bytes() == text.encode("utf-8"), name
