"""Per-time-step building graph snapshots and the temporal adjacency tensor.

The time axis is bucketed into fixed windows. In each window the latest
occupant fix resolves to AT edges against the containing / nearby grid
cells, the latest sensor reading per channel lands as a node attribute, and
comfort feedback is written as a one-hot attribute. Occupants with no fix
carry their last known cells forward for up to ``max_gap`` windows.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Sequence

from .errors import BimvecError
from .fileio import read_csv
from .graph import Edge, Node, NodeId, PropertyGraph, check_token
from .space_grid import AT_LABEL, DiscretizedSpace, cells_near

logger = logging.getLogger(__name__)

OCCUPANT_LABEL = "OCCUPANT"
# Windows are deltas on the base graph, written one at a time as the base's
# rendered lines plus what the window changed, so memory does not grow with
# their count, but the time and the store do (each window's full text and
# tensor rows are written), so one outlying timestamp must not set it; a
# week of 1-minute windows is 10,080.
MAX_WINDOWS = 100_000

FEEDBACK_ENCODING: dict[str, list[int]] = {
    "comfortable": [1, 0, 0],
    "uncomfortable": [0, 1, 0],
    "neutral": [0, 0, 1],
}


@dataclass(frozen=True)
class SensorReading:
    sensor_node: NodeId
    timestamp: int
    channel: str
    value: float

    def __post_init__(self):
        if self.timestamp < 0:
            raise ValueError("timestamp must be non-negative")
        if not self.channel:
            raise ValueError("channel must be non-empty")
        if not math.isfinite(self.value):
            raise ValueError(f"reading value must be finite, got {self.value!r}")


@dataclass(frozen=True)
class OccupantFix:
    occupant_node: NodeId
    timestamp: int
    space_node: NodeId
    position: tuple[float, float]
    feedback: str | None = None

    def __post_init__(self):
        if self.timestamp < 0:
            raise ValueError("timestamp must be non-negative")
        if not all(math.isfinite(c) for c in self.position):
            raise ValueError(f"fix position must be finite, got {self.position!r}")
        if self.feedback is not None and self.feedback not in FEEDBACK_ENCODING:
            raise ValueError(f"unknown feedback value {self.feedback!r}")


@dataclass
class Snapshot:
    timestamp: int
    graph: PropertyGraph


@dataclass
class TemporalGraph:
    base: PropertyGraph
    snapshots: Sequence[Snapshot]
    node_index: dict[NodeId, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.snapshots)


# ---------------------------------------------------------------------------
# Snapshot construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _OccupantState:
    """The records that the fix of window ``window`` adds, built once and
    shared by the windows that carry it."""

    node: Node
    edges: tuple[Edge, ...]
    window: int


@dataclass(frozen=True)
class _Snapshots(Sequence[Snapshot]):
    """Per window: timestamp, placed occupants in id order, latest value per
    (sensor, channel). Each read builds a new graph from the base; none is
    kept."""

    base: PropertyGraph
    windows: list[tuple[int, list[_OccupantState], dict]]

    def __len__(self) -> int:
        return len(self.windows)

    def __getitem__(self, index: int) -> Snapshot:
        timestamp, nodes, edges, readings = self.delta(index)
        graph = self.base.copy()
        for node in nodes:
            graph.add_node(node.id, node.label, node.attributes)
        for edge in edges:
            graph.add_edge(edge.a, edge.b, edge.label, edge.weight)
        for (sensor, channel), value in readings.items():
            graph.set_node_attribute(sensor, channel, value)
        return Snapshot(timestamp, graph)

    def delta(self, index: int) -> tuple[int, list[Node], list[Edge], dict]:
        """What window ``index`` changes on the base: its timestamp, its
        occupant nodes in id order, their AT edges in the order they are
        added, and its latest value per (sensor, channel)."""
        timestamp, occupants, readings = self.windows[index]
        return (timestamp, [state.node for state in occupants],
                [edge for state in occupants for edge in state.edges], readings)


def build_snapshots(
    base: PropertyGraph,
    spaces: Sequence[DiscretizedSpace],
    readings: Sequence[SensorReading],
    fixes: Sequence[OccupantFix],
    step: int,
    occupant_radius: float | None = None,
    max_gap: int = 10,
) -> TemporalGraph:
    """Bucket readings and fixes into ``step``-second windows, one snapshot
    per window spanning the data.

    The base is kept once and each window's graph is built when it is read.
    ``occupant_radius`` defaults to each space's cell size. Records sharing
    a window are normalized by (timestamp, node id) and the latest wins.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if max_gap < 0:
        raise ValueError(f"max_gap must be >= 0, got {max_gap}")
    if not readings and not fixes:
        raise BimvecError("no readings and no fixes")

    space_index = {space.space_node: space for space in spaces}
    for reading in readings:
        if reading.sensor_node not in base:
            raise BimvecError(f"reading references missing sensor {reading.sensor_node!r}")
    for fix in fixes:
        if fix.space_node not in space_index:
            raise BimvecError(f"fix references space {fix.space_node!r} with no grid")

    timestamps = [r.timestamp for r in readings] + [f.timestamp for f in fixes]
    t0 = min(timestamps)
    n_windows = (max(timestamps) - t0) // step + 1
    if n_windows > MAX_WINDOWS:
        raise ValueError(f"timeline spans {max(timestamps) - t0} s, which at step "
                         f"{step} s is {n_windows:,} windows, above the limit of "
                         f"{MAX_WINDOWS:,}; raise --step")

    # Normalize by (timestamp, node id), then by the remaining fields so
    # construction is independent of input order even for exact duplicates.
    latest_by_window: dict[int, dict[tuple[NodeId, str], float]] = {}
    for reading in sorted(readings, key=lambda r: (
            r.timestamp, r.sensor_node, r.channel, r.value)):
        latest_by_window.setdefault((reading.timestamp - t0) // step, {})[
            (reading.sensor_node, reading.channel)] = reading.value
    fixes_by_window: dict[int, list[OccupantFix]] = {}
    for fix in sorted(fixes, key=lambda f: (
            f.timestamp, f.occupant_node, f.space_node, f.position,
            f.feedback or "")):
        fixes_by_window.setdefault((fix.timestamp - t0) // step, []).append(fix)

    windows = []
    occupant_states: dict[NodeId, _OccupantState] = {}
    for window in range(n_windows):
        # Latest fix per occupant in this window replaces the carried state.
        window_fixes: dict[NodeId, OccupantFix] = {}
        for fix in fixes_by_window.get(window, []):
            window_fixes[fix.occupant_node] = fix
        for occupant, fix in window_fixes.items():
            cells = cells_near(space_index[fix.space_node], fix.position,
                               occupant_radius)
            if not cells:
                logger.warning(
                    "fix for %s at %s matched no cell; occupant absent this window",
                    occupant, fix.position,
                )
                occupant_states.pop(occupant, None)
                continue
            # Reject at build time what adding the occupant on a read would.
            check_token(occupant, "node id")
            if occupant in base:
                raise ValueError(f"occupant {occupant!r} is already a base node")
            for cell_id in cells:
                if cell_id not in base:
                    raise BimvecError(f"fix places {occupant!r} in missing cell {cell_id!r}")
            attributes: dict = {"x": fix.position[0], "y": fix.position[1]}
            if fix.feedback is not None:
                attributes["feedback"] = list(FEEDBACK_ENCODING[fix.feedback])
            occupant_states[occupant] = _OccupantState(
                Node(occupant, OCCUPANT_LABEL, MappingProxyType(attributes)),
                tuple(Edge(*sorted((occupant, cell_id)), AT_LABEL, 1.0, MappingProxyType({}))
                      for cell_id in cells), window)
        for occupant, state in list(occupant_states.items()):
            if occupant not in window_fixes and window - state.window > max_gap:
                del occupant_states[occupant]

        carried = [occupant_states[o] for o in sorted(occupant_states)]
        windows.append((t0 + window * step, carried, latest_by_window.get(window, {})))

    placed = {state.node.id for _, occupants, _ in windows for state in occupants}
    node_ids = sorted([*base.node_ids(), *placed])
    node_index = {nid: i for i, nid in enumerate(node_ids)}
    return TemporalGraph(base, _Snapshots(base, windows), node_index)


# ---------------------------------------------------------------------------
# Tensor export
# ---------------------------------------------------------------------------

@dataclass
class TensorExport:
    """T x N x N weighted adjacency stack in coordinate form.

    ``records`` holds (t, i, j, weight) with i < j; each slice is symmetric
    with a zero diagonal by construction.
    """

    manifest: dict
    records: list[tuple[int, int, int, float]]


def _pair_weights(edges: Iterable[Edge], node_index: dict[NodeId, int]
                  ) -> dict[tuple[int, int], float]:
    """``edges`` as {(i, j): w} under ``node_index``, i < j, parallel edges
    summed in edge order."""
    aggregated: dict[tuple[int, int], float] = {}
    for edge in edges:
        i, j = node_index[edge.a], node_index[edge.b]
        if i > j:
            i, j = j, i
        aggregated[(i, j)] = aggregated.get((i, j), 0.0) + edge.weight
    return aggregated


def tensor_manifest(tg: TemporalGraph, timestamps: list[int]) -> dict:
    """The store manifest's tensor keys: shape, node ordering, timestamps."""
    return {
        "T": len(tg.snapshots),
        "N": len(tg.node_index),
        "node_index": sorted(tg.node_index, key=tg.node_index.get),
        "timestamps": timestamps,
    }


def adjacency_tensor(tg: TemporalGraph) -> TensorExport:
    """Each window's weighted adjacency under the shared node ordering, read
    from its snapshot graph, as (t, i, j, w) records sorted by (i, j) with
    i < j; parallel edges are summed into one coefficient."""
    if not tg.snapshots:
        raise ValueError("temporal graph has no snapshots")
    records: list[tuple[int, int, int, float]] = []
    timestamps = []
    for t, snapshot in enumerate(tg.snapshots):
        timestamps.append(snapshot.timestamp)
        pairs = _pair_weights(snapshot.graph.edges(), tg.node_index)
        records += [(t, i, j, w) for (i, j), w in sorted(pairs.items())]
    return TensorExport(tensor_manifest(tg, timestamps), records)


def _merged(rows: list[str], keys: list, extra: list[tuple]) -> list[str]:
    """``rows``, sorted by their ``keys``, with the rows of the (key, row)
    pairs of ``extra``, sorted by key, inserted in order."""
    out: list[str] = []
    start = 0
    for key, row in extra:
        end = bisect.bisect_left(keys, key, start)
        out += rows[start:end]
        out.append(row)
        start = end
    out += rows[start:]
    return out


def store_windows(tg: TemporalGraph) -> Iterator[tuple[int, str, str, int]]:
    """Per window of a :func:`build_snapshots` result, in order: its
    timestamp, the text of its snapshot graph, its ``tensor.csv`` rows and
    their count; equal to ``tg.snapshots[t].graph.to_text()`` and
    :func:`adjacency_tensor`'s records for ``t``.

    The base's node lines, sorted edge lines and tensor rows are rendered
    once; each window merges in only the records its delta changes."""
    base, index = tg.base, tg.node_index
    base_ids = base.node_ids()
    position = {node_id: k for k, node_id in enumerate(base_ids)}
    node_lines = [base.node(node_id).line for node_id in base_ids]
    edge_lines = sorted(edge.line for edge in base.edges())
    pairs = sorted(_pair_weights(base.edges(), index).items())
    pair_keys = [pair for pair, _ in pairs]
    pair_rows = [f"{i},{j},{w!r}\n" for (i, j), w in pairs]
    for t in range(len(tg.snapshots)):
        timestamp, occupants, edges, readings = tg.snapshots.delta(t)
        nodes = node_lines
        if readings:
            nodes = list(node_lines)
            channels: dict[NodeId, dict] = {}
            for (sensor, channel), value in readings.items():
                channels.setdefault(sensor, {})[channel] = value
            for sensor, values in channels.items():
                node = base.node(sensor)
                nodes[position[sensor]] = Node(sensor, node.label, MappingProxyType(
                    {**node.attributes, **values})).line
        nodes = _merged(nodes, base_ids, [(node.id, node.line) for node in occupants])
        lines = _merged(edge_lines, edge_lines, sorted((e.line, e.line) for e in edges))
        rows = _merged(pair_rows, pair_keys, [
            ((i, j), f"{i},{j},{w!r}\n")
            for (i, j), w in sorted(_pair_weights(edges, index).items())])
        prefix = f"{t},"
        yield (timestamp, "\n".join(nodes + lines) + "\n",
               prefix + prefix.join(rows) if rows else "", len(rows))


# ---------------------------------------------------------------------------
# Static projections
# ---------------------------------------------------------------------------

def union_graph(base: PropertyGraph, node_order: Sequence[NodeId],
                records: Iterable[tuple[int, int, int, float]],
                windows: int) -> PropertyGraph:
    """The base graph plus one AT edge per pair of the (t, i, j, w)
    ``records`` that is not a base pair, weighted by the fraction of the
    ``windows`` containing it. Nodes of ``node_order`` missing from the base
    are added as occupants, without per-window attributes."""
    index = {nid: i for i, nid in enumerate(node_order)}
    base_pairs = {tuple(sorted((index[e.a], index[e.b]))) for e in base.edges()}
    counts: dict[tuple[NodeId, NodeId], int] = {}
    for _, i, j in {(t, i, j) for t, i, j, _ in records if (i, j) not in base_pairs}:
        pair = tuple(sorted((node_order[i], node_order[j])))
        counts[pair] = counts.get(pair, 0) + 1
    out = base.copy()
    for node_id in sorted(nid for nid in node_order if nid not in base):
        out.add_node(node_id, OCCUPANT_LABEL)
    for (a, b), count in sorted(counts.items()):
        out.add_edge(a, b, AT_LABEL, count / windows)
    return out


def flatten(tg: TemporalGraph, mode: str = "union",
            index: int | None = None) -> PropertyGraph:
    """Project the temporal graph to a static one.

    ``union`` is :func:`union_graph` over the adjacency tensor; ``slice``
    returns snapshot ``index``'s graph unchanged.
    """
    if mode == "slice":
        if index is None or not (0 <= index < len(tg.snapshots)):
            raise BimvecError(f"slice {index} out of range for {len(tg.snapshots)} snapshots")
        return tg.snapshots[index].graph.copy()
    if mode != "union":
        raise ValueError(f"unknown flatten mode {mode!r}")
    export = adjacency_tensor(tg)
    return union_graph(tg.base, export.manifest["node_index"], export.records,
                       len(tg))


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------

def sensor_node_id(sensor_id: str) -> NodeId:
    return f"sensor:{sensor_id}"


def occupant_node_id(occupant_id: str) -> NodeId:
    return f"occupant:{occupant_id}"


def load_readings_csv(path) -> list[SensorReading]:
    """Rows of ``timestamp,sensor_id,channel,value`` (header optional)."""
    return read_csv(path, "timestamp", 4, lambda row: SensorReading(
        sensor_node_id(row[1]), int(row[0]), row[2], float(row[3])))


def load_fixes_csv(path) -> list[OccupantFix]:
    """Rows of ``timestamp,occupant_id,space_id,x,y,feedback?`` (header
    optional)."""
    return read_csv(path, "timestamp", 5, lambda row: OccupantFix(
        occupant_node_id(row[1]), int(row[0]), row[2],
        (float(row[3]), float(row[4])), row[5] if len(row) > 5 and row[5] else None))
