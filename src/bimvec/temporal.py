"""Per-time-step building graph snapshots and the temporal adjacency tensor.

The time axis is bucketed into fixed windows. In each window the latest
occupant fix resolves to AT edges against the containing / nearby grid
cells, the latest sensor reading per channel lands as a node attribute, and
comfort feedback is written as a one-hot attribute. Occupants with no fix
carry their last known cells forward for up to ``max_gap`` windows.
"""

from __future__ import annotations

import bisect
import collections
import json
import logging
import math
import os
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Sequence

from .config import COMFORT_CLASSES, COMFORT_ONE_HOT, RunConfig
from .errors import BimvecError
from .fileio import (
    atomic_open, atomic_write_text, checked_lines, open_text, read_csv, read_json)
from .graph import Edge, Node, NodeId, PropertyGraph, check_token, read_graph
from .space_grid import AT_LABEL, DiscretizedSpace, cells_near, sensor_node_id

logger = logging.getLogger(__name__)

OCCUPANT_LABEL = "OCCUPANT"
# Windows are deltas on the base graph, written one at a time as the base's
# rendered lines plus what the window changed, so memory does not grow with
# their count, but the time and the store do (each window's full text and
# tensor rows are written), so one outlying timestamp must not set it; a
# week of 1-minute windows is 10,080.
MAX_WINDOWS = 100_000


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
        if self.feedback is not None and self.feedback not in COMFORT_CLASSES:
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
    max_gap: int = RunConfig.max_gap,
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
                attributes["feedback"] = list(COMFORT_ONE_HOT[COMFORT_CLASSES.index(fix.feedback)])
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


def _tensor_manifest(tg: TemporalGraph, timestamps: list[int]) -> dict:
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
    return TensorExport(_tensor_manifest(tg, timestamps), records)


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

    The base's node lines and sorted edge lines are its records' own, so a
    base read from text renders none, and its tensor rows are formatted
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
# Store layout
# ---------------------------------------------------------------------------

_TENSOR_HEADER = "t,i,j,w"


def _snapshot_path(store_dir, t: int) -> str:
    return os.path.join(store_dir, "snapshots", f"{t:06d}.tsv")


def write_store(tg: TemporalGraph, out_dir, step: int) -> int:
    """Write the store of a :func:`build_snapshots` result: one
    ``snapshots/<t>.tsv`` per window, ``tensor.csv``, ``manifest.json``
    (with ``step``) and ``base.tsv``. Returns the tensor record count."""
    os.makedirs(os.path.join(out_dir, "snapshots"), exist_ok=True)
    timestamps, records = [], 0
    with atomic_open(os.path.join(out_dir, "tensor.csv")) as tensor:
        tensor.write(_TENSOR_HEADER + "\n")
        for t, (timestamp, text, rows, count) in enumerate(store_windows(tg)):
            timestamps.append(timestamp)
            atomic_write_text(_snapshot_path(out_dir, t), text)
            tensor.write(rows)
            records += count
    manifest = _tensor_manifest(tg, timestamps)
    manifest["step"] = step
    atomic_write_text(os.path.join(out_dir, "manifest.json"),
                      json.dumps(manifest, indent=2) + "\n")
    atomic_write_text(os.path.join(out_dir, "base.tsv"), tg.base.to_text())
    return records


def read_store(store_dir, mode: str, index: int | None) -> PropertyGraph:
    """A store's static graph: :func:`union_graph` of ``base.tsv`` and
    ``tensor.csv`` (``mode`` union) or snapshot ``index`` (``mode`` slice).
    A bad file it reads raises ``BimvecError`` naming it."""
    path = os.path.join(store_dir, "manifest.json")
    manifest = read_json(path)
    if not isinstance(manifest, dict):
        raise BimvecError(f"{path}: expected a JSON object")
    windows, order = manifest.get("T"), manifest.get("node_index")
    if type(windows) is not int or windows < 1:
        raise BimvecError(f"{path}: T must be an integer >= 1, got {windows!r}")
    if (not isinstance(order, list) or not all(isinstance(n, str) for n in order)
            or len(set(order)) != len(order)):
        raise BimvecError(f"{path}: node_index must be a list of distinct strings")
    if mode == "slice":
        if not 0 <= index < windows:
            raise BimvecError(f"slice {index} out of range for {windows} snapshots")
        return read_graph(_snapshot_path(store_dir, index))

    base = read_graph(os.path.join(store_dir, "base.tsv"))
    missing = sorted(set(base.node_ids()) - set(order))
    if missing:
        raise BimvecError(f"{path}: node_index lacks base node {missing[0]!r}")
    return _union(base, order, _tensor_windows(
        os.path.join(store_dir, "tensor.csv"), windows, order, base), windows)


# tensor.csv is read in runs of whole lines of about this many characters,
# each parsed by one bulk call and checked as arrays.
_TENSOR_CHUNK = 1 << 14


def _tensor_windows(path, windows: int, order: Sequence[NodeId],
                    base: PropertyGraph) -> dict[tuple[int, int], int]:
    """For each pair (i, j) of ``tensor.csv`` at ``path`` that is not a base
    pair, the number of windows holding it.

    The file is read in runs of whole lines. numpy parses a run in one call;
    a run it rejects, or reads otherwise than ``int()`` and ``float()`` do,
    is parsed by :func:`_parse_rows` up to the first line it cannot read.
    The rows are then checked as arrays: each needs 0 <= t < ``windows``,
    0 <= i < j < N and a finite w, and its pair must be a base pair or join
    a node that is not in the base to one that is. The first line at fault
    is named, and a line that could not be read only after every row before
    it passed."""
    # numpy is loaded here, not at the top, so that ``snapshot``, which only
    # writes stores, starts without it
    import numpy as np

    nodes = len(order)
    index = {nid: i for i, nid in enumerate(order)}
    ends = (sorted((index[e.a], index[e.b])) for e in base.edges())
    base_keys = np.array(sorted(i * nodes + j for i, j in ends), dtype=np.int64)
    # base_keys and a key that matches none, for a lookup by searchsorted
    lookup = np.append(base_keys, -1)
    in_base = np.array([nid in base for nid in order], dtype=bool)
    row = np.dtype([("t", np.int64), ("i", np.int64), ("j", np.int64), ("w", np.float64)])
    found_t, found_keys = [], []
    with open_text(path) as fp:
        header = next(checked_lines(path, [fp.readline()], 1))
        if header.rstrip("\r\n") != _TENSOR_HEADER:
            raise BimvecError(f"{path}, line 1: expected the header {_TENSOR_HEADER}")
        line_no = 2
        while lines := fp.readlines(_TENSOR_CHUNK):
            # numpy's parser reads no line that int() and float() reject, but it
            # skips blank lines, which the row count catches; a warning (numpy
            # 1.x reads "1.0" as an integer with one) rejects the run too
            rows, error = None, None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    rows = np.loadtxt(lines, dtype=row, delimiter=",", comments=None, ndmin=1)
                except (ValueError, Warning):
                    pass
            if rows is None or len(rows) != len(lines):
                rows, error = _parse_rows(path, lines, line_no)
                rows = np.array(rows, dtype=row)
            t, i, j = rows["t"], rows["i"], rows["j"]
            fits = (0 <= t) & (t < windows) & (0 <= i) & (i < j) & (j < nodes)
            fits &= np.isfinite(rows["w"])
            keys = i * nodes + j
            new = lookup[base_keys.searchsorted(keys)] != keys
            bad = ~fits
            bad[fits] = new[fits] & (in_base[i[fits]] == in_base[j[fits]])
            if bad.any():
                k = bad.argmax()
                raise BimvecError(f"{path}, line {line_no + k}: " + (
                    f"need 0 <= t < {windows}, 0 <= i < j < {nodes} and a finite w"
                    if not fits[k] else f"pair ({i[k]}, {j[k]}) is neither a base edge "
                    f"nor joins an occupant to a base node"))
            if error is not None:
                raise error
            found_t.append(t[new])
            found_keys.append(keys[new])
            line_no += len(lines)
    t = np.concatenate(found_t or [np.zeros(0, dtype=np.int64)])
    keys = np.concatenate(found_keys or [np.zeros(0, dtype=np.int64)])
    # each (pair, window) once, then the windows of each pair
    ordered = np.lexsort((t, keys))
    t, keys = t[ordered], keys[ordered]
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = (keys[1:] != keys[:-1]) | (t[1:] != t[:-1])
    return {divmod(key, nodes): count
            for key, count in collections.Counter(keys[distinct].tolist()).items()}


def _parse_rows(path, lines: list[str], line_no: int):
    """The (t, i, j, w) of ``tensor.csv`` ``lines`` from line ``line_no`` on,
    up to the first line that cannot be read, and the error naming that line
    (None if there is none). An integer outside int64 reads as -1, which no
    check accepts."""
    rows = []
    try:
        for line in checked_lines(path, lines, line_no):
            t, i, j, w = line.split(",")
            rows.append((*(n if abs(n) < 1 << 63 else -1 for n in (int(t), int(i), int(j))),
                         float(w)))
    except ValueError as exc:
        return rows, BimvecError(f"{path}, line {line_no + len(rows)}: {exc}")
    except BimvecError as exc:
        return rows, exc
    return rows, None


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
    counts: dict[tuple[int, int], int] = {}
    for _, i, j in {(t, i, j) for t, i, j, _ in records if (i, j) not in base_pairs}:
        counts[i, j] = counts.get((i, j), 0) + 1
    return _union(base, node_order, counts, windows)


def _union(base: PropertyGraph, node_order: Sequence[NodeId],
           counts: dict[tuple[int, int], int], windows: int) -> PropertyGraph:
    """The base graph, the nodes of ``node_order`` missing from it as
    occupants, and an AT edge of weight count / ``windows`` for each (i, j)
    of ``counts``, in node id order."""
    out = base.copy()
    for node_id in sorted(nid for nid in node_order if nid not in base):
        out.add_node(node_id, OCCUPANT_LABEL)
    for (a, b), count in sorted((tuple(sorted((node_order[i], node_order[j]))), count)
                                for (i, j), count in counts.items()):
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
