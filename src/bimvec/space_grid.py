"""Discretize space footprints into 2D structured cell grids.

A footprint polygon is overlaid with an axis-aligned grid anchored at the
bounding-box minimum corner; a cell is kept iff its center lies inside the
polygon (boundary counts as inside). Kept cells become CELL nodes and rook
neighbors become ADJACENT edges once merged into a property graph, and fixed
equipment (sensors, doors, windows) is wired to nearby cells with AT edges.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import BimvecError
from .fileio import read_json
from .graph import NodeId, PropertyGraph

logger = logging.getLogger(__name__)

Point = tuple[float, float]

_EPS = 1e-9
# Most grid cells one space may have (100x a 10k-cell grid), checked before
# any cell centre is visited.
MAX_GRID_CELLS = 1_000_000

CELL_LABEL = "CELL"
ADJACENT_LABEL = "ADJACENT"
AT_LABEL = "AT"


# ---------------------------------------------------------------------------
# Footprints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Footprint:
    """Simple counter-clockwise polygon for one space, lengths in meters."""

    space_node: NodeId
    polygon: tuple[Point, ...]
    elevation: float = 0.0

    def __post_init__(self):
        polygon = tuple((float(x), float(y)) for x, y in self.polygon)
        object.__setattr__(self, "polygon", polygon)
        if len(polygon) < 3:
            raise BimvecError(f"footprint for {self.space_node!r} has fewer than 3 vertices")
        if signed_area(polygon) <= 0:
            raise BimvecError(
                f"footprint for {self.space_node!r} must be counter-clockwise "
                "with positive area"
            )
        if _self_intersects(polygon):
            raise BimvecError(f"footprint for {self.space_node!r} is self-intersecting")

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        xs = [p[0] for p in self.polygon]
        ys = [p[1] for p in self.polygon]
        return min(xs), min(ys), max(xs), max(ys)

    @property
    def area(self) -> float:
        return signed_area(self.polygon)


def signed_area(polygon: Sequence[Point]) -> float:
    total = 0.0
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2.0


def _segments(polygon: Sequence[Point]):
    n = len(polygon)
    for i in range(n):
        yield polygon[i], polygon[(i + 1) % n]


def _self_intersects(polygon: Sequence[Point]) -> bool:
    segments = list(_segments(polygon))
    n = len(segments)
    for i in range(n):
        for j in range(i + 1, n):
            # Skip segments sharing a vertex (consecutive, or closing edge).
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _segments_cross(segments[i], segments[j]):
                return True
    return False


def _segments_cross(s1, s2) -> bool:
    (p1, p2), (p3, p4) = s1, s2
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and \
       ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    if d1 == 0 and _on_segment(p3, p4, p1):
        return True
    if d2 == 0 and _on_segment(p3, p4, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, p3):
        return True
    if d4 == 0 and _on_segment(p1, p2, p4):
        return True
    return False


def _orient(a: Point, b: Point, c: Point) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    return (min(a[0], b[0]) - _EPS <= p[0] <= max(a[0], b[0]) + _EPS and
            min(a[1], b[1]) - _EPS <= p[1] <= max(a[1], b[1]) + _EPS)


def point_in_polygon(point: Point, polygon: Sequence[Point]) -> bool:
    """Boundary-inclusive even-odd test."""
    x, y = point
    for a, b in _segments(polygon):
        if abs(_orient(a, b, point)) <= _EPS and _on_segment(a, b, point):
            return True
    inside = False
    for (x1, y1), (x2, y2) in _segments(polygon):
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridCell:
    id: NodeId
    space_node: NodeId
    row: int
    col: int
    center: Point


@dataclass(frozen=True)
class DiscretizedSpace:
    footprint: Footprint
    cell_size: float
    cells: tuple[GridCell, ...]

    @property
    def space_node(self) -> NodeId:
        return self.footprint.space_node

    @property
    def origin(self) -> Point:
        """Bounding-box minimum corner that anchors the grid."""
        return self.footprint.bounds[:2]

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[NodeId, NodeId], ...]:
        """Rook neighbor pairs, each once."""
        return self.neighbor_pairs(((1, 0), (0, 1)))

    def neighbor_pairs(self, offsets) -> tuple[tuple[NodeId, NodeId], ...]:
        """Pairs of kept cells ``offsets`` (row, col) apart, in cell order."""
        return tuple(
            (cell.id, other.id) for cell in self.cells for d_row, d_col in offsets
            if (other := self.cell_at(cell.row + d_row, cell.col + d_col))
        )

    def cell_at(self, row: int, col: int) -> GridCell | None:
        return self._by_rowcol.get((row, col))

    @functools.cached_property
    def _by_rowcol(self) -> dict[tuple[int, int], GridCell]:
        return {(c.row, c.col): c for c in self.cells}


def cell_node_id(space_node: NodeId, row: int, col: int) -> NodeId:
    return f"cell:{space_node}:{row}:{col}"


def discretize(footprint: Footprint, cell_size: float) -> DiscretizedSpace:
    """Overlay the grid and keep cells whose center is inside the polygon.

    Zero kept cells is allowed (flagged as a degenerate footprint when the
    polygon area is below one cell).
    """
    if not (0 < cell_size < math.inf):
        raise ValueError(f"cell_size must be positive and finite, got {cell_size}")
    min_x, min_y, max_x, max_y = footprint.bounds
    if footprint.area < cell_size * cell_size:
        logger.warning(
            "degenerate footprint for %s: area %.3f below one %g m cell",
            footprint.space_node, footprint.area, cell_size,
        )
    n_rows, n_cols = (
        max(1, math.ceil(span - _EPS)) if span < math.inf else span
        for span in ((max_y - min_y) / cell_size, (max_x - min_x) / cell_size)
    )
    if n_rows * n_cols > MAX_GRID_CELLS:
        raise BimvecError(f"grid for space {footprint.space_node!r} would be "
                          f"{n_rows:.6g} x {n_cols:.6g} cells, above the limit of "
                          f"{MAX_GRID_CELLS:,}; raise --cell-size")

    cells: list[GridCell] = []
    for row in range(n_rows):
        for col in range(n_cols):
            center = (
                min_x + (col + 0.5) * cell_size,
                min_y + (row + 0.5) * cell_size,
            )
            if point_in_polygon(center, footprint.polygon):
                cells.append(GridCell(
                    cell_node_id(footprint.space_node, row, col),
                    footprint.space_node, row, col, center,
                ))
    return DiscretizedSpace(footprint, float(cell_size), tuple(cells))


def queen_adjacency(space: DiscretizedSpace) -> tuple[tuple[NodeId, NodeId], ...]:
    """8-neighbor adjacency variant; diagonals added to the rook pairs."""
    return space.adjacency + space.neighbor_pairs(((1, 1), (1, -1)))


def locate_cell(space: DiscretizedSpace, point: Point) -> GridCell | None:
    """Kept cell whose extent contains ``point``; shared borders resolve to
    the lower (row, col); None when the point falls in no kept cell."""
    min_x, min_y = space.origin
    offsets = (point[1] - min_y, point[0] - min_x)
    if min(offsets) < 0:
        return None
    return space.cell_at(*(max(0, math.ceil(offset / space.cell_size) - 1)
                           for offset in offsets))


def cells_near(space: DiscretizedSpace, position: Point,
               radius: float | None = None) -> tuple[NodeId, ...]:
    """Sorted ids of the kept cells whose center lies within ``radius`` of
    ``position`` (one cell size when None), plus the cell containing it. The
    one placement rule for sensors, anchors and occupants; ``radius`` must
    be finite and >= 0."""
    if radius is None:
        radius = space.cell_size
    elif not 0 <= radius < math.inf:
        raise ValueError(f"placement radius must be finite and >= 0, got {radius}")
    targets = {
        cell.id for cell in space.cells
        if math.dist(cell.center, position) <= radius + _EPS
    }
    containing = locate_cell(space, position)
    if containing is not None:
        targets.add(containing.id)
    return tuple(sorted(targets))


def attach_fixed_node(
    graph: PropertyGraph,
    space: DiscretizedSpace,
    node: NodeId,
    position: Point,
    radius: float | None = None,
    strict: bool = False,
) -> PropertyGraph:
    """Add AT edges (weight 1.0) from ``node`` to the :func:`cells_near`
    ``position``. Mutates and returns ``graph``."""
    if node not in graph:
        raise BimvecError(f"no node {node!r} to attach")
    targets = cells_near(space, position, radius)
    if not targets:
        message = (
            f"no cell within {space.cell_size if radius is None else radius} m "
            f"of {position} for node {node!r} in space {space.space_node!r}"
        )
        if strict:
            raise BimvecError(message)
        logger.warning("%s; no edge added", message)
        return graph
    for cell_id in targets:
        graph.add_edge(node, cell_id, AT_LABEL, 1.0)
    return graph


# ---------------------------------------------------------------------------
# Graph merge / rebuild
# ---------------------------------------------------------------------------

def merge_into(graph: PropertyGraph, space: DiscretizedSpace,
               queen: bool = False) -> PropertyGraph:
    """Add the space's cells and adjacency to the graph.

    Grid parameters are recorded on the space node so the grid can be
    rebuilt from a serialized graph alone. Mutates and returns ``graph``.
    """
    if space.space_node not in graph:
        raise BimvecError(f"space node {space.space_node!r} not in graph")
    graph.set_node_attribute(space.space_node, "grid_cell_size", space.cell_size)
    graph.set_node_attribute(space.space_node, "grid_origin",
                             [space.origin[0], space.origin[1]])
    graph.set_node_attribute(space.space_node, "footprint",
                             [[x, y] for x, y in space.footprint.polygon])
    graph.set_node_attribute(space.space_node, "elevation",
                             space.footprint.elevation)
    for cell in space.cells:
        graph.add_node(cell.id, CELL_LABEL, {
            "space": space.space_node,
            "row": cell.row,
            "col": cell.col,
            "cx": cell.center[0],
            "cy": cell.center[1],
        })
    pairs = queen_adjacency(space) if queen else space.adjacency
    for a, b in pairs:
        graph.add_edge(a, b, ADJACENT_LABEL, 1.0)
    return graph


def spaces_from_graph(graph: PropertyGraph) -> list[DiscretizedSpace]:
    """Re-discretize every space merged via ``merge_into`` from the
    footprint and cell size stored on its node; the graph's CELL nodes must
    be exactly the cells this gives."""
    cell_ids: dict[NodeId, set[NodeId]] = {}
    for node in graph.nodes():
        if node.label == CELL_LABEL:
            cell_ids.setdefault(node.attributes.get("space"), set()).add(node.id)
    spaces: list[DiscretizedSpace] = []
    for node in graph.nodes():
        if "grid_cell_size" not in node.attributes:
            continue
        where = f"space node {node.id!r}"
        space = discretize(
            _footprint_from(node.id, node.attributes, "footprint", where),
            _finite(node.attributes["grid_cell_size"], f"{where}: grid_cell_size"),
        )
        if cell_ids.pop(node.id, set()) != {c.id for c in space.cells}:
            raise BimvecError(f"the CELL nodes of {where} differ from the "
                              "cells of its stored footprint")
        spaces.append(space)
    if cell_ids:
        raise BimvecError(f"CELL nodes of space {min(map(str, cell_ids))!r} "
                          "have no stored grid")
    return spaces


# ---------------------------------------------------------------------------
# Sidecar files: footprints and the sensor manifest
# ---------------------------------------------------------------------------

def _finite(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise BimvecError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _point(value, where: str) -> Point:
    """``[x, y]`` of two finite numbers, as a float tuple."""
    if not isinstance(value, list) or len(value) != 2:
        raise BimvecError(f"{where} must be [x, y], got {value!r}")
    return _finite(value[0], where), _finite(value[1], where)


def _footprint_from(space_node: NodeId, record: dict, polygon_key: str,
                    where: str) -> Footprint:
    """A footprint from ``record[polygon_key]``, a list of at least three
    ``[x, y]`` points, and its optional finite ``elevation``."""
    polygon = record.get(polygon_key)
    if not isinstance(polygon, list) or len(polygon) < 3:
        raise BimvecError(f"{where}: {polygon_key} must be a list of at least "
                          "3 [x, y] points")
    return Footprint(
        space_node,
        tuple(_point(p, f"{where}: {polygon_key}[{i}]")
              for i, p in enumerate(polygon)),
        _finite(record.get("elevation", 0.0), f"{where}: elevation"),
    )


def _entries(path, records, section: str):
    """Yield ``(where, record)`` for a list of JSON objects."""
    if not isinstance(records, list):
        raise BimvecError(f"{path}: {section} must be a list")
    for index, record in enumerate(records):
        where = f"{path}: {section}[{index}]"
        if not isinstance(record, dict):
            raise BimvecError(f"{where} must be an object")
        yield where, record


def load_footprints(path) -> list[Footprint]:
    """Read the sidecar file: an array of {space_id, polygon, elevation?}."""
    records = read_json(path)
    footprints = []
    for where, record in _entries(path, records, "footprints"):
        if "space_id" not in record:
            raise BimvecError(f"{where} has no 'space_id'")
        footprints.append(_footprint_from(
            str(record["space_id"]), record, "polygon", where))
    return footprints


def load_sensor_manifest(path) -> tuple[list[dict], list[dict]]:
    """Read ``{"sensors": [...], "anchors": [...]}``. Every entry must be an
    object with its id key (``id`` or ``entity_id``), ``space_id`` and a
    ``position`` of two finite numbers; ``radius``, if given, is finite and
    >= 0. Positions and radii come back as floats."""
    manifest = read_json(path)
    if not isinstance(manifest, dict):
        raise BimvecError(f"{path}: sensor manifest must be a JSON object")
    sections = []
    for section, id_key in (("sensors", "id"), ("anchors", "entity_id")):
        sections.append(manifest.get(section, []))
        for where, record in _entries(path, sections[-1], section):
            for key in (id_key, "space_id", "position"):
                if key not in record:
                    raise BimvecError(f"{where} has no {key!r}")
            record["position"] = _point(record["position"], f"{where}: position")
            if "radius" in record:
                record["radius"] = _finite(record["radius"], f"{where}: radius")
                if record["radius"] < 0:
                    raise BimvecError(f"{where}: radius must be >= 0, got {record['radius']!r}")
    return sections[0], sections[1]
