"""Grid discretization tests with an independent point-in-polygon oracle."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimvec import space_grid
from bimvec.errors import BimvecError
from bimvec.graph import PropertyGraph
from bimvec.space_grid import (
    DiscretizedSpace,
    Footprint,
    attach_fixed_node,
    cells_near,
    discretize,
    load_footprints,
    locate_cell,
    merge_into,
    spaces_from_graph,
)
from bimvec.temporal import OccupantFix, build_snapshots

SQUARE_4 = Footprint("s", ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)))


def oracle_point_in_polygon(x, y, poly) -> bool:
    """Crossing-number oracle (independent reimplementation, tests only)."""
    for px, py in poly:
        if px == x and py == y:
            return True
    n = len(poly)
    for i in range(n):
        (x1, y1), (x2, y2) = poly[i], poly[(i + 1) % n]
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if abs(cross) < 1e-12 and min(x1, x2) - 1e-12 <= x <= max(x1, x2) + 1e-12 \
                and min(y1, y2) - 1e-12 <= y <= max(y1, y2) + 1e-12:
            return True
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = poly[i]
        xj, yj = poly[j]
        if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
            inside = not inside
        j = i
    return inside


# ---------------------------------------------------------------------------
# discretize
# ---------------------------------------------------------------------------

def test_square_4x4_cell_2():
    space = discretize(SQUARE_4, 2.0)
    centers = sorted(c.center for c in space.cells)
    assert centers == [(1.0, 1.0), (1.0, 3.0), (3.0, 1.0), (3.0, 3.0)]
    assert len(space.adjacency) == 4


def test_unit_square_boundary_center_kept():
    space = discretize(Footprint("s", ((0, 0), (1, 0), (1, 1), (0, 1))), 2.0)
    assert [(c.row, c.col) for c in space.cells] == [(0, 0)]
    assert space.adjacency == ()


def test_two_squares_sharing_an_edge():
    # union of [0,2]x[0,2] and [2,4]x[0,2]
    space = discretize(Footprint("s", ((0, 0), (4, 0), (4, 2), (0, 2))), 2.0)
    assert [(c.row, c.col) for c in space.cells] == [(0, 0), (0, 1)]
    assert len(space.adjacency) == 1


def test_l_shape_drops_outside_cell():
    polygon = ((0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4))
    space = discretize(Footprint("s", polygon), 2.0)
    assert sorted((c.row, c.col) for c in space.cells) == [(0, 0), (0, 1), (1, 0)]
    assert len(space.adjacency) == 2


def test_degenerate_footprint_can_keep_zero_cells(caplog):
    tiny = Footprint("s", ((0, 0), (0.4, 0), (0, 0.4)))
    with caplog.at_level("WARNING"):
        space = discretize(tiny, 2.0)
    assert space.cells == ()
    assert any("degenerate" in r.message for r in caplog.records)


def test_invalid_polygons_rejected():
    with pytest.raises(BimvecError, match="^footprint for 's' has fewer than 3 vertices$"):
        Footprint("s", ((0, 0), (1, 0)))
    ccw = "^footprint for 's' must be counter-clockwise with positive area$"
    with pytest.raises(BimvecError, match=ccw):  # clockwise
        Footprint("s", ((0, 0), (0, 4), (4, 4), (4, 0)))
    crossing = "^footprint for 's' is self-intersecting$"
    with pytest.raises(BimvecError, match=crossing):  # bowtie, zero signed area
        Footprint("s", ((0, 0), (2, 2), (2, 0), (0, 2)))
    clockwise_bowtie = ((0, 0), (0, 4), (4, 0), (4, 2))
    assert space_grid.signed_area(clockwise_bowtie) < 0
    with pytest.raises(BimvecError, match=crossing):
        Footprint("s", clockwise_bowtie)


def test_cell_size_must_be_positive():
    with pytest.raises(ValueError):
        discretize(SQUARE_4, 0.0)


@pytest.mark.parametrize("cell_size", [math.inf, math.nan])
def test_cell_size_must_be_finite(cell_size):
    with pytest.raises(ValueError, match="positive and finite"):
        discretize(SQUARE_4, cell_size)


def test_grid_size_is_bounded(monkeypatch):
    monkeypatch.setattr(space_grid, "MAX_GRID_CELLS", 16)
    assert len(discretize(SQUARE_4, 1.0).cells) == 16
    with pytest.raises(BimvecError, match="^grid for space 's' would be 8 x 8 cells, "
                                          "above the limit of 16; raise --cell-size$"):
        discretize(SQUARE_4, 0.5)


def test_sliver_grid_is_rejected_before_any_cell_is_visited():
    # 10^10 cell centres at 1 m; at the default bound this must fail fast.
    sliver = Footprint("s", ((0, 0), (100000, 100000), (99999.99, 100000)))
    with pytest.raises(BimvecError, match="^grid for space 's' would be 100000 x 100000 "
                                          "cells, above the limit of 1,000,000; raise "
                                          "--cell-size$"):
        discretize(sliver, 1.0)
    with pytest.raises(BimvecError, match=r"^grid for space 's' would be 1e\+305 x 1e\+305 "
                                          "cells, above the limit of 1,000,000; raise "
                                          "--cell-size$"):
        discretize(sliver, 1e-300)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_kept_centers_pass_independent_oracle():
    polygon = ((0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4))
    space = discretize(Footprint("s", polygon), 1.0)
    assert space.cells
    for cell in space.cells:
        assert oracle_point_in_polygon(cell.center[0], cell.center[1], polygon)


def test_cell_count_monotone_in_cell_size():
    counts = [len(discretize(SQUARE_4, size).cells) for size in (0.5, 1, 2, 4)]
    assert counts == sorted(counts, reverse=True)
    assert counts == [64, 16, 4, 1]


def test_locate_center_returns_cell():
    for size in (0.5, 1.0, 2.0):
        space = discretize(SQUARE_4, size)
        for cell in space.cells:
            assert locate_cell(space, cell.center) == cell


def test_adjacency_symmetric_irreflexive_rook():
    space = discretize(SQUARE_4, 1.0)
    by_id = {c.id: c for c in space.cells}
    seen = set()
    for a, b in space.adjacency:
        assert a != b
        assert frozenset((a, b)) not in seen  # each unordered pair once
        seen.add(frozenset((a, b)))
        ca, cb = by_id[a], by_id[b]
        assert abs(ca.row - cb.row) + abs(ca.col - cb.col) == 1


def test_queen_adjacency_adds_diagonals():
    space = discretize(SQUARE_4, 2.0)
    for queen, count in ((False, 4), (True, 4 + 2)):
        graph = PropertyGraph()
        graph.add_node(space.space_node, "IFCSPACE")
        merge_into(graph, space, queen=queen)
        assert sum(edge.label == space_grid.ADJACENT_LABEL for edge in graph.edges()) == count


# ---------------------------------------------------------------------------
# locate_cell
# ---------------------------------------------------------------------------

def test_locate_simple_point():
    space = discretize(SQUARE_4, 2.0)
    cell = locate_cell(space, (0.5, 0.5))
    assert (cell.row, cell.col) == (0, 0)


def test_locate_border_resolves_to_lower_index():
    space = discretize(SQUARE_4, 2.0)
    cell = locate_cell(space, (2.0, 1.0))
    assert (cell.row, cell.col) == (0, 0)


def test_locate_outside_footprint_is_none():
    space = discretize(SQUARE_4, 2.0)
    assert locate_cell(space, (9.0, 9.0)) is None


# ---------------------------------------------------------------------------
# attach_fixed_node
# ---------------------------------------------------------------------------

def _merged(space: DiscretizedSpace) -> PropertyGraph:
    graph = PropertyGraph()
    graph.add_node(space.space_node, "IFCSPACE")
    merge_into(graph, space)
    graph.add_node("sensor:x", "SENSOR")
    return graph


def test_attach_radius_zero_hits_containing_cell():
    space = discretize(SQUARE_4, 2.0)
    graph = _merged(space)
    attach_fixed_node(graph, space, "sensor:x", (1.0, 1.0), 0.0)
    at = [e for e in graph.edges() if e.label == "AT"]
    assert [(e.a, e.b) for e in at] == [("cell:s:0:0", "sensor:x")]


def test_attach_center_radius_covers_four_cells():
    space = discretize(SQUARE_4, 2.0)
    graph = _merged(space)
    attach_fixed_node(graph, space, "sensor:x", (2.0, 2.0), 1.5)
    at = [e for e in graph.edges() if e.label == "AT"]
    assert len(at) == 4
    assert all(math.dist((2.0, 2.0), (1.0, 1.0)) <= 1.5 for _ in at)


def test_attach_out_of_range_lenient_and_strict():
    space = discretize(SQUARE_4, 2.0)
    graph = _merged(space)
    attach_fixed_node(graph, space, "sensor:x", (10.0, 10.0), 0.5)
    assert not [e for e in graph.edges() if e.label == "AT"]
    with pytest.raises(BimvecError, match=r"^no cell within 0\.5 m of \(10\.0, 10\.0\) for "
                                          "node 'sensor:x' in space 's'$"):
        attach_fixed_node(graph, space, "sensor:x", (10.0, 10.0), 0.5,
                          strict=True)


def test_attach_unknown_node_rejected():
    space = discretize(SQUARE_4, 2.0)
    graph = _merged(space)
    with pytest.raises(BimvecError, match="^no node 'sensor:missing' to attach$"):
        attach_fixed_node(graph, space, "sensor:missing", (1.0, 1.0), 1.0)


def _oracle_cells_near(space, position, radius):
    """Centres within the radius (one cell size when None) plus the cell
    whose closed extent holds the point, the lower one on a border."""
    radius = space.cell_size if radius is None else radius
    ids = {c.id for c in space.cells
           if math.hypot(c.center[0] - position[0],
                         c.center[1] - position[1]) <= radius + 1e-9}
    half = space.cell_size / 2
    holding = [c for c in space.cells
               if abs(c.center[0] - position[0]) <= half
               and abs(c.center[1] - position[1]) <= half]
    if holding:
        ids.add(min(holding, key=lambda c: (c.row, c.col)).id)
    return sorted(ids)


@pytest.mark.parametrize("radius", [0.0, 0.5, 2.0, None],
                         ids=["r0", "r0.5", "one-cell", "default"])
@pytest.mark.parametrize("position", [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (4.5, 1.0)],
                         ids=["centre", "border", "corner", "outside"])
def test_sensor_and_occupant_placement_share_one_rule(position, radius):
    space = discretize(SQUARE_4, 2.0)
    graph = _merged(space)
    attach_fixed_node(graph, space, "sensor:x", position, radius)
    sensor_cells = sorted(graph.neighbor_weights("sensor:x"))

    base = _merged(space)
    fix = OccupantFix("occupant:o", 0, "s", position)
    snapshot = build_snapshots(base, [space], [], [fix], 60,
                               occupant_radius=radius).snapshots[0].graph
    occupant_cells = sorted(e.a if e.b == "occupant:o" else e.b for e in snapshot.edges()
                            if "occupant:o" in (e.a, e.b))

    assert sensor_cells == occupant_cells == list(cells_near(space, position, radius))
    assert sensor_cells == _oracle_cells_near(space, position, radius)


# ---------------------------------------------------------------------------
# merge / rebuild round trip
# ---------------------------------------------------------------------------

def test_merge_and_rebuild_round_trip():
    space = discretize(SQUARE_4, 2.0)
    graph = PropertyGraph()
    graph.add_node("s", "IFCSPACE")
    merge_into(graph, space)
    rebuilt = spaces_from_graph(PropertyGraph.from_text(graph.to_text()))
    assert len(rebuilt) == 1
    again = rebuilt[0]
    assert again.cell_size == space.cell_size
    assert again.origin == space.origin
    assert again.footprint.polygon == space.footprint.polygon
    assert [(c.id, c.row, c.col, c.center) for c in again.cells] == \
        [(c.id, c.row, c.col, c.center) for c in space.cells]
    assert set(map(frozenset, again.adjacency)) == \
        set(map(frozenset, space.adjacency))


def _without_lines(text: str, node_id: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if node_id not in line.split("\t"))


def test_rebuild_rejects_a_missing_or_extra_cell():
    space = discretize(SQUARE_4, 2.0)
    graph = PropertyGraph()
    graph.add_node("s", "IFCSPACE")
    merge_into(graph, space)
    text = graph.to_text()

    missing = PropertyGraph.from_text(_without_lines(text, "cell:s:1:1"))
    with pytest.raises(BimvecError, match="^the CELL nodes of space node 's' differ from "
                                          "the cells of its stored footprint$"):
        spaces_from_graph(missing)

    extra = PropertyGraph.from_text(text)
    extra.add_node("cell:s:9:9", "CELL", {"space": "s"})
    with pytest.raises(BimvecError, match="^the CELL nodes of space node 's' differ from "
                                          "the cells of its stored footprint$"):
        spaces_from_graph(extra)

    orphan = PropertyGraph.from_text(text)
    orphan.add_node("cell:t:0:0", "CELL", {"space": "t"})
    with pytest.raises(BimvecError, match="^CELL nodes of space 't' have no stored grid$"):
        spaces_from_graph(orphan)


def test_load_footprints_sidecar(data_dir):
    footprints = load_footprints(data_dir / "two_space.footprints.json")
    assert [f.space_node for f in footprints] == ["5", "7"]
    assert footprints[0].polygon[1] == (6.0, 0.0)


# ---------------------------------------------------------------------------
# property: every kept center round-trips through locate_cell
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    width=st.floats(min_value=0.5, max_value=12),
    height=st.floats(min_value=0.5, max_value=12),
    x0=st.floats(min_value=-5, max_value=5),
    y0=st.floats(min_value=-5, max_value=5),
    cell_size=st.floats(min_value=0.25, max_value=3),
)
def test_locate_center_property(width, height, x0, y0, cell_size):
    footprint = Footprint("s", (
        (x0, y0), (x0 + width, y0), (x0 + width, y0 + height), (x0, y0 + height),
    ))
    space = discretize(footprint, cell_size)
    for cell in space.cells:
        assert locate_cell(space, cell.center) == cell
        assert oracle_point_in_polygon(cell.center[0], cell.center[1],
                                       footprint.polygon)
