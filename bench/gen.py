"""Seeded input generators for the benchmark workloads.

Each generator writes an IFC text file, a footprints sidecar, a sensor
manifest, readings and fixes CSVs and a labels CSV into a directory, and
returns the figures the pipeline must reproduce (entity, node, cell and edge
counts, windows, occupants, sum of squared degrees). Those figures come from
the generator's own entity lists and rectangle geometry; nothing here
imports bimvec.

Geometry is axis-aligned rectangles on whole metres with 1 m cells, so a
cell (row, col) of a space with origin (x0, y0) has its centre at
(x0 + col + 0.5, y0 + row + 0.5) and every cell centre lies strictly inside
its footprint.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import shutil

# Entity types this generator writes that the default object whitelist
# (IFCSPACE, IFCWALL*, IFCDOOR, IFCBUILDING*, IFCSITE, IFCFLOW*, ...) turns
# into graph nodes. Every other type written here stays out of the graph.
NODE_TYPES = frozenset({
    "IFCSITE", "IFCBUILDING", "IFCBUILDINGSTOREY", "IFCSPACE",
    "IFCWALLSTANDARDCASE", "IFCDOOR", "IFCWINDOW", "IFCOPENINGELEMENT",
    "IFCSLAB", "IFCCOLUMN", "IFCFURNISHINGELEMENT", "IFCFLOWTERMINAL",
})

# Workload sizes. The generated geometry is laid out on 1 m cells; the
# cell size and window step used by the CLI come from here, with the inputs.
CELL_SIZE = 1.0
TOWER_STOREYS, TOWER_ROOMS_PER_SIDE = 2, 8
TOWER_WINDOWS, TOWER_OCCUPANTS, TOWER_STEP = 36, 12, 300
CAMPUS_BUILDINGS, CAMPUS_STOREYS, CAMPUS_ROOMS, CAMPUS_FURNISHINGS = 2, 2, 8, 750
CAMPUS_WINDOWS, CAMPUS_OCCUPANTS, CAMPUS_STEP = 4, 8, 3600
QUICKSTART_CELL_SIZE, QUICKSTART_STEP = 2.0, 300  # as in the README quick start
FEEDBACK = ("comfortable", "uncomfortable", "neutral")
_GUID_CHARS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$"


class Model:
    """IFC entity list plus the graph the pipeline should derive from it."""

    def __init__(self, rng: random.Random, cell_size: float):
        self.rng = rng
        self.cell_size = cell_size
        self.lines: list[str] = []
        self.types: dict[int, str] = {}
        self.relation_edges: list[tuple[str, str]] = []
        self.spaces: list[dict] = []   # {"id", "x0", "y0", "w", "h", "elevation", "cell"}
        self.sensors: list[dict] = []
        self.anchors: list[dict] = []

    def guid(self) -> str:
        return "".join(self.rng.choice(_GUID_CHARS) for _ in range(22))

    def add(self, type_name: str, args: str) -> int:
        entity_id = len(self.lines) + 1
        self.lines.append(f"#{entity_id}={type_name}({args});")
        self.types[entity_id] = type_name
        return entity_id

    def obj(self, type_name: str, name: str, tail: str = "$,$,$,$,$,$") -> int:
        return self.add(type_name, f"'{self.guid()}',$,'{name}',$,{tail}")

    def rel(self, type_name: str, args: str, relating, related) -> int:
        """Relationship whose expansion is every (relating, related) pair
        whose two endpoints both become nodes."""
        for a in _as_list(relating):
            for b in _as_list(related):
                if self.is_node(a) and self.is_node(b) and a != b:
                    self.relation_edges.append((str(a), str(b)))
        return self.add(type_name, f"'{self.guid()}',$,$,$,{args}")

    def aggregates(self, whole: int, parts: list[int]) -> int:
        return self.rel("IFCRELAGGREGATES", f"#{whole},{_refs(parts)}", whole, parts)

    def contains(self, structure: int, elements: list[int]) -> int:
        return self.rel("IFCRELCONTAINEDINSPATIALSTRUCTURE",
                        f"{_refs(elements)},#{structure}", structure, elements)

    def bounds(self, space: int, element: int) -> int:
        return self.rel("IFCRELSPACEBOUNDARY",
                        f"#{space},#{element},$,.PHYSICAL.,.INTERNAL.", space, element)

    def opening(self, wall: int, filler: int, name: str) -> int:
        opening = self.obj("IFCOPENINGELEMENT", name, "$,$,$,$,$")
        self.rel("IFCRELVOIDSELEMENT", f"#{wall},#{opening}", wall, opening)
        self.rel("IFCRELFILLSELEMENT", f"#{opening},#{filler}", opening, filler)
        return opening

    def pset(self, targets: list[int], name: str, value: str) -> None:
        prop = self.add("IFCPROPERTYSINGLEVALUE", f"'{name}',$,{value},$")
        pset = self.add("IFCPROPERTYSET", f"'{self.guid()}',$,'Pset_Common',$,(#{prop})")
        self.add("IFCRELDEFINESBYPROPERTIES", f"'{self.guid()}',$,$,$,{_refs(targets)},#{pset}")

    def is_node(self, entity_id: int) -> bool:
        return self.types[entity_id] in NODE_TYPES

    def space(self, storey_name: str, name: str, x0: int, y0: int, w: int, h: int,
              elevation: float) -> int:
        space_id = self.obj("IFCSPACE", f"{storey_name}-{name}", "$,$,$,$,$,$,$")
        self.spaces.append({"id": space_id, "x0": x0, "y0": y0, "w": w, "h": h,
                            "elevation": elevation, "cell": self.cell_size})
        return space_id

    def text(self, description: str) -> str:
        header = [
            "ISO-10303-21;", "HEADER;",
            f"FILE_DESCRIPTION(('{description}'),'2;1');",
            "FILE_NAME('generated.ifc','2024-01-01T00:00:00',('bench'),('bench'),'','','');",
            "FILE_SCHEMA(('IFC4'));", "ENDSEC;", "DATA;",
        ]
        return "\n".join(header + self.lines + ["ENDSEC;", "END-ISO-10303-21;"]) + "\n"


def _as_list(value) -> list[int]:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _refs(ids: list[int]) -> str:
    return "(" + ",".join(f"#{i}" for i in ids) + ")"


# ---------------------------------------------------------------------------
# Geometry helpers (independent of bimvec's grid code)
# ---------------------------------------------------------------------------

def cell_id(space: dict, row: int, col: int) -> str:
    return f"cell:{space['id']}:{row}:{col}"


def _grid(space: dict) -> tuple[int, int]:
    return round(space["h"] / space["cell"]), round(space["w"] / space["cell"])


def cell_centre(space: dict, row: int, col: int) -> tuple[float, float]:
    return (space["x0"] + (col + 0.5) * space["cell"],
            space["y0"] + (row + 0.5) * space["cell"])


def cells_of(space: dict) -> list[tuple[str, float, float]]:
    rows, cols = _grid(space)
    return [(cell_id(space, r, c), *cell_centre(space, r, c))
            for r in range(rows) for c in range(cols)]


def pick_cells(spaces: dict, seed: int, count: int) -> list[str]:
    """``count`` cell ids spread over the sorted cell list, chosen by seed:
    the query and predict nodes of a round."""
    cells = sorted(cid for space in spaces.values() for cid, _, _ in cells_of(space))
    return [cells[(seed * 7919 + 104729 * i) % len(cells)] for i in range(count)]


def rook_pairs(space: dict) -> list[tuple[str, str]]:
    rows, cols = _grid(space)
    pairs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append((cell_id(space, r, c), cell_id(space, r, c + 1)))
            if r + 1 < rows:
                pairs.append((cell_id(space, r, c), cell_id(space, r + 1, c)))
    return pairs


def cells_within(space: dict, x: float, y: float, radius: float) -> list[str]:
    """Cells whose centre is within ``radius`` of (x, y). Positions used here
    sit at least half a cell inside their space with radius >= one cell, so
    the containing cell is always among them."""
    return [cid for cid, cx, cy in cells_of(space)
            if math.hypot(cx - x, cy - y) <= radius + 1e-9]


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def _write(out_dir: str, name: str, text: str) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)
    return path


def _expected(model: Model, windows: int, occupants: int) -> dict:
    """Node, edge and degree figures of the static graph. A sensor or
    anchor without a radius reaches one cell size, as in the CLI."""
    sensor_radius = model.cell_size
    nodes = {str(i) for i, t in model.types.items() if t in NODE_TYPES}
    edges = list(model.relation_edges)
    adjacency = 0
    cells = 0
    space_by_id = {s["id"]: s for s in model.spaces}
    for space in model.spaces:
        cell_list = cells_of(space)
        cells += len(cell_list)
        nodes.update(cid for cid, _, _ in cell_list)
        pairs = rook_pairs(space)
        adjacency += len(pairs)
        edges.extend(pairs)
    at_edges = 0
    for record in model.sensors:
        node = f"sensor:{record['id']}"
        nodes.add(node)
        targets = cells_within(space_by_id[record["space_id"]], *record["position"],
                               record.get("radius", sensor_radius))
        at_edges += len(targets)
        edges.extend((node, t) for t in targets)
    for record in model.anchors:
        node = str(record["entity_id"])
        targets = cells_within(space_by_id[record["space_id"]], *record["position"],
                               record.get("radius", sensor_radius))
        at_edges += len(targets)
        edges.extend((node, t) for t in targets)
    neighbours: dict[str, set] = {n: set() for n in nodes}
    for a, b in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    return {
        "entities": len(model.lines),
        "object_nodes": sum(1 for t in model.types.values() if t in NODE_TYPES),
        "cells": cells,
        "sensors": len(model.sensors),
        "relation_edges": len(model.relation_edges),
        "adjacency_edges": adjacency,
        "at_edges": at_edges,
        "nodes": len(nodes),
        "edges": len(edges),
        "windows": windows,
        "occupants": occupants,
        "sum_deg2": sum(len(n) ** 2 for n in neighbours.values()),
    }


def _inputs(model: Model, paths: dict, windows: int, occupants: int, step: int) -> dict:
    """What run.py needs of one workload's inputs: the files, the figures
    the pipeline must reproduce, the spaces, and the CLI's cell size and
    window step."""
    return {"paths": paths, "expected": _expected(model, windows, occupants),
            "spaces": {s["id"]: s for s in model.spaces},
            "cell_size": model.cell_size, "step": step}


def _write_inputs(model: Model, out_dir: str, description: str,
                  readings: list[str], fixes: list[str],
                  labels: list[str]) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    footprints = [{
        "space_id": s["id"],
        "polygon": [[s["x0"], s["y0"]], [s["x0"] + s["w"], s["y0"]],
                    [s["x0"] + s["w"], s["y0"] + s["h"]], [s["x0"], s["y0"] + s["h"]]],
        "elevation": s["elevation"],
    } for s in model.spaces]
    paths = {
        "ifc": _write(out_dir, "model.ifc", model.text(description)),
        "footprints": _write(out_dir, "footprints.json", json.dumps(footprints) + "\n"),
        "sensors": _write(out_dir, "sensors.json", json.dumps(
            {"sensors": model.sensors, "anchors": model.anchors}) + "\n"),
        "readings": _write(out_dir, "readings.csv",
                           "\n".join(["timestamp,sensor_id,channel,value"] + readings) + "\n"),
        "fixes": _write(out_dir, "fixes.csv",
                        "\n".join(["timestamp,occupant_id,space_id,x,y,feedback"] + fixes) + "\n"),
        "labels": _write(out_dir, "labels.csv",
                         "\n".join(["node_id,feedback"] + labels) + "\n"),
    }
    return paths


def _timeline(model: Model, rng: random.Random, rooms: list[dict], windows: int,
              occupants: int, step: int) -> tuple[list[str], list[str], list[str]]:
    """Per-window readings for every sensor, and one fix per occupant per
    window: at its desk (a fixed cell centre of its home room) four windows in
    five, elsewhere in a random room otherwise. Each occupant's last fix
    carries its feedback, which is also its label."""
    readings = []
    for t in range(windows):
        for sensor in model.sensors:
            readings.append(f"{t * step},{sensor['id']},temperature,"
                            f"{20 + 6 * rng.random():.2f}")
            if t % 4 == 0:
                readings.append(f"{t * step + 1},{sensor['id']},co2,"
                                f"{400 + rng.randrange(600)}")
    fixes = []
    labels = []
    for o in range(occupants):
        name = f"o{o}"
        feedback = FEEDBACK[o % len(FEEDBACK)]
        home = rooms[(o * 7) % len(rooms)]
        rows, cols = _grid(home)
        desk = cell_centre(home, rng.randrange(rows), rng.randrange(cols))
        for t in range(windows):
            room, (x, y) = home, desk
            if rng.random() < 0.2:
                room = rng.choice(rooms)
                rows, cols = _grid(room)
                x, y = cell_centre(room, rng.randrange(rows), rng.randrange(cols))
            last = t == windows - 1
            fixes.append(f"{t * step + 2},{name},{room['id']},{x},{y},"
                         f"{feedback if last or rng.random() < 0.2 else ''}")
        labels.append(f"occupant:{name},{feedback}")
    return readings, fixes, labels


# ---------------------------------------------------------------------------
# tower-timeline
# ---------------------------------------------------------------------------

def tower(out_dir: str, seed: int) -> dict:
    """Multi-storey slab block: per storey two rows of rooms along a 2 m
    corridor, a door from each room to the corridor and a window in each
    outer wall. One sensor per room and one per 10 m of corridor; doors and
    windows are anchored to the cells next to them."""
    rng = random.Random(f"tower|{seed}")
    model = Model(rng, CELL_SIZE)
    project = model.add("IFCPROJECT", f"'{model.guid()}',$,'Tower',$,$,$,$,$,$")
    site = model.obj("IFCSITE", "Site", "$,$,$,$,$,$,$,$,$")
    building = model.obj("IFCBUILDING", "Tower", "$,$,$,$,$,$,$,$,$")
    model.aggregates(project, [site])
    model.aggregates(site, [building])
    room_w, room_d, corridor_d = 5, 6, 2
    length = TOWER_ROOMS_PER_SIDE * room_w
    rooms: list[dict] = []
    storey_ids = []
    for level in range(TOWER_STOREYS):
        elevation = 3.5 * level
        storey = model.obj("IFCBUILDINGSTOREY", f"L{level}", f"$,$,$,$,$,$,{elevation}")
        storey_ids.append(storey)
        corridor = model.space(f"L{level}", "Corridor", 0, room_d, length, corridor_d,
                               elevation)
        corridor_rec = model.spaces[-1]
        spaces = [corridor]
        elements = []
        slab = model.obj("IFCSLAB", f"L{level}-Slab")
        elements.append(slab)
        for side, y0 in (("S", 0), ("N", room_d + corridor_d)):
            for k in range(TOWER_ROOMS_PER_SIDE):
                room = model.space(f"L{level}", f"{side}{k}", k * room_w, y0, room_w,
                                   room_d, elevation)
                room_rec = model.spaces[-1]
                rooms.append(room_rec)
                spaces.append(room)
                outer = model.obj("IFCWALLSTANDARDCASE", f"L{level}-{side}{k}-Outer")
                inner = model.obj("IFCWALLSTANDARDCASE", f"L{level}-{side}{k}-Corr")
                door = model.obj("IFCDOOR", f"L{level}-{side}{k}-Door",
                                 "$,$,$,$,$,$,2.1,0.9")
                window = model.obj("IFCWINDOW", f"L{level}-{side}{k}-Win",
                                   "$,$,$,$,$,$,1.5,1.2")
                elements += [outer, inner, door, window]
                model.opening(inner, door, f"L{level}-{side}{k}-DoorOpening")
                model.opening(outer, window, f"L{level}-{side}{k}-WinOpening")
                for element in (outer, inner, door, window):
                    model.bounds(room, element)
                model.bounds(corridor, door)
                if k:
                    partition = model.obj("IFCWALLSTANDARDCASE",
                                          f"L{level}-{side}{k}-Partition")
                    elements.append(partition)
                    model.bounds(room, partition)
                    model.bounds(spaces[-2], partition)
                model.pset([outer], "IsExternal", "IFCBOOLEAN(.T.)")
                model.pset([inner], "IsExternal", "IFCBOOLEAN(.F.)")
                # Door column in the middle of the room; the door sits on the
                # corridor wall, the window on the outer wall.
                col = room_w // 2
                door_row, outer_row = (room_d - 1, 0) if side == "S" else (0, room_d - 1)
                corridor_row = 0 if side == "S" else corridor_d - 1
                model.sensors.append({"id": f"s{level}{side}{k}", "space_id": room,
                                      "position": list(cell_centre(room_rec, room_d // 2, col)),
                                      "radius": 1.5})
                model.anchors.append({"entity_id": door, "space_id": room,
                                      "position": list(cell_centre(room_rec, door_row, col)),
                                      "radius": 1.0})
                model.anchors.append({"entity_id": door, "space_id": corridor,
                                      "position": list(cell_centre(corridor_rec, corridor_row,
                                                                   k * room_w + col)),
                                      "radius": 1.0})
                model.anchors.append({"entity_id": window, "space_id": room,
                                      "position": list(cell_centre(room_rec, outer_row, col)),
                                      "radius": 1.0})
        for k in range(max(1, length // 10)):
            model.sensors.append({"id": f"s{level}C{k}", "space_id": corridor,
                                  "position": list(cell_centre(corridor_rec, 0, 10 * k + 5)),
                                  "radius": 1.5})
        model.aggregates(storey, spaces)
        model.contains(storey, elements)
    model.aggregates(building, storey_ids)

    readings, fixes, labels = _timeline(model, rng, rooms, TOWER_WINDOWS,
                                        TOWER_OCCUPANTS, TOWER_STEP)
    paths = _write_inputs(model, out_dir, "generated tower", readings, fixes, labels)
    return _inputs(model, paths, TOWER_WINDOWS, TOWER_OCCUPANTS, TOWER_STEP)


# ---------------------------------------------------------------------------
# campus-static
# ---------------------------------------------------------------------------

def _placement(model: Model, x: float, y: float) -> int:
    origin = model.add("IFCCARTESIANPOINT", f"(({x:.3f},{y:.3f},0.))")
    axis = model.add("IFCAXIS2PLACEMENT3D", f"#{origin},$,$")
    return model.add("IFCLOCALPLACEMENT", f"$,#{axis}")


def _box_brep(model: Model, context: int, x: float, y: float, dx: float, dy: float,
              dz: float) -> tuple[int, int]:
    """Local placement and a six-face faceted B-rep box, as exporters write
    wall bodies. Returns (placement, product definition shape)."""
    placement = _placement(model, x, y)
    corners = [model.add("IFCCARTESIANPOINT", f"(({px:.3f},{py:.3f},{pz:.3f}))")
               for pz in (0.0, dz) for py in (0.0, dy) for px in (0.0, dx)]
    faces = []
    for loop in ((0, 1, 3, 2), (4, 5, 7, 6), (0, 1, 5, 4), (2, 3, 7, 6),
                 (0, 2, 6, 4), (1, 3, 7, 5)):
        polyloop = model.add("IFCPOLYLOOP", _refs([corners[i] for i in loop]))
        bound = model.add("IFCFACEOUTERBOUND", f"#{polyloop},.T.")
        faces.append(model.add("IFCFACE", f"(#{bound})"))
    shell = model.add("IFCCLOSEDSHELL", _refs(faces))
    brep = model.add("IFCFACETEDBREP", f"#{shell}")
    representation = model.add("IFCSHAPEREPRESENTATION",
                               f"#{context},'Body','Brep',(#{brep})")
    shape = model.add("IFCPRODUCTDEFINITIONSHAPE", f"$,$,(#{representation})")
    return placement, shape


def campus(out_dir: str, seed: int) -> dict:
    """Campus of identical blocks. Each storey holds CAMPUS_ROOMS 6x5 m rooms
    in two rows, a wall with a placement and a faceted B-rep box around every
    room side, and CAMPUS_FURNISHINGS furniture, columns and terminals with a
    placement each, all contained in the storey, so every storey node has
    hundreds of neighbours. One sensor per room; a short timeline of
    CAMPUS_WINDOWS windows. Labels are a comfort class per room given to two
    of its cells."""
    rng = random.Random(f"campus|{seed}")
    model = Model(rng, CELL_SIZE)
    origin = model.add("IFCCARTESIANPOINT", "((0.,0.,0.))")
    world = model.add("IFCAXIS2PLACEMENT3D", f"#{origin},$,$")
    context = model.add("IFCGEOMETRICREPRESENTATIONCONTEXT",
                        f"$,'Model',3,0.00001,#{world},$")
    project = model.add("IFCPROJECT",
                        f"'{model.guid()}',$,'Campus',$,$,$,$,(#{context}),$")
    site = model.obj("IFCSITE", "Campus", "$,$,$,$,$,$,$,$,$")
    model.aggregates(project, [site])
    room_w, room_d = 6, 5
    per_row = CAMPUS_ROOMS // 2
    all_rooms: list[dict] = []
    labels = []
    block_ids = []
    for b in range(CAMPUS_BUILDINGS):
        building = model.obj("IFCBUILDING", f"Block{b}", "$,$,$,$,$,$,$,$,$")
        block_ids.append(building)
        storey_ids = []
        x_off = b * (per_row * room_w + 20)
        for level in range(CAMPUS_STOREYS):
            name = f"B{b}L{level}"
            elevation = 3.5 * level
            storey = model.obj("IFCBUILDINGSTOREY", name, f"$,$,$,$,$,$,{elevation}")
            storey_ids.append(storey)
            spaces, elements = [], []
            for k in range(CAMPUS_ROOMS):
                x0, y0 = x_off + (k % per_row) * room_w, (k // per_row) * room_d
                room = model.space(name, f"R{k}", x0, y0, room_w, room_d, elevation)
                room_rec = model.spaces[-1]
                all_rooms.append(room_rec)
                spaces.append(room)
                for side, (wx, wy, dx, dy) in enumerate((
                        (x0, y0, room_w, 0.2), (x0, y0 + room_d, room_w, 0.2),
                        (x0, y0, 0.2, room_d), (x0 + room_w, y0, 0.2, room_d))):
                    placement, shape = _box_brep(model, context, wx, wy, dx, dy, 3.0)
                    wall = model.obj("IFCWALLSTANDARDCASE", f"{name}-R{k}-W{side}",
                                     f"$,#{placement},#{shape},$,$")
                    elements.append(wall)
                    model.bounds(room, wall)
                    if side == 0:
                        model.pset([wall], "IsExternal",
                                   "IFCBOOLEAN(.T.)" if k < per_row else "IFCBOOLEAN(.F.)")
                model.sensors.append({"id": f"s{name}R{k}", "space_id": room,
                                      "position": list(cell_centre(room_rec, 2, 3)),
                                      "radius": 1.5})
                comfort = FEEDBACK[rng.randrange(len(FEEDBACK))]
                for row, col in ((1, 1), (3, 4)):
                    labels.append(f"{cell_id(room_rec, row, col)},{comfort}")
            kinds = ("IFCFURNISHINGELEMENT", "IFCCOLUMN", "IFCFLOWTERMINAL")
            for f in range(CAMPUS_FURNISHINGS):
                x = x_off + rng.random() * per_row * room_w
                y = rng.random() * 2 * room_d
                placement = _placement(model, x, y)
                elements.append(model.obj(kinds[f % 3], f"{name}-F{f}",
                                          f"$,#{placement},$,$"))
            model.aggregates(storey, spaces)
            model.contains(storey, elements)
        model.aggregates(building, storey_ids)
    model.aggregates(site, block_ids)

    readings, fixes, _ = _timeline(model, rng, all_rooms, CAMPUS_WINDOWS,
                                   CAMPUS_OCCUPANTS, CAMPUS_STEP)
    paths = _write_inputs(model, out_dir, "generated campus", readings, fixes, labels)
    return _inputs(model, paths, CAMPUS_WINDOWS, CAMPUS_OCCUPANTS, CAMPUS_STEP)


# ---------------------------------------------------------------------------
# quickstart: the two-office fixture, read back with a minimal reader
# ---------------------------------------------------------------------------

_RELATION_POSITIONS = {  # IFC schema positions of (relating, related)
    "IFCRELAGGREGATES": (4, 5),
    "IFCRELCONTAINEDINSPATIALSTRUCTURE": (5, 4),
    "IFCRELFILLSELEMENT": (4, 5),
    "IFCRELVOIDSELEMENT": (4, 5),
    "IFCRELSPACEBOUNDARY": (4, 5),
    "IFCRELCONNECTSELEMENTS": (5, 6),
}


def _split_args(text: str) -> list[str]:
    """Top-level comma split that respects parentheses and quoted strings."""
    parts, depth, quoted, start = [], 0, False, 0
    for i, ch in enumerate(text):
        if ch == "'":
            quoted = not quoted
        elif not quoted and ch == "(":
            depth += 1
        elif not quoted and ch == ")":
            depth -= 1
        elif not quoted and depth == 0 and ch == ",":
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def quickstart(out_dir: str, fixture_dir: str) -> dict:
    """Copy the README fixtures and derive the expected figures from them.

    The IFC records are read one per line with a regular expression and the
    relationship endpoints taken at their schema positions; footprints must
    be axis-aligned rectangles."""
    os.makedirs(out_dir, exist_ok=True)
    names = {"ifc": "two_space.ifc", "footprints": "two_space.footprints.json",
             "sensors": "two_space.sensors.json", "readings": "readings.csv",
             "fixes": "fixes.csv", "labels": "labels.csv"}
    paths = {}
    for key, name in names.items():
        paths[key] = os.path.join(out_dir, name)
        shutil.copyfile(os.path.join(fixture_dir, name), paths[key])

    model = Model(random.Random(0), QUICKSTART_CELL_SIZE)
    records = []
    with open(paths["ifc"], encoding="utf-8") as fp:
        for line in fp:
            match = re.match(r"#(\d+)=(\w+)\((.*)\);\s*$", line.strip())
            if match:
                entity_id, type_name = int(match.group(1)), match.group(2)
                model.types[entity_id] = type_name
                model.lines.append(line)
                records.append((type_name, _split_args(match.group(3))))
    for type_name, args in records:
        if type_name in _RELATION_POSITIONS:
            relating, related = (
                [int(r) for r in re.findall(r"#(\d+)", args[i])]
                for i in _RELATION_POSITIONS[type_name])
            for a in relating:
                for b in related:
                    if model.is_node(a) and model.is_node(b) and a != b:
                        model.relation_edges.append((str(a), str(b)))
    with open(paths["footprints"], encoding="utf-8") as fp:
        for record in json.load(fp):
            xs = [p[0] for p in record["polygon"]]
            ys = [p[1] for p in record["polygon"]]
            model.spaces.append({"id": int(record["space_id"]), "x0": min(xs),
                                 "y0": min(ys), "w": max(xs) - min(xs),
                                 "h": max(ys) - min(ys), "cell": model.cell_size,
                                 "elevation": record.get("elevation", 0.0)})
    with open(paths["sensors"], encoding="utf-8") as fp:
        manifest = json.load(fp)
    model.sensors, model.anchors = manifest["sensors"], manifest["anchors"]
    with open(paths["readings"], encoding="utf-8") as fp:
        stamps = [int(line.split(",")[0]) for line in fp.readlines()[1:] if line.strip()]
    with open(paths["fixes"], encoding="utf-8") as fp:
        rows = [line.split(",") for line in fp.readlines()[1:] if line.strip()]
    stamps += [int(row[0]) for row in rows]
    windows = (max(stamps) - min(stamps)) // QUICKSTART_STEP + 1
    return _inputs(model, paths, windows, len({row[1] for row in rows}), QUICKSTART_STEP)
