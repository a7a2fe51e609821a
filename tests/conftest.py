"""Shared fixtures: the synthetic two-office building and small graphs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bimvec import space_grid, temporal
from bimvec.graph import PropertyGraph
from bimvec.ifc_graph import attach_properties, build_graph
from bimvec.step_parser import StepModel, parse_step_file

DATA_DIR = Path(__file__).parent / "data"


def wrap(data_records: str) -> str:
    """Embed DATA-section records in a minimal valid STEP file."""
    return (
        "ISO-10303-21;\nHEADER;\nFILE_DESCRIPTION((''),'2;1');\nENDSEC;\n"
        f"DATA;\n{data_records}\nENDSEC;\nEND-ISO-10303-21;\n"
    )


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def two_space_model() -> StepModel:
    return parse_step_file(DATA_DIR / "two_space.ifc")


@pytest.fixture(scope="session")
def fixture_manifest() -> dict:
    with open(DATA_DIR / "two_space.manifest.json", encoding="utf-8") as fp:
        return json.load(fp)


def build_two_space_graph(cell_size: float = 2.0) -> PropertyGraph:
    """The full building graph: IFC objects, cells, sensors, anchors.

    Mirrors what the graph command produces for the two_space fixture.
    """
    model = parse_step_file(DATA_DIR / "two_space.ifc")
    graph = build_graph(model)
    attach_properties(graph, model)
    spaces = {}
    for footprint in space_grid.load_footprints(DATA_DIR / "two_space.footprints.json"):
        space = space_grid.discretize(footprint, cell_size)
        space_grid.merge_into(graph, space)
        spaces[space.space_node] = space
    with open(DATA_DIR / "two_space.sensors.json", encoding="utf-8") as fp:
        manifest = json.load(fp)
    for record in manifest["sensors"]:
        space = spaces[str(record["space_id"])]
        node_id = temporal.sensor_node_id(record["id"])
        graph.add_node(node_id, "SENSOR", {
            "space": space.space_node,
            "x": record["position"][0],
            "y": record["position"][1],
        })
        space_grid.attach_fixed_node(graph, space, node_id,
                                     tuple(record["position"]),
                                     record["radius"])
    for record in manifest["anchors"]:
        space = spaces[str(record["space_id"])]
        space_grid.attach_fixed_node(graph, space, str(record["entity_id"]),
                                     tuple(record["position"]),
                                     record["radius"])
    return graph


@pytest.fixture(scope="session")
def two_space_graph() -> PropertyGraph:
    return build_two_space_graph()


def make_barbell() -> PropertyGraph:
    """Two 5-cliques joined by a single bridge edge a0-b0."""
    graph = PropertyGraph()
    for side in "ab":
        for i in range(5):
            graph.add_node(f"{side}{i}", "X")
    for side in "ab":
        for i in range(5):
            for j in range(i + 1, 5):
                graph.add_edge(f"{side}{i}", f"{side}{j}", "CLIQUE")
    graph.add_edge("a0", "b0", "BRIDGE")
    return graph


@pytest.fixture()
def barbell_graph() -> PropertyGraph:
    return make_barbell()


def make_triangle() -> PropertyGraph:
    graph = PropertyGraph()
    for name in "abc":
        graph.add_node(name, "X")
    graph.add_edge("a", "b", "E")
    graph.add_edge("b", "c", "E")
    graph.add_edge("a", "c", "E")
    return graph


def make_path(length: int = 3) -> PropertyGraph:
    graph = PropertyGraph()
    names = [chr(ord("a") + i) for i in range(length)]
    for name in names:
        graph.add_node(name, "X")
    for u, v in zip(names, names[1:]):
        graph.add_edge(u, v, "E")
    return graph


# Small walk-oracle fixtures: (name, nodes, weighted edge list), <= 8 nodes.
SMALL_GRAPHS = [
    ("triangle", "abc", [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)]),
    ("path4", "abcd", [("a", "b", 1), ("b", "c", 1), ("c", "d", 1)]),
    ("star5", "hijkl", [("h", x, 1) for x in "ijkl"]),
    ("k4_weighted", "abcd", [
        ("a", "b", 0.5), ("a", "c", 2.0), ("a", "d", 1.5),
        ("b", "c", 3.0), ("b", "d", 0.25), ("c", "d", 1.0),
    ]),
    ("two_squares_bridge", "abcdwxyz", [
        ("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("a", "d", 1),
        ("w", "x", 1), ("x", "y", 1), ("y", "z", 1), ("w", "z", 1),
        ("a", "w", 1),
    ]),
    ("parallel_edges", "abc", [
        ("a", "b", 1), ("a", "b", 2), ("b", "c", 0.5), ("a", "c", 1),
    ]),
]

P_Q_GRID = [(1.0, 1.0), (0.5, 2.0), (4.0, 0.25), (2.0, 0.5), (0.25, 4.0)]


def graph_from_edges(nodes, edge_list) -> PropertyGraph:
    graph = PropertyGraph()
    for name in nodes:
        graph.add_node(name, "N")
    for u, v, w in edge_list:
        graph.add_edge(u, v, "E", float(w))
    return graph
