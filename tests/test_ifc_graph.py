"""Graph construction tests against hand-applied mapping rules and an
independent relationship-counting pass."""

from __future__ import annotations

import pytest

from bimvec.errors import BimvecError
from bimvec.graph import PropertyGraph
from bimvec.ifc_graph import (
    DEFAULT_OBJECT_PREFIXES,
    DEFAULT_RELATION_RULES,
    attach_properties,
    build_graph,
)
from bimvec.step_parser import parse_step

from conftest import wrap


def test_contained_in_spatial_structure_expands_to_contains():
    model = parse_step(wrap(
        "#5=IFCSPACE('g',$,'S',$,$,$,$,$,$,$,$);\n"
        "#6=IFCWALL('g',$,'W',$,$,$,$,$,$);\n"
        "#10=IFCRELCONTAINEDINSPATIALSTRUCTURE('g',$,$,$,(#6),#5);"
    ))
    graph = build_graph(model)
    assert len(graph) == 2
    edges = graph.edges()
    assert len(edges) == 1
    assert (edges[0].a, edges[0].b) == ("5", "6")
    assert edges[0].label == "CONTAINS"
    assert edges[0].weight == 1.0


def test_no_relationships_gives_node_set_only():
    model = parse_step(wrap(
        "#5=IFCSPACE('g',$,'S',$,$,$,$,$,$,$,$);\n"
        "#6=IFCWALL('g',$,'W',$,$,$,$,$,$);"
    ))
    graph = build_graph(model)
    assert len(graph) == 2
    assert graph.edge_count == 0


def test_aggregates_expands_one_edge_per_related():
    model = parse_step(wrap(
        "#3=IFCBUILDINGSTOREY('g',$,'L1',$,$,$,$,$,$,0.);\n"
        "#5=IFCSPACE('g',$,'A',$,$,$,$,$,$,$,$);\n"
        "#7=IFCSPACE('g',$,'B',$,$,$,$,$,$,$,$);\n"
        "#9=IFCRELAGGREGATES('g',$,$,$,#3,(#5,#7));"
    ))
    graph = build_graph(model)
    labels = sorted(((e.a, e.b), e.label) for e in graph.edges())
    assert labels == [(("3", "5"), "AGGREGATES"), (("3", "7"), "AGGREGATES")]


def test_relationship_entities_do_not_become_nodes():
    model = parse_step(wrap(
        "#5=IFCSPACE('g',$,'S',$,$,$,$,$,$,$,$);\n"
        "#6=IFCWALL('g',$,'W',$,$,$,$,$,$);\n"
        "#10=IFCRELCONTAINEDINSPATIALSTRUCTURE('g',$,$,$,(#6),#5);"
    ))
    graph = build_graph(model)
    assert "10" not in graph


def test_dangling_endpoint_lenient_skips_and_strict_raises():
    model = parse_step(wrap(
        "#5=IFCSPACE('g',$,'S',$,$,$,$,$,$,$,$);\n"
        "#10=IFCRELCONTAINEDINSPATIALSTRUCTURE('g',$,$,$,(#99),#5);"
    ))
    graph = build_graph(model, strict=False)
    assert graph.edge_count == 0
    with pytest.raises(BimvecError, match="^relationship #10 references missing entity #99$"):
        build_graph(model, strict=True)


def test_object_attributes_carry_global_id_and_name():
    model = parse_step(wrap("#6=IFCWALL('guid-6',$,'West Wall',$,$,$,$,$,$);"))
    node = build_graph(model).node("6")
    assert node.attributes["global_id"] == "guid-6"
    assert node.attributes["name"] == "West Wall"


# ---------------------------------------------------------------------------
# attach_properties
# ---------------------------------------------------------------------------

def test_property_set_copied_to_node():
    model = parse_step(wrap(
        "#6=IFCWALL('g',$,'W',$,$,$,$,$,$);\n"
        "#60=IFCPROPERTYSINGLEVALUE('IsExternal',$,IFCBOOLEAN(.T.),$);\n"
        "#61=IFCPROPERTYSET('g',$,'Pset_WallCommon',$,(#60));\n"
        "#62=IFCRELDEFINESBYPROPERTIES('g',$,$,$,(#6),#61);"
    ))
    graph = attach_properties(build_graph(model), model)
    assert graph.node("6").attributes["IsExternal"] is True


def test_no_property_relationships_leaves_graph_unchanged():
    model = parse_step(wrap("#6=IFCWALL('g',$,'W',$,$,$,$,$,$);"))
    graph = build_graph(model)
    before = graph.to_text()
    attach_properties(graph, model)
    assert graph.to_text() == before


def test_property_last_writer_wins_by_relationship_id():
    model = parse_step(wrap(
        "#6=IFCWALL('g',$,'W',$,$,$,$,$,$);\n"
        "#15=IFCPROPERTYSINGLEVALUE('Height',$,IFCREAL(2.5),$);\n"
        "#16=IFCPROPERTYSET('g',$,'PsetA',$,(#15));\n"
        "#17=IFCPROPERTYSINGLEVALUE('Height',$,IFCREAL(3.0),$);\n"
        "#18=IFCPROPERTYSET('g',$,'PsetB',$,(#17));\n"
        "#21=IFCRELDEFINESBYPROPERTIES('g',$,$,$,(#6),#18);\n"
        "#20=IFCRELDEFINESBYPROPERTIES('g',$,$,$,(#6),#16);"
    ))
    graph = attach_properties(build_graph(model), model)
    # relationship #21 (referencing PsetB, 3.0) outranks #20
    assert graph.node("6").attributes["Height"] == 3.0


def test_malformed_property_set_is_skipped():
    model = parse_step(wrap(
        "#6=IFCWALL('g',$,'W',$,$,$,$,$,$);\n"
        "#16=IFCELEMENTQUANTITY('g',$,'Q',$,$,());\n"
        "#20=IFCRELDEFINESBYPROPERTIES('g',$,$,$,(#6),#16);"
    ))
    graph = attach_properties(build_graph(model), model)
    assert set(graph.node("6").attributes) == {"global_id", "name"}


# ---------------------------------------------------------------------------
# copy
# ---------------------------------------------------------------------------

def test_copy_is_independent_and_valid():
    graph = PropertyGraph()
    graph.add_node("1", "A", {"name": "one"})
    graph.add_node("2", "B")
    graph.add_edge("1", "2", "E", 2.0, {"kind": "wall"})
    before = graph.to_text()
    copied = graph.copy()
    assert copied.to_text() == before
    copied.set_node_attribute("1", "name", "changed")
    copied.set_node_attribute("2", "mark", 1)
    with pytest.raises(TypeError):
        copied.node("2").attributes["mark"] = 2
    with pytest.raises(TypeError):
        copied.edges()[0].attributes["kind"] = "door"
    copied.add_node("3", "A")
    copied.add_edge("3", "1", "E")
    copied.add_edge("1", "2", "E")
    assert graph.to_text() == before
    assert "3" not in graph
    assert graph.neighbor_weights("1") == {"2": 2.0}
    assert copied.neighbor_weights("1") == {"2": 3.0, "3": 1.0}


def test_adjacency_follows_mutation():
    graph = PropertyGraph()
    graph.add_node("1", "A")
    graph.add_node("2", "B")
    graph.add_edge("1", "2", "E", 2.0)
    assert graph.adjacency() == {"1": {"2": 2.0}, "2": {"1": 2.0}}
    copied = graph.copy()
    graph.add_node("3", "C")
    assert graph.adjacency()["3"] == {}
    graph.add_edge("3", "1", "E")
    graph.add_edge("1", "2", "E", 0.5)
    assert graph.adjacency() == {"1": {"2": 2.5, "3": 1.0}, "2": {"1": 2.5},
                                 "3": {"1": 1.0}}
    assert graph.neighbors("1") == ["2", "3"]
    assert copied.adjacency() == {"1": {"2": 2.0}, "2": {"1": 2.0}}
    assert copied.neighbors("1") == ["2"]


# ---------------------------------------------------------------------------
# invariants on the two-space fixture
# ---------------------------------------------------------------------------

def _independent_pair_count(model) -> int:
    """Count expandable relationship pairs straight off the entity table,
    sharing no code with build_graph."""
    positions = {
        "IFCRELAGGREGATES": (4, 5),
        "IFCRELCONTAINEDINSPATIALSTRUCTURE": (5, 4),
        "IFCRELFILLSELEMENT": (4, 5),
        "IFCRELVOIDSELEMENT": (4, 5),
        "IFCRELSPACEBOUNDARY": (4, 5),
        "IFCRELCONNECTSELEMENTS": (5, 6),
    }
    assert set(positions) == set(DEFAULT_RELATION_RULES)

    def refs(value):
        from bimvec.step_parser import EntityRef
        if isinstance(value, EntityRef):
            return [value.entity_id]
        if isinstance(value, list):
            return [r for item in value for r in refs(item)]
        return []

    def is_object(entity_id):
        entity = model.entities.get(entity_id)
        return entity is not None and entity.type_name.startswith(
            DEFAULT_OBJECT_PREFIXES)

    count = 0
    for entity in model.in_id_order():
        if entity.type_name not in positions:
            continue
        relating_pos, related_pos = positions[entity.type_name]
        for src in refs(entity.attributes[relating_pos]):
            for dst in refs(entity.attributes[related_pos]):
                if src != dst and is_object(src) and is_object(dst):
                    count += 1
    return count


def test_edge_label_must_be_a_token():
    """An edge label is a field of the graph's tab-separated text form, as
    a node label is."""
    graph = PropertyGraph()
    graph.add_node("a", "X")
    graph.add_node("b", "X")
    for label in ("", "A B", "A\tB", "A\nB"):
        with pytest.raises(ValueError, match="invalid edge label"):
            graph.add_edge("a", "b", label)
    assert graph.edge_count == 0


def test_edge_count_matches_independent_pass(two_space_model, fixture_manifest):
    graph = build_graph(two_space_model)
    expected = _independent_pair_count(two_space_model)
    assert graph.edge_count == expected == fixture_manifest["relationship_edges"]


def test_fixture_node_count(two_space_model, fixture_manifest):
    graph = build_graph(two_space_model)
    assert len(graph) == fixture_manifest["ifc_nodes"]


def test_build_graph_deterministic(two_space_model):
    first = build_graph(two_space_model)
    second = build_graph(two_space_model)
    assert first.to_text() == second.to_text()


def test_no_edge_references_missing_node(two_space_graph):
    node_ids = set(two_space_graph.node_ids())
    for edge in two_space_graph.edges():
        assert edge.a in node_ids and edge.b in node_ids


def test_fixture_properties_attached(two_space_graph):
    assert two_space_graph.node("10").attributes["IsExternal"] is True
    assert two_space_graph.node("16").attributes["Reference"] == "W-NEW"
