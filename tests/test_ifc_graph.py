"""Graph construction tests against hand-applied mapping rules and an
independent relationship-counting pass."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from bimvec import graph as graph_module
from bimvec import ifc_graph, step_parser
from bimvec.cli import main
from bimvec.config import DEFAULT_OBJECT_PREFIXES, DEFAULT_RELATION_RULES, RunConfig
from bimvec.errors import BimvecError
from bimvec.graph import PropertyGraph
from bimvec.ifc_graph import attach_properties, build_graph
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
    assert sorted(graph.neighbor_weights("1")) == ["2", "3"]
    assert copied.adjacency() == {"1": {"2": 2.0}, "2": {"1": 2.0}}
    assert sorted(copied.neighbor_weights("1")) == ["2"]


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
    for entity in model.entities.values():
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


_READ_BASE = ['N\ta\tIFCSPACE\t{"area": 1.5, "name": "A"}', "N\tb\tIFCWALL\t{}",
              'E\ta\tb\tBOUNDS\t1.0\t{"k": [1, 2]}']


def _read_variants():
    """Valid and faulty spellings of the lines in ``_READ_BASE``."""
    yield "\n".join(_READ_BASE) + "\n"
    yield "\r\n".join(_READ_BASE) + "\r\n"
    yield "\n" + "\n  \n\r\n".join(_READ_BASE)
    for attrs in (' {"a": 1} ', '{"a":1}', "{}{}", "", "[]", "1", '"s"', "null", "{",
                  '{"x": NaN}', '{"x": 1e999}', '{"x": -Infinity}', '{"x": 1e-999}',
                  "[" * 100_000, '{"a": 1, "a": 2}'):
        yield "\n".join(_READ_BASE + [f"N\tc\tX\t{attrs}"])
        yield "\n".join(_READ_BASE + [f"E\ta\tb\tL\t2.0\t{attrs}"])
    for weight in ("1", "1_0", " 3 ", "nan", "inf", "-1", "0", "x", ""):
        yield "\n".join(_READ_BASE + [f"E\tb\ta\tL\t{weight}\t{{}}"])
    for line in ("N\ta b\tX\t{}", "N\tc\tX\r\t{}", "N\t\tX\t{}", "N\tc\t\t{}", "N\ta\tX\t{}",
                 "N\tc\tX", "N\tc\tX\t{}\t{}", "E\ta\tc\tL\t1.0\t{}", "E\ta\ta\tL\t1.0\t{}",
                 "E\ta\tb\tL L\t1.0\t{}", "E\ta\tb\tL\t1.0", "E\ta\tb\t\t1.0\t{}",
                 "Q\ta\t{}", " N\tc\tX\t{}", "N\tc\tX\tnot json",
                 # a line with two faults gives the first one checked
                 "N\ta\tX\tnull", "N\ta b\tX Y\t{}", "E\ta\tz\tL\tx\tnull",
                 "E\ta\tz\tL\t1.0\tnull", "E\ta\ta\tL L\t1.0\t{}", "E\ta\tb\tL\t0\tnull"):
        yield "\n".join(_READ_BASE + [line])


def _read_by_record_rules(text: str):
    """``text`` read line by line through ``add_node`` and ``add_edge``,
    attributes decoded up front: the graph's records, or the first fault as
    ``line N: reason``."""
    graph = PropertyGraph()
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        try:
            if fields[0] == "N":
                if len(fields) != 4:
                    raise ValueError("bad node record")
                graph_module._check_attributes(fields[3])
                graph.add_node(fields[1], fields[2], json.loads(fields[3]))
            elif fields[0] == "E":
                if len(fields) != 6:
                    raise ValueError("bad edge record")
                weight = float(fields[4])
                graph_module._check_attributes(fields[5])
                graph.add_edge(fields[1], fields[2], fields[3], weight, json.loads(fields[5]))
            else:
                raise ValueError(f"unknown record kind {fields[0]!r}")
        except (BimvecError, ValueError) as exc:
            return f"line {line_no}: {exc}"
    return _records(graph)


def _records(graph: PropertyGraph):
    return ([(node.id, node.label, dict(node.attributes)) for node in graph.nodes()],
            sorted((edge.a, edge.b, edge.label, edge.weight, json.dumps(dict(edge.attributes)))
                   for edge in graph.edges()))


def test_reader_accepts_what_the_record_rules_accept():
    """``from_text`` keeps each line and decodes attributes only when read,
    yet it accepts and rejects the lines that ``add_node`` and ``add_edge``
    do, with their messages, and gives the same records; an accepted line is
    written as read."""
    outcomes = []
    for text in _read_variants():
        expected = _read_by_record_rules(text)
        try:
            graph = PropertyGraph.from_text(text)
        except ValueError as exc:
            assert str(exc) == expected, text[:200]
            outcomes.append("rejected")
            continue
        assert _records(graph) == expected, text[:200]
        assert (sorted(graph.to_text().split("\n")[:-1])
                == sorted(line for line in text.split("\n") if line.strip())), text[:200]
        outcomes.append("accepted")
    assert outcomes.count("accepted") == 14 and outcomes.count("rejected") == 49


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


# ---------------------------------------------------------------------------
# decoding on demand
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def campus(tmp_path_factory):
    """bench/gen.py's campus-static inputs at seed 1."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        import gen
    return gen.campus(str(tmp_path_factory.mktemp("campus")), 1)


@pytest.fixture
def decoded(monkeypatch) -> list:
    """The value texts that the decoder reads, in order."""
    bodies: list = []
    decode = step_parser._decode
    monkeypatch.setattr(step_parser, "_decode", lambda body: bodies.append(body) or decode(body))
    return bodies


def test_building_graph_decodes_only_the_records_it_reads(campus, decoded, monkeypatch):
    """Only objects, the relations that the mapping expands and property
    records are decoded: on campus-static, 3,403 of 16,631 records."""
    model, undecoded = None, set()

    def parse(path):
        nonlocal model
        model = step_parser.parse_step_file(path)
        undecoded.update(i for i, entity in model.entities.items() if entity._body is not None)
        return model

    monkeypatch.setattr(ifc_graph, "parse_step_file", parse)
    paths = campus["paths"]
    cfg = RunConfig(cell_size=campus["cell_size"])
    ifc_graph.building_graph(cfg, paths["ifc"], paths["footprints"], paths["sensors"])
    mapping = cfg.relation_mapping()
    read = {"IFCRELDEFINESBYPROPERTIES", "IFCPROPERTYSET", "IFCPROPERTYSINGLEVALUE",
            *mapping.rules}
    now_decoded = {i for i in undecoded if model.entities[i]._body is None}
    assert len(decoded) == len(now_decoded) > 3000
    assert len(model) - len(undecoded) < 20  # the token loop read the first KiB
    for entity_id in now_decoded:
        type_name = model.entities[entity_id].type_name
        assert mapping.is_object_type(type_name) or type_name in read, type_name


@pytest.mark.parametrize("dump", [False, True], ids=["summary", "dump"])
def test_parse_decodes_records_only_to_dump_them(campus, decoded, tmp_path, dump):
    argv = ["parse", campus["paths"]["ifc"]] + (["--dump", str(tmp_path / "d.ifc")] if dump else [])
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert "entities\t16631\n" in result.stdout
    assert (len(decoded) > 16000) == dump
