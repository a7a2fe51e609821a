"""Expand a parsed STEP model into the building property graph.

IFC objectified relationships (IfcRel*) become edges between the objects
they connect; the relationship entities themselves do not become nodes.
Property sets attached through IFCRELDEFINESBYPROPERTIES are copied onto
node attributes. Everything is driven by a rule table so unknown schema
variants can be mapped without code changes. :func:`building_graph` adds
the grid cells, sensors and anchors: it is what the ``graph`` command writes.
"""

from __future__ import annotations

import logging

from . import space_grid
from .config import RelationMapping, RelationRule, RunConfig
from .errors import BimvecError
from .graph import NodeId, PropertyGraph
from .step_parser import (
    EnumToken,
    StepEntity,
    StepModel,
    TypedValue,
    parse_step_file,
    reference_ids,
)

logger = logging.getLogger(__name__)


def ifc_node_id(entity_id: int) -> NodeId:
    """Node id for an IFC-derived node: the decimal entity id."""
    return str(entity_id)


def building_graph(cfg: RunConfig, ifc_path, footprints_path,
                   sensors_path=None) -> PropertyGraph:
    """The IFC objects with their relations and properties, each footprint's
    grid cells, and the manifest's sensors and anchors AT the cells near them."""
    model = parse_step_file(ifc_path)
    graph = build_graph(model, cfg.relation_mapping(), strict=cfg.strict)
    attach_properties(graph, model)

    spaces = {}
    for index, footprint in enumerate(space_grid.load_footprints(footprints_path)):
        if footprint.space_node not in graph:
            raise BimvecError(f"footprint references unknown space entity "
                              f"#{footprint.space_node}")
        if footprint.space_node in spaces:
            raise BimvecError(f"{footprints_path}: footprints[{index}]: space "
                              f"{footprint.space_node!r} has a second footprint")
        space = space_grid.discretize(footprint, cfg.cell_size)
        space_grid.merge_into(graph, space, queen=cfg.adjacency == "queen")
        spaces[space.space_node] = space

    if sensors_path:
        sensors, anchors = space_grid.load_sensor_manifest(sensors_path)
        fixed = [(space_grid.sensor_node_id(str(r["id"])), r) for r in sensors]
        for index, (node_id, record) in enumerate(fixed):
            if node_id in graph:
                raise BimvecError(f"{sensors_path}: sensors[{index}]: sensor id "
                                  f"{str(record['id'])!r} repeats")
            x, y = record["position"]
            graph.add_node(node_id, space_grid.SENSOR_LABEL,
                           {"space": str(record["space_id"]), "x": x, "y": y})
        placed = set()
        for index, record in enumerate(anchors):
            key = (str(record["entity_id"]), str(record["space_id"]))
            if key in placed:
                raise BimvecError(f"{sensors_path}: anchors[{index}]: entity {key[0]!r} "
                                  f"is anchored in space {key[1]!r} twice")
            placed.add(key)
        fixed += [(str(r["entity_id"]), r) for r in anchors]
        for node_id, record in fixed:
            space_node = str(record["space_id"])
            if space_node not in spaces:
                raise BimvecError(f"manifest references space {space_node!r} with no footprint")
            space_grid.attach_fixed_node(graph, spaces[space_node], node_id, record["position"],
                                         record.get("radius", cfg.sensor_radius), strict=cfg.strict)
    return graph


def build_graph(
    model: StepModel,
    mapping: RelationMapping | None = None,
    strict: bool = False,
) -> PropertyGraph:
    """One node per whitelisted object entity, one edge per expanded
    (relating, related) pair; default edge weight 1.0.

    In lenient mode a relationship endpoint that is missing from the model
    is reported and the pair skipped; ``strict=True`` raises
    a :class:`BimvecError` instead. Endpoints that exist but are
    not whitelisted are skipped silently at debug level.
    """
    mapping = mapping or RelationMapping()
    graph = PropertyGraph()

    type_names = {entity.type_name for entity in model.entities.values()}
    for entity in model.of_types(filter(mapping.is_object_type, type_names)):
        graph.add_node(
            ifc_node_id(entity.id),
            entity.type_name,
            _object_attributes(entity),
        )

    for entity in model.of_types(mapping.rules):
        rule = mapping.rules[entity.type_name]
        relating = _refs_at(entity, rule.relating_index)
        related = _refs_at(entity, rule.related_index)
        if not relating or not related:
            logger.debug("relationship #%d has no endpoints to expand", entity.id)
            continue
        for src in relating:
            for dst in related:
                _add_relation_edge(graph, model, entity, rule, src, dst, strict)
    return graph


def _add_relation_edge(
    graph: PropertyGraph,
    model: StepModel,
    relationship: StepEntity,
    rule: RelationRule,
    src: int,
    dst: int,
    strict: bool,
) -> None:
    for endpoint in (src, dst):
        if endpoint not in model.entities:
            message = (
                f"relationship #{relationship.id} references missing entity "
                f"#{endpoint}"
            )
            if strict:
                raise BimvecError(message)
            logger.warning("%s; edge skipped", message)
            return
    u, v = ifc_node_id(src), ifc_node_id(dst)
    if u not in graph or v not in graph:
        logger.debug(
            "relationship #%d endpoint not whitelisted; edge skipped",
            relationship.id,
        )
        return
    if u == v:
        logger.warning("relationship #%d relates #%d to itself; skipped",
                       relationship.id, src)
        return
    graph.add_edge(u, v, rule.edge_label, 1.0, {"relationship": relationship.id})


def _object_attributes(entity: StepEntity) -> dict:
    # IfcRoot layout: GlobalId, OwnerHistory, Name, Description, ...
    attrs: dict = {}
    if entity.attributes and isinstance(entity.attributes[0], str):
        attrs["global_id"] = entity.attributes[0]
    if len(entity.attributes) > 2 and isinstance(entity.attributes[2], str):
        attrs["name"] = entity.attributes[2]
    return attrs


def _refs_at(entity: StepEntity, index: int) -> list[int]:
    if index >= len(entity.attributes):
        return []
    return list(reference_ids(entity.attributes[index]))


# ---------------------------------------------------------------------------
# Property sets
# ---------------------------------------------------------------------------

_REL_DEFINES = "IFCRELDEFINESBYPROPERTIES"
_PROPERTY_SET = "IFCPROPERTYSET"
_SINGLE_VALUE = "IFCPROPERTYSINGLEVALUE"


def attach_properties(graph: PropertyGraph, model: StepModel) -> PropertyGraph:
    """Copy single-value properties onto the related nodes' attributes.

    Relationships are applied in ascending id order, so for a repeated key
    the highest relationship id wins. Malformed property sets are skipped
    with a diagnostic. Mutates and returns ``graph``.
    """
    for rel in model.of_types([_REL_DEFINES]):
        targets = _refs_at(rel, 4)
        pset_refs = _refs_at(rel, 5)
        for pset_id in pset_refs:
            pset = model.entities.get(pset_id)
            if pset is None:
                logger.warning("property relationship #%d points at missing #%d",
                               rel.id, pset_id)
                continue
            if pset.type_name != _PROPERTY_SET:
                logger.debug("skipping non-property-set #%d (%s)",
                             pset_id, pset.type_name)
                continue
            properties = _single_values(model, pset)
            if not properties:
                continue
            for target_id in targets:
                node_id = ifc_node_id(target_id)
                if node_id not in graph:
                    logger.debug("property target #%d is not a graph node", target_id)
                    continue
                for key, value in properties:
                    graph.set_node_attribute(node_id, key, value)
    return graph


def _single_values(model: StepModel, pset: StepEntity) -> list[tuple[str, object]]:
    out: list[tuple[str, object]] = []
    for prop_id in _refs_at(pset, 4):
        prop = model.entities.get(prop_id)
        if prop is None or prop.type_name != _SINGLE_VALUE:
            logger.debug("skipping property #%s in set #%d", prop_id, pset.id)
            continue
        if not prop.attributes or not isinstance(prop.attributes[0], str):
            logger.warning("property #%d has no usable name; skipped", prop_id)
            continue
        name = prop.attributes[0]
        raw = prop.attributes[2] if len(prop.attributes) > 2 else None
        value = _scalar_value(raw)
        if value is None:
            continue
        out.append((name, value))
    return out


def _scalar_value(value) -> object | None:
    """Reduce a nominal value to a JSON-friendly scalar, or None to skip."""
    if isinstance(value, TypedValue):
        return _scalar_value(value.value)
    if isinstance(value, EnumToken):
        if value.name == "T":
            return True
        if value.name == "F":
            return False
        return value.name
    if isinstance(value, (int, float, str)):
        return value
    return None
