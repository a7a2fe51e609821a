"""Expand a parsed STEP model into the building property graph.

IFC objectified relationships (IfcRel*) become edges between the objects
they connect; the relationship entities themselves do not become nodes.
Property sets attached through IFCRELDEFINESBYPROPERTIES are copied onto
node attributes. Everything is driven by a rule table so unknown schema
variants can be mapped without code changes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping

from .errors import BimvecError
from .graph import NodeId, PropertyGraph
from .step_parser import (
    EntityRef,
    EnumToken,
    StepEntity,
    StepModel,
    TypedValue,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RelationRule:
    """How one relationship entity type expands into edges.

    ``relating_index``/``related_index`` are attribute positions holding an
    entity reference or an aggregate of references; every (relating, related)
    pair becomes one edge labeled ``edge_label``.
    """

    edge_label: str
    relating_index: int
    related_index: int


DEFAULT_RELATION_RULES: dict[str, RelationRule] = {
    "IFCRELAGGREGATES": RelationRule("AGGREGATES", 4, 5),
    "IFCRELCONTAINEDINSPATIALSTRUCTURE": RelationRule("CONTAINS", 5, 4),
    "IFCRELFILLSELEMENT": RelationRule("FILLS", 4, 5),
    "IFCRELVOIDSELEMENT": RelationRule("VOIDS", 4, 5),
    "IFCRELSPACEBOUNDARY": RelationRule("BOUNDED_BY", 4, 5),
    "IFCRELCONNECTSELEMENTS": RelationRule("CONNECTS", 5, 6),
}

# Lexical whitelist of node-worthy object types; any entity whose type name
# starts with one of these becomes a graph node.
DEFAULT_OBJECT_PREFIXES: tuple[str, ...] = (
    "IFCSPACE",
    "IFCWALL",
    "IFCDOOR",
    "IFCWINDOW",
    "IFCSLAB",
    "IFCCOVERING",
    "IFCBUILDING",
    "IFCSITE",
    "IFCFLOW",
    "IFCOPENINGELEMENT",
    "IFCROOF",
    "IFCSTAIR",
    "IFCCOLUMN",
    "IFCBEAM",
    "IFCFURNISHINGELEMENT",
)


@dataclass(frozen=True)
class RelationMapping:
    rules: Mapping[str, RelationRule] = field(
        default_factory=lambda: dict(DEFAULT_RELATION_RULES)
    )
    object_prefixes: tuple[str, ...] = DEFAULT_OBJECT_PREFIXES

    def is_object_type(self, type_name: str) -> bool:
        return type_name.startswith(self.object_prefixes)


def ifc_node_id(entity_id: int) -> NodeId:
    """Node id for an IFC-derived node: the decimal entity id."""
    return str(entity_id)


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

    for entity in model.in_id_order():
        if mapping.is_object_type(entity.type_name):
            graph.add_node(
                ifc_node_id(entity.id),
                entity.type_name,
                _object_attributes(entity),
            )

    for entity in model.in_id_order():
        rule = mapping.rules.get(entity.type_name)
        if rule is None:
            continue
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
    return _flatten_refs(entity.attributes[index])


def _flatten_refs(value) -> list[int]:
    if isinstance(value, EntityRef):
        return [value.entity_id]
    if isinstance(value, list):
        out: list[int] = []
        for item in value:
            out.extend(_flatten_refs(item))
        return out
    return []


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
    for rel in model.in_id_order():
        if rel.type_name != _REL_DEFINES:
            continue
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
