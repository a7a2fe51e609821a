"""Attributed, weighted, undirected multigraph of building components.

Node ids are opaque strings: IFC-derived nodes use the decimal entity id
(``"5"``), synthetic nodes carry a namespace tag (``"cell:5:0:1"``,
``"sensor:s1"``, ``"occupant:alice"``). The canonical node order everywhere
is the lexicographic order of these ids, which keeps every downstream
tie-break deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import BimvecError

NodeId = str

_ID_FORBIDDEN = set(" \t\r\n")

# Renders every record's attributes: the bytes of json.dumps(sort_keys=True).
_encode = json.JSONEncoder(sort_keys=True).encode


def check_token(value: str, what: str) -> None:
    """Node ids and labels are fields of the tab-separated text form."""
    if not value or _ID_FORBIDDEN & set(value):
        raise ValueError(f"invalid {what} {value!r}")


@dataclass(frozen=True)
class Node:
    """Immutable, so graphs and their copies share it. ``attributes`` is
    read-only, but its values are shared too: never change one in place."""

    id: NodeId
    label: str
    attributes: Mapping

    @cached_property
    def line(self) -> str:
        """This record's line of the text form, rendered once."""
        return f"N\t{self.id}\t{self.label}\t{_encode(self.attributes.copy())}"


@dataclass(frozen=True)
class Edge:
    """Immutable undirected edge; endpoints in canonical (sorted) order."""

    a: NodeId
    b: NodeId
    label: str
    weight: float
    attributes: Mapping

    @cached_property
    def line(self) -> str:
        """This record's line of the text form, rendered once."""
        return (f"E\t{self.a}\t{self.b}\t{self.label}\t{self.weight!r}\t"
                f"{_encode(self.attributes.copy())}")


class PropertyGraph:
    """Mutable while being built; treated as immutable once shared."""

    def __init__(self):
        self._nodes: dict[NodeId, Node] = {}
        self._edges: list[Edge] = []
        self._adjacency: dict[NodeId, dict[NodeId, float]] | None = None

    # -- construction -------------------------------------------------------

    def add_node(self, node_id: NodeId, label: str, attributes: dict | None = None) -> Node:
        check_token(node_id, "node id")
        check_token(label, "node label")
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} already exists")
        node = Node(node_id, label, MappingProxyType(dict(attributes or {})))
        self._nodes[node_id] = node
        self._adjacency = None
        return node

    def add_edge(
        self,
        u: NodeId,
        v: NodeId,
        label: str,
        weight: float = 1.0,
        attributes: Mapping | None = None,
    ) -> Edge:
        check_token(label, "edge label")
        if u not in self._nodes or v not in self._nodes:
            missing = u if u not in self._nodes else v
            raise BimvecError(f"edge endpoint {missing!r} is not a node")
        if u == v:
            raise ValueError(f"self-loop on {u!r} is not allowed")
        if not (0 < weight < math.inf):
            raise ValueError(f"edge weight must be positive and finite, got {weight}")
        a, b = (u, v) if u < v else (v, u)
        edge = Edge(a, b, label, float(weight), MappingProxyType(dict(attributes or {})))
        self._edges.append(edge)
        self._adjacency = None
        return edge

    def set_node_attribute(self, node_id: NodeId, key: str, value) -> None:
        """Swap in a new node; graphs sharing the old one keep it."""
        node = self.node(node_id)
        self._nodes[node_id] = Node(node_id, node.label,
                                    MappingProxyType({**node.attributes, key: value}))

    # -- queries ------------------------------------------------------------

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def node(self, node_id: NodeId) -> Node:
        if node_id not in self._nodes:
            raise BimvecError(f"no node {node_id!r}")
        return self._nodes[node_id]

    def node_ids(self) -> list[NodeId]:
        return sorted(self._nodes)

    def nodes(self) -> Iterator[Node]:
        for node_id in sorted(self._nodes):
            yield self._nodes[node_id]

    def edges(self) -> list[Edge]:
        return list(self._edges)

    def adjacency(self) -> dict[NodeId, dict[NodeId, float]]:
        """``{node: {neighbor: total edge weight}}`` for every node, parallel
        edges summed in edge order. Built on the first call after a change
        and shared, like ``Node.attributes``: never mutate it."""
        if self._adjacency is None:
            adjacency: dict[NodeId, dict[NodeId, float]] = {n: {} for n in self._nodes}
            for edge in self._edges:
                around_a, around_b = adjacency[edge.a], adjacency[edge.b]
                around_a[edge.b] = around_a.get(edge.b, 0.0) + edge.weight
                around_b[edge.a] = around_b.get(edge.a, 0.0) + edge.weight
            self._adjacency = adjacency
        return self._adjacency

    def neighbors(self, node_id: NodeId) -> list[NodeId]:
        return sorted(self.adjacency()[self.node(node_id).id])

    def neighbor_weights(self, node_id: NodeId) -> dict[NodeId, float]:
        """Total edge weight per neighbor (parallel edges summed), a copy."""
        return dict(self.adjacency()[self.node(node_id).id])

    def labels(self) -> dict[NodeId, str]:
        return {node_id: node.label for node_id, node in self._nodes.items()}

    # -- derived graphs -----------------------------------------------------

    def copy(self) -> "PropertyGraph":
        """An independent graph; as this one is valid nothing is re-checked.
        The immutable nodes and edges are shared, the containers copied."""
        out = PropertyGraph()
        out._nodes = dict(self._nodes)
        out._edges = list(self._edges)
        return out

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """Line-delimited text form: ``N`` records then ``E`` records.

        Deterministic: nodes sorted by id, edges sorted by their full record.
        Each record's line is rendered once, so a copy renders only the
        records it added or replaced.
        """
        lines = [node.line for node in self.nodes()]
        lines += sorted(edge.line for edge in self._edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PropertyGraph":
        graph = cls()
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            fields = line.split("\t")
            kind = fields[0]
            if kind == "N":
                if len(fields) != 4:
                    raise ValueError(f"bad node record on line {line_no}")
                _, node_id, label, attrs = fields
                graph.add_node(node_id, label, _json_object(attrs, line_no))
            elif kind == "E":
                if len(fields) != 6:
                    raise ValueError(f"bad edge record on line {line_no}")
                _, a, b, label, weight, attrs = fields
                graph.add_edge(a, b, label, float(weight), _json_object(attrs, line_no))
            else:
                raise ValueError(f"unknown record kind {kind!r} on line {line_no}")
        return graph


def _json_object(text: str, line_no: int) -> dict:
    """A record's attribute field, which must be a JSON object."""
    try:
        value = json.loads(text)
    except RecursionError:
        raise ValueError(f"attributes on line {line_no} are nested too deeply") from None
    if not isinstance(value, dict):
        raise ValueError(f"attributes on line {line_no} must be a JSON object")
    return value
