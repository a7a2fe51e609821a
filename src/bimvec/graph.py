"""Attributed, weighted, undirected multigraph of building components.

Node ids are opaque strings: IFC-derived nodes use the decimal entity id
(``"5"``), synthetic nodes carry a namespace tag (``"cell:5:0:1"``,
``"sensor:s1"``, ``"occupant:alice"``). The canonical node order everywhere
is the lexicographic order of these ids, which keeps every downstream
tie-break deterministic.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .errors import InternalInvariantError, UnknownNodeError

logger = logging.getLogger(__name__)

NodeId = str

_ID_FORBIDDEN = set(" \t\r\n")


@dataclass
class Node:
    id: NodeId
    label: str
    attributes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Edge:
    """Undirected edge; endpoints are stored in canonical (sorted) order."""

    a: NodeId
    b: NodeId
    label: str
    weight: float = 1.0
    attributes: Mapping = field(default_factory=dict)

    @property
    def endpoints(self) -> tuple[NodeId, NodeId]:
        return (self.a, self.b)

    def other(self, node_id: NodeId) -> NodeId:
        return self.b if node_id == self.a else self.a


class PropertyGraph:
    """Mutable while being built; treated as immutable once shared."""

    def __init__(self):
        self._nodes: dict[NodeId, Node] = {}
        self._edges: list[Edge] = []
        self._incidence: dict[NodeId, list[int]] = {}

    # -- construction -------------------------------------------------------

    def add_node(self, node_id: NodeId, label: str, attributes: dict | None = None) -> Node:
        if not node_id or _ID_FORBIDDEN & set(node_id):
            raise ValueError(f"invalid node id {node_id!r}")
        if not label or _ID_FORBIDDEN & set(label):
            raise ValueError(f"invalid node label {label!r}")
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} already exists")
        node = Node(node_id, label, dict(attributes or {}))
        self._nodes[node_id] = node
        self._incidence[node_id] = []
        return node

    def add_edge(
        self,
        u: NodeId,
        v: NodeId,
        label: str,
        weight: float = 1.0,
        attributes: Mapping | None = None,
    ) -> Edge:
        if u not in self._nodes or v not in self._nodes:
            missing = u if u not in self._nodes else v
            raise UnknownNodeError(f"edge endpoint {missing!r} is not a node")
        if u == v:
            raise ValueError(f"self-loop on {u!r} is not allowed")
        if not (0 < weight < math.inf):
            raise ValueError(f"edge weight must be positive and finite, got {weight}")
        a, b = (u, v) if u < v else (v, u)
        edge = Edge(a, b, label, float(weight), dict(attributes or {}))
        index = len(self._edges)
        self._edges.append(edge)
        self._incidence[a].append(index)
        self._incidence[b].append(index)
        return edge

    def set_node_attribute(self, node_id: NodeId, key: str, value) -> None:
        if node_id not in self._nodes:
            raise UnknownNodeError(f"no node {node_id!r}")
        self._nodes[node_id].attributes[key] = value

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
            raise UnknownNodeError(f"no node {node_id!r}")
        return self._nodes[node_id]

    def node_ids(self) -> list[NodeId]:
        return sorted(self._nodes)

    def nodes(self) -> Iterator[Node]:
        for node_id in sorted(self._nodes):
            yield self._nodes[node_id]

    def edges(self) -> list[Edge]:
        return list(self._edges)

    def incident_edges(self, node_id: NodeId) -> list[Edge]:
        if node_id not in self._nodes:
            raise UnknownNodeError(f"no node {node_id!r}")
        return [self._edges[i] for i in self._incidence[node_id]]

    def neighbors(self, node_id: NodeId) -> list[NodeId]:
        return sorted({e.other(node_id) for e in self.incident_edges(node_id)})

    def neighbor_weights(self, node_id: NodeId) -> dict[NodeId, float]:
        """Total edge weight per neighbor (parallel edges summed)."""
        weights: dict[NodeId, float] = {}
        for edge in self.incident_edges(node_id):
            other = edge.other(node_id)
            weights[other] = weights.get(other, 0.0) + edge.weight
        return weights

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        if u not in self._nodes or v not in self._nodes:
            return False
        if len(self._incidence[u]) > len(self._incidence[v]):
            u, v = v, u
        return any(self._edges[i].other(u) == v for i in self._incidence[u])

    def degree(self, node_id: NodeId) -> int:
        """Number of distinct neighbors."""
        return len(self.neighbors(node_id))

    def labels(self) -> dict[NodeId, str]:
        return {node_id: node.label for node_id, node in self._nodes.items()}

    # -- derived graphs -----------------------------------------------------

    def copy(self) -> "PropertyGraph":
        out = PropertyGraph()
        for node in self._nodes.values():
            out.add_node(node.id, node.label, dict(node.attributes))
        for edge in self._edges:
            out.add_edge(edge.a, edge.b, edge.label, edge.weight, dict(edge.attributes))
        return out

    def subgraph(self, labels: Iterable[str]) -> "PropertyGraph":
        """Induced subgraph on nodes whose label is in ``labels``."""
        keep = set(labels)
        out = PropertyGraph()
        for node in self._nodes.values():
            if node.label in keep:
                out.add_node(node.id, node.label, dict(node.attributes))
        for edge in self._edges:
            if edge.a in out and edge.b in out:
                out.add_edge(edge.a, edge.b, edge.label, edge.weight, dict(edge.attributes))
        return out

    # -- integrity ----------------------------------------------------------

    def validate(self) -> None:
        """Rebuild the incidence index from the edge list and compare."""
        rebuilt: dict[NodeId, list[int]] = {node_id: [] for node_id in self._nodes}
        for index, edge in enumerate(self._edges):
            for endpoint in (edge.a, edge.b):
                if endpoint not in self._nodes:
                    raise InternalInvariantError(
                        f"edge {index} references missing node {endpoint!r}"
                    )
                rebuilt[endpoint].append(index)
        if rebuilt != self._incidence:
            raise InternalInvariantError("incidence index out of sync with edge list")

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """Line-delimited text form: ``N`` records then ``E`` records.

        Deterministic: nodes sorted by id, edges sorted by their full record.
        """
        lines = []
        for node in self.nodes():
            attrs = json.dumps(node.attributes, sort_keys=True)
            lines.append(f"N\t{node.id}\t{node.label}\t{attrs}")
        edge_lines = []
        for edge in self._edges:
            attrs = json.dumps(dict(edge.attributes), sort_keys=True)
            edge_lines.append(
                f"E\t{edge.a}\t{edge.b}\t{edge.label}\t{edge.weight!r}\t{attrs}"
            )
        lines.extend(sorted(edge_lines))
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
                graph.add_node(node_id, label, json.loads(attrs))
            elif kind == "E":
                if len(fields) != 6:
                    raise ValueError(f"bad edge record on line {line_no}")
                _, a, b, label, weight, attrs = fields
                graph.add_edge(a, b, label, float(weight), json.loads(attrs))
            else:
                raise ValueError(f"unknown record kind {kind!r} on line {line_no}")
        return graph

    def equals(self, other: "PropertyGraph") -> bool:
        """Structural equality: same nodes and the same edge multiset."""
        return self.to_text() == other.to_text()
