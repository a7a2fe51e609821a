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
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import BimvecError
from .fileio import read_text

NodeId = str

# Renders every record's attributes: the bytes of json.dumps(sort_keys=True).
_encode = json.JSONEncoder(sort_keys=True).encode


def check_token(value: str, what: str) -> None:
    """Node ids and labels are fields of the tab-separated text form."""
    if not value or " " in value or "\t" in value or "\r" in value or "\n" in value:
        raise ValueError(f"invalid {what} {value!r}")


class _Record:
    """A node or an edge. Immutable, so graphs and their copies share it.
    ``attributes`` is read-only, but its values are shared too: never change
    one in place.

    A record read from graph text keeps its line and decodes ``attributes``
    from it when they are first read; one built in code renders its line
    when that is first read."""

    __slots__ = ("_attributes", "_line")

    @property
    def attributes(self) -> Mapping:
        if self._attributes is None:
            # from_text checked the last field: a JSON object whose numbers
            # are finite, so the decoder needs no number hook
            line = self._line
            self._attributes = MappingProxyType(
                _decode_checked(line[line.rindex("\t") + 1:]))
        return self._attributes

    @property
    def line(self) -> str:
        """This record's line of the text form."""
        if self._line is None:
            self._line = self._render(_encode(self._attributes.copy()))
        return self._line


class Node(_Record):
    __slots__ = ("id", "label")

    def __init__(self, id: NodeId, label: str, attributes: Mapping | None,
                 line: str | None = None) -> None:
        self.id, self.label, self._attributes, self._line = id, label, attributes, line

    def _render(self, attributes: str) -> str:
        return f"N\t{self.id}\t{self.label}\t{attributes}"


class Edge(_Record):
    """Undirected; endpoints in canonical (sorted) order."""

    __slots__ = ("a", "b", "label", "weight")

    def __init__(self, a: NodeId, b: NodeId, label: str, weight: float,
                 attributes: Mapping | None, line: str | None = None) -> None:
        self.a, self.b, self.label, self.weight = a, b, label, weight
        self._attributes, self._line = attributes, line

    def _render(self, attributes: str) -> str:
        return f"E\t{self.a}\t{self.b}\t{self.label}\t{self.weight!r}\t{attributes}"


class PropertyGraph:
    """Mutable while being built; treated as immutable once shared."""

    def __init__(self):
        self._nodes: dict[NodeId, Node] = {}
        self._edges: list[Edge] = []
        self._adjacency: dict[NodeId, dict[NodeId, float]] | None = None

    # -- construction -------------------------------------------------------

    def add_node(self, node_id: NodeId, label: str, attributes: dict | None = None) -> Node:
        self._check_node(node_id, label)
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
        a, b = self._check_edge(u, v, label, weight)
        edge = Edge(a, b, label, float(weight), MappingProxyType(dict(attributes or {})))
        self._edges.append(edge)
        self._adjacency = None
        return edge

    def _check_node(self, node_id: NodeId, label: str) -> None:
        check_token(node_id, "node id")
        check_token(label, "node label")
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} already exists")

    def _check_edge(self, u: NodeId, v: NodeId, label: str, weight: float) -> tuple:
        """The endpoints of a valid new edge, in canonical order."""
        check_token(label, "edge label")
        if u not in self._nodes or v not in self._nodes:
            missing = u if u not in self._nodes else v
            raise BimvecError(f"edge endpoint {missing!r} is not a node")
        if u == v:
            raise ValueError(f"self-loop on {u!r} is not allowed")
        if not (0 < weight < math.inf):
            raise ValueError(f"edge weight must be positive and finite, got {weight}")
        return (u, v) if u < v else (v, u)

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
        A record read from text is written as read, and one built in code
        renders its line once, so a copy renders only the records it added
        or replaced.
        """
        lines = [node.line for node in self.nodes()]
        lines += sorted(edge.line for edge in self._edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PropertyGraph":
        """The graph of a text form; a bad record raises ``ValueError`` as
        ``line N: reason``. Each record keeps its line, and decodes its
        attributes from it when they are first read."""
        graph = cls()
        for line_no, line in enumerate(text.split("\n"), start=1):
            try:
                graph._add_record(line)
            except (BimvecError, ValueError) as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
        return graph

    def _add_record(self, line: str) -> None:
        """Add the record of one line of the text form under the rules of
        :meth:`add_node` and :meth:`add_edge`, its attributes checked and
        not kept: the record keeps the line. A blank line adds nothing."""
        fields = line.split("\t")
        kind = fields[0]
        if kind == "N" and len(fields) == 4:
            _, node_id, label, attrs = fields
            _check_attributes(attrs)
            self._check_node(node_id, label)
            self._nodes[node_id] = Node(node_id, label, None, line)
        elif kind == "E" and len(fields) == 6:
            _, u, v, label, weight, attrs = fields
            weight = float(weight)
            _check_attributes(attrs)
            a, b = self._check_edge(u, v, label, weight)
            self._edges.append(Edge(a, b, label, weight, None, line))
        elif kind == "N":
            raise ValueError("bad node record")
        elif kind == "E":
            raise ValueError("bad edge record")
        elif line.strip():
            raise ValueError(f"unknown record kind {kind!r}")


def read_graph(path) -> PropertyGraph:
    """The graph in the text file ``path``; a bad record raises
    ``BimvecError`` as ``path, line N: reason``."""
    text = read_text(path)
    try:
        return PropertyGraph.from_text(text)
    except ValueError as exc:
        raise BimvecError(f"{path}, {exc}") from None


def _check_attributes(text: str) -> None:
    """A record's attribute field must be a JSON object whose numbers are
    finite."""
    try:
        value = _FINITE_JSON.decode(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"attributes are not JSON: {exc.msg}") from None
    except RecursionError:
        raise ValueError("attributes are nested too deeply") from None
    if not isinstance(value, dict):
        raise ValueError("attributes must be a JSON object")


def _finite_float(token: str) -> float:
    value = float(token)
    if math.isinf(value):
        _non_finite(token)
    return value


def _non_finite(token: str):
    raise ValueError(f"attributes hold a non-finite number, {token}")


_FINITE_JSON = json.JSONDecoder(parse_constant=_non_finite, parse_float=_finite_float)
# Decodes an attribute field that _check_attributes has passed.
_decode_checked = json.JSONDecoder().decode
