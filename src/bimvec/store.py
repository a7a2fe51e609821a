"""Similarity queries, comfort-label prediction, and projector export.

Cosine similarity is the metric throughout; ranking ties always break by
ascending node id so results are independent of vocabulary insertion order.
Comfort prediction is a k-nearest-neighbor vote over the one-hot classes
comfortable / uncomfortable / neutral.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BimvecError
from .fileio import atomic_write_text, read_csv
from .graph import NodeId, PropertyGraph
from .sgns import EmbeddingMatrix

logger = logging.getLogger(__name__)

ONE_HOT_CLASSES: tuple[tuple[int, int, int], ...] = (
    (1, 0, 0),  # comfortable
    (0, 1, 0),  # uncomfortable
    (0, 0, 1),  # neutral
)

CLASS_NAMES = ("comfortable", "uncomfortable", "neutral")


@dataclass(frozen=True)
class LabeledExample:
    node: NodeId
    one_hot: tuple[int, int, int]

    def __post_init__(self):
        if tuple(self.one_hot) not in ONE_HOT_CLASSES:
            raise ValueError(f"not a one-hot comfort label: {self.one_hot}")
        object.__setattr__(self, "one_hot", tuple(self.one_hot))

    @classmethod
    def from_name(cls, node: NodeId, name: str) -> "LabeledExample":
        try:
            index = CLASS_NAMES.index(name)
        except ValueError:
            raise ValueError(f"unknown comfort class {name!r}") from None
        return cls(node, ONE_HOT_CLASSES[index])


@dataclass(frozen=True)
class NeighborList:
    query: NodeId
    neighbors: tuple[tuple[NodeId, float], ...]


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    """a.b / (|a||b|); raises for a zero vector."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        raise BimvecError("cosine similarity is undefined for zero vectors")
    return float(a @ b / (norm_a * norm_b))


def _similarities(emb: EmbeddingMatrix, query: NodeId) -> np.ndarray:
    """Cosine of the query against every row; zero-norm rows become -inf."""
    if query not in emb.vocabulary:
        raise BimvecError(f"{query!r} is not in the vocabulary")
    matrix = emb.vectors.astype(np.float64)
    query_vec = matrix[emb.vocabulary[query]]
    query_norm = np.linalg.norm(query_vec)
    if query_norm == 0.0:
        raise BimvecError(f"{query!r} has a zero vector")
    norms = np.linalg.norm(matrix, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = matrix @ query_vec / (norms * query_norm)
    sims[norms == 0.0] = -np.inf
    return sims


def _ranked(emb: EmbeddingMatrix, query: NodeId,
            candidates: Iterable[int]) -> list[tuple[NodeId, float]]:
    sims = _similarities(emb, query)
    rows = [i for i in candidates if emb.ids[i] != query and np.isfinite(sims[i])]
    rows.sort(key=lambda i: (-sims[i], emb.ids[i]))
    return [(emb.ids[i], float(sims[i])) for i in rows]


def knn(
    emb: EmbeddingMatrix,
    query: NodeId,
    k: int,
    label_filter: set[str] | None = None,
) -> NeighborList:
    """Top-k nodes by cosine; ``label_filter`` keeps only nodes whose
    recorded label is in the set."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if label_filter is not None:
        candidates = [
            i for i, nid in enumerate(emb.ids)
            if emb.labels.get(nid) in label_filter
        ]
    else:
        candidates = range(len(emb.ids))
    ranked = _ranked(emb, query, candidates)
    return NeighborList(query, tuple(ranked[:k]))


def predict_comfort(
    emb: EmbeddingMatrix,
    labeled: Sequence[LabeledExample],
    query: NodeId,
    k: int,
) -> tuple[int, int, int]:
    """Majority vote of the k nearest labeled nodes.

    Vote ties break by summed similarity, then by class order
    (comfortable, uncomfortable, neutral).
    """
    if not labeled:
        raise BimvecError("need at least one labeled example")
    if k < 1:
        raise ValueError("k must be >= 1")
    by_node: dict[NodeId, tuple[int, int, int]] = {}
    for example in labeled:
        if example.node not in emb.vocabulary:
            raise BimvecError(f"labeled node {example.node!r} is not in the vocabulary")
        by_node[example.node] = example.one_hot
    candidates = [emb.vocabulary[nid] for nid in sorted(by_node)]
    ranked = _ranked(emb, query, candidates)
    nearest = ranked[:k]
    if not nearest:
        if query in by_node:
            # The only labeled node was the query itself; keep its label.
            return by_node[query]
        raise BimvecError("no usable labeled neighbors")

    votes: dict[tuple[int, int, int], int] = {}
    similarity_sums: dict[tuple[int, int, int], float] = {}
    for node_id, similarity in nearest:
        label = by_node[node_id]
        votes[label] = votes.get(label, 0) + 1
        similarity_sums[label] = similarity_sums.get(label, 0.0) + similarity
    return min(
        votes,
        key=lambda label: (
            -votes[label],
            -similarity_sums[label],
            ONE_HOT_CLASSES.index(label),
        ),
    )


# ---------------------------------------------------------------------------
# Projector export
# ---------------------------------------------------------------------------

def export_projector(emb: EmbeddingMatrix, graph: PropertyGraph | None,
                     out_dir) -> tuple[str, str]:
    """Write ``vectors.tsv`` and ``metadata.tsv`` in vocabulary order.

    The metadata label column comes from the graph when given, falling back
    to labels recorded on the embedding; ``ifc_type`` repeats the label for
    IFC-derived nodes and is empty for synthetic ones.
    """
    os.makedirs(out_dir, exist_ok=True)
    vector_lines = []
    metadata_lines = ["node_id\tlabel\tifc_type"]
    for node_id in emb.ids:
        row = emb.vectors[emb.vocabulary[node_id]]
        vector_lines.append("\t".join(f"{float(x):.9g}" for x in row))
        if graph is not None and node_id in graph:
            label = graph.node(node_id).label
        else:
            label = emb.labels.get(node_id, "")
        ifc_type = label if label.startswith("IFC") else ""
        metadata_lines.append(f"{node_id}\t{label}\t{ifc_type}")
    vectors_path = os.path.join(out_dir, "vectors.tsv")
    metadata_path = os.path.join(out_dir, "metadata.tsv")
    atomic_write_text(vectors_path, "\n".join(vector_lines) + "\n")
    atomic_write_text(metadata_path, "\n".join(metadata_lines) + "\n")
    return vectors_path, metadata_path


def load_labeled_csv(path) -> list[LabeledExample]:
    """Rows of ``node_id,feedback`` with feedback a comfort class name
    (header optional)."""
    return read_csv(path, "node_id", 2,
                    lambda row: LabeledExample.from_name(row[0], row[-1]))
