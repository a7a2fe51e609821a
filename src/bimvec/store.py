"""The embedding checkpoint and its readers: similarity queries,
comfort-label prediction, and projector export.

Cosine similarity is the metric throughout; ranking ties always break by
ascending node id so results are independent of vocabulary insertion order.
Comfort prediction is a k-nearest-neighbor vote over the one-hot classes
comfortable / uncomfortable / neutral.
"""

from __future__ import annotations

import logging
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import COMFORT_CLASSES, COMFORT_ONE_HOT
from .errors import BimvecError
from .fileio import atomic_write_bytes, atomic_write_text, read_csv
from .graph import NodeId, PropertyGraph

logger = logging.getLogger(__name__)

_CHECKPOINT_MAGIC = b"BMV1"
_CHECKPOINT_VERSION = 2
# A checkpoint stores each node's id and label after its length in UTF-8
# bytes, a 16-bit unsigned integer.
_MAX_ENTRY_BYTES = 0xFFFF


@dataclass
class EmbeddingMatrix:
    """Learned vectors plus the NodeId <-> dense index mapping.

    ``vectors`` (the input vectors) are the embedding; ``context_vectors``
    are kept so training can resume and checkpoints round-trip.
    """

    vectors: np.ndarray
    context_vectors: np.ndarray
    ids: list[NodeId]
    labels: dict[NodeId, str] = field(default_factory=dict)
    epoch_losses: list[float] = field(default_factory=list)
    vocabulary: dict[NodeId, int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.vectors.shape != self.context_vectors.shape:
            raise ValueError("vector tables must have matching shapes")
        if len(self.ids) != self.vectors.shape[0]:
            raise ValueError("row count must equal vocabulary size")
        self.vocabulary = {nid: i for i, nid in enumerate(self.ids)}

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return len(self.ids)

    # -- checkpoint ---------------------------------------------------------

    def save(self, path) -> None:
        """Binary checkpoint: header, row-major float32 tables, vocabulary,
        then the CRC32 of all but the header. An id or label too long for it
        raises ``BimvecError`` before anything is written."""
        check_checkpoint_entries({node_id: self.labels.get(node_id, "") for node_id in self.ids})
        parts = [table.astype("<f4").tobytes() for table in (self.vectors, self.context_vectors)]
        for node_id in self.ids:
            id_bytes = node_id.encode("utf-8")
            label_bytes = self.labels.get(node_id, "").encode("utf-8")
            parts += [struct.pack("<H", len(id_bytes)), id_bytes,
                      struct.pack("<H", len(label_bytes)), label_bytes]
        body = b"".join(parts)
        atomic_write_bytes(path, struct.pack(
            "<4sIII", _CHECKPOINT_MAGIC, _CHECKPOINT_VERSION, self.dimension, len(self.ids),
        ) + body + struct.pack("<I", zlib.crc32(body)))

    @classmethod
    def load(cls, path) -> "EmbeddingMatrix":
        with open(path, "rb") as fp:
            data = fp.read()
        if len(data) < 16 or data[:4] != _CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not an embedding checkpoint")
        _, version, dimension, vocab_size = struct.unpack_from("<4sIII", data)
        if version not in (1, _CHECKPOINT_VERSION):
            raise ValueError(f"unsupported checkpoint version {version}")
        # a version 1 checkpoint ends with its vocabulary, a later one with a CRC32
        offset, end = 16, len(data) - 4 * (version > 1)

        def take(size: int) -> bytes:
            nonlocal offset
            if offset + size > end:
                raise ValueError(f"{path} is truncated at byte {len(data)}")
            offset += size
            return data[offset - size:offset]

        vectors, context = (
            np.frombuffer(take(dimension * vocab_size * 4), dtype="<f4")
            .reshape(vocab_size, dimension).copy() for _ in range(2))
        if not (np.isfinite(vectors).all() and np.isfinite(context).all()):
            raise ValueError(f"{path} has non-finite vector entries")
        # each node's id, then its label; decoded once the CRC32 has passed
        entries = [take(struct.unpack("<H", take(2))[0]) for _ in range(2 * vocab_size)]
        if offset != end:
            raise ValueError(f"{path} has {end - offset} bytes after its vocabulary")
        if version > 1 and zlib.crc32(data[16:end]) != struct.unpack_from("<I", data, end)[0]:
            raise ValueError(f"{path} fails its CRC32 check")
        try:
            ids = [entry.decode("utf-8") for entry in entries[0::2]]
            labels = {node_id: label.decode("utf-8")
                      for node_id, label in zip(ids, entries[1::2]) if label}
        except UnicodeDecodeError:
            raise ValueError(f"{path} has a vocabulary entry that is not UTF-8 text") from None
        return cls(vectors, context, ids, labels)


def check_checkpoint_entries(labels: Mapping[NodeId, str]) -> None:
    """Raise ``BimvecError`` for a node whose id or label, in ``labels``
    (id to label), is too long for a checkpoint to hold."""
    for node_id, label in labels.items():
        for what, text in (("id", node_id), ("label", label)):
            if (size := len(text.encode("utf-8"))) > _MAX_ENTRY_BYTES:
                shown = node_id if len(node_id) <= 40 else node_id[:40] + "..."
                raise BimvecError(f"node {shown!r}: its {what} is {size:,} UTF-8 bytes; "
                                  f"a checkpoint holds at most {_MAX_ENTRY_BYTES:,}")


@dataclass(frozen=True)
class LabeledExample:
    node: NodeId
    one_hot: tuple[int, int, int]

    def __post_init__(self):
        if tuple(self.one_hot) not in COMFORT_ONE_HOT:
            raise ValueError(f"not a one-hot comfort label: {self.one_hot}")
        object.__setattr__(self, "one_hot", tuple(self.one_hot))

    @classmethod
    def from_name(cls, node: NodeId, name: str) -> "LabeledExample":
        try:
            index = COMFORT_CLASSES.index(name)
        except ValueError:
            raise ValueError(f"unknown comfort class {name!r}") from None
        return cls(node, COMFORT_ONE_HOT[index])


@dataclass(frozen=True)
class NeighborList:
    query: NodeId
    neighbors: tuple[tuple[NodeId, float], ...]


def similarities(emb: EmbeddingMatrix, query: NodeId) -> np.ndarray:
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
    sims = similarities(emb, query)
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
            COMFORT_ONE_HOT.index(label),
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
