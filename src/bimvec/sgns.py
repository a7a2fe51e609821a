"""Skip-gram training with negative sampling over a walk corpus.

For each (center, context) pair inside the window the loss is

    -log sigmoid(u_o . v_c) - sum_k log sigmoid(-u_k . v_c)

with negatives drawn from the unigram^0.75 distribution over corpus counts.
Input vectors start uniform in [-0.5/n, 0.5/n], context vectors at zero,
and the learning rate decays linearly from ``initial_lr`` to ``min_lr``
over total center-context pairs times epochs. The decay counter advances by
each center's full-window pair count, so the schedule is identical whether
dynamic window shrinking is on or off.

Training runs single-threaded, one seeded substream per (epoch, walk), and
yields bit-identical embeddings for identical inputs.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    AllZeroCountsError,
    EmptyCorpusError,
    InternalInvariantError,
)
from .fileio import atomic_write_bytes
from .graph import NodeId
from .walks import AliasTable, WalkCorpus, substream_seed

logger = logging.getLogger(__name__)

_CHECKPOINT_MAGIC = b"BMV1"
_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    dimension: int = 128
    window: int = 10
    negatives: int = 5
    epochs: int = 5
    initial_lr: float = 0.025
    min_lr: float = 0.0001
    seed: int = 0
    dynamic_window: bool = True
    subsample_threshold: float = 0.0

    def __post_init__(self):
        if self.dimension < 1 or self.window < 1:
            raise ValueError("dimension and window must be >= 1")
        if self.negatives < 1 or self.epochs < 1:
            raise ValueError("negatives and epochs must be >= 1")
        if not (self.initial_lr > 0) or self.min_lr < 0:
            raise ValueError("initial_lr must be > 0 and min_lr >= 0")
        if self.min_lr > self.initial_lr:
            raise ValueError("min_lr must not exceed initial_lr")


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

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self.vocabulary

    def __len__(self) -> int:
        return len(self.ids)

    def vector(self, node_id: NodeId) -> np.ndarray:
        return self.vectors[self.vocabulary[node_id]]

    # -- checkpoint ---------------------------------------------------------

    def save(self, path) -> None:
        """Binary checkpoint: header, row-major float32 tables, vocabulary."""
        parts = [struct.pack(
            "<4sIII", _CHECKPOINT_MAGIC, _CHECKPOINT_VERSION,
            self.dimension, len(self.ids),
        )]
        parts.append(self.vectors.astype("<f4").tobytes())
        parts.append(self.context_vectors.astype("<f4").tobytes())
        for node_id in self.ids:
            id_bytes = node_id.encode("utf-8")
            label_bytes = self.labels.get(node_id, "").encode("utf-8")
            parts.append(struct.pack("<H", len(id_bytes)))
            parts.append(id_bytes)
            parts.append(struct.pack("<H", len(label_bytes)))
            parts.append(label_bytes)
        atomic_write_bytes(path, b"".join(parts))

    @classmethod
    def load(cls, path) -> "EmbeddingMatrix":
        with open(path, "rb") as fp:
            data = fp.read()
        if len(data) < 16 or data[:4] != _CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not an embedding checkpoint")
        _, version, dimension, vocab_size = struct.unpack_from("<4sIII", data)
        if version != _CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        offset = 16

        def take(size: int) -> bytes:
            nonlocal offset
            if offset + size > len(data):
                raise ValueError(f"{path} is truncated at byte {len(data)}")
            offset += size
            return data[offset - size:offset]

        vectors, context = (
            np.frombuffer(take(dimension * vocab_size * 4), dtype="<f4")
            .reshape(vocab_size, dimension).copy() for _ in range(2))
        ids: list[NodeId] = []
        labels: dict[NodeId, str] = {}
        for _ in range(vocab_size):
            node_id = take(struct.unpack("<H", take(2))[0]).decode("utf-8")
            label = take(struct.unpack("<H", take(2))[0]).decode("utf-8")
            ids.append(node_id)
            if label:
                labels[node_id] = label
        if offset != len(data):
            raise ValueError(f"{path} has {len(data) - offset} bytes after its vocabulary")
        return cls(vectors, context, ids, labels)


# ---------------------------------------------------------------------------
# Negative sampling
# ---------------------------------------------------------------------------

class NegativeSampler:
    """Draw dense indices with probability counts[i]^0.75 / sum."""

    def __init__(self, counts: Sequence[float], power: float = 0.75):
        counts = np.asarray(counts, dtype=np.float64)
        if counts.size == 0 or not (counts > 0).any():
            raise AllZeroCountsError("negative sampling needs a nonzero count")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        weights = counts ** power
        self.probabilities = weights / weights.sum()
        self.table = AliasTable.build(list(self.probabilities))

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return self.table.sample_many(rng, count)


# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------

def _sigmoid(x):
    x = np.minimum(np.maximum(x, -60.0), 60.0)
    return 1.0 / (1.0 + np.exp(-x))


def pair_loss_and_grads(center, positive, negatives):
    """Loss and analytic gradients for one update: vectors ``center`` and
    ``positive`` and a 2-D ``negatives``, one row each; dtype follows the
    inputs.

    Returns (loss, grad_center, grad_positive, grad_negatives) where the
    gradients are of the loss itself (apply as ``param -= lr * grad``).
    """
    rows = np.concatenate((positive[None, :], negatives), axis=0)
    sig = _sigmoid(rows @ center)
    # d loss / d score is sigma - 1 for the positive row, sigma for negatives
    dscores = sig.copy()
    dscores[0] -= 1.0
    loss = -np.log(max(float(sig[0]), 1e-30)) \
        - np.log(np.maximum(1.0 - sig[1:], 1e-30)).sum()
    grad_center = dscores @ rows
    grad_rows = dscores[:, None] * center[None, :]
    return float(loss), grad_center, grad_rows[0], grad_rows[1:]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _full_pair_count(length: int, position: int, window: int) -> int:
    return min(position, window) + min(length - 1 - position, window)


def _walk_pair_count(length: int, window: int) -> int:
    return sum(_full_pair_count(length, pos, window) for pos in range(length))


def initial_vectors(vocab_size: int, dimension: int, seed: int) -> np.ndarray:
    """Seeded uniform [-0.5/n, 0.5/n] initialization for the input table."""
    rng = np.random.default_rng(seed)
    return ((rng.random((vocab_size, dimension)) - 0.5) / dimension).astype(np.float32)


def train(corpus: WalkCorpus, cfg: TrainConfig) -> EmbeddingMatrix:
    """Run SGNS over the corpus and return the input vectors as the
    embedding. A corpus with no (center, context) pairs returns the seeded
    initialization unchanged."""
    ids = sorted({nid for walk in corpus.walks for nid in walk})
    if not ids:
        raise EmptyCorpusError("corpus has no walks")
    vocab_size = len(ids)

    syn0 = initial_vectors(vocab_size, cfg.dimension, cfg.seed)
    syn1 = np.zeros((vocab_size, cfg.dimension), dtype=np.float32)
    matrix = EmbeddingMatrix(syn0, syn1, ids)

    walks = [np.array([matrix.vocabulary[nid] for nid in walk], dtype=np.int64)
             for walk in corpus.walks]
    epoch_pairs = sum(_walk_pair_count(len(walk), cfg.window) for walk in walks)
    if epoch_pairs == 0:
        logger.info("corpus yields no center-context pairs; "
                    "returning initialization")
        return matrix

    total_progress = epoch_pairs * cfg.epochs
    counts = np.bincount(np.concatenate(walks), minlength=vocab_size)
    sampler = NegativeSampler(counts)
    keep_probability = _keep_probabilities(counts, cfg)
    span = cfg.initial_lr - cfg.min_lr
    # A walk's place on the schedule follows from the full pair counts of
    # the walks before it, before subsampling.
    offset = 0
    for epoch in range(cfg.epochs):
        loss_total, pair_total = 0.0, 0
        for walk_index, walk in enumerate(walks):
            rng = np.random.default_rng(substream_seed(cfg.seed, epoch, walk_index))
            progress = offset
            offset += _walk_pair_count(len(walk), cfg.window)
            if keep_probability is not None:
                walk = walk[rng.random(len(walk)) < keep_probability[walk]]
            loss_sum = 0.0
            length = len(walk)
            for pos in range(length):
                full = _full_pair_count(length, pos, cfg.window)
                if full == 0:
                    continue
                lr = max(cfg.min_lr,
                         cfg.initial_lr - span * progress / total_progress)
                reach = cfg.window if not cfg.dynamic_window \
                    else int(rng.integers(1, cfg.window + 1))
                center = int(walk[pos])
                for o_pos in range(max(0, pos - reach), min(length, pos + reach + 1)):
                    if o_pos == pos:
                        continue
                    positive = int(walk[o_pos])
                    negatives = sampler.sample(cfg.negatives, rng)
                    negatives = negatives[negatives != positive]
                    v = syn0[center]
                    loss, grad_v, grad_pos, grad_negs = pair_loss_and_grads(
                        v, syn1[positive], syn1[negatives])
                    syn1[positive] -= lr * grad_pos
                    if negatives.size:
                        np.add.at(syn1, negatives, -lr * grad_negs)
                    syn0[center] = v - lr * grad_v
                    loss_sum += loss
                    pair_total += 1
                progress += full
            loss_total += loss_sum
        matrix.epoch_losses.append(loss_total / max(pair_total, 1))
        if not (np.isfinite(syn0).all() and np.isfinite(syn1).all()):
            raise InternalInvariantError(
                f"non-finite embedding entries after epoch {epoch}"
            )
    return matrix


def _keep_probabilities(counts: np.ndarray, cfg: TrainConfig):
    if cfg.subsample_threshold <= 0:
        return None
    frequencies = counts / counts.sum()
    with np.errstate(divide="ignore"):
        keep = np.sqrt(cfg.subsample_threshold / frequencies)
    return np.clip(keep, 0.0, 1.0)


def attach_labels(matrix: EmbeddingMatrix, labels: Mapping[NodeId, str]) -> None:
    """Record node labels (for filtering and metadata export)."""
    matrix.labels = {nid: labels[nid] for nid in matrix.ids if nid in labels}
