"""Skip-gram training with negative sampling over a walk corpus.

For each (center, context) pair inside the window the loss is

    -log sigmoid(u_o . v_c) - sum_k log sigmoid(-u_k . v_c)

with negatives drawn from the unigram^0.75 distribution over corpus counts.
Input vectors start uniform in [-0.5/n, 0.5/n], context vectors at zero,
and the learning rate decays linearly from ``initial_lr`` to ``min_lr``
over total center-context pairs times epochs. The decay counter advances by
each center's full-window pair count, so the schedule is identical whether
dynamic window shrinking is on or off.

Deterministic mode runs single-worker with seeded substreams and yields
bit-identical embeddings for identical inputs; multi-worker mode updates
shared vectors lock-free (races tolerated, statistically reproducible only).
"""

from __future__ import annotations

import hashlib
import logging
import struct
from concurrent.futures import ThreadPoolExecutor
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
from .walks import AliasTable, WalkCorpus

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
    deterministic: bool = True
    dynamic_window: bool = True
    subsample_threshold: float = 0.0
    workers: int = 1

    def __post_init__(self):
        if self.dimension < 1 or self.window < 1:
            raise ValueError("dimension and window must be >= 1")
        if self.negatives < 1 or self.epochs < 1 or self.workers < 1:
            raise ValueError("negatives, epochs and workers must be >= 1")
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
    vocabulary: dict[NodeId, int]
    labels: dict[NodeId, str] = field(default_factory=dict)
    epoch_losses: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.vectors.shape != self.context_vectors.shape:
            raise ValueError("vector tables must have matching shapes")
        if len(self.ids) != self.vectors.shape[0]:
            raise ValueError("row count must equal vocabulary size")

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
        table_bytes = dimension * vocab_size * 4
        vectors = np.frombuffer(
            data, dtype="<f4", count=dimension * vocab_size, offset=offset,
        ).reshape(vocab_size, dimension).copy()
        offset += table_bytes
        context = np.frombuffer(
            data, dtype="<f4", count=dimension * vocab_size, offset=offset,
        ).reshape(vocab_size, dimension).copy()
        offset += table_bytes
        ids: list[NodeId] = []
        labels: dict[NodeId, str] = {}
        for _ in range(vocab_size):
            (id_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            node_id = data[offset:offset + id_len].decode("utf-8")
            offset += id_len
            (label_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            label = data[offset:offset + label_len].decode("utf-8")
            offset += label_len
            ids.append(node_id)
            if label:
                labels[node_id] = label
        vocabulary = {nid: i for i, nid in enumerate(ids)}
        return cls(vectors, context, ids, vocabulary, labels)


# ---------------------------------------------------------------------------
# Negative sampling
# ---------------------------------------------------------------------------

class NegativeSampler:
    """Draw dense indices with probability counts[i]^0.75 / sum."""

    def __init__(self, counts: Sequence[float], seed: int | None = None,
                 power: float = 0.75):
        counts = np.asarray(counts, dtype=np.float64)
        if counts.size == 0 or not (counts > 0).any():
            raise AllZeroCountsError("negative sampling needs a nonzero count")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        weights = counts ** power
        self.probabilities = weights / weights.sum()
        self.table = AliasTable.build(list(self.probabilities))
        self._rng = np.random.default_rng(seed) if seed is not None else None

    def sample(self, count: int, rng=None) -> np.ndarray:
        rng = rng if rng is not None else self._rng
        if rng is None:
            raise ValueError("sampler was built without a seed; pass an rng")
        return self.table.sample_many(rng, count)


# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------

def _sigmoid(x):
    x = np.minimum(np.maximum(x, -60.0), 60.0)
    return 1.0 / (1.0 + np.exp(-x))


def pair_loss_and_grads(center, positive, negatives):
    """Loss and analytic gradients for one (center, context, negatives)
    update; dtype follows the inputs.

    Returns (loss, grad_center, grad_positive, grad_negatives) where the
    gradients are of the loss itself (apply as ``param -= lr * grad``).
    """
    center = np.asarray(center)
    positive = np.asarray(positive)
    negatives = np.asarray(negatives)
    if negatives.ndim != 2:
        negatives = negatives.reshape(-1, center.shape[0])

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


def _apply_pair(syn0, syn1, center_idx: int, positive_idx: int,
                negative_idx: np.ndarray, lr: float) -> float:
    v = syn0[center_idx]
    loss, grad_v, grad_pos, grad_negs = pair_loss_and_grads(
        v, syn1[positive_idx], syn1[negative_idx],
    )
    syn1[positive_idx] -= lr * grad_pos
    if negative_idx.size:
        np.add.at(syn1, negative_idx, -lr * grad_negs)
    syn0[center_idx] = v - lr * grad_v
    return loss


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _walk_seed(seed: int, epoch: int, walk_index: int) -> int:
    digest = hashlib.sha256(f"{seed}|{epoch}|{walk_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _full_pair_count(length: int, position: int, window: int) -> int:
    return min(position, window) + min(length - 1 - position, window)


def initial_vectors(vocab_size: int, dimension: int, seed: int) -> np.ndarray:
    """Seeded uniform [-0.5/n, 0.5/n] initialization for the input table."""
    rng = np.random.default_rng(seed)
    return ((rng.random((vocab_size, dimension)) - 0.5) / dimension).astype(np.float32)


def train(corpus: WalkCorpus, cfg: TrainConfig) -> EmbeddingMatrix:
    """Run SGNS over the corpus and return the input vectors as the
    embedding. A corpus with no (center, context) pairs returns the seeded
    initialization unchanged."""
    if not corpus.walks or not corpus.vocabulary:
        raise EmptyCorpusError("corpus has no walks")
    ids = sorted(corpus.vocabulary, key=corpus.vocabulary.get)
    vocab_size = len(ids)

    syn0 = initial_vectors(vocab_size, cfg.dimension, cfg.seed)
    syn1 = np.zeros((vocab_size, cfg.dimension), dtype=np.float32)
    matrix = EmbeddingMatrix(syn0, syn1, ids, dict(corpus.vocabulary))

    walks = [
        np.array([corpus.vocabulary[nid] for nid in walk], dtype=np.int64)
        for walk in corpus.walks
    ]
    per_walk_pairs = [
        sum(_full_pair_count(len(walk), pos, cfg.window) for pos in range(len(walk)))
        for walk in walks
    ]
    epoch_pairs = sum(per_walk_pairs)
    if epoch_pairs == 0:
        logger.info("corpus yields no center-context pairs; "
                    "returning initialization")
        return matrix

    walk_offsets = np.concatenate(([0], np.cumsum(per_walk_pairs)[:-1]))
    total_progress = epoch_pairs * cfg.epochs
    sampler = NegativeSampler(corpus.count_vector())
    keep_probability = _keep_probabilities(corpus, cfg)

    def train_walk(epoch: int, walk_index: int) -> tuple[float, int]:
        walk = walks[walk_index]
        rng = np.random.default_rng(_walk_seed(cfg.seed, epoch, walk_index))
        if keep_probability is not None:
            walk = walk[rng.random(len(walk)) < keep_probability[walk]]
        progress = epoch * epoch_pairs + int(walk_offsets[walk_index])
        loss_sum = 0.0
        pair_count = 0
        length = len(walk)
        span = cfg.initial_lr - cfg.min_lr
        for pos in range(length):
            full = _full_pair_count(length, pos, cfg.window)
            if full == 0:
                continue
            lr = max(cfg.min_lr,
                     cfg.initial_lr - span * progress / total_progress)
            reach = cfg.window if not cfg.dynamic_window \
                else int(rng.integers(1, cfg.window + 1))
            for o_pos in range(max(0, pos - reach), min(length, pos + reach + 1)):
                if o_pos == pos:
                    continue
                positive = int(walk[o_pos])
                negatives = sampler.sample(cfg.negatives, rng)
                negatives = negatives[negatives != positive]
                loss_sum += _apply_pair(syn0, syn1, int(walk[pos]),
                                        positive, negatives, lr)
                pair_count += 1
            progress += full
        return loss_sum, pair_count

    serial = cfg.deterministic or cfg.workers == 1
    for epoch in range(cfg.epochs):
        if serial:
            results = [train_walk(epoch, i) for i in range(len(walks))]
        else:
            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                results = list(pool.map(
                    lambda i: train_walk(epoch, i), range(len(walks)),
                ))
        loss_total = sum(loss for loss, _ in results)
        pair_total = sum(pairs for _, pairs in results)
        matrix.epoch_losses.append(loss_total / max(pair_total, 1))
        if not (np.isfinite(syn0).all() and np.isfinite(syn1).all()):
            raise InternalInvariantError(
                f"non-finite embedding entries after epoch {epoch}"
            )
    return matrix


def _keep_probabilities(corpus: WalkCorpus, cfg: TrainConfig):
    if cfg.subsample_threshold <= 0:
        return None
    counts = np.asarray(corpus.count_vector(), dtype=np.float64)
    frequencies = counts / counts.sum()
    with np.errstate(divide="ignore"):
        keep = np.sqrt(cfg.subsample_threshold / frequencies)
    return np.clip(keep, 0.0, 1.0)


def attach_labels(matrix: EmbeddingMatrix, labels: Mapping[NodeId, str]) -> None:
    """Record node labels (for filtering and metadata export)."""
    matrix.labels = {nid: labels[nid] for nid in matrix.ids if nid in labels}
