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

Kernel. Pairs are applied one at a time, in walk order, so every update
sees the ones before it. Per pair the loop only gathers the ``syn1`` rows of
the positive and the kept negatives (those unequal to the positive), takes
``rows @ v``, the clamped sigmoid, ``dscores @ rows`` and the outer product
with ``v`` in ``pair_loss_and_grads``'s float32 operations and order, and
writes the rows back: by assignment when their indices are distinct, by
``np.subtract.at`` when a negative repeats. Losses are computed after the
walk from the stored sigmoids and summed pair by pair in order.

Draws. A walk's random numbers are those of ``np.random.default_rng(s)``,
s = ``substream_seed(seed, epoch, walk)``, for the calls
``random(len(walk))`` (subsampling only), then per center
``integers(1, window + 1)`` (dynamic window only) and per context
``integers(0, vocab, size=negatives)`` and ``random(negatives)``, the
negatives resolved through the alias table. They are computed from one
``PCG64(s).random_raw`` call by numpy's rules:

- ``random`` takes one 64-bit word w and returns (w >> 11) * 2**-53;
- ``integers`` over a range of n values draws a 32-bit x and returns
  (x * n) >> 32 (Lemire). 32-bit draws share one buffer: a fresh word
  gives its low half first and holds its high half for the next 32-bit
  draw; ``random`` does not touch the buffer;
- a range of one value consumes nothing;
- x is rejected, and numpy draws again, when (x * n) mod 2**32 < 2**32 mod n.

A walk with a rejected draw, at most about n / 2**32 per draw, is drawn
through the ``Generator`` calls instead.
"""

from __future__ import annotations

import logging
import math
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
        for name in ("initial_lr", "min_lr", "subsample_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
        if not (np.isfinite(vectors).all() and np.isfinite(context).all()):
            raise ValueError(f"{path} has non-finite vector entries")
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

def _walk_pair_count(length: int, window: int) -> int:
    """(center, context) pairs of a walk at full window: position i has
    min(i, window) contexts on its left, and the right sides add up alike."""
    near = min(length, window + 1)
    return near * (near - 1) + 2 * window * max(0, length - 1 - window)


def _pairs(length: int, reaches: np.ndarray):
    """Center and context positions of a walk's pairs, in training order:
    each center's contexts from left to right within its reach."""
    positions = np.arange(length)
    left = np.minimum(positions, reaches)
    per_center = left + np.minimum(length - 1 - positions, reaches)
    centers = np.repeat(positions, per_center)
    step = np.arange(len(centers)) - np.repeat(
        np.cumsum(per_center) - per_center, per_center)
    return centers, centers - left[centers] + step + (step >= left[centers])


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
    table = NegativeSampler(counts).table
    keep_probability = _keep_probabilities(counts, cfg)
    span = cfg.initial_lr - cfg.min_lr
    # A walk's place on the schedule follows from the full pair counts of
    # the walks before it, before subsampling.
    offset = 0
    for epoch in range(cfg.epochs):
        loss_total, pair_total = 0.0, 0
        for walk_index, walk in enumerate(walks):
            progress = offset
            offset += _walk_pair_count(len(walk), cfg.window)
            walk, reaches, slots, uniforms = walk_draws(
                substream_seed(cfg.seed, epoch, walk_index), walk,
                keep_probability, cfg, vocab_size)
            if len(walk) < 2:
                continue
            positions = np.arange(len(walk))
            full = (np.minimum(positions, cfg.window)
                    + np.minimum(len(walk) - 1 - positions, cfg.window))
            rates = []
            for pairs in full.tolist():
                rates.append(max(cfg.min_lr,
                                 cfg.initial_lr - span * progress / total_progress))
                progress += pairs
            centers, contexts = _pairs(len(walk), reaches)
            loss_total += _train_pairs(
                syn0, syn1, walk[centers], walk[contexts],
                table.resolve(slots, uniforms), np.array(rates)[centers])
            pair_total += len(centers)
        matrix.epoch_losses.append(loss_total / max(pair_total, 1))
        if not (np.isfinite(syn0).all() and np.isfinite(syn1).all()):
            raise InternalInvariantError(
                f"non-finite embedding entries after epoch {epoch}"
            )
    return matrix


def _train_pairs(syn0, syn1, centers, positives, negatives, rates) -> float:
    """Apply one SGNS update per (center, positive, negatives row, rate), in
    order, and return the sum of the pairs' losses.

    The loop gathers each pair's ``syn1`` rows once and repeats
    ``pair_loss_and_grads``'s float32 operations; the losses are computed
    afterwards from the stored sigmoids, with the same operations.
    """
    kept = negatives != positives[:, None]
    kept_counts = kept.sum(axis=1)
    rows_of = np.concatenate((positives[:, None], negatives), axis=1)[
        np.concatenate((np.ones((len(kept), 1), dtype=bool), kept), axis=1)]
    bounds = np.concatenate(([0], np.cumsum(kept_counts + 1)))
    ordered = np.sort(np.where(kept, negatives, -1), axis=1)
    repeats = ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)).any(axis=1)

    sig = np.empty(len(rows_of), dtype=np.float32)
    for center, lr, start, stop, repeat in zip(
            centers.tolist(), rates.tolist(), bounds[:-1].tolist(),
            bounds[1:].tolist(), repeats.tolist()):
        v = syn0[center]
        index = rows_of[start:stop]
        rows = syn1.take(index, axis=0)
        dscores = _sigmoid(rows @ v)
        sig[start:stop] = dscores
        dscores[0] -= 1.0
        grad_v = dscores @ rows
        update = np.multiply.outer(dscores, v)
        update *= lr
        if repeat:
            np.subtract.at(syn1, index, update)
        else:
            rows -= update
            syn1[index] = rows
        v -= lr * grad_v

    firsts = bounds[:-1]
    is_negative = np.ones(len(sig), dtype=bool)
    is_negative[firsts] = False
    # each pair's kept terms, moved to the front of its row
    terms = np.zeros(negatives.shape, dtype=np.float32)
    terms[np.arange(negatives.shape[1]) < kept_counts[:, None]] = np.log(
        np.maximum(1.0 - sig[is_negative], 1e-30))
    negative_sums = np.zeros(len(kept), dtype=np.float32)
    for count in np.flatnonzero(np.bincount(kept_counts)).tolist():
        selected = kept_counts == count
        negative_sums[selected] = terms[selected, :count].sum(axis=1)
    losses = (-np.log(np.maximum(sig[firsts].astype(np.float64), 1e-30))
              - negative_sums.astype(np.float64))
    loss_sum = 0.0
    for loss in losses.tolist():
        loss_sum += loss
    return loss_sum


# ---------------------------------------------------------------------------
# Random draws of one walk
# ---------------------------------------------------------------------------

_LOW32 = np.uint64(0xFFFFFFFF)


def _uniforms(words: np.ndarray) -> np.ndarray:
    """``Generator.random`` on 64-bit words: the top 53 bits times 2**-53."""
    return (words >> np.uint64(11)) * 2.0 ** -53


def _bounded(x, n: int):
    """Lemire's bounded draw, as ``Generator.integers(0, n)`` makes it from
    32-bit ``x``: the values, and which draws numpy would reject and redraw."""
    product = x * np.uint64(n)
    return product >> np.uint64(32), (product & _LOW32) < 2 ** 32 % n


def walk_draws(seed: int, walk: np.ndarray, keep_probability, cfg: TrainConfig,
               vocab_size: int):
    """The random numbers one walk trains with: the tokens that survive
    subsampling, the reach of each center, and for each (center, context)
    pair in order the ``cfg.negatives`` alias slots and uniforms.

    They equal what a ``np.random.default_rng(seed)`` returns for the call
    sequence ``random(len(walk))`` (subsampling only), then per center
    ``integers(1, window + 1)`` (dynamic window only) and per context
    ``integers(0, vocab_size, size=negatives)`` and ``random(negatives)``.
    A walk is read from one ``random_raw`` call; a walk in which numpy
    would reject a bounded draw is drawn through those calls instead.
    """
    draws = _draws_from_words(seed, walk, keep_probability, cfg, vocab_size)
    if draws is None:
        draws = _draws_from_generator(np.random.default_rng(seed), walk,
                                      keep_probability, cfg, vocab_size)
    return draws


def _draws_from_words(seed, walk, keep_probability, cfg, vocab_size):
    window, negatives = cfg.window, cfg.negatives
    # A range of one consumes nothing: the reach at window 1, the slots of a
    # one-node vocabulary.
    draws_reach = cfg.dynamic_window and window > 1
    slot_draws = negatives if vocab_size > 1 else 0
    base = len(walk) if keep_probability is not None else 0
    most_pairs = _walk_pair_count(len(walk), window)
    most_32 = (len(walk) if draws_reach else 0) + most_pairs * slot_draws
    words = np.random.PCG64(seed).random_raw(
        base + (most_32 + 1) // 2 + most_pairs * negatives)
    if keep_probability is not None:
        walk = walk[_uniforms(words[:base]) < keep_probability[walk]]
    length = len(walk)
    if length < 2:
        return _no_pairs(walk, negatives)

    # 32-bit draws share one buffer: an even draw takes a fresh word's low
    # half and holds its high half for the next one; a uniform takes a
    # fresh word and leaves the buffer alone. So after j 32-bit draws and d
    # uniforms the next fresh word is base + ceil(j / 2) + d.
    if draws_reach:
        reaches = []
        drawn, uniforms_drawn, held = 0, 0, 0
        threshold = 2 ** 32 % window
        for position in range(length):
            if drawn & 1:
                x = int(words[held]) >> 32
            else:
                held = base + (drawn >> 1) + uniforms_drawn
                x = int(words[held]) & 0xFFFFFFFF
            product = x * window
            if product & 0xFFFFFFFF < threshold:
                return None
            reach = 1 + (product >> 32)
            reaches.append(reach)
            contexts = min(position, reach) + min(length - 1 - position, reach)
            drawn += 1
            after = drawn + contexts * slot_draws
            if slot_draws and after & 1:
                # the block's last draw is even: its word's high half is held
                last = after - 1
                held = (base + (last >> 1) + uniforms_drawn
                        + (last - drawn) // slot_draws * negatives)
            drawn, uniforms_drawn = after, uniforms_drawn + contexts * negatives
        reaches = np.array(reaches)
    else:
        reaches = np.full(length, window)

    center, _ = _pairs(length, reaches)
    pair = np.arange(len(center))
    reach_draws = center + 1 if draws_reach else np.zeros_like(center)
    # A context's 32-bit draws follow the uniforms of the contexts before it.
    # An odd draw reads the word of the draw before it, which precedes the
    # previous context's uniforms when it was that context's last slot.
    k = np.arange(slot_draws)
    drawn = reach_draws[:, None] + pair[:, None] * slot_draws + k
    odd = (drawn & 1).astype(bool)
    first = np.diff(center, prepend=-1) > 0
    after_uniforms = odd & (k == 0) & ~(first & draws_reach)[:, None]
    word = words[base + (drawn >> 1) + negatives * (pair[:, None] - after_uniforms)]
    slots, rejected = _bounded(
        np.where(odd, word >> np.uint64(32), word & _LOW32), vocab_size)
    if rejected.any():
        return None
    if not slot_draws:
        slots = np.zeros((len(pair), negatives), dtype=np.uint64)
    before = reach_draws + (pair + 1) * slot_draws
    uniforms = _uniforms(words[(base + (before + 1) // 2 + negatives * pair)[:, None]
                               + np.arange(negatives)])
    return walk, reaches, slots.astype(np.int64), uniforms


def _draws_from_generator(rng, walk, keep_probability, cfg, vocab_size):
    if keep_probability is not None:
        walk = walk[rng.random(len(walk)) < keep_probability[walk]]
    length = len(walk)
    if length < 2:
        return _no_pairs(walk, cfg.negatives)
    reaches, slots, uniforms = [], [], []
    for position in range(length):
        reach = int(rng.integers(1, cfg.window + 1)) if cfg.dynamic_window \
            else cfg.window
        reaches.append(reach)
        for _ in range(min(position, reach) + min(length - 1 - position, reach)):
            slots.append(rng.integers(0, vocab_size, size=cfg.negatives))
            uniforms.append(rng.random(cfg.negatives))
    return walk, np.array(reaches), np.array(slots), np.array(uniforms)


def _no_pairs(walk, negatives):
    return (walk, np.zeros(len(walk), dtype=np.int64),
            np.zeros((0, negatives), dtype=np.int64), np.zeros((0, negatives)))


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
