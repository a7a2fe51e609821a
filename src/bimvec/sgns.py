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

Kernel. Walks train in blocks of about ``_BLOCK_PAIRS`` pairs. A block's
draws, pair positions, negatives and learning rates are computed at once;
then its pairs are applied one at a time, in walk order, so every update
sees the ones before it. Per pair the loop only gathers the ``syn1`` rows of
the positive and the kept negatives (those unequal to the positive), takes
``rows @ v``, the clamped sigmoid, ``dscores @ rows`` and the outer product
with ``v`` in ``pair_loss_and_grads``'s float32 operations and order, and
writes the rows back: by assignment when their indices are distinct, by
``np.subtract.at`` when a negative repeats. Losses are computed after the
block from the stored sigmoids and summed pair by pair, walk by walk.

Draws. Each walk has its own substream: its random numbers are those of
``np.random.default_rng(s)``, s = ``substream_seed(seed, epoch, walk)``, for
the calls ``random(len(walk))`` (subsampling only), then per center
``integers(1, window + 1)`` (dynamic window only) and per context
``integers(0, vocab, size=negatives)`` and ``random(negatives)``, the
negatives resolved through the alias table. They are computed from one
``PCG64(s).random_raw`` call per walk, read a block at a time, by numpy's
rules:

- ``random`` takes one 64-bit word w and returns (w >> 11) * 2**-53;
- ``integers`` over a range of n values draws a 32-bit x and returns
  (x * n) >> 32 (Lemire). 32-bit draws share one buffer: a fresh word
  gives its low half first and holds its high half for the next 32-bit
  draw; ``random`` does not touch the buffer;
- a range of one value consumes nothing;
- x is rejected, and numpy draws again, when (x * n) mod 2**32 < 2**32 mod n.

A block with a rejected draw, at most about n / 2**32 per draw, is drawn
walk by walk through the ``Generator`` calls instead.
"""

from __future__ import annotations

import itertools
import logging
import math
import struct
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import BimvecError, InternalInvariantError
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.subsample_threshold < 0:
            raise ValueError(f"subsample_threshold must be >= 0 (0 is off), "
                             f"got {self.subsample_threshold}")


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

def negative_table(counts: Sequence[float]) -> AliasTable:
    """Alias table drawing dense index i with probability counts[i]^0.75 /
    sum; ``AliasTable.build`` raises ``ValueError`` for counts that are all
    zero or negative."""
    w = np.asarray(counts, dtype=np.float64) ** 0.75
    return AliasTable.build(list(w / w.sum()))


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

# A training block is a run of walks with at most this many full-window
# pairs, or one longer walk; its arrays take memory in proportion to them.
_BLOCK_PAIRS = 4096


def _blocks(walk_pairs: np.ndarray) -> list[tuple[int, int]]:
    """The (first, stop) walk ranges of the training blocks."""
    blocks, first, pairs = [], 0, 0
    for walk, count in enumerate(walk_pairs.tolist()):
        if pairs + count > _BLOCK_PAIRS and walk > first:
            blocks.append((first, walk))
            first, pairs = walk, 0
        pairs += count
    return blocks + [(first, len(walk_pairs))]


def _context_counts(lengths: np.ndarray, reaches):
    """For walks of ``lengths`` laid end to end, each token reaching
    ``reaches`` positions to either side within its walk: each token's
    contexts on its left and in all, and where each walk's run of contexts
    starts, plus the end."""
    positions = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    left = np.minimum(positions, reaches)
    counts = left + np.minimum(np.repeat(lengths, lengths) - 1 - positions, reaches)
    return left, counts, np.concatenate(([0], np.cumsum(counts)))[
        np.concatenate(([0], np.cumsum(lengths)))]


def _block_pairs(lengths: np.ndarray, reaches):
    """Center and context token indices of a block's pairs, in training
    order (each center's contexts from left to right within its reach and
    its walk), and where each walk's pairs start, plus the end."""
    left, per_center, walk_starts = _context_counts(lengths, reaches)
    centers = np.repeat(np.arange(len(left)), per_center)
    step = np.arange(len(centers)) - np.repeat(np.cumsum(per_center) - per_center, per_center)
    return centers, centers - left[centers] + step + (step >= left[centers]), walk_starts


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
        raise BimvecError("corpus has no walks")
    vocab_size = len(ids)

    syn0 = initial_vectors(vocab_size, cfg.dimension, cfg.seed)
    syn1 = np.zeros((vocab_size, cfg.dimension), dtype=np.float32)
    matrix = EmbeddingMatrix(syn0, syn1, ids)

    lengths = np.fromiter(map(len, corpus.walks), dtype=np.int64, count=len(corpus.walks))
    tokens = np.fromiter(map(matrix.vocabulary.__getitem__, itertools.chain.from_iterable(
        corpus.walks)), dtype=np.int64, count=int(lengths.sum()))
    walk_pairs = np.diff(_context_counts(lengths, cfg.window)[2])
    epoch_pairs = int(walk_pairs.sum())
    if epoch_pairs == 0:
        logger.info("corpus yields no center-context pairs; returning initialization")
        return matrix

    total_progress = epoch_pairs * cfg.epochs
    counts = np.bincount(tokens, minlength=vocab_size)
    table = negative_table(counts)
    with np.errstate(divide="ignore"):
        keep_probability = np.clip(np.sqrt(cfg.subsample_threshold / (
            counts / counts.sum())), 0.0, 1.0) if cfg.subsample_threshold > 0 else None
    span = cfg.initial_lr - cfg.min_lr
    # A walk's place on the schedule follows from the full pair counts of
    # the walks before it, before subsampling.
    offsets = np.cumsum(walk_pairs) - walk_pairs
    token_starts = np.concatenate(([0], np.cumsum(lengths)))
    blocks = _blocks(walk_pairs)
    for epoch in range(cfg.epochs):
        loss_total, pair_total = 0.0, 0
        for first, stop in blocks:
            kept, kept_lengths, reaches, slots, uniforms = block_draws(
                [substream_seed(cfg.seed, epoch, walk) for walk in range(first, stop)],
                tokens[token_starts[first]:token_starts[stop]], lengths[first:stop],
                keep_probability, cfg, vocab_size)
            # a center's progress is its walk's plus the full pairs before it
            _, full, full_starts = _context_counts(kept_lengths, cfg.window)
            progress = np.cumsum(full) - full + np.repeat(
                offsets[first:stop] + epoch * epoch_pairs - full_starts[:-1], kept_lengths)
            rates = np.maximum(cfg.min_lr, cfg.initial_lr - span * progress / total_progress)
            centers, contexts, pair_starts = _block_pairs(kept_lengths, reaches)
            losses = _train_pairs(syn0, syn1, kept[centers], kept[contexts],
                                  table.resolve(slots, uniforms), rates[centers]).tolist()
            for start, end in zip(pair_starts[:-1].tolist(), pair_starts[1:].tolist()):
                walk_loss = 0.0
                for loss in losses[start:end]:
                    walk_loss += loss
                loss_total += walk_loss
            pair_total += len(centers)
        matrix.epoch_losses.append(loss_total / max(pair_total, 1))
        if not (np.isfinite(syn0).all() and np.isfinite(syn1).all()):
            raise InternalInvariantError(f"non-finite embedding entries after epoch {epoch}")
    return matrix


def _train_pairs(syn0, syn1, centers, positives, negatives, rates) -> np.ndarray:
    """Apply one SGNS update per (center, positive, negatives row, rate), in
    order, and return each pair's loss.

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
    return (-np.log(np.maximum(sig[firsts].astype(np.float64), 1e-30))
            - negative_sums.astype(np.float64))


# ---------------------------------------------------------------------------
# Random draws of a block of walks
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


def block_draws(seeds, walks: np.ndarray, lengths: np.ndarray, keep_probability,
                cfg: TrainConfig, vocab_size: int):
    """The random numbers a block of walks trains with, each walk's those of
    its seed's ``Generator`` calls (see Draws above). ``walks`` holds the
    walks' tokens end to end, ``lengths`` their lengths and ``seeds`` their
    substream seeds. Returns, laid out the same way, the tokens that survive
    subsampling and the walks' new lengths, the reach of each token, and for
    each (center, context) pair in order the ``cfg.negatives`` alias slots
    and uniforms."""
    window, negatives = cfg.window, cfg.negatives
    # A range of one consumes nothing: the reach at window 1, the slots of a
    # one-node vocabulary.
    draws_reach = cfg.dynamic_window and window > 1
    slot_draws = negatives if vocab_size > 1 else 0
    # each walk's words: its uniforms for subsampling, then at most one
    # reach per token and the draws of its full-window pairs
    most_pairs = np.diff(_context_counts(lengths, window)[2])
    most_32 = (lengths if draws_reach else 0) + most_pairs * slot_draws
    subsample_words = lengths if keep_probability is not None else 0
    sizes = subsample_words + (most_32 + 1) // 2 + most_pairs * negatives
    words = np.concatenate([np.random.PCG64(seed).random_raw(size)
                            for seed, size in zip(seeds, sizes.tolist())])
    word_starts = np.cumsum(sizes) - sizes
    kept, kept_lengths = walks, lengths
    if keep_probability is not None:
        walk_of = np.repeat(np.arange(len(lengths)), lengths)
        keep = _uniforms(words[np.arange(len(walks)) + (word_starts - np.cumsum(
            lengths) + lengths)[walk_of]]) < keep_probability[walks]
        kept, kept_lengths = walks[keep], np.bincount(walk_of[keep], minlength=len(lengths))
    bases, starts = word_starts + subsample_words, np.cumsum(kept_lengths) - kept_lengths

    # 32-bit draws share one buffer: an even draw takes a fresh word's low
    # half and holds its high half for the next one; a uniform takes a
    # fresh word and leaves the buffer alone. So after j 32-bit draws and d
    # uniforms the next fresh word is base + ceil(j / 2) + d, and an odd
    # draw reads the word of the one before, ``since`` uniforms back.
    reaches = np.full(len(kept), window)
    threshold = 2 ** 32 % window
    for base, start, length in zip(bases.tolist(), starts.tolist(), kept_lengths.tolist()):
        drawn, uniforms_drawn, since = 0, 0, 0
        for position in range(length if draws_reach and length > 1 else 0):
            word = int(words[base + (drawn >> 1) + uniforms_drawn - since * (drawn & 1)])
            product = (word >> 32 if drawn & 1 else word & 0xFFFFFFFF) * window
            if product & 0xFFFFFFFF < threshold:
                return _draws_from_generator(seeds, walks, lengths, keep_probability,
                                             cfg, vocab_size)
            reaches[start + position] = reach = 1 + (product >> 32)
            contexts = min(position, reach) + min(length - 1 - position, reach)
            drawn += 1 + contexts * slot_draws
            uniforms_drawn += contexts * negatives
            since = negatives if slot_draws else contexts * negatives

    centers, _, pair_starts = _block_pairs(kept_lengths, reaches)
    walk = np.repeat(np.arange(len(kept_lengths)), np.diff(pair_starts))
    pair = np.arange(len(centers)) - pair_starts[walk]
    reach_draws = centers - starts[walk] + 1 if draws_reach else np.zeros_like(centers)
    base = bases[walk]
    # A context's 32-bit draws follow the uniforms of the contexts before it.
    # An odd draw reads the word of the draw before it, which precedes the
    # previous context's uniforms when it was that context's last slot.
    k = np.arange(slot_draws)
    drawn = reach_draws[:, None] + pair[:, None] * slot_draws + k
    odd = (drawn & 1).astype(bool)
    first = np.diff(centers, prepend=-1) > 0
    after_uniforms = odd & (k == 0) & ~(first & draws_reach)[:, None]
    word = words[base[:, None] + (drawn >> 1) + negatives * (pair[:, None] - after_uniforms)]
    slots, rejected = _bounded(
        np.where(odd, word >> np.uint64(32), word & _LOW32), vocab_size)
    if rejected.any():
        return _draws_from_generator(seeds, walks, lengths, keep_probability, cfg, vocab_size)
    if not slot_draws:
        slots = np.zeros((len(pair), negatives), dtype=np.uint64)
    before = reach_draws + (pair + 1) * slot_draws
    uniforms = _uniforms(words[(base + (before + 1) // 2 + negatives * pair)[:, None]
                               + np.arange(negatives)])
    return kept, kept_lengths, reaches, slots.astype(np.int64), uniforms


def _draws_from_generator(seeds, walks, lengths, keep_probability, cfg, vocab_size):
    kept, reaches, slots, uniforms = [], [], [], []
    for seed, walk in zip(seeds, np.split(walks, np.cumsum(lengths)[:-1])):
        rng = np.random.default_rng(seed)
        if keep_probability is not None:
            walk = walk[rng.random(len(walk)) < keep_probability[walk]]
        kept.append(walk)
        length = len(walk)
        for position in range(length):
            reach = int(rng.integers(1, cfg.window + 1)) \
                if cfg.dynamic_window and length > 1 else cfg.window
            reaches.append(reach)
            for _ in range(min(position, reach) + min(length - 1 - position, reach)):
                slots.append(rng.integers(0, vocab_size, size=cfg.negatives))
                uniforms.append(rng.random(cfg.negatives))
    return (np.concatenate(kept), np.array([len(walk) for walk in kept], dtype=np.int64),
            np.array(reaches, dtype=np.int64),
            np.array(slots, dtype=np.int64).reshape(-1, cfg.negatives),
            np.array(uniforms).reshape(-1, cfg.negatives))


def attach_labels(matrix: EmbeddingMatrix, labels: Mapping[NodeId, str]) -> None:
    """Record node labels (for filtering and metadata export)."""
    matrix.labels = {nid: labels[nid] for nid in matrix.ids if nid in labels}
