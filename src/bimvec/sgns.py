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
draws, pair positions, negatives and learning rates are computed at once.
A pair's rows are the ``syn1`` rows of its positive and of the negatives
unequal to it. Each walk's pairs, in training order, then go in batches of
``width = min(32, max(1, floor(0.8 / initial_lr)))`` consecutive pairs, its
last batch shorter; a batch never spans two walks, so the bytes do not
depend on the blocks. Since lr only decays, lr × width <= 0.8 at every step
(Hogwild, Recht et al. 2011, and HogBatch, Ji et al. 2016, batch SGNS on the
same ground: a stale read does little harm when steps are small).

At width 1 (``initial_lr`` above 0.4) every update sees the ones before it.
A pair takes ``rows @ v``, the clamped sigmoid, ``dscores @ rows`` and the
outer product with ``v`` in ``pair_loss_and_grads``'s float32 operations
and order, and writes the rows back, by ``np.subtract.at`` when a negative
repeats. The pairs go in rounds: a pair's round is one past the last earlier
pair of its block that touched its ``syn0`` center row or any of its
``syn1`` rows, so the pairs of a round touch disjoint rows, and applying
them together equals applying them in order. A round's pairs with k rows
each apply as stacked arrays, (m, k, d) @ (m, d, 1) for the scores and
(m, 1, k) @ (m, k, d) for the center gradients; numpy computes each stacked
item with the gemv it uses for one pair's (k, d) product, so the bits are
one pair's, and every elementwise step is the same. Rounds do not mix k,
because a row's gemv bits depend on the row count and zero padding is not
exact either. A pair alone in its round applies by itself. The per-pair
reference trainer in the tests checks these bytes. At a larger width every
pair of a batch reads the rows as they were at the batch's start and takes
the same float32 quantities, each row's score by a float32 dot product and
the center gradient summed in row order; the batch's updates are then
subtracted in pair order by ``np.subtract.at``. Losses are computed after
the block from the stored sigmoids and summed pair by pair, walk by walk.

Draws. Walk w of epoch e reads ``PCG64(substream_seed(seed, e, w))`` in
training order: one uniform per token for subsampling (threshold > 0 only),
one per kept token for its reach (dynamic window only), then per (center,
context) pair ``negatives`` slot and ``negatives`` alias uniforms. A uniform
is (x >> 11) * 2**-53 of a 64-bit word x, and a draw over n values is
floor(u * n), so a reach is 1 + floor(u * window). Only raw words are read,
which numpy keeps stable across versions (NEP 19), and a walk's draws do not
depend on its block.
"""

from __future__ import annotations

import itertools
import logging
import math
from typing import Mapping, Sequence

import numpy as np

from .config import TrainConfig
from .errors import BimvecError, InternalInvariantError
from .graph import NodeId
from .store import EmbeddingMatrix
from .walks import AliasTable, WalkCorpus, substream_seed

logger = logging.getLogger(__name__)

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

# A walk's pairs train in batches of up to _MAX_BATCH consecutive pairs that
# read the tables as they were at the batch's start. The width is at most
# _BATCH_LR / initial_lr, so lr × width <= _BATCH_LR at every step. The batch
# kernel's arrays take about 50 bytes per row of a pair, so it runs on
# _PART_BATCHES batches at a time, which keeps training's peak memory at or
# under the per-pair loop's.
_BATCH_LR = 0.8
_MAX_BATCH = 32
_PART_BATCHES = 16


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


def _uniforms(streams, counts) -> np.ndarray:
    """The next ``counts[i]`` uniforms of each of ``streams``, end to end:
    the top 53 bits of a 64-bit word times 2**-53."""
    words = np.concatenate([stream.random_raw(count) for stream, count in zip(
        streams, np.asarray(counts).tolist())])
    return (words >> np.uint64(11)) * 2.0 ** -53


def block_draws(seeds, walks: np.ndarray, lengths: np.ndarray, keep_probability,
                cfg: TrainConfig, vocab_size: int):
    """The random numbers a block of walks trains with (see Draws above).
    ``walks`` holds the walks' tokens end to end, ``lengths`` their lengths
    and ``seeds`` their substream seeds. Returns, laid out the same way, the
    tokens that survive subsampling and the walks' new lengths; the center
    and context token indices of the pairs, in training order (each center's
    contexts from left to right within its reach and its walk), and where
    each walk's pairs start, plus the end; and for each pair the
    ``cfg.negatives`` alias slots and uniforms."""
    streams = [np.random.PCG64(seed) for seed in seeds]
    kept, kept_lengths = walks, lengths
    if keep_probability is not None:
        keep = _uniforms(streams, lengths) < keep_probability[walks]
        walk_of = np.repeat(np.arange(len(lengths)), lengths)
        kept, kept_lengths = walks[keep], np.bincount(walk_of[keep], minlength=len(lengths))
    reaches = 1 + (_uniforms(streams, kept_lengths) * cfg.window).astype(np.int64) \
        if cfg.dynamic_window else np.full(len(kept), cfg.window)
    left, per_center, pair_starts = _context_counts(kept_lengths, reaches)
    centers = np.repeat(np.arange(len(left)), per_center)
    step = np.arange(len(centers)) - np.repeat(np.cumsum(per_center) - per_center, per_center)
    contexts = centers - left[centers] + step + (step >= left[centers])
    draws = _uniforms(streams, np.diff(pair_starts) * 2 * cfg.negatives).reshape(
        -1, 2, cfg.negatives)
    return (kept, kept_lengths, centers, contexts, pair_starts,
            (draws[:, 0] * vocab_size).astype(np.int64), draws[:, 1])


def initial_vectors(vocab_size: int, dimension: int, seed: int) -> np.ndarray:
    """Seeded uniform [-0.5/n, 0.5/n] initialization for the input table,
    read row by row from ``PCG64(seed)`` (see Draws above)."""
    uniforms = _uniforms([np.random.PCG64(seed)], [vocab_size * dimension])
    return ((uniforms.reshape(vocab_size, dimension) - 0.5) / dimension).astype(np.float32)


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
    width = _batch_width(cfg.initial_lr)
    for epoch in range(cfg.epochs):
        loss_total, pair_total = 0.0, 0
        for first, stop in blocks:
            kept, kept_lengths, centers, contexts, pair_starts, slots, uniforms = block_draws(
                [substream_seed(cfg.seed, epoch, walk) for walk in range(first, stop)],
                tokens[token_starts[first]:token_starts[stop]], lengths[first:stop],
                keep_probability, cfg, vocab_size)
            # a center's progress is its walk's plus the full pairs before it
            _, full, full_starts = _context_counts(kept_lengths, cfg.window)
            progress = np.cumsum(full) - full + np.repeat(
                offsets[first:stop] + epoch * epoch_pairs - full_starts[:-1], kept_lengths)
            rates = np.maximum(cfg.min_lr, cfg.initial_lr - span * progress / total_progress)
            losses = _train_pairs(syn0, syn1, kept[centers], kept[contexts],
                                  table.resolve(slots, uniforms), rates[centers],
                                  width, pair_starts).tolist()
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


def _batch_width(initial_lr: float) -> int:
    """Pairs per batch: floor(_BATCH_LR / initial_lr), from 1 to _MAX_BATCH."""
    return min(_MAX_BATCH, max(1, math.floor(_BATCH_LR / initial_lr)))


def _batch_starts(pair_starts: np.ndarray, width: int) -> np.ndarray:
    """Where each batch starts, plus the end, for walks whose pairs start at
    ``pair_starts``: each walk's pairs in runs of ``width``, its last run
    shorter, so that no batch spans two walks."""
    per_walk = -(-np.diff(pair_starts) // width)
    step = np.arange(per_walk.sum()) - np.repeat(np.cumsum(per_walk) - per_walk, per_walk)
    return np.append(np.repeat(pair_starts[:-1], per_walk) + step * width, pair_starts[-1])


def _train_pairs(syn0, syn1, centers, positives, negatives, rates, width,
                 pair_starts) -> np.ndarray:
    """Apply one SGNS update per (center, positive, negatives row, rate), in
    batches of ``width`` pairs within the walks whose pairs start at
    ``pair_starts``, and return each pair's loss.

    A pair's rows are its positive and the negatives unequal to it. The
    losses are computed afterwards from the stored sigmoids, with
    ``pair_loss_and_grads``'s float32 operations.
    """
    kept = negatives != positives[:, None]
    kept_counts = kept.sum(axis=1)
    rows_of = np.concatenate((positives[:, None], negatives), axis=1)[
        np.concatenate((np.ones((len(kept), 1), dtype=bool), kept), axis=1)]
    bounds = np.concatenate(([0], np.cumsum(kept_counts + 1)))
    sig = np.empty(len(rows_of), dtype=np.float32)
    if width == 1:
        _apply_pairs(syn0, syn1, centers, rates, kept, negatives, rows_of, bounds, sig)
    elif len(centers):
        starts = _batch_starts(pair_starts, width)
        for part in range(0, len(starts) - 1, _PART_BATCHES):
            part_starts = starts[part:part + _PART_BATCHES + 1]
            first, stop = part_starts[0], part_starts[-1]
            low, high = bounds[first], bounds[stop]
            _apply_batches(syn0, syn1, centers[first:stop], rates[first:stop], rows_of[low:high],
                           bounds[first:stop + 1] - low, part_starts - first, sig[low:high])

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


def _rounds(centers, rows_of, bounds, vocab_size: int) -> np.ndarray:
    """Each pair's round: one past the last earlier pair that touched its
    ``syn0`` center row or any of its ``syn1`` rows, so that the pairs of a
    round touch disjoint rows."""
    center_round, row_round = [-1] * vocab_size, [-1] * vocab_size
    rounds = []
    rows = rows_of.tolist()
    for center, start, stop in zip(centers.tolist(), bounds[:-1].tolist(),
                                   bounds[1:].tolist()):
        index = rows[start:stop]
        level = center_round[center]
        for row in index:
            if row_round[row] > level:
                level = row_round[row]
        level += 1
        rounds.append(level)
        center_round[center] = level
        for row in index:
            row_round[row] = level
    return np.array(rounds, dtype=np.int64)


def _apply_pairs(syn0, syn1, centers, rates, kept, negatives, rows_of, bounds, sig):
    """With the bytes of one pair at a time, each seeing the updates before
    it: ``pair_loss_and_grads``'s float32 operations on the pair's ``syn1``
    rows, written back by assignment, or by ``np.subtract.at`` when a
    negative repeats. The pairs of a round (see ``_rounds``) with the same
    row count k apply together, as stacked arrays; a lone pair applies by
    itself."""
    if not len(centers):
        return
    ordered = np.sort(np.where(kept, negatives, -1), axis=1)
    repeats = ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)).any(axis=1)
    counts = np.diff(bounds)
    rounds = _rounds(centers, rows_of, bounds, len(syn0))
    # the pairs by round, then by row count, each group in pair order
    order = np.lexsort((counts, rounds))
    counts, rounds = counts[order], rounds[order]
    starts = np.flatnonzero(np.concatenate((
        [True], (np.diff(rounds) != 0) | (np.diff(counts) != 0), [True])))
    # each pair's rows and their places in ``sig`` fill a row of a grid
    slots = np.arange(counts.max()) < counts[:, None]
    places = (bounds[:-1][order, None] + np.arange(slots.shape[1]))[slots]
    index_of = np.zeros(slots.shape, dtype=np.int64)
    index_of[slots] = rows_of[places]
    scores = np.zeros(slots.shape, dtype=np.float32)
    centers, rates = centers[order], rates[order]
    lrs = rates.astype(np.float32)[:, None, None]
    group_repeats = np.add.reduceat(repeats[order], starts[:-1]) > 0
    for first, stop, k, repeat in zip(starts[:-1].tolist(), starts[1:].tolist(),
                                      counts[starts[:-1]].tolist(), group_repeats.tolist()):
        if stop - first == 1:
            lr = float(rates[first])
            v = syn0[centers[first]]
            index = index_of[first, :k]
            rows = syn1.take(index, axis=0)
            dscores = _sigmoid(rows @ v)
            scores[first, :k] = dscores
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
            continue
        # the same operations on m pairs: (m, k, d) rows, (m, d) centers
        index, group = index_of[first:stop, :k], centers[first:stop]
        rows = syn1.take(index, axis=0)
        vs = syn0.take(group, axis=0)
        dscores = np.matmul(rows, vs[:, :, None])[:, :, 0]
        np.maximum(dscores, -60.0, out=dscores)
        np.minimum(dscores, 60.0, out=dscores)
        np.negative(dscores, out=dscores)
        np.exp(dscores, out=dscores)
        dscores += 1.0
        np.divide(1.0, dscores, out=dscores)
        scores[first:stop, :k] = dscores
        dscores[:, 0] -= 1.0
        grads = np.matmul(dscores[:, None, :], rows)[:, 0]
        updates = dscores[:, :, None] * vs[:, None, :]
        lr = lrs[first:stop]
        updates *= lr
        if repeat:
            _subtract_rows(syn1, index.reshape(-1), updates.reshape(-1, syn1.shape[1]))
        else:
            rows -= updates
            syn1[index] = rows
        grads *= lr[:, 0]
        vs -= grads
        syn0[group] = vs
    sig[places] = scores[slots]


def _apply_batches(syn0, syn1, centers, rates, rows_of, bounds, starts, sig):
    """A batch at a time: every pair of a batch reads the rows as they were
    at its start, and the batch's updates are then subtracted in pair order
    by ``np.subtract.at``. A row's score is its float32 dot product with the
    center, and a pair's center gradient adds its rows' terms in row order."""
    pair_rates = rates.astype(np.float32)[:, None]
    rows_per_pair = np.diff(bounds)
    row_pairs = np.repeat(np.arange(len(centers)), rows_per_pair)
    row_centers, row_rates = centers[row_pairs], pair_rates[row_pairs]
    positive = np.zeros(len(rows_of), dtype=np.float32)
    positive[bounds[:-1]] = 1.0
    # A pair's terms fill a column of a grid, its first row first and the
    # others negated, so that p0 - (-p1) - (-p2) down the column is
    # p0 + p1 + p2 exactly; zeros pad the columns, and x - 0 is x.
    sign = 2.0 * positive - 1.0
    depth = int(rows_per_pair.max())
    widths = np.diff(starts)
    places = np.arange(len(centers)) - np.repeat(starts[:-1], widths)
    term_slots = (np.arange(len(rows_of)) - bounds[row_pairs]) \
        * np.repeat(widths, widths)[row_pairs] + places[row_pairs]
    row_starts = bounds[starts]
    for first, stop, low, high in zip(starts[:-1].tolist(), starts[1:].tolist(),
                                      row_starts[:-1].tolist(), row_starts[1:].tolist()):
        index = rows_of[low:high]
        rows = syn1.take(index, axis=0)
        vs = syn0.take(row_centers[low:high], axis=0)
        dscores = _sigmoid(np.matmul(rows[:, None, :], vs[:, :, None])[:, 0, 0])
        sig[low:high] = dscores
        dscores -= positive[low:high]
        vs *= dscores[:, None]
        vs *= row_rates[low:high]
        rows *= (dscores * sign[low:high])[:, None]
        terms = np.zeros((depth * (stop - first), syn0.shape[1]), dtype=np.float32)
        terms[term_slots[low:high]] = rows
        grads = np.subtract.reduce(terms.reshape(depth, stop - first, -1), axis=0)
        grads *= pair_rates[first:stop]
        _subtract_rows(syn1, index, vs)
        _subtract_rows(syn0, centers[first:stop], grads)


def _subtract_rows(table, index, updates) -> None:
    """``np.subtract.at(table, index, updates)`` for rows, with the same
    bytes, through the flat table: numpy's one-dimensional ``at`` is
    several times faster."""
    width = table.shape[1]
    np.subtract.at(table.reshape(-1), (index[:, None] * width + np.arange(width)).reshape(-1),
                   updates.reshape(-1))


def attach_labels(matrix: EmbeddingMatrix, labels: Mapping[NodeId, str]) -> None:
    """Record node labels (for filtering and metadata export)."""
    matrix.labels = {nid: labels[nid] for nid in matrix.ids if nid in labels}
