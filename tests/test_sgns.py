"""Trainer tests: finite-difference gradient oracle, sampler frequencies,
structural quality on the barbell fixture, determinism, checkpoints, and
byte identity with a per-pair reference trainer that reads the same draw
rule from numpy's own ``random_raw``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import itertools
import struct

from bimvec import sgns
from bimvec.config import TrainConfig, WalkConfig
from bimvec.errors import BimvecError, InternalInvariantError
from bimvec.sgns import initial_vectors, negative_table, pair_loss_and_grads, train
from bimvec.store import EmbeddingMatrix, similarities
from bimvec.walks import WalkCorpus, generate_walks, substream_seed

from conftest import SMALL_GRAPHS, graph_from_edges, make_barbell


def reference_loss(center, positive, negatives):
    """Independent loss evaluation used only by the finite-difference oracle."""
    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    loss = -np.log(sigmoid(positive @ center))
    for row in negatives:
        loss -= np.log(sigmoid(-(row @ center)))
    return loss


def finite_difference(f, x, h=1e-4):
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.reshape(-1)
    x_flat = x.reshape(-1)
    for i in range(x_flat.size):
        delta = np.zeros_like(x_flat)
        delta[i] = h
        plus = (x_flat + delta).reshape(x.shape)
        minus = (x_flat - delta).reshape(x.shape)
        flat[i] = (f(plus) - f(minus)) / (2 * h)
    return grad


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    center = rng.normal(size=8)
    positive = rng.normal(size=8)
    negatives = rng.normal(size=(5, 8))

    loss, grad_c, grad_p, grad_n = pair_loss_and_grads(center, positive, negatives)
    assert loss == pytest.approx(reference_loss(center, positive, negatives),
                                 rel=1e-9)

    fd_c = finite_difference(lambda x: reference_loss(x, positive, negatives), center)
    fd_p = finite_difference(lambda x: reference_loss(center, x, negatives), positive)
    fd_n = finite_difference(lambda x: reference_loss(center, positive, x), negatives)
    assert np.linalg.norm(grad_c - fd_c) / np.linalg.norm(fd_c) < 1e-4
    assert np.linalg.norm(grad_p - fd_p) / np.linalg.norm(fd_p) < 1e-4
    assert np.linalg.norm(grad_n - fd_n) / np.linalg.norm(fd_n) < 1e-4


def test_gradients_with_no_negatives():
    rng = np.random.default_rng(3)
    center = rng.normal(size=4)
    positive = rng.normal(size=4)
    loss, grad_c, grad_p, grad_n = pair_loss_and_grads(
        center, positive, np.empty((0, 4)))
    assert loss == pytest.approx(reference_loss(center, positive, []), rel=1e-9)
    assert grad_n.shape == (0, 4)


# ---------------------------------------------------------------------------
# negative sampler
# ---------------------------------------------------------------------------

def alias_draws(table, rng, count: int) -> np.ndarray:
    """``count`` outcomes of ``table`` by ``AliasTable.resolve``, as
    ``train`` draws negatives: all slots from ``rng``, then all uniforms."""
    return table.resolve(rng.integers(0, len(table), size=count), rng.random(count))


def test_sampler_symmetric_counts():
    draws = alias_draws(negative_table([1, 1]), np.random.default_rng(5), 100000)
    assert (draws == 0).mean() == pytest.approx(0.5, abs=0.01)


def test_sampler_three_quarter_power():
    # 16^0.75 = 8, so probabilities are [1/9, 8/9]
    draws = alias_draws(negative_table([1, 16]), np.random.default_rng(5), 100000)
    assert (draws == 0).mean() == pytest.approx(1 / 9, abs=0.01)
    assert (draws == 1).mean() == pytest.approx(8 / 9, abs=0.01)


def test_sampler_never_draws_zero_count():
    draws = alias_draws(negative_table([0, 3]), np.random.default_rng(5), 50000)
    assert not (draws == 0).any()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_sampler_rejects_all_zero():
    with pytest.raises(ValueError, match="^probabilities must be finite and non-negative$"):
        negative_table([0, 0, 0])


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_empty_corpus_rejected():
    with pytest.raises(BimvecError, match="^corpus has no walks$"):
        train(WalkCorpus([]), TrainConfig(dimension=4))


def test_single_length_one_walk_returns_initialization():
    corpus = WalkCorpus([["solo"]])
    cfg = TrainConfig(dimension=6, seed=42)
    matrix = train(corpus, cfg)
    assert np.array_equal(matrix.vectors, initial_vectors(1, 6, 42))
    assert np.array_equal(matrix.context_vectors, np.zeros((1, 6), np.float32))
    assert matrix.epoch_losses == []


def test_initialization_range_and_dtype():
    init = initial_vectors(50, 8, 7)
    assert init.dtype == np.float32
    assert np.all(np.abs(init) <= 0.5 / 8)


def _barbell_corpus(seed=1, walk_length=20, walks_per_node=5):
    graph = make_barbell()
    return generate_walks(graph, WalkConfig(
        walk_length=walk_length, walks_per_node=walks_per_node, seed=seed))


def test_barbell_communities_embed_closer():
    """Structural oracle: cliques must be tighter than the bridge."""
    corpus = generate_walks(make_barbell(), WalkConfig(seed=1))
    matrix = train(corpus, TrainConfig(dimension=16, seed=1))
    within, cross = [], []
    for i, u in enumerate(matrix.ids):
        for v, value in zip(matrix.ids[i + 1:], similarities(matrix, u)[i + 1:]):
            (within if u[0] == v[0] else cross).append(value)
    assert np.mean(within) > np.mean(cross)


def test_epoch_loss_decreases_on_barbell():
    corpus = _barbell_corpus()
    matrix = train(corpus, TrainConfig(dimension=16, window=5, epochs=4, seed=1))
    losses = matrix.epoch_losses
    assert len(losses) == 4
    for earlier, later in zip(losses[:3], losses[1:4]):
        assert later <= earlier * 1.01


def test_training_is_bit_deterministic():
    corpus = _barbell_corpus()
    cfg = TrainConfig(dimension=8, window=4, epochs=2, seed=9)
    first = train(corpus, cfg)
    second = train(corpus, cfg)
    assert np.array_equal(first.vectors, second.vectors)
    assert np.array_equal(first.context_vectors, second.context_vectors)
    assert first.epoch_losses == second.epoch_losses


def test_vectors_stay_finite():
    corpus = _barbell_corpus()
    matrix = train(corpus, TrainConfig(dimension=8, epochs=3, seed=2,
                                       initial_lr=0.5))
    assert np.isfinite(matrix.vectors).all()
    assert np.isfinite(matrix.context_vectors).all()


def test_row_count_equals_vocabulary():
    corpus = _barbell_corpus()
    matrix = train(corpus, TrainConfig(dimension=4, epochs=1, seed=0))
    walked = sorted({nid for walk in corpus.walks for nid in walk})
    assert matrix.vectors.shape == (len(walked), 4)
    assert matrix.ids == walked


def test_dynamic_window_off_changes_pair_count_not_schedule():
    corpus = _barbell_corpus()
    fixed = train(corpus, TrainConfig(dimension=4, window=3, epochs=1, seed=0,
                                      dynamic_window=False))
    dynamic = train(corpus, TrainConfig(dimension=4, window=3, epochs=1, seed=0,
                                        dynamic_window=True))
    assert np.isfinite(fixed.vectors).all()
    assert not np.array_equal(fixed.vectors, dynamic.vectors)


def test_subsampling_runs_and_stays_finite():
    corpus = _barbell_corpus()
    matrix = train(corpus, TrainConfig(dimension=4, epochs=1, seed=0,
                                       subsample_threshold=0.05))
    assert np.isfinite(matrix.vectors).all()


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(dimension=0)
    with pytest.raises(ValueError):
        TrainConfig(min_lr=0.5, initial_lr=0.1)
    with pytest.raises(ValueError, match="subsample_threshold"):
        TrainConfig(subsample_threshold=-0.05)
    assert TrainConfig(subsample_threshold=0.0).subsample_threshold == 0.0


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    corpus = _barbell_corpus()
    matrix = train(corpus, TrainConfig(dimension=8, epochs=1, seed=3))
    matrix.labels = {nid: "X" for nid in matrix.ids}
    path = tmp_path / "checkpoint.bin"
    matrix.save(path)
    again = EmbeddingMatrix.load(path)
    assert np.array_equal(again.vectors, matrix.vectors)
    assert np.array_equal(again.context_vectors, matrix.context_vectors)
    assert again.ids == matrix.ids
    assert again.vocabulary == matrix.vocabulary
    assert again.labels == matrix.labels


def test_checkpoint_bytes_reproducible(tmp_path):
    corpus = _barbell_corpus()
    cfg = TrainConfig(dimension=8, epochs=1, seed=3)
    for name in ("a.bin", "b.bin"):
        train(corpus, cfg).save(tmp_path / name)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError):
        EmbeddingMatrix.load(path)


@pytest.mark.parametrize("cut,extra", [(3, b""), (200, b""), (0, b"\0\0")],
                         ids=["cut-3", "cut-200", "trailing-2"])
def test_checkpoint_rejects_wrong_length(tmp_path, cut, extra):
    matrix = train(_barbell_corpus(), TrainConfig(dimension=8, epochs=1, seed=3))
    matrix.labels = {nid: "ROOM" for nid in matrix.ids}
    path = tmp_path / "checkpoint.bin"
    matrix.save(path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - cut] + extra)
    with pytest.raises(ValueError, match="truncated|after its vocabulary"):
        EmbeddingMatrix.load(path)


def test_version_1_checkpoint_loads(tmp_path):
    """A checkpoint from before the CRC32 (version 1) still loads."""
    vectors = np.arange(6, dtype="<f4").reshape(2, 3)
    data = struct.pack("<4sIII", b"BMV1", 1, 3, 2) + vectors.tobytes() + (-vectors).tobytes()
    for node_id, label in (("a", "ROOM"), ("b", "")):
        data += struct.pack("<H", len(node_id)) + node_id.encode() \
            + struct.pack("<H", len(label)) + label.encode()
    path = tmp_path / "v1.bin"
    path.write_bytes(data)
    matrix = EmbeddingMatrix.load(path)
    assert np.array_equal(matrix.vectors, vectors)
    assert np.array_equal(matrix.context_vectors, -vectors)
    assert (matrix.ids, matrix.labels) == (["a", "b"], {"a": "ROOM"})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["initial_lr", "min_lr", "subsample_threshold"])
def test_config_rejects_non_finite_rates(name, value):
    with pytest.raises(ValueError, match="finite"):
        TrainConfig(**{name: value})


def test_checkpoint_rejects_non_finite_entries(tmp_path):
    matrix = train(_barbell_corpus(), TrainConfig(dimension=8, epochs=1, seed=3))
    matrix.context_vectors[2, 5] = np.nan
    path = tmp_path / "checkpoint.bin"
    matrix.save(path)
    with pytest.raises(ValueError, match="non-finite") as info:
        EmbeddingMatrix.load(path)
    assert str(path) in str(info.value)


# ---------------------------------------------------------------------------
# random draws
# ---------------------------------------------------------------------------

def test_initialization_equals_generator_random():
    """The input table is what ``Generator.random`` gives on the same seed."""
    for seed in (0, 7, 2 ** 40):
        expected = (np.random.default_rng(seed).random((50, 16)) - 0.5) / 16
        assert initial_vectors(50, 16, seed).tobytes() == expected.astype(np.float32).tobytes()


def test_training_calls_no_generator(monkeypatch):
    """Training reads raw bit-generator words only, with subsampling and the
    dynamic window on."""
    def refuse(*args, **kwargs):
        raise AssertionError("training made a numpy Generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    matrix = train(_barbell_corpus(), TrainConfig(dimension=8, epochs=2, seed=5,
                                                  subsample_threshold=0.05))
    assert np.isfinite(matrix.vectors).all() and len(matrix.epoch_losses) == 2


# ---------------------------------------------------------------------------
# byte identity with the reference trainer
# ---------------------------------------------------------------------------

def reference_train(corpus: WalkCorpus, cfg: TrainConfig, width: int = 1) -> EmbeddingMatrix:
    """SGNS one (center, context) pair at a time: each walk reads its PCG64
    stream in training order (subsampling, reaches, then per pair the slot
    and alias uniforms, resolved through the negative table).

    At ``width`` 1 each pair makes one ``pair_loss_and_grads`` call and one
    ``np.add.at`` at once. At a larger width a walk's pairs go in batches of
    ``width`` consecutive pairs, the last one shorter. Every pair of a batch
    reads the tables as they were at the batch's start, and the batch's
    updates are subtracted in pair order once it is full or its walk ends."""
    ids = sorted({nid for walk in corpus.walks for nid in walk})
    syn0 = initial_vectors(len(ids), cfg.dimension, cfg.seed)
    syn1 = np.zeros((len(ids), cfg.dimension), dtype=np.float32)
    matrix = EmbeddingMatrix(syn0, syn1, ids)
    walks = [np.array([matrix.vocabulary[nid] for nid in walk], dtype=np.int64)
             for walk in corpus.walks]

    def full_pairs(length, pos):
        return min(pos, cfg.window) + min(length - 1 - pos, cfg.window)

    def walk_pairs(length):
        return sum(full_pairs(length, pos) for pos in range(length))

    def uniforms(stream, count):
        """(x >> 11) * 2**-53 for each of the stream's next ``count`` words x."""
        return [(int(word) >> 11) * 2.0 ** -53 for word in stream.random_raw(count)]

    def batched_pair(v, rows, lr):
        """One pair's loss and updates in a batch: each row's float32 dot
        product with ``v`` (by the kernel's matmul of a 1 x d and a d x 1
        matrix), the clamped sigmoid, the center gradient summed in row
        order, and the rows' updates lr * dscore * v."""
        sig = sgns._sigmoid(np.matmul(rows[:, None, :], v[:, None])[:, 0, 0])
        loss = -np.log(max(float(sig[0]), 1e-30)) \
            - np.log(np.maximum(1.0 - sig[1:], 1e-30)).sum()
        dscores = sig.copy()
        dscores[0] -= 1.0
        grad_v = dscores[0] * rows[0]
        for dscore, row in zip(dscores[1:], rows[1:]):
            grad_v = grad_v + dscore * row
        return float(loss), grad_v * np.float32(lr), [dscore * v * np.float32(lr)
                                                      for dscore in dscores]

    def apply(pending):
        for center, index, center_update, row_updates in pending:
            for row, update in zip(index, row_updates):
                syn1[row] -= update
            syn0[center] -= center_update
        pending.clear()

    epoch_pairs = sum(walk_pairs(len(walk)) for walk in walks)
    if epoch_pairs == 0:
        return matrix
    total_progress = epoch_pairs * cfg.epochs
    counts = np.bincount(np.concatenate(walks), minlength=len(ids))
    table = negative_table(counts)
    keep_probability = None
    if cfg.subsample_threshold > 0:
        with np.errstate(divide="ignore"):
            keep_probability = np.clip(
                np.sqrt(cfg.subsample_threshold / (counts / counts.sum())), 0.0, 1.0)
    span = cfg.initial_lr - cfg.min_lr
    offset = 0
    pending = []
    for epoch in range(cfg.epochs):
        loss_total, pair_total = 0.0, 0
        for walk_index, walk in enumerate(walks):
            stream = np.random.PCG64(substream_seed(cfg.seed, epoch, walk_index))
            progress = offset
            offset += walk_pairs(len(walk))
            if keep_probability is not None:
                walk = walk[np.array(uniforms(stream, len(walk))) < keep_probability[walk]]
            length = len(walk)
            reaches = [1 + int(u * cfg.window) for u in uniforms(stream, length)] \
                if cfg.dynamic_window else [cfg.window] * length
            loss_sum = 0.0
            for pos in range(length):
                full = full_pairs(length, pos)
                if full == 0:
                    continue
                lr = max(cfg.min_lr,
                         cfg.initial_lr - span * progress / total_progress)
                reach = reaches[pos]
                center = int(walk[pos])
                for o_pos in range(max(0, pos - reach), min(length, pos + reach + 1)):
                    if o_pos == pos:
                        continue
                    positive = int(walk[o_pos])
                    draws = uniforms(stream, 2 * cfg.negatives)
                    negatives = table.resolve(
                        np.array([int(u * len(ids)) for u in draws[:cfg.negatives]]),
                        np.array(draws[cfg.negatives:]))
                    negatives = negatives[negatives != positive]
                    v = syn0[center]
                    if width == 1:
                        loss, grad_v, grad_pos, grad_negs = pair_loss_and_grads(
                            v, syn1[positive], syn1[negatives])
                        syn1[positive] -= lr * grad_pos
                        if negatives.size:
                            np.add.at(syn1, negatives, -lr * grad_negs)
                        syn0[center] = v - lr * grad_v
                    else:
                        index = [positive, *negatives.tolist()]
                        loss, center_update, row_updates = batched_pair(
                            v.copy(), syn1[index], lr)
                        pending.append((center, index, center_update, row_updates))
                        if len(pending) == width:
                            apply(pending)
                    loss_sum += loss
                    pair_total += 1
                progress += full
            apply(pending)
            loss_total += loss_sum
        matrix.epoch_losses.append(loss_total / max(pair_total, 1))
        if not (np.isfinite(syn0).all() and np.isfinite(syn1).all()):
            raise InternalInvariantError(
                f"non-finite embedding entries after epoch {epoch}")
    return matrix


_STAR = next(graph for graph in SMALL_GRAPHS if graph[0] == "star5")


def _hub_corpus(walks=8, length=8, spokes=12):
    """Walks over ``spokes`` nodes that each pass through ``hub`` two or
    three times, so that most pairs touch the hub's rows, and its negatives
    repeat within a pair."""
    rng = np.random.default_rng(3)
    out = []
    for _ in range(walks):
        walk = [f"s{spoke}" for spoke in rng.integers(0, spokes, length).tolist()]
        for position in rng.choice(length, size=int(rng.integers(2, 4)), replace=False):
            walk[position] = "hub"
        out.append(walk)
    return WalkCorpus(out)


def _token_corpus(tokens, walks, length, seed):
    """``walks`` walks of ``length`` tokens drawn uniformly from ``tokens``."""
    rng = np.random.default_rng(seed)
    return WalkCorpus([[tokens[k] for k in rng.integers(0, len(tokens), length).tolist()]
                       for _ in range(walks)])


_IDENTITY_CORPORA = {
    "barbell": lambda: _barbell_corpus(walk_length=12, walks_per_node=1),
    "star5": lambda: generate_walks(graph_from_edges(*_STAR[1:]), WalkConfig(
        walk_length=12, walks_per_node=2, seed=4)),
}
# Corpora that stress the width-1 kernel's rounds (see
# test_round_corpora_reach_every_kernel_path), trained also at dimensions 1
# and 64: a hub in every walk; a 3-node vocabulary, whose negatives repeat;
# and a 2-node one, where all of a pair's negatives often equal its positive
# (k = 1) in rounds of several pairs.
_ROUND_CORPORA = {
    "hub": _hub_corpus,
    "trio": lambda: _token_corpus("abc", walks=4, length=8, seed=5),
    "duo": lambda: _token_corpus("ab", walks=4, length=10, seed=6),
}
_IDENTITY_CORPORA.update(_ROUND_CORPORA)


def test_batch_width_table():
    """The width is floor(0.8 / initial_lr) between 1 and 32, so that
    lr x width <= 0.8 at every step."""
    table = {0.0001: 32, 0.025: 32, 0.05: 16, 0.1: 8, 0.2: 4, 0.3: 2, 0.4: 2,
             0.41: 1, 0.5: 1, 1.0: 1, 4.0: 1}
    assert {lr: sgns._batch_width(lr) for lr in table} == table
    for lr in np.linspace(0.001, 0.8, 400).tolist():
        assert 1 <= sgns._batch_width(lr) <= 32
        assert lr * sgns._batch_width(lr) <= 0.8 + 1e-12
        assert sgns._batch_width(lr) == 32 or lr * (sgns._batch_width(lr) + 1) > 0.8


@pytest.mark.parametrize("dynamic_window", [True, False], ids=["dynamic", "fixed"])
@pytest.mark.parametrize("window", [1, 3, 10])
@pytest.mark.parametrize("corpus_name", sorted(_IDENTITY_CORPORA))
def test_train_equals_per_pair_reference(corpus_name, window, dynamic_window):
    """At width 1 (initial_lr above 0.4), vectors, context vectors and epoch
    losses are byte-identical to the per-pair trainer's over subsampling,
    negatives, epochs and learning rates; on star5 negatives often equal the
    positive and repeat, and the round corpora also vary the dimension."""
    corpus = _IDENTITY_CORPORA[corpus_name]()
    # the round corpora take each dimension at both learning rates in turn
    dimensions = [1, 8, 64] if corpus_name in _ROUND_CORPORA else [8]
    with np.errstate(over="ignore", invalid="ignore"):
        for n, (threshold, negatives, epochs, initial_lr) in enumerate(itertools.product(
                [0.0, 0.05], [1, 5, 7], [1, 2, 3], [0.5, 1.0])):
            cfg = TrainConfig(dimension=dimensions[n % len(dimensions)], window=window,
                              negatives=negatives, epochs=epochs, initial_lr=initial_lr,
                              seed=window + negatives, dynamic_window=dynamic_window,
                              subsample_threshold=threshold)
            assert sgns._batch_width(initial_lr) == 1
            assert _outcome(train, corpus, cfg) == _outcome(reference_train, corpus, cfg), cfg


@pytest.mark.parametrize("initial_lr, width", [(0.4, 2), (0.1, 8), (0.025, 32)])
@pytest.mark.parametrize("corpus_name", sorted(_IDENTITY_CORPORA))
def test_train_equals_batched_reference(corpus_name, initial_lr, width):
    """Below initial_lr 0.4, training is byte-identical to the batched
    reference at the width the learning rate gives: over windows, the
    dynamic window, subsampling, negatives (on star5 they often equal the
    positive and repeat) and epochs."""
    corpus = _IDENTITY_CORPORA[corpus_name]()
    for window, dynamic_window, threshold, negatives, epochs in itertools.product(
            [1, 3, 10], [True, False], [0.0, 0.05], [1, 5], [1, 2]):
        cfg = TrainConfig(dimension=8, window=window, negatives=negatives,
                          epochs=epochs, initial_lr=initial_lr, seed=window + negatives,
                          dynamic_window=dynamic_window, subsample_threshold=threshold)
        assert _outcome(train, corpus, cfg) == _outcome(
            reference_train, corpus, cfg, width), cfg


def _kernel_groups(monkeypatch, corpus, cfg):
    """Train ``corpus`` and return, for every width-1 block, each pair's
    round, row count and whether a negative repeats in it."""
    blocks = []
    apply_pairs = sgns._apply_pairs

    def spy(syn0, syn1, centers, rates, kept, negatives, rows_of, bounds, sig):
        ordered = np.sort(np.where(kept, negatives, -1), axis=1)
        blocks.append((sgns._rounds(centers, rows_of, bounds, len(syn0)), np.diff(bounds),
                       ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)).any(axis=1)))
        apply_pairs(syn0, syn1, centers, rates, kept, negatives, rows_of, bounds, sig)

    monkeypatch.setattr(sgns, "_apply_pairs", spy)
    train(corpus, cfg)
    return blocks


@pytest.mark.parametrize("corpus_name, negatives, paths", [
    ("hub", 5, {"mixed-k round", "group with a repeat", "lone pair"}),
    ("trio", 7, {"lone pair with a repeat"}),
    ("duo", 1, {"group of k = 1"}),
])
def test_round_corpora_reach_every_kernel_path(monkeypatch, corpus_name, negatives, paths):
    """The round corpora reach what they are there for: a round whose pairs
    have different row counts, and so splits into groups; a group of several
    pairs holding a repeated negative (``np.subtract.at``) or pairs of one
    row each; and a pair alone in its round."""
    cfg = TrainConfig(dimension=8, window=3, negatives=negatives, epochs=1,
                      initial_lr=0.5, seed=1)
    found = set()
    for rounds, counts, repeats in _kernel_groups(monkeypatch, _ROUND_CORPORA[corpus_name](),
                                                  cfg):
        for level in np.unique(rounds).tolist():
            members = rounds == level
            if len(np.unique(counts[members])) > 1:
                found.add("mixed-k round")
            for k in np.unique(counts[members]).tolist():
                group = members & (counts == k)
                if group.sum() == 1:
                    found.add("lone pair with a repeat" if repeats[group].any() else "lone pair")
                elif repeats[group].any():
                    found.add("group with a repeat")
                elif k == 1:
                    found.add("group of k = 1")
    assert paths <= found


@settings(max_examples=200, deadline=None)
@given(vocab_size=st.integers(1, 6), pairs=st.lists(st.tuples(
    st.integers(0, 5), st.lists(st.integers(0, 5), min_size=1, max_size=4)), max_size=40))
def test_rounds_share_no_row(vocab_size, pairs):
    """No round holds two pairs that share their center's ``syn0`` row or a
    ``syn1`` row, and a pair's round is one past the last earlier pair that
    shares one, so that applying a round at once equals applying its pairs
    in order."""
    pairs = [(center % vocab_size, [row % vocab_size for row in rows]) for center, rows in pairs]
    centers = np.array([center for center, _ in pairs], dtype=np.int64)
    rows_of = np.array([row for _, rows in pairs for row in rows], dtype=np.int64)
    bounds = np.concatenate(([0], np.cumsum([len(rows) for _, rows in pairs]))).astype(np.int64)
    rounds = sgns._rounds(centers, rows_of, bounds, vocab_size).tolist()
    assert len(rounds) == len(pairs)
    for q, (center, rows) in enumerate(pairs):
        earlier = [rounds[p] for p, (other, other_rows) in enumerate(pairs[:q])
                   if other == center or set(other_rows) & set(rows)]
        assert rounds[q] == max(earlier, default=-1) + 1


def test_train_with_empty_blocks_equals_per_pair_reference(monkeypatch):
    """With blocks of a few pairs and heavy subsampling, some blocks keep no
    pair and others do; training still equals the per-pair trainer."""
    monkeypatch.setattr(sgns, "_BLOCK_PAIRS", 8)
    corpus = _hub_corpus()
    cfg = TrainConfig(dimension=8, window=2, negatives=5, epochs=2, initial_lr=0.5, seed=2,
                      subsample_threshold=0.002)
    sizes = [len(counts) for _, counts, _ in _kernel_groups(monkeypatch, corpus, cfg)]
    assert 0 in sizes and max(sizes) > 0
    assert _outcome(train, corpus, cfg) == _outcome(reference_train, corpus, cfg)


def _outcome(trainer, corpus, cfg, *width):
    try:
        matrix = trainer(corpus, cfg, *width)
    except InternalInvariantError as exc:  # diverged at initial_lr 1.0
        return str(exc)
    return (matrix.vectors.tobytes(), matrix.context_vectors.tobytes(),
            matrix.epoch_losses)


def _block_corpus():
    """Walks of 1 to 40 tokens, so that blocks of a few pairs end in
    mid-epoch and hold several walks, some of them left with 0 or 1 tokens
    after subsampling, and a walk longer than the budget is a block by
    itself."""
    walks = _barbell_corpus(walk_length=40, walks_per_node=2).walks
    return WalkCorpus([walk[:length] for walk, length in zip(
        walks, itertools.cycle([1, 2, 3, 1, 2, 5, 40, 4, 2]))])


@pytest.mark.parametrize("block_pairs", [2, 8, 40])
def test_train_equals_reference_across_block_boundaries(monkeypatch, block_pairs):
    """With blocks of a few pairs, training at width 1 stays byte-identical
    to the per-pair trainer."""
    monkeypatch.setattr(sgns, "_BLOCK_PAIRS", block_pairs)
    corpus = _block_corpus()
    lengths = np.array([len(walk) for walk in corpus.walks])
    for window, dynamic_window, threshold, epochs in itertools.product(
            [1, 3], [True, False], [0.0, 0.05], [1, 2, 3]):
        walk_pairs = np.diff(sgns._context_counts(lengths, window)[2])
        blocks = sgns._blocks(walk_pairs)
        assert len(blocks) > 1
        assert any(stop - first > 1 and (lengths[first:stop] < 2).any()
                   for first, stop in blocks)
        assert any(stop - first == 1 and walk_pairs[first] > block_pairs
                   for first, stop in blocks)
        cfg = TrainConfig(dimension=8, window=window, negatives=5, epochs=epochs,
                          initial_lr=0.5, seed=window + epochs,
                          dynamic_window=dynamic_window, subsample_threshold=threshold)
        assert _outcome(train, corpus, cfg) == _outcome(reference_train, corpus, cfg), cfg


@pytest.mark.parametrize("block_pairs, part_batches", [(2, 16), (8, 1), (40, 3)])
def test_batched_train_is_independent_of_blocks(monkeypatch, block_pairs, part_batches):
    """At width 32 a batch never spans two walks, so blocks of a few pairs,
    and parts of a few batches in the kernel, give the bytes of the default
    budgets and of the batched reference."""
    corpus = _block_corpus()
    configs = [TrainConfig(dimension=8, window=window, negatives=5, epochs=2, seed=window,
                           dynamic_window=dynamic_window, subsample_threshold=threshold)
               for window, dynamic_window, threshold in itertools.product(
                   [1, 3], [True, False], [0.0, 0.05])]
    outcomes = [[_outcome(train, corpus, cfg) for cfg in configs]]
    monkeypatch.setattr(sgns, "_BLOCK_PAIRS", block_pairs)
    monkeypatch.setattr(sgns, "_PART_BATCHES", part_batches)
    outcomes.append([_outcome(train, corpus, cfg) for cfg in configs])
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][-1] == _outcome(reference_train, corpus, configs[-1], 32)
