"""Trainer tests: finite-difference gradient oracle, sampler frequencies,
structural quality on the barbell fixture, determinism, and byte identity
with a per-pair reference trainer and numpy's ``Generator`` draws."""

from __future__ import annotations

import numpy as np
import pytest

import itertools

from bimvec import sgns
from bimvec.errors import BimvecError, InternalInvariantError
from bimvec.sgns import (
    EmbeddingMatrix,
    TrainConfig,
    initial_vectors,
    negative_table,
    pair_loss_and_grads,
    train,
)
from bimvec.store import cosine
from bimvec.walks import WalkConfig, WalkCorpus, generate_walks, substream_seed

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

def test_sampler_symmetric_counts():
    draws = negative_table([1, 1]).sample_many(np.random.default_rng(5), 100000)
    assert (draws == 0).mean() == pytest.approx(0.5, abs=0.01)


def test_sampler_three_quarter_power():
    # 16^0.75 = 8, so probabilities are [1/9, 8/9]
    draws = negative_table([1, 16]).sample_many(np.random.default_rng(5), 100000)
    assert (draws == 0).mean() == pytest.approx(1 / 9, abs=0.01)
    assert (draws == 1).mean() == pytest.approx(8 / 9, abs=0.01)


def test_sampler_never_draws_zero_count():
    draws = negative_table([0, 3]).sample_many(np.random.default_rng(5), 50000)
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
        for v in matrix.ids[i + 1:]:
            value = cosine(matrix.vector(u), matrix.vector(v))
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
# random draws: a block's random_raw calls reproduce the Generator calls
# ---------------------------------------------------------------------------

def generator_draws(seed, walk, keep_probability, cfg, vocab_size):
    """The call sequence of the per-pair trainer, through ``Generator``."""
    rng = np.random.default_rng(seed)
    if keep_probability is not None:
        walk = walk[rng.random(len(walk)) < keep_probability[walk]]
    reaches, slots, uniforms = [], [], []
    length = len(walk)
    for pos in range(length if length > 1 else 0):
        reach = int(rng.integers(1, cfg.window + 1)) if cfg.dynamic_window \
            else cfg.window
        reaches.append(reach)
        for _ in range(min(pos, reach) + min(length - 1 - pos, reach)):
            slots.append(rng.integers(0, vocab_size, size=cfg.negatives))
            uniforms.append(rng.random(cfg.negatives))
    return walk, reaches, slots, uniforms


def assert_same_draws(draws, expected):
    walk, reaches, slots, uniforms = draws
    want_walk, want_reaches, want_slots, want_uniforms = expected
    assert walk.tolist() == want_walk.tolist()
    if len(walk) < 2:
        assert len(slots) == len(uniforms) == 0
        return
    assert reaches.tolist() == want_reaches
    assert slots.tolist() == [row.tolist() for row in want_slots]
    assert uniforms.tolist() == [row.tolist() for row in want_uniforms]


def _draw_cases(count, vocab_sizes, subsample=True):
    rng = np.random.default_rng(2024)
    for case in range(count):
        vocab_size = int(rng.choice(vocab_sizes))
        walk = rng.integers(0, min(vocab_size, 100), size=int(rng.integers(0, 30)))
        keep = None
        if subsample and case % 3 == 0:
            keep = rng.random(vocab_size)
        cfg = TrainConfig(window=int(rng.choice([1, 2, 3, 10])),
                          negatives=int(rng.integers(1, 9)),
                          dynamic_window=bool(case % 2))
        yield int(rng.integers(0, 2 ** 63)), walk, keep, cfg, vocab_size


def _block_of(cases):
    """``block_draws`` arguments for the walks of ``cases``, each with its
    own seed, under the first case's config, keep probabilities and
    vocabulary."""
    _, _, keep, cfg, vocab_size = cases[0]
    walks = [walk % vocab_size for _, walk, *_ in cases]
    return ([seed for seed, *_ in cases], np.concatenate(walks),
            np.array([len(walk) for walk in walks], dtype=np.int64), keep, cfg, vocab_size)


def assert_block_replays(block, draws):
    """Compare a block's draws, walk by walk, with each walk's Generator calls."""
    seeds, walks, lengths, keep, cfg, vocab_size = block
    kept, kept_lengths, reaches, slots, uniforms = draws
    assert len(kept_lengths) == len(seeds)
    token = pair = 0
    for seed, walk, length in zip(seeds, np.split(walks, np.cumsum(lengths)[:-1]),
                                  kept_lengths.tolist()):
        expected = generator_draws(seed, walk, keep, cfg, vocab_size)
        pairs = len(expected[2])
        assert_same_draws((kept[token:token + length], reaches[token:token + length],
                           slots[pair:pair + pairs], uniforms[pair:pair + pairs]), expected)
        token, pair = token + length, pair + pairs
    assert (len(kept), len(reaches), len(slots), len(uniforms)) == (token, token, pair, pair)


def _count_fallbacks(monkeypatch) -> list:
    """Record each call of the ``Generator`` fallback, which still runs."""
    calls, fallback = [], sgns._draws_from_generator
    monkeypatch.setattr(sgns, "_draws_from_generator",
                        lambda *args: calls.append(args) or fallback(*args))
    return calls


def test_words_replay_generator_calls(monkeypatch):
    """Reaches, slots and uniforms read from the PCG64 words of a block of
    walks equal each walk's Generator calls, with and without subsampling,
    including a one-node vocabulary and window 1, where a range of one
    consumes nothing, and walks left with 0 or 1 tokens."""
    fallbacks = _count_fallbacks(monkeypatch)
    cases = list(_draw_cases(300, [1, 2, 3, 5, 37, 1000, 65_537]))
    for index, case in enumerate(cases):
        for block in (_block_of([case]), _block_of(cases[index:index + 4])):
            assert_block_replays(block, sgns.block_draws(*block))
    # at these sizes a rejection has odds of about n / 2**32 per draw, and
    # these seeded cases meet none: every block was read from its words
    assert fallbacks == []


def test_bounded_draw_rejects_where_numpy_redraws():
    """At n = 3 * 2**30 a quarter of 32-bit draws are rejected; the accepted
    ones, in order, are what ``integers(0, n)`` returns."""
    n = 3 * 2 ** 30
    for seed in range(20):
        words = np.random.PCG64(seed).random_raw(200)
        halves = np.stack((words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)),
                          axis=1).reshape(-1)
        values, rejected = sgns._bounded(halves, n)
        assert 0.15 < rejected.mean() < 0.35
        accepted = values[~rejected].astype(np.int64)
        expected = np.random.default_rng(seed).integers(0, n, size=len(accepted))
        assert accepted.tolist() == expected.tolist()


def test_walk_with_rejected_draw_uses_generator_calls(monkeypatch):
    """A block with a rejected draw is drawn through the Generator calls,
    also when it mixes rejected walks with clean ones."""
    fallbacks = _count_fallbacks(monkeypatch)
    cases = list(_draw_cases(40, [3 * 2 ** 30], subsample=False))
    for case in cases:
        block = _block_of([case])
        assert_block_replays(block, sgns.block_draws(*block))
    assert len(fallbacks) >= 20
    _, _, keep, cfg, vocab_size = cases[0]
    clean = []
    for seed, walk, *_ in cases:
        before = len(fallbacks)
        sgns.block_draws(*_block_of([(seed, walk, keep, cfg, vocab_size)]))
        clean.append(len(fallbacks) == before)
    assert any(clean) and not all(clean)
    mixed = _block_of(cases)
    before = len(fallbacks)
    assert_block_replays(mixed, sgns.block_draws(*mixed))
    assert len(fallbacks) == before + 1


# ---------------------------------------------------------------------------
# byte identity with the per-pair reference trainer
# ---------------------------------------------------------------------------

def reference_train(corpus: WalkCorpus, cfg: TrainConfig) -> EmbeddingMatrix:
    """SGNS one (center, context) pair at a time: one ``sample_many`` call
    on the negative table, one ``pair_loss_and_grads`` call and one
    ``np.add.at`` each."""
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
    for epoch in range(cfg.epochs):
        loss_total, pair_total = 0.0, 0
        for walk_index, walk in enumerate(walks):
            rng = np.random.default_rng(substream_seed(cfg.seed, epoch, walk_index))
            progress = offset
            offset += walk_pairs(len(walk))
            if keep_probability is not None:
                walk = walk[rng.random(len(walk)) < keep_probability[walk]]
            loss_sum = 0.0
            length = len(walk)
            for pos in range(length):
                full = full_pairs(length, pos)
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
                    negatives = table.sample_many(rng, cfg.negatives)
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
                f"non-finite embedding entries after epoch {epoch}")
    return matrix


_STAR = next(graph for graph in SMALL_GRAPHS if graph[0] == "star5")
_IDENTITY_CORPORA = {
    "barbell": lambda: _barbell_corpus(walk_length=12, walks_per_node=1),
    "star5": lambda: generate_walks(graph_from_edges(*_STAR[1:]), WalkConfig(
        walk_length=12, walks_per_node=2, seed=4)),
}


@pytest.mark.parametrize("dynamic_window", [True, False], ids=["dynamic", "fixed"])
@pytest.mark.parametrize("window", [1, 3, 10])
@pytest.mark.parametrize("corpus_name", sorted(_IDENTITY_CORPORA))
def test_train_equals_per_pair_reference(corpus_name, window, dynamic_window):
    """Vectors, context vectors and epoch losses are byte-identical to the
    per-pair trainer's over subsampling, negatives, epochs and learning
    rates; on star5 negatives often equal the positive and repeat."""
    corpus = _IDENTITY_CORPORA[corpus_name]()
    with np.errstate(over="ignore", invalid="ignore"):
        for threshold, negatives, epochs, initial_lr in itertools.product(
                [0.0, 0.05], [1, 5, 7], [1, 2, 3], [0.025, 1.0]):
            cfg = TrainConfig(dimension=8, window=window, negatives=negatives,
                              epochs=epochs, initial_lr=initial_lr, seed=window + negatives,
                              dynamic_window=dynamic_window,
                              subsample_threshold=threshold)
            assert _outcome(train, corpus, cfg) == _outcome(reference_train, corpus, cfg), cfg


def _outcome(trainer, corpus, cfg):
    try:
        matrix = trainer(corpus, cfg)
    except InternalInvariantError as exc:  # diverged at initial_lr 1.0
        return str(exc)
    return (matrix.vectors.tobytes(), matrix.context_vectors.tobytes(),
            matrix.epoch_losses)


@pytest.mark.parametrize("block_pairs", [2, 8, 40])
def test_train_equals_reference_across_block_boundaries(monkeypatch, block_pairs):
    """With blocks of a few pairs, training stays byte-identical to the
    per-pair trainer: blocks end in mid-epoch, hold several walks, some of
    them left with 0 or 1 tokens after subsampling, and a walk longer than
    the budget is a block by itself."""
    monkeypatch.setattr(sgns, "_BLOCK_PAIRS", block_pairs)
    walks = _barbell_corpus(walk_length=40, walks_per_node=2).walks
    corpus = WalkCorpus([walk[:length] for walk, length in zip(
        walks, itertools.cycle([1, 2, 3, 1, 2, 5, 40, 4, 2]))])
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
                          seed=window + epochs, dynamic_window=dynamic_window,
                          subsample_threshold=threshold)
        assert _outcome(train, corpus, cfg) == _outcome(reference_train, corpus, cfg), cfg
