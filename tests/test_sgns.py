"""Trainer tests: finite-difference gradient oracle, sampler frequencies,
structural quality on the barbell fixture, and determinism."""

from __future__ import annotations

import numpy as np
import pytest

from bimvec.errors import AllZeroCountsError, EmptyCorpusError
from bimvec.sgns import (
    EmbeddingMatrix,
    NegativeSampler,
    TrainConfig,
    initial_vectors,
    pair_loss_and_grads,
    train,
)
from bimvec.store import cosine
from bimvec.walks import WalkConfig, WalkCorpus, generate_walks

from conftest import make_barbell


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
    sampler = NegativeSampler([1, 1], seed=5)
    draws = sampler.sample(100000)
    assert (draws == 0).mean() == pytest.approx(0.5, abs=0.01)


def test_sampler_three_quarter_power():
    # 16^0.75 = 8, so probabilities are [1/9, 8/9]
    sampler = NegativeSampler([1, 16], seed=5)
    draws = sampler.sample(100000)
    assert (draws == 0).mean() == pytest.approx(1 / 9, abs=0.01)
    assert (draws == 1).mean() == pytest.approx(8 / 9, abs=0.01)


def test_sampler_never_draws_zero_count():
    sampler = NegativeSampler([0, 3], seed=5)
    draws = sampler.sample(50000)
    assert not (draws == 0).any()


def test_sampler_rejects_all_zero():
    with pytest.raises(AllZeroCountsError):
        NegativeSampler([0, 0, 0])


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpusError):
        train(WalkCorpus([], {}, {}), TrainConfig(dimension=4))


def test_single_length_one_walk_returns_initialization():
    corpus = WalkCorpus.from_walks([["solo"]])
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
    cfg = TrainConfig(dimension=8, window=4, epochs=2, seed=9, deterministic=True)
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
    assert matrix.vectors.shape == (len(corpus.vocabulary), 4)
    assert matrix.ids == sorted(corpus.vocabulary)


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
