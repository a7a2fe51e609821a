"""Second-order biased random walks by rejection sampling.

The bias rule for the step after (prev -> curr): a neighbor x of curr gets
unnormalized weight w(curr,x)/p when x == prev, w(curr,x) when x is also a
neighbor of prev, and w(curr,x)/q otherwise; the first step of a walk is
plain weight-proportional. Setting p = q = 1 recovers first-order walks.

Sampling follows KnightKing (Yang et al., SOSP 2019): a step draws x from
the first-order alias table of curr and accepts it with probability
bias(x) / max(1, 1/p, 1/q), where bias(x) is 1/p, 1 or 1/q as above. The
only state is one alias table per node, so memory is O(E). A step takes at
most max(1, 1/p, 1/q) / min(1, 1/p, 1/q) draws in expectation. p and q are
held to [0.1, 10] so that this bound is at most 100 on any graph: with
q -> 0, say, a step whose candidates all lie next to prev would be accepted
with probability about q and could run for arbitrarily many draws.

Determinism: every walk owns a PRNG substream derived by hashing
(seed, start node, walk index) with SHA-256 and feeding the first 8 bytes
to ``random.Random`` (Mersenne Twister). Corpora are therefore bit-identical
across runs.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import BimvecError
from .graph import NodeId, PropertyGraph

# Allowed range of the return (p) and in-out (q) parameters; it bounds the
# expected number of rejection trials per step by P_Q_MAX / P_Q_MIN = 100.
P_Q_MIN = 0.1
P_Q_MAX = 10.0


def _check_p_q(p: float, q: float) -> None:
    if not (P_Q_MIN <= p <= P_Q_MAX and P_Q_MIN <= q <= P_Q_MAX):
        raise ValueError(f"p and q must lie in [{P_Q_MIN}, {P_Q_MAX}], "
                         f"got p={p}, q={q}")


@dataclass(frozen=True)
class WalkConfig:
    p: float = 1.0
    q: float = 1.0
    walk_length: int = 80
    walks_per_node: int = 10
    seed: int = 0

    def __post_init__(self):
        _check_p_q(self.p, self.q)
        if self.walk_length < 1:
            raise ValueError("walk_length must be >= 1")
        if self.walks_per_node < 1:
            raise ValueError("walks_per_node must be >= 1")


# ---------------------------------------------------------------------------
# Alias tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AliasTable:
    """Vose alias table over k outcomes; drawing costs two uniforms."""

    prob: tuple[float, ...]
    alias: tuple[int, ...]

    @classmethod
    def build(cls, probabilities: Sequence[float]) -> "AliasTable":
        k = len(probabilities)
        if k == 0:
            raise ValueError("cannot build an alias table over zero outcomes")
        if not all(math.isfinite(p) and p >= 0 for p in probabilities):
            raise ValueError("probabilities must be finite and non-negative")
        total = float(sum(probabilities))
        if not (0 < total < math.inf):
            raise ValueError("probabilities must sum to a finite positive value")
        scaled = [p * k / total for p in probabilities]
        prob = [0.0] * k
        alias = list(range(k))
        small = [i for i, s in enumerate(scaled) if s < 1.0]
        large = [i for i, s in enumerate(scaled) if s >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] = scaled[l] - (1.0 - scaled[s])
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        for leftover in large + small:
            prob[leftover] = 1.0
        return cls(tuple(prob), tuple(alias))

    def __len__(self) -> int:
        return len(self.prob)

    def draw(self, rng) -> int:
        """One outcome index; ``rng`` needs only a ``random()`` method."""
        slot = int(rng.random() * len(self.prob))
        return slot if rng.random() < self.prob[slot] else self.alias[slot]

    @functools.cached_property
    def _arrays(self):
        import numpy as np

        return np.asarray(self.prob), np.asarray(self.alias)

    def sample_many(self, rng, count: int):
        """Vectorized draws; ``rng`` must be a numpy Generator."""
        slots = rng.integers(0, len(self.prob), size=count)
        return self.resolve(slots, rng.random(count))

    def resolve(self, slots, uniforms):
        """Outcomes of numpy draws: a slot keeps itself when its uniform is
        below the slot's probability and falls to its alias otherwise."""
        import numpy as np

        prob, alias = self._arrays
        return np.where(uniforms < prob[slots], slots, alias[slots])

    def outcome_probabilities(self) -> list[float]:
        """Reconstruct the distribution the table encodes (oracle hook)."""
        k = len(self.prob)
        out = [0.0] * k
        for i in range(k):
            out[i] += self.prob[i] / k
            out[self.alias[i]] += (1.0 - self.prob[i]) / k
        return out


# ---------------------------------------------------------------------------
# Transition distributions
# ---------------------------------------------------------------------------

def transition_distribution(
    graph: PropertyGraph,
    prev: NodeId | None,
    curr: NodeId,
    p: float,
    q: float,
) -> list[tuple[NodeId, float]]:
    """Next-step distribution from ``curr`` given the walk came from ``prev``
    (``None`` marks a first step). Neighbors in ascending id order;
    probabilities sum to 1 within 1e-12."""
    weights = graph.neighbor_weights(curr)
    if not weights:
        raise BimvecError(f"node {curr!r} has no neighbors")
    neighbors = sorted(weights)
    if prev is None:
        unnormalized = [weights[x] for x in neighbors]
    else:
        around_prev = graph.adjacency()[prev]
        unnormalized = []
        for x in neighbors:
            w = weights[x]
            if x == prev:
                unnormalized.append(w / p)
            elif x in around_prev:
                unnormalized.append(w)
            else:
                unnormalized.append(w / q)
    total = sum(unnormalized)
    return [(x, u / total) for x, u in zip(neighbors, unnormalized)]


class WalkSampler:
    """Rejection sampler for one (graph, p, q) triple.

    Keeps, per node with neighbors, its sorted neighbors, a first-order alias
    table over their weights, and its dict of ``graph.adjacency()``, used to
    test whether a candidate is adjacent to the previous node. ``step`` draws a
    candidate from the table of ``curr`` and accepts it with probability
    bias / upper, upper = max(1, 1/p, 1/q); accepted draws then follow
    ``transition_distribution`` exactly. A step takes at most
    upper / min(1, 1/p, 1/q) <= 100 draws in expectation for p and q in
    [0.1, 10]; at p = q = 1 it takes one draw and no second uniform.
    """

    def __init__(self, graph: PropertyGraph, p: float, q: float):
        if len(graph) == 0:
            raise ValueError("graph is empty")
        _check_p_q(p, q)
        self.inv_p = 1.0 / p
        self.inv_q = 1.0 / q
        self.upper = max(1.0, self.inv_p, self.inv_q)
        self.tables: dict[
            NodeId, tuple[tuple[NodeId, ...], AliasTable, dict[NodeId, float]]
        ] = {}
        adjacency = graph.adjacency()
        for node_id in graph.node_ids():
            weights = adjacency[node_id]
            if weights:
                neighbors = tuple(sorted(weights))
                table = AliasTable.build([weights[x] for x in neighbors])
                self.tables[node_id] = (neighbors, table, weights)

    def has_neighbors(self, node_id: NodeId) -> bool:
        return node_id in self.tables

    def first_step(self, curr: NodeId, rng) -> NodeId:
        neighbors, table, _ = self.tables[curr]
        return neighbors[table.draw(rng)]

    def step(self, prev: NodeId, curr: NodeId, rng) -> NodeId:
        neighbors, table, _ = self.tables[curr]
        around_prev = self.tables[prev][2]
        upper = self.upper
        while True:
            x = neighbors[table.draw(rng)]
            if x == prev:
                bias = self.inv_p
            elif x in around_prev:
                bias = 1.0
            else:
                bias = self.inv_q
            # rng.random() * upper < upper always holds, so skip that draw.
            if bias == upper or rng.random() * upper < bias:
                return x


# ---------------------------------------------------------------------------
# Walk generation
# ---------------------------------------------------------------------------

@dataclass
class WalkCorpus:
    walks: list[list[NodeId]]

    def to_text(self) -> str:
        return "\n".join(" ".join(walk) for walk in self.walks) + "\n"


def substream_seed(*parts) -> int:
    """One PRNG seed per substream: the first 8 bytes of the SHA-256 of the
    parts joined by ``|``."""
    digest = hashlib.sha256("|".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def generate_walks(
    graph: PropertyGraph,
    cfg: WalkConfig,
    workers: int = 1,
    sampler: WalkSampler | None = None,
) -> WalkCorpus:
    """``walks_per_node`` walks from every node, each ``walk_length`` nodes
    long unless truncated at an isolated node.

    ``workers`` must be >= 1 but no longer changes anything: the step loop is
    Python code, and threads running it were about 2x slower than one.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if sampler is None:
        sampler = WalkSampler(graph, cfg.p, cfg.q)
    walks = []
    for start in graph.node_ids():
        for index in range(cfg.walks_per_node):
            rng = random.Random(substream_seed(cfg.seed, start, index))
            walk = [start]
            while len(walk) < cfg.walk_length:
                curr = walk[-1]
                if not sampler.has_neighbors(curr):
                    break
                if len(walk) == 1:
                    walk.append(sampler.first_step(curr, rng))
                else:
                    walk.append(sampler.step(walk[-2], curr, rng))
            walks.append(walk)
    return WalkCorpus(walks)
