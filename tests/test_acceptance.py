"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected value here is produced by an independent oracle (brute-force
rule evaluation, finite differences, hand-built structures) or was verified
by hand before being frozen.
"""

from __future__ import annotations

import numpy as np
import pytest
from click.testing import CliRunner

from bimvec.cli import main
from bimvec.graph import PropertyGraph
from bimvec.sgns import TrainConfig, pair_loss_and_grads, train
from bimvec.step_parser import parse_step, parse_step_file, serialize_step, validate_references
from bimvec.store import LabeledExample, cosine, predict_comfort
from bimvec.temporal import adjacency_tensor, build_snapshots, flatten
from bimvec.walks import (
    AliasTable,
    WalkConfig,
    WalkSampler,
    generate_walks,
    transition_distribution,
)

from conftest import (
    P_Q_GRID,
    SMALL_GRAPHS,
    build_two_space_graph,
    graph_from_edges,
    make_barbell,
)
from test_sgns import finite_difference, reference_loss
from test_store import make_matrix
from test_temporal import CELL_A, CELL_B, move_fixes, two_cell_base

# ---------------------------------------------------------------------------
# criterion 1: transition oracle equivalence
# ---------------------------------------------------------------------------

def _brute_force_distribution(edge_list, prev, curr, p, q):
    """Evaluate the bias rule straight off the raw edge list."""
    weight_of: dict[str, dict[str, float]] = {}
    for u, v, w in edge_list:
        weight_of.setdefault(u, {}).setdefault(v, 0.0)
        weight_of.setdefault(v, {}).setdefault(u, 0.0)
        weight_of[u][v] += w
        weight_of[v][u] += w
    unnormalized = {}
    for x, w in weight_of[curr].items():
        if prev is None:
            unnormalized[x] = w
        elif x == prev:
            unnormalized[x] = w / p
        elif prev in weight_of.get(x, {}):
            unnormalized[x] = w
        else:
            unnormalized[x] = w / q
    total = sum(unnormalized.values())
    return {x: value / total for x, value in unnormalized.items()}


def test_criterion_1_transition_oracle_equivalence():
    checked = 0
    for name, nodes, edge_list in SMALL_GRAPHS:
        assert len(nodes) <= 8
        graph = graph_from_edges(nodes, edge_list)
        for p, q in P_Q_GRID:
            for curr in nodes:
                neighbors = graph.neighbors(curr)
                if not neighbors:
                    continue
                for prev in [None] + neighbors:
                    expected = _brute_force_distribution(
                        edge_list, prev, curr, p, q)
                    got = dict(transition_distribution(graph, prev, curr, p, q))
                    assert set(got) == set(expected), (name, prev, curr)
                    for node, probability in got.items():
                        assert probability == pytest.approx(
                            expected[node], abs=1e-12), (name, prev, curr, node)
                    checked += 1
    print(f"ACCEPTANCE 1 PASS: transition oracle equivalence "
          f"({checked} (prev,curr) distributions within 1e-12)")


# ---------------------------------------------------------------------------
# criterion 2: alias sampling fidelity
# ---------------------------------------------------------------------------

def test_criterion_2_alias_sampling_fidelity():
    rng = np.random.default_rng(2024)
    draws = 100_000
    worst = 0.0
    for _ in range(20):
        size = int(rng.integers(1, 17))
        weights = rng.random(size) + 1e-3
        exact = weights / weights.sum()
        table = AliasTable.build(list(weights))
        samples = table.sample_many(rng, draws)
        empirical = np.bincount(samples, minlength=size) / draws
        tv = 0.5 * np.abs(empirical - exact).sum()
        worst = max(worst, tv)
        assert tv <= 0.02
    print(f"ACCEPTANCE 2 PASS: alias sampling fidelity "
          f"(20 distributions, worst TV distance {worst:.4f} <= 0.02)")


# ---------------------------------------------------------------------------
# criterion 3: SGNS gradient check
# ---------------------------------------------------------------------------

def test_criterion_3_gradient_check():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        center = rng.normal(size=8)
        positive = rng.normal(size=8)
        negatives = rng.normal(size=(int(rng.integers(1, 6)), 8))
        _, grad_c, grad_p, grad_n = pair_loss_and_grads(center, positive, negatives)
        fd_c = finite_difference(
            lambda x: reference_loss(x, positive, negatives), center)
        fd_p = finite_difference(
            lambda x: reference_loss(center, x, negatives), positive)
        fd_n = finite_difference(
            lambda x: reference_loss(center, positive, x), negatives)
        for analytic, numeric in ((grad_c, fd_c), (grad_p, fd_p), (grad_n, fd_n)):
            err = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            worst = max(worst, err)
            assert err < 1e-4
    print(f"ACCEPTANCE 3 PASS: gradient check "
          f"(100 triples, worst relative error {worst:.2e} < 1e-4)")


# ---------------------------------------------------------------------------
# criterion 4: community structure in the embeddings
# ---------------------------------------------------------------------------

def _group_means(matrix, group_of):
    within, cross = [], []
    grouped = [nid for nid in matrix.ids if group_of(nid) is not None]
    for i, u in enumerate(grouped):
        for v in grouped[i + 1:]:
            value = cosine(matrix.vector(u), matrix.vector(v))
            (within if group_of(u) == group_of(v) else cross).append(value)
    return float(np.mean(within)), float(np.mean(cross))


def _community_wins(graph, group_of, walk_args, train_args, runs=100):
    sampler = WalkSampler(graph, 1.0, 1.0)
    wins = 0
    for seed in range(runs):
        corpus = generate_walks(graph, WalkConfig(seed=seed, **walk_args),
                                sampler=sampler)
        matrix = train(corpus, TrainConfig(dimension=16, seed=seed,
                                           **train_args))
        within, cross = _group_means(matrix, group_of)
        wins += within > cross
    return wins


def test_criterion_4_community_structure():
    barbell_wins = _community_wins(
        make_barbell(),
        lambda nid: nid[0],
        dict(walk_length=20, walks_per_node=5),
        dict(window=5, epochs=3),
    )
    assert barbell_wins >= 95

    def cell_space(nid):
        if nid.startswith("cell:5:"):
            return "5"
        if nid.startswith("cell:7:"):
            return "7"
        return None

    building = build_two_space_graph()
    assert sum(1 for n in building.node_ids() if cell_space(n) == "5") >= 9
    assert sum(1 for n in building.node_ids() if cell_space(n) == "7") >= 9
    building_wins = _community_wins(
        building,
        cell_space,
        dict(walk_length=20, walks_per_node=4),
        dict(window=5, epochs=2),
    )
    assert building_wins >= 95
    print(f"ACCEPTANCE 4 PASS: community structure "
          f"(barbell {barbell_wins}/100, two-space {building_wins}/100 "
          f"runs with within-group mean cosine above cross-group)")


# ---------------------------------------------------------------------------
# criterion 5: temporal correctness
# ---------------------------------------------------------------------------

def test_criterion_5_temporal_correctness():
    base, space = two_cell_base()
    tg = build_snapshots(base, [space], [], move_fixes(), 60,
                         occupant_radius=0.5)
    export = adjacency_tensor(tg)
    index = {nid: i for i, nid in enumerate(export.manifest["node_index"])}
    a, b = index[CELL_A], index[CELL_B]
    occupant, sensor = index["occupant:alice"], index["sensor:s1"]

    def rec(t, i, j, w=1.0):
        return (t, min(i, j), max(i, j), w)

    expected = sorted([
        rec(0, a, b), rec(0, a, sensor), rec(0, a, occupant),
        rec(1, a, b), rec(1, a, sensor), rec(1, b, occupant),
    ])
    assert export.records == expected

    union = flatten(tg, "union")
    weights = {(e.a, e.b): e.weight for e in union.edges()
               if "occupant:alice" in (e.a, e.b)}
    assert weights == {(CELL_A, "occupant:alice"): 0.5,
                       (CELL_B, "occupant:alice"): 0.5}
    print("ACCEPTANCE 5 PASS: temporal correctness "
          "(tensor slices match the hand-built coordinate list; "
          "union weights are 0.5)")


# ---------------------------------------------------------------------------
# criterion 6: one-hot prediction contract
# ---------------------------------------------------------------------------

def test_criterion_6_one_hot_contract():
    classes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rng = np.random.default_rng(606)
    outputs = 0
    for _ in range(60):
        size = int(rng.integers(3, 14))
        ids = [f"n{i}" for i in range(size)]
        matrix = make_matrix({nid: rng.normal(size=6).tolist() for nid in ids})
        labeled = [LabeledExample(nid, classes[int(rng.integers(0, 3))])
                   for nid in ids[: int(rng.integers(1, size))]]
        query = ids[int(rng.integers(0, size))]
        result = predict_comfort(matrix, labeled, query, int(rng.integers(1, 7)))
        assert tuple(result) in classes
        outputs += 1

    majority = make_matrix({
        "q": [1, 0], "n1": [0.99, 0.01], "n2": [0.98, 0.02], "n3": [0.97, 0.03],
    })
    labeled = [LabeledExample("n1", (1, 0, 0)),
               LabeledExample("n2", (1, 0, 0)),
               LabeledExample("n3", (0, 0, 1))]
    assert predict_comfort(majority, labeled, "q", 3) == (1, 0, 0)
    print(f"ACCEPTANCE 6 PASS: one-hot contract "
          f"({outputs} randomized predictions all one-hot; "
          f"majority-vote example gives [1,0,0])")


# ---------------------------------------------------------------------------
# criterion 7: parser round trip
# ---------------------------------------------------------------------------

def test_criterion_7_parser_round_trip(data_dir):
    names = ["minimal.ifc", "empty.ifc", "values.ifc", "two_space.ifc",
             "dangling.ifc"]
    for name in names:
        model = parse_step_file(data_dir / name)
        again = parse_step(serialize_step(model))
        assert again.entities == model.entities, name
        assert again.header == model.header, name
    assert validate_references(parse_step_file(data_dir / "dangling.ifc")) \
        == [(10, 99), (11, 98)]
    print(f"ACCEPTANCE 7 PASS: parser round trip "
          f"({len(names)} fixtures field-identical; dangling pairs exact)")


# ---------------------------------------------------------------------------
# criterion 8: end-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_8_end_to_end_determinism(data_dir, tmp_path):
    runner = CliRunner()
    graph_path = tmp_path / "graph.tsv"
    result = runner.invoke(main, [
        "graph", str(data_dir / "two_space.ifc"),
        "--footprints", str(data_dir / "two_space.footprints.json"),
        "--sensors", str(data_dir / "two_space.sensors.json"),
        "--out", str(graph_path), "--cell-size", "2.0",
    ])
    assert result.exit_code == 0, result.output

    def embed(out_dir, workers):
        result = runner.invoke(main, [
            "embed", str(graph_path), "--out", str(out_dir),
            "--dimension", "8", "--window", "4", "--epochs", "2",
            "--walk-length", "10", "--walks-per-node", "2",
            "--walk-seed", "7", "--train-seed", "7",
            "--workers", str(workers), "--deterministic",
        ])
        assert result.exit_code == 0, result.output
        return ((out_dir / "checkpoint.bin").read_bytes(),
                (out_dir / "vectors.tsv").read_bytes())

    first = embed(tmp_path / "run1", workers=1)
    second = embed(tmp_path / "run2", workers=1)
    across_workers = embed(tmp_path / "run3", workers=4)
    assert first == second == across_workers

    graph = PropertyGraph.from_text(graph_path.read_text())
    cfg = WalkConfig(walk_length=10, walks_per_node=2, seed=7)
    corpora = {generate_walks(graph, cfg, workers=w).to_text()
               for w in (1, 2, 5)}
    assert len(corpora) == 1
    print("ACCEPTANCE 8 PASS: end-to-end determinism "
          "(checkpoints byte-identical across runs and worker counts)")
