"""Similarity, prediction, and projector export tests."""

from __future__ import annotations

import re

import numpy as np
import pytest

from bimvec.errors import BimvecError
from bimvec.graph import PropertyGraph
from bimvec.store import (
    EmbeddingMatrix,
    LabeledExample,
    export_projector,
    knn,
    load_labeled_csv,
    predict_comfort,
    similarities,
)


def make_matrix(rows: dict[str, list[float]],
                labels: dict[str, str] | None = None) -> EmbeddingMatrix:
    ids = list(rows)
    vectors = np.asarray([rows[nid] for nid in ids], dtype=np.float32)
    return EmbeddingMatrix(vectors, np.zeros_like(vectors), ids, labels or {})


# ---------------------------------------------------------------------------
# similarities
# ---------------------------------------------------------------------------

def test_similarities_identity():
    matrix = make_matrix({"q": [0.3, -1.2, 4.0]})
    assert similarities(matrix, "q")[0] == pytest.approx(1.0, abs=1e-12)


def test_similarities_orthogonal():
    assert similarities(make_matrix({"a": [1, 0], "b": [0, 1]}), "a")[1] == 0.0


def test_similarities_45_degrees():
    assert similarities(make_matrix({"a": [1, 0], "b": [1, 1]}), "a")[1] == pytest.approx(
        0.7071067811865475, abs=1e-9)


def test_similarities_zero_query_rejected():
    matrix = make_matrix({"a": [1, 1], "z": [0, 0]})
    with pytest.raises(BimvecError, match="^'z' has a zero vector$"):
        similarities(matrix, "z")


def test_zero_row_scores_minus_inf_and_is_never_ranked():
    matrix = make_matrix({"q": [1, 0], "z": [0, 0], "a": [0, 1]})
    assert similarities(matrix, "q")[1] == -np.inf
    assert [nid for nid, _ in knn(matrix, "q", 5).neighbors] == ["a"]


# ---------------------------------------------------------------------------
# knn
# ---------------------------------------------------------------------------

def test_knn_three_node_example():
    matrix = make_matrix({"1": [1, 0], "2": [0.9, 0.1], "3": [0, 1]})
    result = knn(matrix, "1", 1)
    assert result.neighbors[0][0] == "2"


def test_knn_large_k_returns_full_ranking():
    matrix = make_matrix({"1": [1, 0], "2": [0.9, 0.1], "3": [0, 1]})
    result = knn(matrix, "1", 99)
    assert [nid for nid, _ in result.neighbors] == ["2", "3"]


def test_knn_similarities_sorted_and_bounded():
    matrix = make_matrix({
        "a": [1, 0], "b": [0.5, 0.5], "c": [-1, 0], "d": [0, 1],
    })
    result = knn(matrix, "a", 3)
    sims = [s for _, s in result.neighbors]
    assert sims == sorted(sims, reverse=True)
    assert all(-1.0 - 1e-9 <= s <= 1.0 + 1e-9 for s in sims)
    assert all(nid != "a" for nid, _ in result.neighbors)


def test_knn_label_filter():
    matrix = make_matrix(
        {"c1": [1, 0], "w1": [0.99, 0.01], "c2": [0.5, 0.5]},
        labels={"c1": "CELL", "c2": "CELL", "w1": "IFCWALL"},
    )
    result = knn(matrix, "c1", 5, label_filter={"CELL"})
    assert [nid for nid, _ in result.neighbors] == ["c2"]


def test_knn_tie_breaks_by_ascending_node_id():
    matrix = make_matrix({"q": [1, 0], "z": [2, 0], "a": [3, 0]})
    result = knn(matrix, "q", 2)
    assert [nid for nid, _ in result.neighbors] == ["a", "z"]


def test_knn_invariant_to_insertion_order():
    rows = {"a": [3.0, 0.0], "b": [1.0, 1.0], "q": [1.0, 0.0], "z": [0.0, 2.0]}
    forward = make_matrix(rows)
    backward = make_matrix(dict(reversed(list(rows.items()))))
    assert knn(forward, "q", 3).neighbors == knn(backward, "q", 3).neighbors


def test_knn_unknown_query():
    matrix = make_matrix({"a": [1, 0]})
    with pytest.raises(BimvecError, match="^'ghost' is not in the vocabulary$"):
        knn(matrix, "ghost", 1)


# ---------------------------------------------------------------------------
# predict_comfort
# ---------------------------------------------------------------------------

def test_majority_vote():
    matrix = make_matrix({
        "q": [1, 0], "n1": [0.99, 0.01], "n2": [0.98, 0.02],
        "n3": [0.97, 0.03],
    })
    labeled = [
        LabeledExample("n1", (1, 0, 0)),
        LabeledExample("n2", (1, 0, 0)),
        LabeledExample("n3", (0, 0, 1)),
    ]
    assert predict_comfort(matrix, labeled, "q", 3) == (1, 0, 0)


def test_single_labeled_example_wins():
    matrix = make_matrix({"q": [1, 0], "far": [-1, 0]})
    labeled = [LabeledExample("far", (0, 1, 0))]
    assert predict_comfort(matrix, labeled, "q", 5) == (0, 1, 0)


def test_vote_tie_broken_by_similarity():
    # similarity to q: near ~0.9, far ~0.2
    matrix = make_matrix({
        "q": [1.0, 0.0],
        "near": [0.9, 0.43589],
        "far": [0.2, 0.9798],
    })
    labeled = [
        LabeledExample("near", (0, 0, 1)),
        LabeledExample("far", (0, 1, 0)),
    ]
    assert predict_comfort(matrix, labeled, "q", 2) == (0, 0, 1)


def test_full_tie_falls_back_to_class_order():
    matrix = make_matrix({"q": [1, 0], "u": [0, 1], "v": [0, -1]})
    labeled = [
        LabeledExample("u", (0, 0, 1)),
        LabeledExample("v", (0, 1, 0)),
    ]
    # both neighbors have similarity 0; uncomfortable precedes neutral
    assert predict_comfort(matrix, labeled, "q", 2) == (0, 1, 0)


def test_prediction_always_one_hot_random_sweep():
    rng = np.random.default_rng(123)
    classes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for trial in range(30):
        size = int(rng.integers(3, 12))
        ids = [f"n{i}" for i in range(size)]
        rows = {nid: rng.normal(size=4).tolist() for nid in ids}
        matrix = make_matrix(rows)
        labeled = [
            LabeledExample(nid, classes[int(rng.integers(0, 3))])
            for nid in ids[: int(rng.integers(1, size))]
        ]
        query = ids[int(rng.integers(0, size))]
        k = int(rng.integers(1, 6))
        result = predict_comfort(matrix, labeled, query, k)
        assert tuple(result) in classes


def test_predict_requires_labeled_examples():
    matrix = make_matrix({"a": [1, 0]})
    with pytest.raises(BimvecError, match="^need at least one labeled example$"):
        predict_comfort(matrix, [], "a", 1)


def test_labeled_example_validates_one_hot():
    with pytest.raises(ValueError):
        LabeledExample("n", (1, 1, 0))


# ---------------------------------------------------------------------------
# projector export
# ---------------------------------------------------------------------------

def test_export_shapes(tmp_path):
    matrix = make_matrix({"a": [1.0, 2.0], "b": [3.0, 4.0]})
    vectors_path, metadata_path = export_projector(matrix, None, tmp_path)
    vector_lines = open(vectors_path).read().splitlines()
    metadata_lines = open(metadata_path).read().splitlines()
    assert len(vector_lines) == 2
    assert all(len(line.split("\t")) == 2 for line in vector_lines)
    assert metadata_lines[0] == "node_id\tlabel\tifc_type"
    assert len(metadata_lines) == 3


def test_metadata_rows_align_with_vectors(tmp_path):
    graph = PropertyGraph()
    graph.add_node("10", "IFCWALL")
    graph.add_node("cell:5:0:0", "CELL")
    matrix = make_matrix({"10": [1.0, 0.0], "cell:5:0:0": [0.0, 1.0]})
    vectors_path, metadata_path = export_projector(matrix, graph, tmp_path)
    vectors = np.loadtxt(vectors_path, delimiter="\t", ndmin=2)
    metadata = [line.split("\t") for line
                in open(metadata_path).read().splitlines()[1:]]
    for row_index, (node_id, label, ifc_type) in enumerate(metadata):
        assert np.allclose(vectors[row_index],
                           matrix.vectors[matrix.vocabulary[node_id]], atol=1e-6)
        assert label == graph.node(node_id).label
        assert ifc_type == ("IFCWALL" if node_id == "10" else "")


def test_reimported_cosines_match(tmp_path):
    rng = np.random.default_rng(5)
    rows = {f"n{i}": rng.normal(size=6).tolist() for i in range(8)}
    matrix = make_matrix(rows)
    vectors_path, _ = export_projector(matrix, None, tmp_path)
    reloaded = make_matrix(dict(zip(matrix.ids, np.loadtxt(
        vectors_path, delimiter="\t", ndmin=2).tolist())))
    for nid in matrix.ids:
        assert similarities(reloaded, nid) == pytest.approx(similarities(matrix, nid), abs=1e-6)


def test_round_trip_preserves_ranking(tmp_path):
    rng = np.random.default_rng(17)
    rows = {f"n{i}": rng.normal(size=5).tolist() for i in range(10)}
    matrix = make_matrix(rows)
    vectors_path, _ = export_projector(matrix, None, tmp_path)
    reloaded_rows = {nid: vec.tolist() for nid, vec
                     in zip(matrix.ids, np.loadtxt(vectors_path, delimiter="\t", ndmin=2))}
    reloaded = make_matrix(reloaded_rows)
    want = [nid for nid, _ in knn(matrix, "n0", 9).neighbors]
    got = [nid for nid, _ in knn(reloaded, "n0", 9).neighbors]
    assert want == got


def test_load_labeled_csv(data_dir):
    examples = load_labeled_csv(data_dir / "labels.csv")
    assert [e.node for e in examples] == ["occupant:alice", "occupant:bob"]
    assert examples[0].one_hot == (1, 0, 0)
    assert examples[1].one_hot == (0, 1, 0)


def test_save_rejects_an_id_too_long_for_a_checkpoint(tmp_path):
    node_id = "n" * 70_001
    message = (f"node {node_id[:40] + '...'!r}: its id is 70,001 UTF-8 bytes; "
               "a checkpoint holds at most 65,535")
    with pytest.raises(BimvecError, match=f"^{re.escape(message)}$"):
        make_matrix({node_id: [1.0, 0.0]}).save(tmp_path / "checkpoint.bin")
    assert list(tmp_path.iterdir()) == []
