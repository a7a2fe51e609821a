"""Output checks for the benchmark's CLI and traced runs.

Each check returns a list of problems (empty when the output is right). The
expected figures come from the input generators or from properties the
method must have; no check compares against a stored copy of earlier output.
Files are read with plain string handling and numpy, not through bimvec.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

CLASS_NAMES = ("comfortable", "uncomfortable", "neutral")


def _fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        parts = line.split("\t")
        if len(parts) == 2:
            out.setdefault(parts[0], parts[1])
    return out


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_parse(stdout: str, expected: dict) -> list[str]:
    problems: list[str] = []
    fields = _fields(stdout)
    _expect(problems, "entities", fields.get("entities"), str(expected["entities"]))
    _expect(problems, "dangling_references", fields.get("dangling_references"), "0")
    return problems


def check_graph(stdout: str, expected: dict) -> list[str]:
    problems: list[str] = []
    fields = _fields(stdout)
    _expect(problems, "nodes", fields.get("nodes"), str(expected["nodes"]))
    _expect(problems, "edges", fields.get("edges"), str(expected["edges"]))
    return problems


def check_store(store_dir: str, expected: dict) -> list[str]:
    """tensor.csv records have i < j, w > 0 and 0 <= t < T, T is the
    expected window count, and every base-graph pair appears in every
    window."""
    problems: list[str] = []
    with open(os.path.join(store_dir, "manifest.json"), encoding="utf-8") as fp:
        manifest = json.load(fp)
    windows = manifest["T"]
    _expect(problems, "T", windows, expected["windows"])
    index = {node: i for i, node in enumerate(manifest["node_index"])}
    base_pairs = set()
    with open(os.path.join(store_dir, "base.tsv"), encoding="utf-8") as fp:
        for line in fp:
            if line.startswith("E\t"):
                _, a, b, _ = line.split("\t", 3)
                i, j = index[a], index[b]
                base_pairs.add((min(i, j), max(i, j)))
    present: list[set] = [set() for _ in range(max(windows, 0))]
    bad = 0
    with open(os.path.join(store_dir, "tensor.csv"), encoding="utf-8") as fp:
        header = fp.readline().strip()
        _expect(problems, "tensor header", header, "t,i,j,w")
        for line in fp:
            t, i, j, w = line.split(",")
            t, i, j = int(t), int(i), int(j)
            if not (i < j and float(w) > 0 and 0 <= t < windows):
                bad += 1
                continue
            present[t].add((i, j))
    if bad:
        problems.append(f"{bad} tensor records violate i<j, w>0 or t<T")
    missing = sum(len(base_pairs - window) for window in present)
    if missing:
        problems.append(f"{missing} (window, base pair) records missing from tensor.csv")
    return problems


class Embedding:
    """vectors.tsv and metadata.tsv of one embed output directory."""

    def __init__(self, out_dir: str):
        with open(os.path.join(out_dir, "metadata.tsv"), encoding="utf-8") as fp:
            rows = [line.rstrip("\n").split("\t") for line in fp][1:]
        self.ids = [row[0] for row in rows]
        self.labels = [row[1] for row in rows]
        self.row = {node: i for i, node in enumerate(self.ids)}
        with open(os.path.join(out_dir, "vectors.tsv"), encoding="utf-8") as fp:
            self.vectors = np.array([line.split("\t") for line in fp if line.strip()],
                                    dtype=np.float64)
        norms = np.linalg.norm(self.vectors, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            self.unit = self.vectors / norms[:, None]
        self.zero = norms == 0.0

    def problems(self) -> list[str]:
        problems: list[str] = []
        if self.vectors.shape[0] != len(self.ids):
            problems.append(f"{self.vectors.shape[0]} vectors for {len(self.ids)} ids")
        if not np.isfinite(self.vectors).all():
            problems.append("non-finite vector entries")
        return problems

    def similarities(self, query: str) -> np.ndarray:
        sims = self.unit @ self.unit[self.row[query]]
        sims[self.zero] = -np.inf
        return sims

    def ranked(self, query: str, candidates: list[int]) -> list[tuple[str, float]]:
        sims = self.similarities(query)
        rows = [i for i in candidates if self.ids[i] != query and np.isfinite(sims[i])]
        rows.sort(key=lambda i: (-sims[i], self.ids[i]))
        return [(self.ids[i], float(sims[i])) for i in rows]

    def community_margin(self) -> float:
        """Mean cosine between cells of the same space minus mean cosine
        between cells of different spaces (cell ids are cell:<space>:r:c)."""
        rows = [i for i, node in enumerate(self.ids)
                if node.startswith("cell:") and not self.zero[i]]
        space = np.array([self.ids[i].split(":")[1] for i in rows])
        unit = self.unit[rows]
        same = space[:, None] == space[None, :]
        np.fill_diagonal(same, False)
        different = space[:, None] != space[None, :]
        sims = unit @ unit.T
        return float(sims[same].mean() - sims[different].mean())


def check_query(stdout: str, emb: Embedding, query: str, k: int,
                label_filter: str | None) -> list[str]:
    """The CLI top-k equals a numpy recomputation from vectors.tsv: the same
    ids in the same order (ties by id), and printed similarities within 1e-6
    (they are printed to six decimals). The recomputation ranks only nodes
    that carry the filter's label, so the id comparison checks the filter."""
    candidates = [i for i, label in enumerate(emb.labels)
                  if label_filter is None or label == label_filter]
    want = emb.ranked(query, candidates)[:k]
    got = [line.split("\t") for line in stdout.splitlines() if line.strip()]
    problems: list[str] = []
    got_ids = [row[1] for row in got]
    want_ids = [node for node, _ in want]
    if got_ids != want_ids:
        return [f"query {query}: got {got_ids}, expected {want_ids}"]
    for rank, ((g_rank, g_id, g_sim), (_, w_sim)) in enumerate(zip(got, want), 1):
        if int(g_rank) != rank:
            problems.append(f"query {query}: row {rank} numbered {g_rank}")
        if abs(float(g_sim) - w_sim) > 1e-6:
            problems.append(f"query {query}: similarity of {g_id} off by more than 1e-6")
    return problems


def read_labels(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8", newline="") as fp:
        rows = list(csv.reader(fp))[1:]
    return {row[0].strip(): row[-1].strip() for row in rows if row}


def majority_vote(emb: Embedding, labels: dict[str, str], query: str, k: int) -> str:
    """k nearest labelled nodes vote; ties by summed similarity, then by
    class order."""
    nearest = emb.ranked(query, sorted(emb.row[node] for node in labels))[:k]
    if not nearest:
        return labels[query]
    votes: dict[str, int] = {}
    sums: dict[str, float] = {}
    for node, sim in nearest:
        votes[labels[node]] = votes.get(labels[node], 0) + 1
        sums[labels[node]] = sums.get(labels[node], 0.0) + sim
    return min(votes, key=lambda c: (-votes[c], -sums[c], CLASS_NAMES.index(c)))


def check_predict(stdout: str, emb: Embedding, labels: dict[str, str], query: str,
                  k: int) -> list[str]:
    got = stdout.strip().split("\t")[-1]
    want = majority_vote(emb, labels, query, k)
    return [] if got == want else [f"predict {query}: got {got!r}, expected {want!r}"]


def check_walks(walks: list[list[str]], edges: set[tuple[str, str]]) -> list[str]:
    """Every consecutive pair of every walk is an edge of the walked graph."""
    bad = sum(1 for walk in walks for a, b in zip(walk, walk[1:])
              if (a, b) not in edges and (b, a) not in edges)
    return [f"{bad} walk steps are not graph edges"] if bad else []
