"""Traced in-process run: each layer's public functions inside spans.

One traced round repeats what the CLI round does, with the same inputs and
settings, by calling bimvec's modules directly: parse, graph build, grid,
graph text I/O, snapshots and tensor, flatten, walks, SGNS, checkpoint,
projector export, k-NN and prediction. The settings come from the same
``RunConfig`` the CLI resolves its flags into. Spans (name, start, end,
counters) do not nest; they are kept in memory and written to ``trace.json``
in the work directory at the end. Per-layer metrics are medians over rounds.

The IFC file is parsed once per round here, where the CLI parses it in both
``parse`` and ``graph``, and no interpreter starts per command, so the
traced round total is not expected to equal the CLI ``pipeline_s``; both
are reported.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable
from dataclasses import dataclass, field

import checks
import gen
from bimvec import space_grid, temporal
from bimvec.config import RunConfig
from bimvec.graph import PropertyGraph
from bimvec.ifc_graph import attach_properties, build_graph
from bimvec.sgns import EmbeddingMatrix, attach_labels, train
from bimvec.step_parser import parse_step_file, validate_references
from bimvec.store import export_projector, knn, load_labeled_csv, predict_comfort
from bimvec.walks import WalkSampler, generate_walks

IMPORT_REPEATS = 3

# The layer each span's time counts towards in the share table.
LAYER_OF = {
    "step_parser.parse": "step_parser", "step_parser.validate": "step_parser",
    "ifc_graph.build": "ifc_graph", "space_grid.grid": "space_grid",
    "space_grid.rebuild": "space_grid", "graph.to_text": "graph_io",
    "graph.from_text": "graph_io", "temporal.load_csv": "temporal",
    "temporal.build_snapshots": "temporal", "temporal.adjacency_tensor": "temporal",
    "temporal.flatten": "temporal", "walks.sampler": "walks", "walks.generate": "walks",
    "sgns.train": "sgns", "sgns.save": "sgns", "sgns.load": "sgns",
    "store.export": "store", "store.knn": "store", "store.predict": "store",
}


class Tracer:
    """In-memory recorder of non-overlapping spans."""

    def __init__(self):
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, **counters):
        record = {"name": name, "counters": dict(counters)}
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record["counters"]
        finally:
            record["end"] = time.perf_counter()

    def durations(self, name: str, span_range: tuple[int, int]) -> list[float]:
        """Durations of the spans called ``name`` among spans[first:last]."""
        first, last = span_range
        return [s["end"] - s["start"] for s in self.spans[first:last] if s["name"] == name]

    def total(self, name: str, span_range: tuple[int, int]) -> float:
        return sum(self.durations(name, span_range))

    def layer_times(self, span_range: tuple[int, int]) -> dict[str, float]:
        """Summed span durations per layer; spans do not nest, so this is
        each layer's self time."""
        first, last = span_range
        out: dict[str, float] = {}
        for s in self.spans[first:last]:
            layer = LAYER_OF[s["name"]]
            out[layer] = out.get(layer, 0.0) + s["end"] - s["start"]
        return out


class RssPeak:
    """Highest resident set size of this process while the block runs,
    sampled every 5 ms from /proc/self/statm."""

    def __init__(self):
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _sample(self) -> None:
        with open("/proc/self/statm", encoding="ascii") as fp:
            resident = int(fp.read().split()[1])
        self.peak_mb = max(self.peak_mb, resident * self._page / 2**20)

    def _loop(self) -> None:
        while not self._stop.wait(0.005):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()


@dataclass
class TraceResult:
    metrics: dict
    attempted: int = 0
    problems: list = field(default_factory=list)
    failed: int = 0


def traced_round(tr: Tracer, seed: int, inputs: dict, spec: dict,
                 out_dir: str, check_workers: bool) -> tuple[dict, list[list[str]]]:
    """One round through every layer. Returns counters and, per checked
    operation, its problems."""
    paths, expected = inputs["paths"], inputs["expected"]
    cfg = RunConfig().updated(
        cell_size=inputs["cell_size"], step=inputs["step"],
        **{key.replace("-", "_"): value for key, value in spec["embed"].items()})
    counts: dict = {}
    ops: list[list[str]] = []

    ifc_bytes = os.path.getsize(paths["ifc"])
    with tr.span("step_parser.parse", bytes=ifc_bytes):
        model = parse_step_file(paths["ifc"])
    with tr.span("step_parser.validate"):
        dangling = validate_references(model)
    counts["entities"] = len(model)
    counts["ifc_mb"] = ifc_bytes / 2**20
    ops.append(checks.check_parse(
        f"entities\t{len(model)}\ndangling_references\t{len(dangling)}\n", expected))

    with tr.span("ifc_graph.build"):
        graph = attach_properties(
            build_graph(model, cfg.relation_mapping(), strict=cfg.strict), model)
    with tr.span("space_grid.grid"):
        spaces = {}
        for footprint in space_grid.load_footprints(paths["footprints"]):
            space = space_grid.discretize(footprint, cfg.cell_size)
            space_grid.merge_into(graph, space, queen=cfg.adjacency == "queen")
            spaces[space.space_node] = space
        with open(paths["sensors"], encoding="utf-8") as fp:
            manifest = json.load(fp)
        for record in manifest.get("sensors", []):
            node = temporal.sensor_node_id(str(record["id"]))
            space = spaces[str(record["space_id"])]
            graph.add_node(node, "SENSOR", {"space": space.space_node,
                                            "x": float(record["position"][0]),
                                            "y": float(record["position"][1])})
            space_grid.attach_fixed_node(graph, space, node, tuple(record["position"]),
                                         float(record.get("radius", space.cell_size)),
                                         strict=cfg.strict)
        for record in manifest.get("anchors", []):
            space = spaces[str(record["space_id"])]
            space_grid.attach_fixed_node(graph, space, str(record["entity_id"]),
                                         tuple(record["position"]),
                                         float(record.get("radius", space.cell_size)),
                                         strict=cfg.strict)
    counts["cells"] = sum(len(s.cells) for s in spaces.values())
    with tr.span("graph.to_text") as c:
        text = graph.to_text()
        c["bytes"] = len(text)
    text_bytes = len(text)
    ops.append(checks.check_graph(f"nodes\t{len(graph)}\nedges\t{graph.edge_count}\n",
                                  expected))

    with tr.span("graph.from_text"):
        base = PropertyGraph.from_text(text)
    with tr.span("space_grid.rebuild"):
        rebuilt = space_grid.spaces_from_graph(base)
    with tr.span("temporal.load_csv"):
        readings = temporal.load_readings_csv(paths["readings"])
        fixes = temporal.load_fixes_csv(paths["fixes"])
    with RssPeak() as rss:
        with tr.span("temporal.build_snapshots"):
            tg = temporal.build_snapshots(base, rebuilt, readings, fixes, cfg.step,
                                          occupant_radius=cfg.occupant_radius,
                                          max_gap=cfg.max_gap)
        with tr.span("temporal.adjacency_tensor"):
            export = temporal.adjacency_tensor(tg)
    counts["rss_mb"] = rss.peak_mb
    counts["windows"] = len(tg)
    counts["tensor_records"] = len(export.records)
    snapshot_texts = []
    for snapshot in tg.snapshots:
        with tr.span("graph.to_text"):
            snapshot_texts.append(snapshot.graph.to_text())
    text_bytes += sum(len(t) for t in snapshot_texts)
    counts["text_mb"] = text_bytes / 2**20
    ops.append([] if len(tg) == expected["windows"]
               else [f"{len(tg)} windows, expected {expected['windows']}"])
    if spec["embed_from"] == "graph":
        # The CLI embeds campus-static from graph.tsv; its short store is
        # flattened here only so that every layer reports a time.
        with tr.span("temporal.flatten"):
            temporal.flatten(tg, *cfg.flatten_mode())
    del tg, export

    if spec["embed_from"] == "store":
        with tr.span("graph.from_text"):
            store_base = PropertyGraph.from_text(text)
        reloaded = []
        for index, snap_text in enumerate(snapshot_texts):
            with tr.span("graph.from_text"):
                reloaded.append(temporal.Snapshot(index, PropertyGraph.from_text(snap_text)))
        node_ids = sorted({n for s in reloaded for n in s.graph.node_ids()})
        stored = temporal.TemporalGraph(store_base, reloaded,
                                        {n: i for i, n in enumerate(node_ids)})
        with tr.span("temporal.flatten"):
            walked = temporal.flatten(stored, *cfg.flatten_mode())
        del stored, reloaded
    else:
        with tr.span("graph.from_text"):
            walked = PropertyGraph.from_text(text)
    del snapshot_texts

    walk_cfg = cfg.walk_config()
    with tr.span("walks.sampler"):
        sampler = WalkSampler(walked, walk_cfg.p, walk_cfg.q)
    counts["alias_entries"] = sum(len(walked.neighbor_weights(n)) ** 2
                                  for n in walked.node_ids())
    if spec["embed_from"] == "graph":
        # The static graph is the generator's, so its sum of squared degrees
        # is known: on campus-static it is what sends walks past the alias cap.
        ops.append([] if counts["alias_entries"] == expected["sum_deg2"] else
                   [f"alias entries {counts['alias_entries']}, "
                    f"expected {expected['sum_deg2']}"])
    with tr.span("walks.generate"):
        corpus = generate_walks(walked, walk_cfg, workers=cfg.workers, sampler=sampler)
    counts["steps"] = sum(len(w) - 1 for w in corpus.walks)
    walk_problems = checks.check_walks(corpus.walks,
                                       {(e.a, e.b) for e in walked.edges()})
    if check_workers:
        parallel = generate_walks(walked, walk_cfg, workers=2, sampler=sampler)
        if parallel.to_text() != corpus.to_text():
            walk_problems.append("walk corpus differs between workers=1 and workers=2")
    ops.append(walk_problems)

    train_cfg = cfg.train_config()
    with tr.span("sgns.train"):
        matrix = train(corpus, train_cfg)
    counts["tokens"] = sum(len(w) for w in corpus.walks) * train_cfg.epochs
    attach_labels(matrix, walked.labels())
    emb_dir = os.path.join(out_dir, "emb")
    os.makedirs(emb_dir, exist_ok=True)
    checkpoint = os.path.join(emb_dir, "checkpoint.bin")
    with tr.span("sgns.save"):
        matrix.save(checkpoint)
    with tr.span("store.export"):
        export_projector(matrix, walked, emb_dir)
    emb = checks.Embedding(emb_dir)
    ops.append(emb.problems())

    picks = gen.pick_cells(inputs["spaces"], seed, spec["queries"] + spec["predicts"])
    labels = checks.read_labels(paths["labels"])
    for i, node in enumerate(picks):
        with tr.span("sgns.load"):
            loaded = EmbeddingMatrix.load(checkpoint)
        if i < spec["queries"]:
            with tr.span("store.knn"):
                result = knn(loaded, node, spec["k"], {"CELL"})
            stdout = "".join(f"{r}\t{n}\t{s:.6f}\n"
                             for r, (n, s) in enumerate(result.neighbors, 1))
            ops.append(checks.check_query(stdout, emb, node, spec["k"], "CELL"))
        else:
            with tr.span("store.predict"):
                one_hot = predict_comfort(loaded, load_labeled_csv(paths["labels"]),
                                          node, spec["predict_k"])
            name = checks.CLASS_NAMES[list(one_hot).index(1)]
            ops.append(checks.check_predict(name, emb, labels, node, spec["predict_k"]))
    counts["nodes"] = len(walked)
    counts["edges"] = walked.edge_count
    return counts, ops


def import_seconds(env: dict) -> float:
    """Median wall time of ``import bimvec.cli`` in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bimvec.cli"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run(workload: str, seed: int, inputs: dict, spec: dict, work: str,
        seconds: float, pipeline_s: float, env: dict,
        another_round: Callable[[float, int, float], bool]) -> TraceResult:
    """Traced rounds for about ``seconds`` (at least one), by the CLI run's
    ``another_round`` rule; per-layer metrics against the CLI's
    ``pipeline_s``."""
    tr = Tracer()
    result = TraceResult(metrics={})
    rounds = []
    start = time.perf_counter()
    while not rounds or another_round(time.perf_counter() - start, len(rounds), seconds):
        first = len(tr.spans)
        counts, ops = traced_round(tr, seed, inputs, spec,
                                   os.path.join(work, "traced"), check_workers=not rounds)
        counts["spans"] = (first, len(tr.spans))
        counts["total_s"] = sum(s["end"] - s["start"] for s in tr.spans[first:])
        rounds.append(counts)
        result.attempted += len(ops)
        result.failed += sum(1 for problems in ops if problems)
        result.problems += [p for problems in ops for p in problems]

    def med(fn) -> float:
        return statistics.median(fn(r) for r in rounds)

    def span_s(name: str) -> float:
        return med(lambda r: tr.total(name, r["spans"]))

    def per_call_ms(name: str) -> float:
        return 1000 * statistics.median(d for r in rounds
                                        for d in tr.durations(name, r["spans"]))

    last = rounds[-1]
    m = {
        "step_parser.parse_s": (span_s("step_parser.parse"), "s"),
        "step_parser.mb_per_s": (med(lambda r: r["ifc_mb"] / tr.total(
            "step_parser.parse", r["spans"])), "MB/s"),
        "step_parser.entities": (last["entities"], "count"),
        "ifc_graph.build_s": (span_s("ifc_graph.build"), "s"),
        "space_grid.grid_s": (span_s("space_grid.grid"), "s"),
        "space_grid.cells": (last["cells"], "count"),
        "space_grid.rebuild_s": (span_s("space_grid.rebuild"), "s"),
        "graph.to_text_s": (span_s("graph.to_text"), "s"),
        "graph.text_mb": (last["text_mb"], "MB"),
        "graph.from_text_s": (span_s("graph.from_text"), "s"),
        "graph.nodes": (last["nodes"], "count"),
        "graph.edges": (last["edges"], "count"),
        "temporal.build_snapshots_s": (span_s("temporal.build_snapshots"), "s"),
        "temporal.peak_rss_mb": (med(lambda r: r["rss_mb"]), "MB"),
        "temporal.adjacency_tensor_s": (span_s("temporal.adjacency_tensor"), "s"),
        "temporal.windows": (last["windows"], "count"),
        "temporal.tensor_records": (last["tensor_records"], "count"),
        "temporal.flatten_s": (span_s("temporal.flatten"), "s"),
        "walks.sampler_s": (span_s("walks.sampler"), "s"),
        "walks.alias_entries": (last["alias_entries"], "count"),
        "walks.generate_s": (span_s("walks.generate"), "s"),
        "walks.steps": (last["steps"], "count"),
        "walks.steps_per_s": (med(lambda r: r["steps"] / tr.total(
            "walks.generate", r["spans"])), "steps/s"),
        "sgns.train_s": (span_s("sgns.train"), "s"),
        "sgns.tokens": (last["tokens"], "count"),
        "sgns.tokens_per_s": (med(lambda r: r["tokens"] / tr.total(
            "sgns.train", r["spans"])), "tokens/s"),
        "sgns.save_s": (span_s("sgns.save"), "s"),
        "sgns.load_s": (per_call_ms("sgns.load") / 1000, "s"),
        "store.export_s": (span_s("store.export"), "s"),
        "store.knn_ms": (per_call_ms("store.knn"), "ms"),
        "store.predict_ms": (per_call_ms("store.predict"), "ms"),
        "cli.import_s": (import_seconds(env), "s"),
        "trace.total_s": (med(lambda r: r["total_s"]), "s"),
        "trace.cli_pipeline_s": (pipeline_s, "s"),
    }
    m["trace.total_ratio"] = (m["trace.total_s"][0] / pipeline_s, "ratio")
    result.metrics = m

    print(f"# traced rounds {len(rounds)}; layer self time in the last one:")
    shares = tr.layer_times(rounds[-1]["spans"])
    total = sum(shares.values())
    for layer, seconds_ in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"# share\t{layer}\t{seconds_:.3f} s\t{100 * seconds_ / total:.1f}%")
    with open(os.path.join(work, "trace.json"), "w", encoding="utf-8") as fp:
        json.dump({"workload": workload, "seed": seed, "spans": tr.spans,
                   "layer_self_s": shares}, fp)
    return result
