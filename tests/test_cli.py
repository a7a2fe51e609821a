"""End-to-end command tests: pipeline stages, exit codes, reproducibility."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from bimvec.cli import main
from bimvec.graph import PropertyGraph


@pytest.fixture()
def runner():
    return CliRunner()


def _fields(output: str) -> dict[str, str]:
    out = {}
    for line in output.splitlines():
        parts = line.split("\t")
        if len(parts) >= 2:
            out[parts[0]] = parts[1]
    return out


def _build_graph_file(runner, data_dir, tmp_path) -> Path:
    out = tmp_path / "graph.tsv"
    result = runner.invoke(main, [
        "graph", str(data_dir / "two_space.ifc"),
        "--footprints", str(data_dir / "two_space.footprints.json"),
        "--sensors", str(data_dir / "two_space.sensors.json"),
        "--out", str(out), "--cell-size", "2.0",
    ])
    assert result.exit_code == 0, result.output
    return out


def _embed(runner, source: Path, out_dir: Path, extra=()):
    args = [
        "embed", str(source), "--out", str(out_dir),
        "--dimension", "8", "--window", "4", "--epochs", "2",
        "--walk-length", "10", "--walks-per-node", "2",
        "--walk-seed", "3", "--train-seed", "3",
    ] + list(extra)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return result


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

def test_parse_summary(runner, data_dir):
    result = runner.invoke(main, ["parse", str(data_dir / "two_space.ifc")])
    assert result.exit_code == 0
    fields = _fields(result.stdout)
    assert fields["entities"] == "47"
    assert fields["dangling_references"] == "0"


def test_parse_dump_round_trips(runner, data_dir, tmp_path):
    dump = tmp_path / "dump.ifc"
    result = runner.invoke(main, [
        "parse", str(data_dir / "two_space.ifc"), "--dump", str(dump),
    ])
    assert result.exit_code == 0
    second = runner.invoke(main, ["parse", str(dump)])
    assert _fields(second.stdout)["entities"] == "47"


def test_parse_reports_dangling(runner, data_dir):
    result = runner.invoke(main, ["parse", str(data_dir / "dangling.ifc")])
    assert result.exit_code == 0
    assert "dangling\t10\t99" in result.stdout
    assert "dangling\t11\t98" in result.stdout


def test_parse_bad_file_exits_3(runner, tmp_path):
    bad = tmp_path / "bad.ifc"
    bad.write_text("not a step file")
    result = runner.invoke(main, ["parse", str(bad)])
    assert result.exit_code == 3


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

def test_graph_counts_match_fixture_manifest(runner, data_dir, tmp_path,
                                             fixture_manifest):
    out = _build_graph_file(runner, data_dir, tmp_path)
    graph = PropertyGraph.from_text(out.read_text())
    assert len(graph) == fixture_manifest["nodes"]
    assert graph.edge_count == fixture_manifest["edges"]
    labels = graph.labels()
    assert sum(1 for v in labels.values() if v == "CELL") == \
        fixture_manifest["cells"]
    assert sum(1 for v in labels.values() if v == "SENSOR") == \
        fixture_manifest["sensors"]


def test_graph_unknown_footprint_space_exits_3(runner, data_dir, tmp_path):
    footprints = tmp_path / "bad_footprints.json"
    footprints.write_text(json.dumps(
        [{"space_id": 999, "polygon": [[0, 0], [2, 0], [2, 2], [0, 2]]}]))
    result = runner.invoke(main, [
        "graph", str(data_dir / "two_space.ifc"),
        "--footprints", str(footprints),
        "--out", str(tmp_path / "graph.tsv"),
    ])
    assert result.exit_code == 3


# ---------------------------------------------------------------------------
# snapshot
# ---------------------------------------------------------------------------

def test_snapshot_writes_store(runner, data_dir, tmp_path):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    store_dir = tmp_path / "store"
    result = runner.invoke(main, [
        "snapshot", str(graph_file),
        "--readings", str(data_dir / "readings.csv"),
        "--fixes", str(data_dir / "fixes.csv"),
        "--out", str(store_dir), "--step", "300",
    ])
    assert result.exit_code == 0, result.output
    manifest = json.loads((store_dir / "manifest.json").read_text())
    assert manifest["T"] == 3
    assert manifest["step"] == 300
    assert len(manifest["node_index"]) == manifest["N"]
    tensor_lines = (store_dir / "tensor.csv").read_text().splitlines()
    assert tensor_lines[0] == "t,i,j,w"
    assert len(tensor_lines) > 1
    assert (store_dir / "base.tsv").exists()
    for index in range(manifest["T"]):
        assert (store_dir / "snapshots" / f"{index:06d}.tsv").exists()


# ---------------------------------------------------------------------------
# embed / query / predict
# ---------------------------------------------------------------------------

def test_embed_outputs_and_projector_files(runner, data_dir, tmp_path):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    out_dir = tmp_path / "emb"
    _embed(runner, graph_file, out_dir)
    assert (out_dir / "checkpoint.bin").exists()
    vectors = (out_dir / "vectors.tsv").read_text().splitlines()
    metadata = (out_dir / "metadata.tsv").read_text().splitlines()
    assert len(vectors) == len(metadata) - 1
    assert all(len(line.split("\t")) == 8 for line in vectors)


def test_embed_deterministic_bytes(runner, data_dir, tmp_path):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    _embed(runner, graph_file, tmp_path / "one")
    _embed(runner, graph_file, tmp_path / "two")
    _embed(runner, graph_file, tmp_path / "three", extra=["--workers", "3"])
    first = (tmp_path / "one" / "checkpoint.bin").read_bytes()
    second = (tmp_path / "two" / "checkpoint.bin").read_bytes()
    third = (tmp_path / "three" / "checkpoint.bin").read_bytes()
    assert first == second == third
    assert (tmp_path / "one" / "vectors.tsv").read_bytes() == \
        (tmp_path / "two" / "vectors.tsv").read_bytes()


def test_embed_from_temporal_store_union(runner, data_dir, tmp_path):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    store_dir = tmp_path / "store"
    result = runner.invoke(main, [
        "snapshot", str(graph_file),
        "--readings", str(data_dir / "readings.csv"),
        "--fixes", str(data_dir / "fixes.csv"),
        "--out", str(store_dir), "--step", "300",
    ])
    assert result.exit_code == 0
    out_dir = tmp_path / "emb_union"
    _embed(runner, store_dir, out_dir, extra=["--flatten", "union"])
    metadata = (out_dir / "metadata.tsv").read_text()
    assert "occupant:alice\tOCCUPANT" in metadata


def test_query_filter_returns_only_cells(runner, data_dir, tmp_path):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    out_dir = tmp_path / "emb"
    _embed(runner, graph_file, out_dir)
    result = runner.invoke(main, [
        "query", str(out_dir / "checkpoint.bin"), "cell:5:0:0",
        "-k", "5", "--filter", "CELL",
    ])
    assert result.exit_code == 0, result.output
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 5
    for rank, line in enumerate(lines, start=1):
        fields = line.split("\t")
        assert fields[0] == str(rank)
        assert fields[1].startswith("cell:")
        float(fields[2])


def test_predict_prints_one_hot(runner, data_dir, tmp_path):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    store_dir = tmp_path / "store"
    runner.invoke(main, [
        "snapshot", str(graph_file),
        "--readings", str(data_dir / "readings.csv"),
        "--fixes", str(data_dir / "fixes.csv"),
        "--out", str(store_dir), "--step", "300",
    ])
    out_dir = tmp_path / "emb"
    _embed(runner, store_dir, out_dir)
    result = runner.invoke(main, [
        "predict", str(out_dir / "checkpoint.bin"), "cell:5:0:0",
        "--labels", str(data_dir / "labels.csv"), "-k", "2",
    ])
    assert result.exit_code == 0, result.output
    one_hot = result.stdout.strip().split("\t")[0]
    assert one_hot in ("[1, 0, 0]", "[0, 1, 0]", "[0, 0, 1]")


# ---------------------------------------------------------------------------
# config handling and exit codes
# ---------------------------------------------------------------------------

def test_config_file_applies_and_flags_override(runner, data_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("cell_size=3.0\nstep=120\n")
    out = tmp_path / "graph.tsv"
    result = runner.invoke(main, [
        "--config", str(config),
        "graph", str(data_dir / "two_space.ifc"),
        "--footprints", str(data_dir / "two_space.footprints.json"),
        "--out", str(out), "--cell-size", "2.0",
    ])
    assert result.exit_code == 0, result.output
    graph = PropertyGraph.from_text(out.read_text())
    # flag wins: cell size 2 means 9 cells per 6x6 space
    assert graph.node("5").attributes["grid_cell_size"] == 2.0


def test_unknown_config_key_exits_2(runner, data_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("not_a_key=1\n")
    result = runner.invoke(main, [
        "--config", str(config), "parse", str(data_dir / "minimal.ifc"),
    ])
    assert result.exit_code == 2


def test_missing_argument_exits_2(runner):
    result = runner.invoke(main, ["graph"])
    assert result.exit_code == 2


def test_help_documents_every_command(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for command in ("parse", "graph", "snapshot", "embed", "query", "predict"):
        assert command in result.stdout
        sub = runner.invoke(main, [command, "--help"])
        assert sub.exit_code == 0
        assert "--help" in sub.stdout


def test_effective_config_is_echoed(runner, data_dir):
    result = runner.invoke(main, ["parse", str(data_dir / "minimal.ifc")])
    assert result.exit_code == 0
    assert "config cell_size=" in result.stderr
    assert "config step=" in result.stderr


def test_log_level_env_var(runner, data_dir):
    result = runner.invoke(main, ["parse", str(data_dir / "minimal.ifc")],
                           env={"BIMVEC_LOG": "ERROR"})
    assert result.exit_code == 0
    assert "config cell_size=" not in result.stderr


def test_graph_and_snapshot_idempotent(runner, data_dir, tmp_path):
    outputs = []
    for run in ("one", "two"):
        graph_file = tmp_path / run / "graph.tsv"
        graph_file.parent.mkdir()
        result = runner.invoke(main, [
            "graph", str(data_dir / "two_space.ifc"),
            "--footprints", str(data_dir / "two_space.footprints.json"),
            "--sensors", str(data_dir / "two_space.sensors.json"),
            "--out", str(graph_file), "--cell-size", "2.0",
        ])
        assert result.exit_code == 0
        store = tmp_path / run / "store"
        result = runner.invoke(main, [
            "snapshot", str(graph_file),
            "--fixes", str(data_dir / "fixes.csv"),
            "--out", str(store), "--step", "300",
        ])
        assert result.exit_code == 0
        outputs.append((
            graph_file.read_bytes(),
            (store / "manifest.json").read_bytes(),
            (store / "tensor.csv").read_bytes(),
        ))
    assert outputs[0] == outputs[1]


def test_embed_dump_walks(runner, data_dir, tmp_path):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    out_dir = tmp_path / "emb"
    _embed(runner, graph_file, out_dir, extra=["--dump-walks"])
    walks = (out_dir / "walks.txt").read_text().splitlines()
    graph = PropertyGraph.from_text(graph_file.read_text())
    assert len(walks) == 2 * len(graph)  # walks_per_node = 2
    node_ids = set(graph.node_ids())
    assert set(walks[0].split()) <= node_ids


def test_embed_inf_edge_weight_exits_3(runner, tmp_path):
    graph_file = tmp_path / "graph.tsv"
    graph_file.write_text("N\ta\tN\t{}\nN\tb\tN\t{}\n"
                          "N\tc\tN\t{}\nE\ta\tb\tE\t1.0\t{}\n"
                          "E\tb\tc\tE\tinf\t{}\n")
    result = runner.invoke(main, ["embed", str(graph_file),
                                  "--out", str(tmp_path / "emb")])
    assert result.exit_code == 3, result.output
    assert "finite" in result.output


def test_embed_q_out_of_range_exits_3(runner, data_dir, tmp_path):
    graph_file = _build_graph_file(runner, data_dir, tmp_path)
    result = runner.invoke(main, ["embed", str(graph_file), "--out",
                                  str(tmp_path / "emb"), "--q", "0.05"])
    assert result.exit_code == 3, result.output
    assert "[0.1, 10.0]" in result.output


def test_internal_invariant_maps_to_exit_4():
    from bimvec.cli import _command
    from bimvec.errors import InternalInvariantError

    @_command
    def explode():
        raise InternalInvariantError("boom")

    with pytest.raises(SystemExit) as exc_info:
        explode()
    assert exc_info.value.code == 4


def test_relation_override_in_config(runner, data_dir, tmp_path):
    config = tmp_path / "run.cfg"
    # stop expanding space boundaries
    config.write_text("relation.IFCRELSPACEBOUNDARY=IGNORED:0:0\n")
    out = tmp_path / "graph.tsv"
    result = runner.invoke(main, [
        "--config", str(config),
        "graph", str(data_dir / "two_space.ifc"),
        "--footprints", str(data_dir / "two_space.footprints.json"),
        "--out", str(out), "--cell-size", "2.0",
    ])
    assert result.exit_code == 0, result.output
    graph = PropertyGraph.from_text(out.read_text())
    assert not [e for e in graph.edges() if e.label == "BOUNDED_BY"]
