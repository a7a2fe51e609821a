"""Pipeline front door: parse -> graph -> snapshot -> embed -> query/predict.

Every stage reads and writes plain files so runs are reproducible and each
step is independently inspectable. Outputs are written atomically (temp file
plus rename). Exit codes: 0 success, 2 usage error, 3 input data error,
4 internal invariant violation.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import sys

import click

from . import space_grid, temporal
from .config import RunConfig, load_config
from .errors import BimvecError, ConfigError, InternalInvariantError
from .fileio import atomic_open, atomic_write_text, read_json
from .graph import PropertyGraph
from .ifc_graph import attach_properties, build_graph
from .step_parser import parse_step_file, serialize_step, validate_references
from .temporal import build_snapshots
from .walks import generate_walks

logger = logging.getLogger(__name__)

SENSOR_LABEL = "SENSOR"

_EXIT_USAGE = 2
_EXIT_DATA = 3
_EXIT_INTERNAL = 4


def _setup_logging() -> None:
    level_name = os.environ.get("BIMVEC_LOG", "INFO").upper()
    level = getattr(logging, level_name, logging.INFO)
    root = logging.getLogger()
    # Rebind the handler each invocation so the stream follows the current
    # sys.stderr (test runners swap it per command).
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.addHandler(handler)
    root.setLevel(level)


def _echo_config(cfg: RunConfig) -> None:
    for line in cfg.to_lines():
        logger.info("config %s", line)


def _command(fn):
    """Map toolkit errors onto categorized exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(_EXIT_USAGE)
        except InternalInvariantError as exc:
            click.echo(f"internal error: {exc}", err=True)
            sys.exit(_EXIT_INTERNAL)
        except (BimvecError, OSError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(_EXIT_DATA)

    return wrapper


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, help="Flat key=value configuration file.")
@click.pass_context
def main(ctx, config_path):
    """Convert IFC building models into property graphs and embeddings."""
    _setup_logging()
    try:
        ctx.obj = load_config(config_path) if config_path else RunConfig()
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(_EXIT_USAGE)


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

@main.command("parse")
@click.argument("ifc_path", type=click.Path(exists=True))
@click.option("--dump", "dump_path", type=click.Path(), default=None,
              help="Write the re-serialized model to this path.")
@click.pass_obj
@_command
def cmd_parse(cfg: RunConfig, ifc_path, dump_path):
    """Parse an IFC file and print an entity summary."""
    _echo_config(cfg)
    model = parse_step_file(ifc_path)
    type_counts: dict[str, int] = {}
    for entity in model.in_id_order():
        type_counts[entity.type_name] = type_counts.get(entity.type_name, 0) + 1
    dangling = validate_references(model)
    click.echo(f"entities\t{len(model)}")
    click.echo(f"types\t{len(type_counts)}")
    click.echo(f"dangling_references\t{len(dangling)}")
    for type_name in sorted(type_counts, key=lambda t: (-type_counts[t], t))[:10]:
        click.echo(f"type\t{type_name}\t{type_counts[type_name]}")
    for referencing, missing in dangling:
        click.echo(f"dangling\t{referencing}\t{missing}")
    if dump_path:
        atomic_write_text(dump_path, serialize_step(model))
        click.echo(f"dump\t{dump_path}")


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

@main.command("graph")
@click.argument("ifc_path", type=click.Path(exists=True))
@click.option("--footprints", "footprints_path", type=click.Path(exists=True),
              required=True, help="Sidecar JSON with space polygons.")
@click.option("--sensors", "sensors_path", type=click.Path(exists=True),
              default=None, help="JSON manifest of sensors and anchors.")
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--cell-size", type=float, default=None)
@click.option("--strict/--lenient", "strict", default=None)
@click.pass_obj
@_command
def cmd_graph(cfg: RunConfig, ifc_path, footprints_path, sensors_path,
              out_path, cell_size, strict):
    """Build the building property graph with cells and sensors."""
    cfg = cfg.updated(cell_size=cell_size, strict=strict)
    _echo_config(cfg)
    model = parse_step_file(ifc_path)
    graph = build_graph(model, cfg.relation_mapping(), strict=cfg.strict)
    attach_properties(graph, model)

    spaces = {}
    for footprint in space_grid.load_footprints(footprints_path):
        if footprint.space_node not in graph:
            raise BimvecError(
                f"footprint references unknown space entity "
                f"#{footprint.space_node}"
            )
        space = space_grid.discretize(footprint, cfg.cell_size)
        space_grid.merge_into(graph, space, queen=cfg.adjacency == "queen")
        spaces[space.space_node] = space

    if sensors_path:
        sensors, anchors = space_grid.load_sensor_manifest(sensors_path)
        fixed = [(temporal.sensor_node_id(str(r["id"])), r) for r in sensors]
        for node_id, record in fixed:
            graph.add_node(node_id, SENSOR_LABEL, {
                "space": str(record["space_id"]),
                "x": record["position"][0],
                "y": record["position"][1],
            })
        fixed += [(str(r["entity_id"]), r) for r in anchors]
        for node_id, record in fixed:
            space_grid.attach_fixed_node(
                graph, _space_for(spaces, record), node_id, record["position"],
                record.get("radius", cfg.sensor_radius), strict=cfg.strict,
            )

    atomic_write_text(out_path, graph.to_text())
    click.echo(f"nodes\t{len(graph)}")
    click.echo(f"edges\t{graph.edge_count}")
    click.echo(f"graph\t{out_path}")


def _space_for(spaces: dict, record: dict) -> space_grid.DiscretizedSpace:
    space_node = str(record["space_id"])
    if space_node not in spaces:
        raise BimvecError(f"manifest references space {space_node!r} "
                          "with no footprint")
    return spaces[space_node]


# ---------------------------------------------------------------------------
# snapshot
# ---------------------------------------------------------------------------

@main.command("snapshot")
@click.argument("graph_path", type=click.Path(exists=True))
@click.option("--readings", "readings_path", type=click.Path(exists=True),
              default=None)
@click.option("--fixes", "fixes_path", type=click.Path(exists=True),
              default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--step", type=int, default=None)
@click.pass_obj
@_command
def cmd_snapshot(cfg: RunConfig, graph_path, readings_path, fixes_path,
                 out_dir, step):
    """Build per-window snapshots and export the adjacency tensor."""
    cfg = cfg.updated(step=step)
    _echo_config(cfg)
    base = _read_graph(graph_path)
    spaces = space_grid.spaces_from_graph(base)
    readings = temporal.load_readings_csv(readings_path) if readings_path else []
    fixes = temporal.load_fixes_csv(fixes_path) if fixes_path else []
    tg = build_snapshots(
        base, spaces, readings, fixes, cfg.step,
        occupant_radius=cfg.occupant_radius, max_gap=cfg.max_gap,
    )

    os.makedirs(os.path.join(out_dir, "snapshots"), exist_ok=True)
    timestamps, records = [], 0
    with atomic_open(os.path.join(out_dir, "tensor.csv")) as tensor:
        tensor.write("t,i,j,w\n")
        for t, (timestamp, text, rows, count) in enumerate(temporal.store_windows(tg)):
            timestamps.append(timestamp)
            atomic_write_text(os.path.join(out_dir, "snapshots", f"{t:06d}.tsv"), text)
            tensor.write(rows)
            records += count
    manifest = temporal.tensor_manifest(tg, timestamps)
    manifest["step"] = cfg.step
    atomic_write_text(os.path.join(out_dir, "manifest.json"),
                      json.dumps(manifest, indent=2) + "\n")
    atomic_write_text(os.path.join(out_dir, "base.tsv"), base.to_text())
    click.echo(f"snapshots\t{len(tg)}")
    click.echo(f"tensor_records\t{records}")
    click.echo(f"store\t{out_dir}")


def _read_graph(path) -> PropertyGraph:
    with open(path, "rb") as fp:
        data = fp.read()
    try:
        return PropertyGraph.from_text(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise BimvecError(f"{path}, line {line_no}: not UTF-8 text") from None
    except (BimvecError, ValueError) as exc:
        raise BimvecError(f"{path}: {exc}") from None


def _read_store(store_dir, mode: str, index: int | None) -> PropertyGraph:
    """The graph ``embed`` walks from a store: the union of ``base.tsv`` and
    ``tensor.csv``, or one file of ``snapshots/``."""
    path = os.path.join(store_dir, "manifest.json")
    manifest = read_json(path)
    if not isinstance(manifest, dict):
        raise BimvecError(f"{path}: expected a JSON object")
    windows, order = manifest.get("T"), manifest.get("node_index")
    if type(windows) is not int or windows < 1:
        raise BimvecError(f"{path}: T must be an integer >= 1, got {windows!r}")
    if (not isinstance(order, list) or not all(isinstance(n, str) for n in order)
            or len(set(order)) != len(order)):
        raise BimvecError(f"{path}: node_index must be a list of distinct strings")
    if mode == "slice":
        if not 0 <= index < windows:
            raise BimvecError(f"slice {index} out of range for {windows} snapshots")
        return _read_graph(os.path.join(store_dir, "snapshots", f"{index:06d}.tsv"))

    base = _read_graph(os.path.join(store_dir, "base.tsv"))
    missing = sorted(set(base.node_ids()) - set(order))
    if missing:
        raise BimvecError(f"{path}: node_index lacks base node {missing[0]!r}")
    path = os.path.join(store_dir, "tensor.csv")
    with open(path, encoding="utf-8", errors="replace") as fp:
        if fp.readline().rstrip("\n") != "t,i,j,w":
            raise BimvecError(f"{path}, line 1: expected the header t,i,j,w")
        return temporal.union_graph(base, order, _tensor_rows(fp, path, windows, len(order)),
                                    windows)


def _tensor_rows(fp, path, windows: int, nodes: int):
    """The (t, i, j, w) records of ``tensor.csv`` after its header, checked."""
    for line_no, line in enumerate(fp, start=2):
        try:
            t, i, j, w = line.split(",")
            t, i, j, w = int(t), int(i), int(j), float(w)
        except ValueError as exc:
            reason = "not UTF-8 text" if "\ufffd" in line else exc
            raise BimvecError(f"{path}, line {line_no}: {reason}") from None
        if not (0 <= t < windows and 0 <= i < j < nodes and math.isfinite(w)):
            raise BimvecError(
                f"{path}, line {line_no}: need 0 <= t < {windows}, "
                f"0 <= i < j < {nodes} and a finite w")
        yield t, i, j, w


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

@main.command("embed")
@click.argument("input_path", type=click.Path(exists=True))
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--flatten", "flatten_mode", default=None,
              help="union or slice:<t>; used for a temporal store input.")
@click.option("--dimension", type=int, default=None)
@click.option("--window", type=int, default=None)
@click.option("--negatives", type=int, default=None)
@click.option("--epochs", type=int, default=None)
@click.option("--initial-lr", type=float, default=None)
@click.option("--min-lr", type=float, default=None)
@click.option("--p", type=float, default=None)
@click.option("--q", type=float, default=None)
@click.option("--walk-length", type=int, default=None)
@click.option("--walks-per-node", type=int, default=None)
@click.option("--walk-seed", type=int, default=None)
@click.option("--train-seed", type=int, default=None)
@click.option("--workers", type=int, default=None, help="Must be >= 1; changes nothing.")
@click.option("--dynamic-window/--fixed-window", default=None)
@click.option("--dump-walks", is_flag=True, default=False)
@click.pass_obj
@_command
def cmd_embed(cfg: RunConfig, input_path, out_dir, flatten_mode, dump_walks,
              **overrides):
    """Walk a graph (or flattened temporal store) and train embeddings."""
    from .sgns import attach_labels, train
    from .store import export_projector

    cfg = cfg.updated(flatten=flatten_mode, **overrides)
    _echo_config(cfg)
    walk_config, train_config = cfg.walk_config(), cfg.train_config()
    if os.path.isdir(input_path):
        graph = _read_store(input_path, *cfg.flatten_mode())
    else:
        graph = _read_graph(input_path)

    corpus = generate_walks(graph, walk_config, workers=cfg.workers)
    matrix = train(corpus, train_config)
    attach_labels(matrix, graph.labels())

    os.makedirs(out_dir, exist_ok=True)
    checkpoint = os.path.join(out_dir, "checkpoint.bin")
    matrix.save(checkpoint)
    export_projector(matrix, graph, out_dir)
    if dump_walks:
        atomic_write_text(os.path.join(out_dir, "walks.txt"), corpus.to_text())
    click.echo(f"vocabulary\t{len(matrix)}")
    click.echo(f"dimension\t{matrix.dimension}")
    if matrix.epoch_losses:
        click.echo(f"final_epoch_loss\t{matrix.epoch_losses[-1]:.6f}")
    click.echo(f"checkpoint\t{checkpoint}")


# ---------------------------------------------------------------------------
# query / predict
# ---------------------------------------------------------------------------

@main.command("query")
@click.argument("checkpoint", type=click.Path(exists=True))
@click.argument("node_id")
@click.option("-k", "k", type=int, default=10)
@click.option("--filter", "label_filter", multiple=True,
              help="Keep only nodes with one of these labels.")
@click.pass_obj
@_command
def cmd_query(cfg: RunConfig, checkpoint, node_id, k, label_filter):
    """Print the top-k most similar nodes."""
    from .sgns import EmbeddingMatrix
    from .store import knn

    _echo_config(cfg)
    matrix = EmbeddingMatrix.load(checkpoint)
    result = knn(matrix, node_id, k,
                 set(label_filter) if label_filter else None)
    for rank, (neighbor, similarity) in enumerate(result.neighbors, start=1):
        click.echo(f"{rank}\t{neighbor}\t{similarity:.6f}")


@main.command("predict")
@click.argument("checkpoint", type=click.Path(exists=True))
@click.argument("node_id")
@click.option("--labels", "labels_path", type=click.Path(exists=True),
              required=True, help="CSV of node_id,feedback training labels.")
@click.option("-k", "k", type=int, default=5)
@click.pass_obj
@_command
def cmd_predict(cfg: RunConfig, checkpoint, node_id, labels_path, k):
    """Predict a comfort label by majority vote of nearest labeled nodes."""
    from .sgns import EmbeddingMatrix
    from .store import CLASS_NAMES, ONE_HOT_CLASSES, load_labeled_csv, predict_comfort

    _echo_config(cfg)
    matrix = EmbeddingMatrix.load(checkpoint)
    labeled = load_labeled_csv(labels_path)
    one_hot = predict_comfort(matrix, labeled, node_id, k)
    name = CLASS_NAMES[ONE_HOT_CLASSES.index(one_hot)]
    click.echo(f"{list(one_hot)}\t{name}")


if __name__ == "__main__":
    main()
