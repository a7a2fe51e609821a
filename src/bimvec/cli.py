"""Pipeline front door: parse -> graph -> snapshot -> embed -> query/predict.

Every stage reads and writes plain files so runs are reproducible and each
step is independently inspectable. Outputs are written atomically (temp file
plus rename). Exit codes: 0 success, 2 usage error, 3 input data error,
4 internal invariant violation.
"""

from __future__ import annotations

import functools
import logging
import os
import sys
from collections import Counter

import click

from .config import COMFORT_CLASSES, COMFORT_ONE_HOT, RunConfig, load_config
from .errors import BimvecError, ConfigError, InternalInvariantError
from .fileio import atomic_write_text
from .graph import read_graph

logger = logging.getLogger(__name__)

_EXIT_USAGE = 2
_EXIT_DATA = 3
_EXIT_INTERNAL = 4


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
    # force=True rebinds the handler each invocation so the stream follows
    # the current sys.stderr (test runners swap it per command).
    logging.basicConfig(
        level=getattr(logging, os.environ.get("BIMVEC_LOG", "INFO").upper(), logging.INFO),
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr, force=True)
    ctx.obj = _command(load_config)(config_path) if config_path else RunConfig()


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
    from .step_parser import parse_step_file, serialize_step, validate_references

    _echo_config(cfg)
    model = parse_step_file(ifc_path)
    type_counts = Counter(entity.type_name for entity in model.entities.values())
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
    from .ifc_graph import building_graph

    cfg = cfg.updated(cell_size=cell_size, strict=strict)
    _echo_config(cfg)
    graph = building_graph(cfg, ifc_path, footprints_path, sensors_path)
    atomic_write_text(out_path, graph.to_text())
    click.echo(f"nodes\t{len(graph)}")
    click.echo(f"edges\t{graph.edge_count}")
    click.echo(f"graph\t{out_path}")


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
    from . import space_grid, temporal

    cfg = cfg.updated(step=step)
    _echo_config(cfg)
    base = read_graph(graph_path)
    spaces = space_grid.spaces_from_graph(base)
    readings = temporal.load_readings_csv(readings_path) if readings_path else []
    fixes = temporal.load_fixes_csv(fixes_path) if fixes_path else []
    tg = temporal.build_snapshots(
        base, spaces, readings, fixes, cfg.step,
        occupant_radius=cfg.occupant_radius, max_gap=cfg.max_gap,
    )

    records = temporal.write_store(tg, out_dir, cfg.step)
    click.echo(f"snapshots\t{len(tg)}")
    click.echo(f"tensor_records\t{records}")
    click.echo(f"store\t{out_dir}")


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
    from . import temporal
    from .sgns import attach_labels, train
    from .store import check_checkpoint_entries, export_projector
    from .walks import generate_walks

    cfg = cfg.updated(flatten=flatten_mode, **overrides)
    _echo_config(cfg)
    walk_config, train_config = cfg.walk_config(), cfg.train_config()
    if os.path.isdir(input_path):
        graph = temporal.read_store(input_path, *cfg.flatten_mode())
    else:
        graph = read_graph(input_path)
    check_checkpoint_entries(graph.labels())

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
    from .store import EmbeddingMatrix, knn

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
    from .store import EmbeddingMatrix, load_labeled_csv, predict_comfort

    _echo_config(cfg)
    matrix = EmbeddingMatrix.load(checkpoint)
    labeled = load_labeled_csv(labels_path)
    one_hot = predict_comfort(matrix, labeled, node_id, k)
    name = COMFORT_CLASSES[COMFORT_ONE_HOT.index(one_hot)]
    click.echo(f"{list(one_hot)}\t{name}")


if __name__ == "__main__":
    main()
