"""Building models to vectors: IFC parsing, property graphs, space grids,
temporal snapshots, biased random walks, and skip-gram embeddings."""

from .errors import BimvecError
from .graph import Edge, Node, NodeId, PropertyGraph
from .ifc_graph import (
    RelationMapping,
    RelationRule,
    attach_properties,
    build_graph,
)
from .sgns import EmbeddingMatrix, TrainConfig, train
from .space_grid import (
    DiscretizedSpace,
    Footprint,
    GridCell,
    attach_fixed_node,
    discretize,
    load_footprints,
    locate_cell,
    merge_into,
)
from .step_parser import (
    StepEntity,
    StepModel,
    parse_step,
    parse_step_file,
    serialize_step,
    validate_references,
)
from .store import LabeledExample, NeighborList, cosine, export_projector, knn, predict_comfort
from .temporal import (
    OccupantFix,
    SensorReading,
    Snapshot,
    TemporalGraph,
    adjacency_tensor,
    build_snapshots,
    flatten,
)
from .walks import AliasTable, WalkConfig, WalkCorpus, generate_walks, transition_distribution

__version__ = "0.1.0"

__all__ = [
    "AliasTable",
    "BimvecError",
    "DiscretizedSpace",
    "Edge",
    "EmbeddingMatrix",
    "Footprint",
    "GridCell",
    "LabeledExample",
    "NeighborList",
    "Node",
    "NodeId",
    "OccupantFix",
    "PropertyGraph",
    "RelationMapping",
    "RelationRule",
    "SensorReading",
    "Snapshot",
    "StepEntity",
    "StepModel",
    "TemporalGraph",
    "TrainConfig",
    "WalkConfig",
    "WalkCorpus",
    "adjacency_tensor",
    "attach_fixed_node",
    "attach_properties",
    "build_graph",
    "build_snapshots",
    "cosine",
    "discretize",
    "export_projector",
    "flatten",
    "generate_walks",
    "knn",
    "load_footprints",
    "locate_cell",
    "merge_into",
    "parse_step",
    "parse_step_file",
    "predict_comfort",
    "serialize_step",
    "train",
    "transition_distribution",
    "validate_references",
]
