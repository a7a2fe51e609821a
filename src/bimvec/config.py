"""Flat key=value run configuration shared by all pipeline commands.

Unknown keys are rejected. ``relation.<IFCTYPE>=<LABEL>:<relating>:<related>``
entries override or extend the relationship rule table; every other key maps
one-to-one onto a :class:`RunConfig` field. Command-line flags override file
values, and each command echoes the fully resolved configuration.
"""

from __future__ import annotations

import dataclasses
import logging
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import BimvecError, ConfigError
from .fileio import text_lines
from .graph import check_token

if TYPE_CHECKING:
    from .ifc_graph import RelationMapping
    from .sgns import TrainConfig
    from .walks import WalkConfig

logger = logging.getLogger(__name__)


# The relation rule record and the object whitelist live here rather than in
# ``ifc_graph``, so that a command that builds no graph never loads it or the
# STEP parser.
@dataclass(frozen=True)
class RelationRule:
    """How one relationship entity type expands into edges.

    ``relating_index``/``related_index`` are attribute positions holding an
    entity reference or an aggregate of references; every (relating, related)
    pair becomes one edge labeled ``edge_label``.
    """

    edge_label: str
    relating_index: int
    related_index: int


# Lexical whitelist of node-worthy object types; any entity whose type name
# starts with one of these becomes a graph node.
DEFAULT_OBJECT_PREFIXES: tuple[str, ...] = (
    "IFCSPACE",
    "IFCWALL",
    "IFCDOOR",
    "IFCWINDOW",
    "IFCSLAB",
    "IFCCOVERING",
    "IFCBUILDING",
    "IFCSITE",
    "IFCFLOW",
    "IFCOPENINGELEMENT",
    "IFCROOF",
    "IFCSTAIR",
    "IFCCOLUMN",
    "IFCBEAM",
    "IFCFURNISHINGELEMENT",
)


@dataclass(frozen=True)
class RunConfig:
    cell_size: float = 1.0
    adjacency: str = "rook"
    sensor_radius: float | None = None  # None means "one cell size"
    occupant_radius: float | None = None
    step: int = 300
    max_gap: int = 10
    strict: bool = False
    p: float = 1.0
    q: float = 1.0
    walk_length: int = 80
    walks_per_node: int = 10
    walk_seed: int = 0
    dimension: int = 128
    window: int = 10
    negatives: int = 5
    epochs: int = 5
    initial_lr: float = 0.025
    min_lr: float = 0.0001
    train_seed: int = 0
    dynamic_window: bool = True
    subsample_threshold: float = 0.0
    workers: int = 1
    flatten: str = "union"
    object_prefixes: tuple[str, ...] = DEFAULT_OBJECT_PREFIXES
    relation_overrides: dict[str, RelationRule] = field(default_factory=dict)

    def __post_init__(self):
        if self.adjacency not in ("rook", "queen"):
            raise ConfigError(f"adjacency must be rook or queen, "
                              f"got {self.adjacency!r}")
        if not re.fullmatch(r"union|slice:-?\d+", self.flatten):
            raise ConfigError(f"flatten must be union or slice:<t>, "
                              f"got {self.flatten!r}")

    # -- derived module configs ---------------------------------------------

    def walk_config(self) -> WalkConfig:
        from .walks import WalkConfig  # the walker loads only for commands that walk

        return WalkConfig(self.p, self.q, self.walk_length,
                          self.walks_per_node, self.walk_seed)

    def train_config(self) -> TrainConfig:
        from .sgns import TrainConfig  # numpy loads only for commands that train

        return TrainConfig(
            dimension=self.dimension,
            window=self.window,
            negatives=self.negatives,
            epochs=self.epochs,
            initial_lr=self.initial_lr,
            min_lr=self.min_lr,
            seed=self.train_seed,
            dynamic_window=self.dynamic_window,
            subsample_threshold=self.subsample_threshold,
        )

    def relation_mapping(self) -> RelationMapping:
        from .ifc_graph import RelationMapping  # and the IFC mapping for `graph`

        mapping = RelationMapping(object_prefixes=self.object_prefixes)
        if self.relation_overrides:
            rules = dict(mapping.rules)
            rules.update(self.relation_overrides)
            mapping = RelationMapping(rules, self.object_prefixes)
        return mapping

    def flatten_mode(self) -> tuple[str, int | None]:
        if self.flatten == "union":
            return "union", None
        return "slice", int(self.flatten[len("slice:"):])

    def updated(self, **overrides) -> "RunConfig":
        """New config with non-None override values applied."""
        changes = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **changes) if changes else self

    def to_lines(self) -> list[str]:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "relation_overrides":
                for type_name, rule in sorted(value.items()):
                    lines.append(
                        f"relation.{type_name}={rule.edge_label}:"
                        f"{rule.relating_index}:{rule.related_index}"
                    )
            elif f.name == "object_prefixes":
                lines.append(f"object_prefixes={','.join(value)}")
            else:
                lines.append(f"{f.name}={value}")
        return lines


_BOOL_VALUES = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOL_VALUES[raw.lower()]
    except KeyError:
        raise ConfigError(f"not a boolean: {raw!r}") from None


def load_config(path) -> RunConfig:
    """Parse one ``key=value`` per line; ``#`` starts a comment."""
    values: dict[str, object] = {}
    overrides: dict[str, RelationRule] = {}
    field_types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    try:
        lines = list(text_lines(path))
    except BimvecError as exc:
        raise ConfigError(str(exc)) from None
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    for line_no, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key.startswith("relation."):
            overrides[key[len("relation."):].upper()] = _parse_rule(raw, f"{path}:{line_no}")
            continue
        if key in ("relation_overrides",):
            raise ConfigError(f"{path}:{line_no}: use relation.<TYPE> keys")
        if key not in field_types:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        values[key] = _parse_value(key, field_types[key], raw)
    if overrides:
        values["relation_overrides"] = overrides
    try:
        return RunConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_rule(raw: str, where: str) -> RelationRule:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{where}: relation rule must be LABEL:relating:related, "
                          f"got {raw!r}")
    try:
        check_token(parts[0], "relation label")
        rule = RelationRule(parts[0], int(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"{where}: bad relation rule {raw!r}: {exc}") from None
    if rule.relating_index < 0 or rule.related_index < 0:
        raise ConfigError(f"{where}: relation rule indices must be >= 0, got {raw!r}")
    return rule


def _parse_value(key: str, type_text: str, raw: str):
    try:
        if key == "object_prefixes":
            return tuple(p.strip().upper() for p in raw.split(",") if p.strip())
        if type_text == "bool":
            return _parse_bool(raw)
        if type_text == "int":
            return int(raw)
        if type_text == "float":
            return float(raw)
        if type_text == "float | None":
            return None if raw.lower() in ("", "none") else float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None
