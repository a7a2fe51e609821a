"""Flat key=value run configuration shared by all pipeline commands.

Unknown keys are rejected. ``relation.<IFCTYPE>=<LABEL>:<relating>:<related>``
entries override or extend the relationship rule table; every other key maps
one-to-one onto a :class:`RunConfig` field. Command-line flags override file
values, and each command echoes the fully resolved configuration.

:class:`RunConfig` takes its defaults from, and builds on demand, each
stage's record (:class:`WalkConfig`, :class:`TrainConfig`,
:class:`RelationMapping`), so the command that uses a bad value rejects it.
The other run parameters' defaults are its own, and functions taking one
as an argument default to :class:`RunConfig`'s value.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import re
from dataclasses import dataclass, field
from typing import Mapping

from .errors import BimvecError, ConfigError
from .fileio import text_lines
from .graph import check_token

logger = logging.getLogger(__name__)


# Allowed range of the return (p) and in-out (q) parameters; it bounds the
# expected number of rejection trials per step by P_Q_MAX / P_Q_MIN = 100.
P_Q_MIN = 0.1
P_Q_MAX = 10.0


@dataclass(frozen=True)
class WalkConfig:
    p: float = 1.0
    q: float = 1.0
    walk_length: int = 80
    walks_per_node: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (P_Q_MIN <= self.p <= P_Q_MAX and P_Q_MIN <= self.q <= P_Q_MAX):
            raise ValueError(f"p and q must lie in [{P_Q_MIN}, {P_Q_MAX}], "
                             f"got p={self.p}, q={self.q}")
        if self.walk_length < 1:
            raise ValueError("walk_length must be >= 1")
        if self.walks_per_node < 1:
            raise ValueError("walks_per_node must be >= 1")


@dataclass(frozen=True)
class TrainConfig:
    dimension: int = 128
    window: int = 10
    negatives: int = 5
    epochs: int = 5
    initial_lr: float = 0.025
    min_lr: float = 0.0001
    seed: int = 0

    def __post_init__(self):
        for name in ("initial_lr", "min_lr"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dimension < 1 or self.window < 1:
            raise ValueError("dimension and window must be >= 1")
        if self.negatives < 1 or self.epochs < 1:
            raise ValueError("negatives and epochs must be >= 1")
        if not (self.initial_lr > 0) or self.min_lr < 0:
            raise ValueError("initial_lr must be > 0 and min_lr >= 0")
        if self.min_lr > self.initial_lr:
            raise ValueError("min_lr must not exceed initial_lr")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


DEFAULT_RELATION_RULES: dict[str, RelationRule] = {
    "IFCRELAGGREGATES": RelationRule("AGGREGATES", 4, 5),
    "IFCRELCONTAINEDINSPATIALSTRUCTURE": RelationRule("CONTAINS", 5, 4),
    "IFCRELFILLSELEMENT": RelationRule("FILLS", 4, 5),
    "IFCRELVOIDSELEMENT": RelationRule("VOIDS", 4, 5),
    "IFCRELSPACEBOUNDARY": RelationRule("BOUNDED_BY", 4, 5),
    "IFCRELCONNECTSELEMENTS": RelationRule("CONNECTS", 5, 6),
}

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


# The comfort classes, the feedback of an occupant fix and the labels that
# predict reads and prints, with their one-hot vectors in the same order.
COMFORT_CLASSES = ("comfortable", "uncomfortable", "neutral")
COMFORT_ONE_HOT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@dataclass(frozen=True)
class RelationMapping:
    rules: Mapping[str, RelationRule] = field(
        default_factory=lambda: dict(DEFAULT_RELATION_RULES)
    )
    object_prefixes: tuple[str, ...] = DEFAULT_OBJECT_PREFIXES

    def is_object_type(self, type_name: str) -> bool:
        return type_name.startswith(self.object_prefixes)


@dataclass(frozen=True)
class RunConfig:
    cell_size: float = 1.0
    adjacency: str = "rook"
    sensor_radius: float | None = None  # None means "one cell size"
    occupant_radius: float | None = None
    step: int = 300
    max_gap: int = 10
    strict: bool = False
    p: float = WalkConfig.p
    q: float = WalkConfig.q
    walk_length: int = WalkConfig.walk_length
    walks_per_node: int = WalkConfig.walks_per_node
    walk_seed: int = WalkConfig.seed
    dimension: int = TrainConfig.dimension
    window: int = TrainConfig.window
    negatives: int = TrainConfig.negatives
    epochs: int = TrainConfig.epochs
    initial_lr: float = TrainConfig.initial_lr
    min_lr: float = TrainConfig.min_lr
    train_seed: int = TrainConfig.seed
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
        return self._stage_config(WalkConfig, self.walk_seed)

    def train_config(self) -> TrainConfig:
        return self._stage_config(TrainConfig, self.train_seed)

    def _stage_config(self, cls, seed: int):
        """``cls`` built from this config's same-named fields, with ``seed``."""
        return cls(**{f.name: seed if f.name == "seed" else getattr(self, f.name)
                      for f in dataclasses.fields(cls)})

    def relation_mapping(self) -> RelationMapping:
        return RelationMapping({**DEFAULT_RELATION_RULES, **self.relation_overrides},
                               self.object_prefixes)

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
        try:
            values[key] = _parse_value(key, field_types[key], raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{line_no}: {exc}") from None
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
