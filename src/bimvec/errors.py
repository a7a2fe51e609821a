"""Exception types shared across the toolkit.

Every error raised on a bad input derives from :class:`BimvecError`; the CLI
maps these to categorized exit codes (usage = 2, input data = 3, internal
invariant = 4).
"""

from __future__ import annotations


class BimvecError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(BimvecError):
    """Invalid run configuration (bad key, unparsable value)."""


class MalformedFileError(BimvecError):
    """A STEP file is missing its sentinel or a mandatory section."""


class StepSyntaxError(BimvecError):
    """Lexical or grammatical error in a STEP file, with 1-based position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class DuplicateIdError(BimvecError):
    """The same #id is defined twice in one DATA section."""


class DanglingReferenceError(BimvecError):
    """A relationship points at an entity that is not in the model."""


class UnknownNodeError(BimvecError):
    """An operation referenced a node id that is not present."""


class InvalidPolygonError(BimvecError):
    """A footprint polygon is degenerate or self-intersecting."""


class GridError(BimvecError):
    """A space's grid is too large, or differs from a graph's CELL nodes."""


class NoCellInRangeError(BimvecError):
    """A position could not be matched to any grid cell."""


class EmptyTimelineError(BimvecError):
    """Snapshot construction was given no readings and no fixes."""


class SliceOutOfRangeError(BimvecError):
    """A snapshot index fell outside the temporal range."""


class IsolatedNodeError(BimvecError):
    """A walk step was requested from a node with no neighbors."""


class EmptyCorpusError(BimvecError):
    """Training was given a corpus with no walks."""


class AllZeroCountsError(BimvecError):
    """A sampling distribution was requested over all-zero counts."""


class ZeroVectorError(BimvecError):
    """Cosine similarity is undefined for a zero vector."""


class NoLabeledExamplesError(BimvecError):
    """Label prediction needs at least one labeled example."""


class InternalInvariantError(BimvecError):
    """An internal consistency check failed; indicates a bug, not bad input."""
