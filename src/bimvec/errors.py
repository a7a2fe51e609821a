"""Exception types shared across the toolkit: one per CLI exit code.

A bad input raises :class:`BimvecError` (exit 3), whose message names what
was wrong and, for a file, where; a bad run configuration raises
:class:`ConfigError` (exit 2) and a failed consistency check
:class:`InternalInvariantError` (exit 4). A library call given a bad
argument raises ``ValueError``, which the CLI also maps to exit 3.
"""

from __future__ import annotations


class BimvecError(Exception):
    """Bad input data; base class for all toolkit errors."""


class ConfigError(BimvecError):
    """Invalid run configuration (bad key, unparsable value)."""


class InternalInvariantError(BimvecError):
    """An internal consistency check failed; indicates a bug, not bad input."""
