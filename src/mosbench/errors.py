"""Exception and warning types shared across the toolkit."""
from __future__ import annotations


class MosbenchError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(MosbenchError):
    """Cost vectors (or grids/tables) of incompatible dimensions were combined."""


class LengthMismatch(MosbenchError):
    """Two sequences that must have equal length do not."""


class DegenerateInput(MosbenchError):
    """A statistic is undefined for the given input (e.g. a constant vector)."""


class EmptyGraph(MosbenchError):
    """The operation needs more edges or vertices than the graph has."""


class NonEdge(MosbenchError):
    """A path step (u, v) with no matching arc in the graph."""


class NegativeCost(MosbenchError):
    """An arc with a negative cost component."""


class Malformed(MosbenchError):
    """A line of an input file that does not match the expected format."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class ArcSetMismatch(MosbenchError):
    """Paired single-objective files disagree on vertex count, arc count or arc endpoints."""


class MissingElevation(MosbenchError):
    """Extending a road graph past two objectives requires an elevation table."""


class ElevationSizeMismatch(MosbenchError):
    """Elevation table length differs from the graph's vertex count."""


class RootOutOfRange(MosbenchError):
    """Subgraph extraction root is not a vertex of the graph."""


class BadToken(MosbenchError):
    """A map cell token that is neither '@' nor a non-negative integer."""

    def __init__(self, row: int, col: int, token: str):
        super().__init__(f"row {row}, col {col}: bad cell token {token!r}")
        self.row = row
        self.col = col
        self.token = token


class NonPositiveClearance(MosbenchError):
    """A roadmap edge with a zero or negative per-link clearance."""


class TargetOutOfRange(MosbenchError):
    """A query endpoint is not a vertex of the graph."""


class ExhaustedPairs(MosbenchError):
    """More distinct query pairs were requested than the endpoint pools can supply."""


class SearchTimeout(MosbenchError):
    """A solver run exceeded its cooperative time limit."""


class QueryMismatch(MosbenchError):
    """Two solution sets being compared do not belong to the same query."""


class NoRecords(MosbenchError):
    """A statistics operation received no matching benchmark records."""


class MissingBaseline(MosbenchError):
    """Reduction statistics need an epsilon-zero record for every query counted."""


class AllExcluded(MosbenchError):
    """Every query was excluded from a spread axis (zero minimum or empty front)."""


class WindowTooSmall(UserWarning):
    """A generator vertex whose locality window cannot supply its sampled out-degree."""
