"""Exception types shared across the package.

Input problems raise specific subclasses of :class:`InputError` so callers
(and the CLI) can map them to exit codes.  :class:`InternalInvariant` is
different: it means a step that is guaranteed to succeed on valid input did
not, i.e. an implementation bug, never a property of the input.
"""


class InputError(ValueError):
    """Base class for rejected inputs."""


class LoopEdge(InputError):
    """An edge with both endpoints equal."""


class BadVertexId(InputError):
    """A vertex id outside 0..vertex_count-1."""


class BadEdgeId(InputError):
    """An edge id that does not exist in the graph."""


class NotBipartite(InputError):
    """No two-part labeling exists (odd cycle) or a labeled edge stays inside a part."""


class NotTwoThree(InputError):
    """The graph does not fit the (2,3)-bipartite class (degree caps, parallel edges)."""


class DegreeTooHigh(InputError):
    """A multigraph with maximum degree above 3 where 3 is required."""


class ListTooSmall(InputError):
    """A color list below the required size."""


class BadColor(InputError):
    """A color that is not a non-negative integer (bools are not colors)."""


class BadSize(InputError):
    """A size parameter outside its allowed range."""


class Infeasible(InputError):
    """A generator cannot realize the requested parameters."""


class UnknownName(InputError):
    """Unknown fixture name."""


class FormatError(InputError):
    """A file does not parse as the expected document."""


class BudgetExceeded(RuntimeError):
    """The oracle ran out of its node or edge budget (distinct from infeasible)."""


class InternalInvariant(AssertionError):
    """A guaranteed step failed; signals a bug in this package, not bad input."""
