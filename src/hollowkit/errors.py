"""Exception types shared across the package.

Every structured failure mode raised by hollowkit derives from
:class:`HollowkitError` so callers (and the CLI) can catch one base class.
Exceptions that carry diagnostic payloads expose them as attributes.
"""


class HollowkitError(Exception):
    """Base class for all hollowkit errors."""


class DegenerateSimplexError(HollowkitError):
    """Simplex vertices are affinely dependent beyond the degeneracy gate."""


class UnboundedBodyError(HollowkitError):
    """An H-polytope description admits a recession direction."""


class EmptyBodyError(HollowkitError):
    """A body description has no feasible point.

    ``gap`` is the gap a feasibility scan left open, when one decided it.
    """

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class PolytopeSizeError(HollowkitError):
    """An H-polytope has more d-row subsets than the vertex budget."""


class ProjectionError(HollowkitError):
    """A projection or support oracle failed.

    Raised when the projection onto an intersection of bodies runs out of
    passes (farther than its tol from a member, for an IntersectionBody)
    or its cuts share no point (a stall), when the least-distance solver
    of a projection or of a feasibility scan spends its step budget or
    meets a non-finite value, or when a point is infinitely far (the
    squares of its offset overflow) from a body other than a ball, which
    projects such a point along its offset.

    Attributes
    ----------
    last_iterate : ndarray
        The final iterate when the pass budget ran out, if any.
    residual : float
        Distance from the final iterate to the farthest member set, if any;
        for a stalled intersection projection, the smallest such distance
        over its iterates.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class ConvergenceError(HollowkitError):
    """An iterative solve exhausted its budget; carries the best result."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ToleranceAmbiguityError(HollowkitError):
    """A feasibility gap fell in the band [tol/10, tol], or the cut loop of
    an IntersectionBody stalled (its stall rule): undecidable at tol."""

    def __init__(self, message, gap=None, tol=None):
        super().__init__(message)
        self.gap = gap
        self.tol = tol


class NotSeparableError(HollowkitError):
    """Bodies overlap (or nearly so); no separating hyperplane exists."""


class NoHollowError(HollowkitError):
    """The family cannot enclose a hollow in this ambient dimension (n < d)."""


class BorderlineCriticalError(HollowkitError):
    """Criticality margins sit too close to the tolerance floor to certify."""


class SpernerLegalityError(HollowkitError):
    """A coloring violated the carrier-face rule; internal inconsistency."""


class SubdivisionSizeError(HollowkitError):
    """Requested subdivision depth exceeds the cell budget."""


class KleeSolveError(HollowkitError):
    """No common point found within the subdivision budget.

    Attributes
    ----------
    best_cell : ndarray or None
        Vertex coordinates of the smallest rainbow cell seen, if any.
    """

    def __init__(self, message, best_cell=None):
        super().__init__(message)
        self.best_cell = best_cell


class GridResolutionError(HollowkitError):
    """Grid resolution not a positive finite number, or too coarse for the
    region being rasterized."""


class GridDimensionError(HollowkitError, ValueError):
    """The grid certificate does not rasterize this ambient dimension."""


class HollowNotFoundError(HollowkitError):
    """No hollow cell appeared on a grid where a hollow was expected."""


class SceneError(HollowkitError):
    """A scene or result file failed to parse or validate.

    ``line`` and ``column`` are set for JSON syntax errors; ``details`` holds
    per-body validation messages.
    """

    def __init__(self, message, line=None, column=None, details=None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.details = details or []
