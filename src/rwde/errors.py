"""Structured errors raised by the library.

Every error carries a short machine-readable ``code`` (its class name) so the
CLI can emit it in JSON error objects.
"""


class RwdeError(Exception):
    """Base class for all library errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


# --- weight validation ---------------------------------------------------

class EmptySide(RwdeError):
    """L or R is smaller than 1."""


class NegativeWeight(RwdeError):
    """A weight is negative or not finite."""


class EndpointZero(RwdeError):
    """The leftmost or rightmost weight is zero or missing."""


class GcdViolation(RwdeError):
    """The gcd of the absolute support offsets is not 1."""


class CapExceeded(RwdeError):
    """Interval connectivity length search exceeded its safety cap."""


# --- graph builders -------------------------------------------------------

class MTooSmall(RwdeError):
    """Closure window size must exceed R + L."""


class WTooSmall(RwdeError):
    """Half-line truncation width must exceed R + L."""


class NonpositiveKappa1(RwdeError):
    """The drift closure requires kappa1 > 0."""


# --- trap exponent search -------------------------------------------------

class EmptySet(RwdeError):
    """Exit weights need a nonempty vertex set."""


class DiameterTooSmall(RwdeError):
    """Search diameter must be at least the connectivity length m0."""


class UncertifiedKappa0(UserWarning):
    """Classification used a kappa0 value whose search was not certified."""


# --- environment sampling -------------------------------------------------

class IsolatedVertex(RwdeError):
    """A non-sink vertex has no outgoing edge to sample a row for."""


# --- quenched solvers -----------------------------------------------------

class UnreachableBoundary(RwdeError):
    """Some vertex cannot reach the absorbing boundary."""


class SingularSystem(RwdeError):
    """An exact solve met a zero or non-finite rate, or a stationary vector
    failed its checks."""


class NoExit(RwdeError):
    """The walk surely returns to its start inside the set: infinite expectation."""


class NotStronglyConnected(RwdeError):
    """The operation needs a strongly connected support graph."""


# --- walks ------------------------------------------------------------------

class DeadEnd(RwdeError):
    """The reinforced walk reached a vertex with no outgoing edge."""


class NotAPath(RwdeError):
    """Consecutive vertices of the path are not joined by an edge."""


# --- statistics -------------------------------------------------------------

class EmptySample(RwdeError):
    """Statistic requires a nonempty sample."""


class BadK(RwdeError):
    """Order-statistic count k must satisfy 1 <= k < n."""


class DomainError(RwdeError):
    """Argument outside the mathematical domain."""
