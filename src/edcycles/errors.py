"""Typed errors raised by the library.

Every refusal is explicit: operations never silently approximate outside
their documented domain.
"""


class EdcyclesError(Exception):
    """Base of every typed refusal; the CLI reports each as JSON on stderr."""


class ParameterDomainError(EdcyclesError, ValueError):
    """Input lies outside the documented parameter domain of an operation."""


class SizeExceededError(EdcyclesError, ValueError):
    """Instance is larger than the configured exact-search bound."""


class NonConvergenceError(EdcyclesError, RuntimeError):
    """Iterative solver hit its iteration cap before meeting tolerance."""


class EmbedTimeoutError(EdcyclesError, RuntimeError):
    """Embedding search ran out of time budget; the verdict is unknown."""


class NonConcavityError(EdcyclesError, RuntimeError):
    """A curve failed a three-point concavity probe; unimodal search is invalid."""
