"""Exception types shared across the package.

Each type's ``exit_code`` is the CLI exit status it ends in: 3 for a
malformed or invalid input, 4 otherwise.  A subclass inherits its
parent's code unless it sets its own.
"""


class CausalbnError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 4


class CycleError(CausalbnError):
    """Raised when a directed cycle prevents a topological order."""

    exit_code = 3


class UnknownNode(CausalbnError):
    """A node identifier does not exist in the graph."""


class UnknownVariable(UnknownNode):
    """A variable name does not exist in the network."""


class ValidationError(CausalbnError):
    """A network or parameter set violates a structural invariant."""

    exit_code = 3


class SizeCapExceeded(CausalbnError):
    """An exact computation would exceed the configured size limit."""


class ZeroProbabilityEvidence(CausalbnError):
    """Conditioning event has probability zero."""


class EmptyDataset(CausalbnError):
    """A dataset operation received no rows."""


class PositivityViolation(CausalbnError):
    """An adjustment stratum lacks support for some treatment level."""


class ParseError(CausalbnError):
    """A model file is malformed; message carries the location."""

    exit_code = 3


class InfeasibleEndpoints(CausalbnError):
    """Decomposition endpoints do not bracket the conditional probabilities."""


class DegenerateEndpoints(CausalbnError):
    """Decomposition endpoints coincide, leaving the weights undefined."""


class DomainError(CausalbnError):
    """A numeric argument is outside its mathematical domain."""


class StructureError(CausalbnError):
    """The graph does not have the structure an operation requires."""
