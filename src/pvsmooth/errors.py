"""Exception types shared across the package.

The split mirrors how callers are expected to react: bad inputs
(:class:`DomainError`, :class:`ContractError`) are programming errors at the
call site, while :class:`ConvergenceError` / :class:`NumericalError` signal a
runtime failure of an iterative routine and carry whatever partial state was
available when the failure was detected.
"""

__all__ = [
    "PvsError",
    "DomainError",
    "ContractError",
    "ConfigError",
    "CapabilityError",
    "ConvergenceError",
    "NumericalError",
    "StageError",
]


class PvsError(Exception):
    """Base class for all package errors; ``trace`` is None until a solver
    run attaches its partial trace."""

    trace = None


class DomainError(PvsError, ValueError):
    """A parameter lies outside its admissible range (e.g. mu >= 1/rho)."""


class ContractError(PvsError, ValueError):
    """Inputs violate a declared contract (dimension mismatch, x not in V)."""


class ConfigError(PvsError, ValueError):
    """A configuration file or config object is malformed."""


class CapabilityError(PvsError, ValueError):
    """The request exceeds what a routine supports (e.g. oracle dimension)."""


class ConvergenceError(PvsError, RuntimeError):
    """An iterative routine exhausted its budget before meeting tolerance.

    Attributes
    ----------
    residual : float or None
        Last residual observed before giving up.
    iterations : int or None
        Number of iterations performed.
    best : object or None
        Best iterate (or partial result) found so far.
    trace : object or None
        Partial trace, when a run attaches one.
    """

    def __init__(self, message, residual=None, iterations=None, best=None, trace=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.best = best
        self.trace = trace


class NumericalError(PvsError, RuntimeError):
    """A non-finite value or inconsistent internal state was produced."""


class StageError(PvsError, RuntimeError):
    """A stage of a multi-stage run failed; completed stages are attached and
    the stage's error is the ``__cause__``."""

    def __init__(self, message, completed=None, diagnostics=None):
        super().__init__(message)
        self.completed = completed
        self.diagnostics = diagnostics
