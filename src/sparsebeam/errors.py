"""Exception types shared across the package."""

from functools import cached_property


class ConfigurationError(ValueError):
    """A scenario, grid, or solver configuration is invalid."""


class ProjectionError(RuntimeError):
    """A constraint projection failed to converge.

    ``diagnostics`` carries whatever the failing path knew (constraint kind,
    multiplier bracket, residuals) to make the failure reportable.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class InfeasibleProblemError(RuntimeError):
    """No point satisfying every constraint could be found.

    ``worst_violations`` lists (description, violation) pairs for the most
    violated constraints at the best point reached.  It is evidence for a
    reader, not part of the verdict, so it may be given as a zero-argument
    callable that returns the list: it is then called on the first read of
    ``worst_violations`` and never if nobody reads it (pickling the error
    reads it, so a copy carries the list).  ``certificate`` is a
    ``sparsebeam.certificate.Certificate`` proving that no feasible point
    exists, or None when the search merely gave up.
    """

    def __init__(self, message, worst_violations=None, certificate=None):
        super().__init__(message)
        self._evidence = worst_violations
        self.certificate = certificate

    @cached_property
    def worst_violations(self):
        evidence = self._evidence() if callable(self._evidence) else self._evidence
        self._evidence = None  # the list is kept; the problem and point need not be
        return list(evidence or [])

    def __reduce__(self):
        self.worst_violations  # read, so that the state pickled holds no callable
        return super().__reduce__()
