"""Exception types shared across the package."""


class PushsimError(Exception):
    """Base class for package errors."""


class ConfigurationError(PushsimError):
    """Invalid configuration, parameters, or input files (CLI exit code 2)."""


class InvalidTopologyError(ConfigurationError):
    """Graph violates a structural precondition."""


class ProtocolViolationError(PushsimError):
    """A protocol invariant (e.g. positive weights) was violated at runtime.

    run (run index), slot and node (0-based) locate the violation; each is
    None when the raiser does not know it.
    """

    def __init__(self, message: str, run: int | None = None,
                 slot: int | None = None, node: int | None = None):
        super().__init__(message)
        self.run, self.slot, self.node = run, slot, node


class InconsistentScheduleError(PushsimError):
    """A schedule fed to the audit system violates its exclusivity rules."""


class VerificationError(PushsimError):
    """An audit identity exceeded its tolerance (CLI exit code 1)."""


class ReferenceSolverError(PushsimError):
    """The reference-optimum solver failed to certify a solution."""
