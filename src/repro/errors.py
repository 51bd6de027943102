"""Exception hierarchy for the repro package.

Every subsystem raises a subclass of :class:`ReproError` so callers can catch
library failures without also catching programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class DFGError(ReproError):
    """Malformed dataflow graph (bad edge, cycle without distance, ...)."""


class FrontendError(ReproError):
    """Lexing, parsing, or lowering of an annotated-C kernel failed."""


class TransformError(FrontendError):
    """An AST loop transform (unroll, tile, interchange, ...) or recipe is
    malformed or not applicable to the kernel's loop nest."""


class MotifError(ReproError):
    """Motif identification or hierarchical-DFG construction failed."""


class ArchitectureError(ReproError):
    """Inconsistent architecture description or resource query."""


class MappingError(ReproError):
    """The mapper could not produce a valid mapping."""


class MappingCutoff(MappingError):
    """A portfolio-race candidate abandoned its search at the incumbent
    cutoff: every mapping it could still find is provably no better than
    the incumbent best (see :mod:`repro.mapping.race`).  Never cached or
    surfaced as a real mapping failure — the race driver consumes it.

    ``ii`` is the II level the search was about to attempt, ``attempts``
    and ``seconds`` the work spent before giving up.
    """

    def __init__(self, message: str, *, ii: int = 0, attempts: int = 0,
                 seconds: float = 0.0) -> None:
        super().__init__(message)
        self.ii = ii
        self.attempts = attempts
        self.seconds = seconds


class SimulationError(ReproError):
    """The cycle-accurate simulator detected an inconsistency."""


class IterationWindowError(SimulationError):
    """A simulation or interpretation window outside the kernel's
    iteration space: ``requested`` iterations asked for, ``available``
    points in the space (the window must lie in ``1..available``)."""

    def __init__(self, message: str, *, requested: int,
                 available: int) -> None:
        super().__init__(message)
        self.requested = requested
        self.available = available


class ConfigError(ReproError):
    """Configuration bitstream encoding/decoding failed."""


class PowerModelError(ReproError):
    """Power/area model queried with an unknown module or architecture."""


class WorkloadError(ReproError):
    """Unknown workload or ill-formed workload definition."""
