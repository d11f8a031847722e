"""Exception hierarchy for the DSAGEN reproduction.

Every subsystem raises a subclass of :class:`DsagenError` so callers can
catch framework errors without masking programming mistakes.
"""


class DsagenError(Exception):
    """Base class for all framework errors."""


class AdgError(DsagenError):
    """Malformed or inconsistent architecture description graph."""


class AdgValidationError(AdgError):
    """An ADG violates a composition rule (Section III-B of the paper)."""


class MergeError(AdgError):
    """Two ADGs cannot be merged without fabricating capacity.

    Raised by :func:`repro.adg.merge.merge_adgs` when capability-
    preserving unification is impossible (conflicting single-valued
    resources, un-unifiable component kinds, or a union graph that
    fails composition validation). The merge fails honestly instead of
    returning a fabric that silently lacks capabilities one of its
    inputs had."""


class IrError(DsagenError):
    """Malformed dataflow IR."""


class FrontendError(DsagenError):
    """Source program could not be parsed or analyzed."""


class ParseError(FrontendError):
    """Syntax error in the C-subset frontend."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")


class SemanticError(FrontendError):
    """Program is syntactically valid but semantically ill-formed."""


class CompilationError(DsagenError):
    """The compiler could not produce a legal program for the target ADG."""


class SchedulingError(CompilationError):
    """The spatial scheduler failed to find a legal mapping."""


class UnmappableError(SchedulingError):
    """The scheduler proved, before its first random draw, that no legal
    mapping of the scope exists, so no seed can change the outcome."""


class EstimationError(DsagenError):
    """Performance or power/area estimation failed."""


class DseError(DsagenError):
    """Design-space exploration failed."""


class HwGenError(DsagenError):
    """Hardware generation (bitstream / RTL / config path) failed."""


class SimulationError(DsagenError):
    """Cycle-level simulation reached an illegal state."""


class FaultError(DsagenError):
    """A hardware fault specification could not be drawn or applied."""


class ServerError(DsagenError):
    """The compile service (client or server side) failed."""


class TransportError(ServerError, ConnectionError):
    """The connection to the compile service was lost mid-operation.

    Subclasses :class:`ConnectionError` so callers that predate the
    typed hierarchy (``except (OSError, ConnectionError)``) keep
    working.
    """


class ServerTimeout(ServerError):
    """A client operation exceeded its deadline or socket timeout.

    Raised instead of a raw ``socket.timeout`` so callers can
    distinguish "the service is slow" from programming errors, and so
    per-op deadlines surface as one typed condition.
    """


class CircuitOpenError(ServerError):
    """The client's circuit breaker is open: recent consecutive
    transport failures mean the service is presumed down, and calls
    fail fast instead of burning a connect timeout each. The breaker
    half-opens after its cooldown and recovers on the next success."""


class ProtocolError(ServerError, ValueError):
    """A malformed wire payload, completion record, or server address.

    Subclasses :class:`ValueError` for backward compatibility with
    callers that caught the previous untyped exceptions.
    """


class JournalError(ServerError):
    """The durable job journal is unusable (unwritable path, corrupt
    beyond torn-tail repair)."""


class VerificationError(DsagenError):
    """Cross-layer verification found a real inconsistency.

    Raised only by opt-in verification entry points
    (``compile_kernel(verify=...)``, the ``repro verify`` CLI); the
    :mod:`repro.verify` library functions themselves return structured
    diagnostics instead of raising.
    """
