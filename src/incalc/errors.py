"""Exception types shared across the package."""


class IncalcError(Exception):
    """Base class for every error this package raises deliberately."""


class WidthMismatchError(IncalcError):
    """Two incidences (or an incidence and a space) disagree on width."""


class FormulaSyntaxError(IncalcError):
    """A formula string failed to parse; `position` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundAtomError(IncalcError):
    """A formula mentions an atom the environment does not define."""


class ZeroProbabilityError(IncalcError):
    """Conditioning on a sentence whose probability is zero."""


class DegenerateMarginalError(IncalcError):
    """Correlation is undefined when either marginal is 0 or 1."""


class UnknownSentenceError(IncalcError):
    """The sentence asked about has no entry in the bound assignment."""


class InstanceTooLargeError(IncalcError):
    """An exhaustive computation was refused because the instance is too large."""


class InfeasibleTargetError(IncalcError):
    """No incidence assignment can realise the requested targets."""


class RecordTableError(IncalcError):
    """An observation table is malformed."""


class KBError(IncalcError):
    """A knowledge-base file failed to parse; `line` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
