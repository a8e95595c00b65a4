"""Exception types shared across the package."""


class SvqError(Exception):
    """Base class for every error raised by this library."""


class ZeroVector(SvqError):
    """A vector with no component above tolerance was used as a state."""


class DimensionTooSmall(SvqError):
    """States need at least two amplitudes."""


class DimensionMismatch(SvqError):
    """Operands live in spaces of different dimension."""


class NormLost(SvqError):
    """A unit-norm invariant was violated, e.g. by an operator flagged unitary."""


class EmptySpan(SvqError):
    """Every spanning vector was numerically zero."""


class UnknownAtom(SvqError):
    """A formula leaf references an atom missing from the valuation map."""


class PrecisificationBlowup(SvqError):
    """Too many gap atoms to evaluate every Boolean completion."""


class NotCloneShape(SvqError):
    """The two factors of a supposed clone pair differ beyond tolerance."""


class BadProbability(SvqError):
    """A probability outside [0, 1] was supplied."""


class NonMonotoneAssertion(SvqError):
    """A ledger append tried to assert earlier than the last record."""


class DuplicateIdentifier(SvqError):
    """A scenario declares the same name twice."""


class UnknownIdentifier(SvqError):
    """A scenario references a name that has not been declared."""


class ScenarioSyntaxError(SvqError):
    """Scenario text failed to parse; carries a 1-based source position."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        detail = f"{line}:{column}: {message}"
        if self.expected:
            detail += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(detail)


class StepError(SvqError):
    """An error raised while executing a scenario item, annotated with its index."""

    def __init__(self, index: int, line: int, kind: str, cause: Exception):
        self.index = index
        self.line = line
        self.kind = kind
        self.cause = cause
        super().__init__(f"step {index} ({kind}, line {line}): {cause}")
