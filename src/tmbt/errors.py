"""Exception types shared across the toolkit.

The CLI maps these onto exit codes, so everything user-triggerable
derives from TmbtError.
"""


class TmbtError(Exception):
    """Base class for all toolkit errors."""


class UnboundVariable(TmbtError):
    """A formula referenced a variable with no value in scope."""


class TypeMismatch(TmbtError):
    """An operator was applied to values of the wrong kind."""


class PrimedInStateFormula(TmbtError):
    """A primed variable appeared where only the current state is available."""


class IntegerOverflow(TmbtError):
    """Arithmetic left the signed 64-bit range."""


class EmptyChooseDomain(TmbtError):
    """CHOOSE found no satisfying element."""


class UnboundedDomain(TmbtError):
    """Init or an action leaves a variable free, and TypeOK gives it no domain."""


class NoInitialStates(TmbtError):
    """No state satisfies the init formula."""

    @classmethod
    def of(cls, spec) -> "NoInitialStates":
        """The error `check` and `behaviors` give for `spec`."""
        return cls(f"spec {spec.name}: init is unsatisfiable over the derived "
                   "domains")


class MissingDefinition(TmbtError):
    """A required definition (Init, Next, a named invariant) is absent."""


class SourceError(TmbtError):
    """A text-level error that points at a line and column of the input."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self) -> str:
        base = super().__str__()
        return f"{self.line}:{self.col}: {base}"


class LexError(SourceError):
    """Unexpected character while tokenizing."""


class ParseError(SourceError):
    """Malformed source text."""


class UnsupportedConstruct(ParseError):
    """Source uses syntax outside the supported subset (EXTENDS, INSTANCE, ...)."""


class PreconditionViolated(TmbtError):
    """A command sequence broke an operation's precondition on replay."""


class ModelStepError(TmbtError):
    """A test model's operation built no next state, or more than one."""


class SutCrashed(TmbtError):
    """The system under test died or reported a fault mid-case."""


class ProtocolError(TmbtError):
    """The SUT adapter produced a malformed reply."""
