"""Exception types shared across the library.

The CLI maps these onto exit codes: parse/config problems (SourceSpecError,
InvalidInput and the source assumption errors) exit 2, everything else
derived from TiltlabError exits 1.
"""


class TiltlabError(Exception):
    """Base class for all library errors."""


class SourceSpecError(TiltlabError):
    """A source description (file or dict) could not be parsed or is malformed."""


class InvalidInput(TiltlabError, ValueError):
    """An argument breaks an input rule: a length, order, width, grid, curve
    kind or sample count out of its domain, or a table that does not fit."""


class NotNormalized(TiltlabError):
    """A probability vector does not sum to 1 within tolerance."""


class BoundaryViolation(TiltlabError):
    """Some symbol probability sits on or below the open-simplex floor."""


class TieViolation(TiltlabError):
    """The most or least likely symbol is not unique."""


class UnknownSymbol(TiltlabError):
    """A string contains a token outside the source alphabet."""


class UnknownString(TiltlabError):
    """A string is not part of the enumerated table (bad length or symbol)."""


class AlphabetMismatch(TiltlabError):
    """Two sources that must share an alphabet do not."""


class BudgetExceeded(TiltlabError):
    """|alphabet|^n is larger than the configured enumeration budget."""


class OutOfRange(TiltlabError):
    """A query point lies outside the domain of the requested curve."""


class BracketFailure(TiltlabError):
    """Root bracketing hit its expansion cap without a sign change."""


class NegativeVariance(TiltlabError):
    """A varentropy fed to a closed-form approximation is negative."""


class DegenerateVariance(TiltlabError):
    """A varentropy required to be positive is numerically zero."""
