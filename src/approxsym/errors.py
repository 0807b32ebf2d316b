"""Exception taxonomy shared by all modules."""


class ApproxSymError(Exception):
    """Base class for all package errors."""


class SyntaxErrorAt(ApproxSymError):
    """Parse failure, carrying 1-based line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class DivisionByZero(ApproxSymError):
    """A zero base was raised to a negative power, e.g. 1/0 or 0^(-1/2), or
    log(0) was built."""


class NumberTooLong(ApproxSymError):
    """A rational has more digits than ``int`` and ``str`` convert between
    decimal text and numbers (``sys.get_int_max_str_digits``)."""


class NotPolynomial(ApproxSymError):
    """collect() was asked for a generator the expression is not polynomial in."""


class DerivativeOverflow(ApproxSymError):
    """A total derivative would exceed the jet space's transient bound r+1."""


class SingularAtEpsZero(ApproxSymError):
    """eps-expansion hit a division by something vanishing identically at eps=0."""


class OrderMismatch(ApproxSymError):
    """Series arithmetic on series of different truncation orders."""


class NotAVariationalSymmetry(ApproxSymError):
    """Flux assembly requested for a generator/gauge pair with nonzero residual.

    ``residual`` is given as the whole residual series, or as a function of
    no arguments that builds it.  The series is then built only when
    ``residual`` or the message is first read, and the message, the whole
    residual, is formatted only when read: a rejection that is caught
    builds and formats nothing more."""

    def __init__(self, residual):
        super().__init__()
        self._residual = residual

    @property
    def residual(self):
        if callable(self._residual):
            self._residual = self._residual()
        return self._residual

    def __str__(self):
        return f"residual is not identically zero: {self.residual!r}"


class FormulaMismatch(ApproxSymError):
    """Residual is zero but the assembled fluxes fail the divergence check."""


class CannotSolveForLeadingDerivative(ApproxSymError):
    """Euler-Lagrange hierarchy is not solvable for the second derivatives."""


class AnsatzIncomplete(ApproxSymError):
    """Determining extraction met a family function with no declared ansatz."""


class UnverifiedSolution(ApproxSymError):
    """A vector of the solved null space whose residual does not read zero."""


class SymbolicPivotAmbiguity(ApproxSymError):
    """Elimination would need to decide whether a symbolic constant expression is zero."""

    def __init__(self, pivot):
        super().__init__(f"cannot decide whether pivot is zero: {pivot}")
        self.pivot = pivot


class UnboundSymbol(ApproxSymError):
    """Numeric compilation met a symbol with no binding."""


class NonFiniteState(ApproxSymError):
    """Integration produced an overflow or NaN."""


class UnknownModel(ApproxSymError):
    """No builtin model with the requested name."""


class ModelError(ApproxSymError):
    """Model file failed schema validation; message carries the offending path."""
