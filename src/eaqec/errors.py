"""Exception hierarchy for the eaqec package.

Every error raised by the library derives from EaqecError so callers can
catch broadly; the CLI maps subclasses onto stable exit codes.
"""


class EaqecError(Exception):
    """Base class for all eaqec errors."""


# --- field construction / arithmetic ---

class NonPrimeError(EaqecError):
    """The characteristic p is not a prime number."""


class ReduciblePolynomialError(EaqecError):
    """The supplied modulus polynomial is not irreducible (or not monic)."""


class ZeroInverseError(EaqecError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class OddCharacteristicError(EaqecError):
    """wgt / self-dual basis requested for a field of odd characteristic."""


# --- pauli / check-matrix layer ---

class DimensionMismatchError(EaqecError):
    """Operands live on different fields or different qudit counts."""


class IndexOutOfRangeError(EaqecError, IndexError):
    """A 1-based qudit or row index is outside the valid range."""


class BadScalarError(EaqecError):
    """Row-operation scalar outside the allowed scalar domain."""


class NonInvertibleGammaError(EaqecError):
    """A gate's gamma is missing, stray, not a field element, or 0 for MUL."""


class UnknownOpError(EaqecError, ValueError):
    """An op is not a CliffordOp or RowOp, or names a kind outside its set."""


class BadArgumentError(EaqecError, ValueError):
    """A reduction mode, repetition count or field parameter outside its domain."""


class ParseError(EaqecError):
    """Malformed matrix or circuit text; carries a 1-based location."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)


class EntryOutOfRangeError(ParseError):
    """Matrix entry is not a valid element of the declared field."""


# --- reduction layer ---

class NotConstructibleError(EaqecError):
    """Strict-mode reduction hit a residual 2-row block with product not in {0, 1}."""


class NonPrimeFieldError(EaqecError):
    """Operation requires a prime field (extension degree 1)."""


class DependentRowsError(EaqecError):
    """Generator rows are linearly dependent over the prime subfield."""


class ZeroA2Error(EaqecError, ZeroDivisionError):
    """Pair-normalization multiplier requested with a2 = 0."""


class InconsistentCountsError(EaqecError):
    """(n, row_count, c) violate 2c <= row_count <= n + c."""


class ReductionFailedError(EaqecError):
    """A reduction ended in rows that break the canonical layout (internal error)."""


# --- dense oracle ---

class DimensionTooLargeError(EaqecError):
    """Dense computation would exceed the desk-scale dimension cap."""


class NotAPauliError(EaqecError):
    """Conjugation result is not proportional to any X_a Z_b (bad gate construction)."""


class NonCommutingGeneratorsError(EaqecError):
    """Stabilized-subspace computation needs pairwise commuting generators."""


# --- code semantics ---

class BadGroupingError(EaqecError):
    """Z-bar / X-bar grouping inconsistent with the (c, a) split."""


class ErrorOnBobQuditError(EaqecError):
    """Channel errors may only touch the sender's qudits."""


class TooLargeError(EaqecError):
    """Pairwise correctability check exceeds the pair-count cap."""


class EmptyMatrixError(EaqecError, ValueError):
    """A matrix or generator list is empty or ragged where its size is read from it."""
