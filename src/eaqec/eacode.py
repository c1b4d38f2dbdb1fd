"""Code-level semantics on top of a reduction.

An EACode couples the augmented canonical generators with their encoded
counterparts (canonical rows pushed through the inverted column
operations).  Because that transport involves no row operations, the
isotropic / entanglement partition survives as row indices: pair t lives
in rows (2t-1, 2t) and the a isotropic generators in rows 2c+1 .. 2c+a,
in both frames.

Membership, centralizer, syndrome and correctability checks are all
phaseless row computations over the prime field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .checkmatrix import CheckMatrix, _read_header, _read_rows, _read_vector, _TokenStream
from .errors import (
    BadGroupingError,
    EmptyMatrixError,
    ErrorOnBobQuditError,
    NonPrimeFieldError,
    ParseError,
    TooLargeError,
)
from .field import GaloisField
from .linalg import in_span_mod_p
from .pauli import Row, product_table
from .reduction import ReductionResult, encoded_generators

PAIR_CAP = 10 ** 6


@dataclass(frozen=True)
class EACode:
    field: GaloisField
    n: int
    k: int
    c: int
    a: int
    augmented: CheckMatrix            # encoded frame, n + c columns
    canonical_augmented: CheckMatrix  # unencoded frame, n + c columns
    result: ReductionResult

    @property
    def isotropic_rows(self) -> Tuple[int, ...]:
        """0-based indices of the isotropic generators (both frames)."""
        return tuple(range(2 * self.c, 2 * self.c + self.a))

    @property
    def pair_rows(self) -> Tuple[Tuple[int, int], ...]:
        """0-based (X-row, Z-row) index pairs of the entanglement generators."""
        return tuple((2 * t, 2 * t + 1) for t in range(self.c))

    def display(self) -> str:
        return f"[[{self.n},{self.k};{self.c}]]_{self.field.q}"

    def eq4_grouping(self):
        """Pre-augmentation canonical rows grouped as (z_rows, x_rows).

        z_rows lists the a isotropic generators first, then the c paired
        Z generators; x_rows lists the c paired X generators, so x_rows[i]
        is the partner of z_rows[a + i].
        """
        canonical = self.result.canonical
        z_rows = [canonical.rows[i] for i in self.isotropic_rows]
        z_rows += [canonical.rows[zi] for _, zi in self.pair_rows]
        x_rows = [canonical.rows[xi] for xi, _ in self.pair_rows]
        return z_rows, x_rows


def build_code(result: ReductionResult) -> EACode:
    return EACode(field=result.source.field, n=result.source.n,
                  k=result.k, c=result.c, a=result.a,
                  augmented=encoded_generators(result),
                  canonical_augmented=result.augmented,
                  result=result)


# ---------------------------------------------------------------------------
# commutation-pattern check for a canonical grouping
# ---------------------------------------------------------------------------

def check_eq4(field: GaloisField, z_rows: Sequence[Row], x_rows: Sequence[Row]) -> bool:
    """Verify the canonical commutation pattern of a Z-bar / X-bar grouping.

    All Z-Z and X-X products must vanish, X_i against Z_j must vanish for
    unpaired indices, and each paired product must equal exactly 1 (the
    relation the ebit augmentation later resolves).  The Gram table of
    all rows is compared with that pattern.
    """
    z_rows, x_rows = list(z_rows), list(x_rows)
    c = len(x_rows)
    a = len(z_rows) - c
    if a < 0:
        raise BadGroupingError("more X-bar rows than Z-bar rows")
    rows = z_rows + x_rows
    want = [[0] * len(rows) for _ in rows]
    for i in range(c):  # x_rows[i] is rows[a + c + i], its partner rows[a + i]
        want[a + c + i][a + i], want[a + i][a + c + i] = 1, field.p - 1
    return product_table(field, rows, rows) == want


# ---------------------------------------------------------------------------
# membership / centralizer
# ---------------------------------------------------------------------------

def _flat(row: Row) -> List[int]:
    x, z = row
    return list(x) + list(z)


def in_group(field: GaloisField, row: Row, generators: Sequence[Row]) -> bool:
    """Phaseless membership: row is an F_p-combination of the generators."""
    if field.m != 1:
        raise NonPrimeFieldError("membership solving requires a prime field")
    return in_span_mod_p([_flat(g) for g in generators], _flat(row), field.p)


def in_centralizer(field: GaloisField, row: Row, generators: Sequence[Row]) -> bool:
    return not any(product_table(field, [row], generators)[0])


# ---------------------------------------------------------------------------
# syndromes and correctability
# ---------------------------------------------------------------------------

def _check_alice_support(code: EACode, row: Row):
    x, z = row
    if len(x) != code.n + code.c:
        raise ErrorOnBobQuditError(
            f"error rows carry n + c = {code.n + code.c} columns")
    if any(x[code.n:]) or any(z[code.n:]):
        raise ErrorOnBobQuditError("channel errors cannot touch the receiver's qudits")


def alice_error(code: EACode, x=(), z=()) -> Row:
    """Build an (n + c)-column error row from n-column sender vectors."""
    x = tuple(x) or (0,) * code.n
    z = tuple(z) or (0,) * code.n
    pad = (0,) * code.c
    return (x + pad, z + pad)


def syndrome(code: EACode, error: Row, allow_bob: bool = False) -> Tuple[int, ...]:
    """Symplectic products of the error with each encoded generator."""
    if not allow_bob:
        _check_alice_support(code, error)
    return tuple(product_table(code.field, [error], code.augmented.rows)[0])


def is_correctable(code: EACode, errors: Sequence[Row]) -> bool:
    """Pairwise criterion: differences lie in the isotropic span or are detected.

    By bilinearity the syndrome of e_j - e_i is the difference of the two
    syndromes, so a pair is undetected iff its syndromes are equal; one
    product table serves every pair.  Within a class of equal syndromes
    every difference lies in the isotropic span iff each member minus the
    class's first does, so only those differences are built.
    """
    errs = list(errors)
    pairs = len(errs) * (len(errs) + 1) // 2
    if pairs > PAIR_CAP:
        raise TooLargeError(f"{pairs} pairs exceed the cap of {PAIR_CAP}")
    f = code.field
    for e in errs:
        _check_alice_support(code, e)
    first = {}  # syndrome -> the first error that has it
    iso_flat = [_flat(code.augmented.rows[i]) for i in code.isotropic_rows]
    for e, syn in zip(errs, product_table(f, errs, code.augmented.rows)):
        e0 = first.setdefault(tuple(syn), e)
        diff = [f.sub(a, b) for a, b in zip(_flat(e), _flat(e0))]
        if not any(diff):
            continue
        if f.m == 1 and in_span_mod_p(iso_flat, diff, f.p):
            continue  # acts trivially on the code space
        return False
    return True


# ---------------------------------------------------------------------------
# classical import
# ---------------------------------------------------------------------------

def css_import(field: GaloisField, h_rows: Sequence[Sequence[int]]) -> CheckMatrix:
    """Doubled check matrix (H_i | 0) then (0 | H_i) from a parity-check matrix."""
    rows = [tuple(r) for r in h_rows]
    if not rows or not rows[0]:
        raise EmptyMatrixError("parity-check matrix must have rows and columns")
    n = len(rows[0])
    for r in rows:
        if len(r) != n:
            raise EmptyMatrixError("parity-check rows must have equal length")
    zero = (0,) * n
    out = [(r, zero) for r in rows] + [(zero, r) for r in rows]
    return CheckMatrix(field, n, tuple(out))


def parse_classical(text: str) -> Tuple[GaloisField, List[Tuple[int, ...]]]:
    """Read a parity-check matrix from CLSC text (or EACM with a zero Z side)."""
    ts = _TokenStream(text)
    magic, field, n, r = _read_header(ts, ("CLSC", "EACM"))
    if magic == "EACM":
        m = _read_rows(ts, field, n, r)
        if any(any(z) for _, z in m.rows):
            raise ParseError("classical input via EACM requires an all-zero Z side")
        return field, [x for x, _ in m.rows]
    rows = [_read_vector(ts, field, n) for _ in range(r)]
    ts.finish()
    return field, rows
