"""The n-qudit error group in normal form w^g X_a Z_b.

A Pauli is a phase exponent gamma mod p together with two length-n vectors
of field elements.  Multiplication tracks the phase exactly; the
check-matrix layer works with the phaseless (x | z) rows only, because
Clifford conjugation can introduce phases outside <w> (e.g. the qubit
phase gate sends X to a Pauli with a +-i factor).

Sign convention: the symplectic product used throughout is

    product(g, h) = sum_i tr(x_g[i] * z_h[i]  -  x_h[i] * z_g[i])  mod p

which is antisymmetric, vanishes exactly on commuting pairs, and satisfies
g*h = w^product(h,g) h*g for the normal-form multiplication below.

One form serves every product.  Each row is expanded once into F_p
vectors, and a product is the integer dot product of (x_g | -z_g) with
(G z_h | G x_h), reduced mod p.  For m = 1 the entries are used as they
are and G = [[1]].  For m > 1 each entry becomes its m base-p digits and
G is the trace form G_kl = tr(alpha^(k+l)), alpha the element encoded as
p, so tr(a b) = digits(a) . G digits(b).  `product_table` is that kernel;
every product, Gram table, syndrome and commutation check calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import List, Sequence, Tuple

from .errors import DimensionMismatchError
from .field import GaloisField

Row = Tuple[Tuple[int, ...], Tuple[int, ...]]


@dataclass(frozen=True)
class Pauli:
    """w^phase X_x Z_z on n qudits; equality is componentwise normal form."""

    field: GaloisField
    n: int
    phase: int
    x: Tuple[int, ...]
    z: Tuple[int, ...]

    def __post_init__(self):
        if len(self.x) != self.n or len(self.z) != self.n:
            raise DimensionMismatchError("x/z vectors must have length n")
        object.__setattr__(self, "phase", self.phase % self.field.p)
        self.field.check(*self.x, *self.z)

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, 0, (0,) * n, (0,) * n)

    @property
    def row(self) -> Row:
        return (self.x, self.z)

    def __mul__(self, other: "Pauli") -> "Pauli":
        return pauli_mul(self, other)

    def __str__(self):
        xs = ",".join(str(v) for v in self.x)
        zs = ",".join(str(v) for v in self.z)
        return f"w^{self.phase} X({xs}) Z({zs})"


def _as_row(field, g) -> Row:
    if isinstance(g, Pauli):
        if g.field != field:
            raise DimensionMismatchError("operand belongs to a different field")
        return g.row
    return g


def pauli_mul(g: Pauli, h: Pauli) -> Pauli:
    """Normal-form product: phases pick up sum tr(x_h * z_g)."""
    if g.field != h.field or g.n != h.n:
        raise DimensionMismatchError("pauli_mul needs matching field and qudit count")
    f = g.field
    phase = (g.phase + h.phase) % f.p
    for xh, zg in zip(h.x, g.z):
        phase = (phase + f.trace(f.mul(xh, zg))) % f.p
    x = tuple(f.add(a, b) for a, b in zip(g.x, h.x))
    z = tuple(f.add(a, b) for a, b in zip(g.z, h.z))
    return Pauli(f, g.n, phase, x, z)


def prime_coordinates(field: GaloisField, vec) -> List[int]:
    """Each entry's m base-p digits, little-endian; for m = 1 the entries as they are."""
    if field.m == 1:
        return list(vec)
    return [d for v in vec for d in field.digits(v)]


def _dual_coordinates(field: GaloisField, vec) -> List[int]:
    """G times each entry's digits, G the trace form, so u . this = tr(u v)."""
    return [sum(map(mul, g, ds)) for ds in map(field.digits, vec) for g in field.trace_form()]


def _sides(field: GaloisField, rows, others):
    """(x | -z) of each row and (G z | G x) of each other row, over F_p."""
    if len({len(side) for row in (*rows, *others) for side in row}) > 1:
        raise DimensionMismatchError("rows must have the same qudit count")
    if field.m == 1:  # G = [[1]], and the entries are used as they are
        return [[*x, *[-e for e in z]] for x, z in rows], [[*z, *x] for x, z in others]
    return ([prime_coordinates(field, x) + [-e for e in prime_coordinates(field, z)]
             for x, z in rows],
            [_dual_coordinates(field, z) + _dual_coordinates(field, x) for x, z in others])


def product_table(field: GaloisField, rows: Sequence[Row],
                  others: Sequence[Row]) -> List[List[int]]:
    """table[i][j] = product(rows[i], others[j]), the one kernel (see the module
    docstring); rows of unequal length raise DimensionMismatchError."""
    lefts, rights = _sides(field, rows, others)
    return [[sum(map(mul, u, v)) % field.p for v in rights] for u in lefts]


def symplectic_product(field: GaloisField, g, h) -> int:
    """sum_i tr(x_g z_h - x_h z_g) mod p; zero iff the operators commute."""
    return product_table(field, [_as_row(field, g)], [_as_row(field, h)])[0][0]


def commutes(field: GaloisField, g, h) -> bool:
    return symplectic_product(field, g, h) == 0


def rows_commute(field: GaloisField, rows: Sequence[Row]) -> bool:
    """True iff every pair of (x, z) rows has symplectic product 0.

    `product_table`'s kernel on the pairs i < j, stopping at the first
    nonzero product.  For m = 1 any integer representatives of F_p may
    stand for the entries, as in the audit's pseudo-rows, which carry -z.
    """
    lefts, rights = _sides(field, rows, rows)
    for i, u in enumerate(lefts):
        for v in rights[i + 1:]:
            if sum(map(mul, u, v)) % field.p:
                return False
    return True


def pauli_weight(g) -> int:
    """Number of qudits where the operator acts nontrivially."""
    x, z = g.row if isinstance(g, Pauli) else g
    return sum(1 for a, b in zip(x, z) if a or b)
