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
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Tuple

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
        for v in self.x + self.z:
            self.field.check(v)

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, 0, (0,) * n, (0,) * n)

    @classmethod
    def from_row(cls, field, row: Row, phase: int = 0):
        x, z = row
        return cls(field, len(x), phase, tuple(x), tuple(z))

    @property
    def row(self) -> Row:
        return (self.x, self.z)

    def __mul__(self, other: "Pauli") -> "Pauli":
        return pauli_mul(self, other)

    def __str__(self):
        xs = ",".join(str(v) for v in self.x)
        zs = ",".join(str(v) for v in self.z)
        return f"w^{self.phase} X({xs}) Z({zs})"


def _as_vectors(field, g):
    if isinstance(g, Pauli):
        if g.field != field:
            raise DimensionMismatchError("operand belongs to a different field")
        return g.x, g.z
    x, z = g
    return tuple(x), tuple(z)


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


def symplectic_product(field: GaloisField, g, h) -> int:
    """sum_i tr(x_g z_h - x_h z_g) mod p; zero iff the operators commute."""
    xg, zg = _as_vectors(field, g)
    xh, zh = _as_vectors(field, h)
    if len(xg) != len(xh):
        raise DimensionMismatchError("rows must have the same qudit count")
    total = 0
    for a, b, c, d in zip(xg, zg, xh, zh):
        total += field.trace(field.sub(field.mul(a, d), field.mul(c, b)))
    return total % field.p


def commutes(field: GaloisField, g, h) -> bool:
    return symplectic_product(field, g, h) == 0


def rows_commute(p: int, rows) -> bool:
    """True iff every pair of (x, z) rows has symplectic product 0 mod the prime p.

    Entries are integers read as elements of F_p (any representative).
    The product of rows i < j is one integer dot product, of (x_i | -z_i)
    with (z_j | x_j), reduced once: a field call per entry, as in
    `symplectic_product`, is several times slower.
    """
    left = [[*x, *[-e for e in z]] for x, z in rows]
    right = [[*z, *x] for x, z in rows]
    for i, u in enumerate(left):
        for v in right[i + 1:]:
            if sum(map(mul, u, v)) % p:
                return False
    return True


def pauli_weight(g) -> int:
    """Number of qudits where the operator acts nontrivially."""
    if isinstance(g, Pauli):
        x, z = g.x, g.z
    else:
        x, z = g
    return sum(1 for a, b in zip(x, z) if a or b)
