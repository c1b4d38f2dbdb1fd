"""Exact arithmetic in GF(p^m).

Elements are plain integers in [0, q-1] whose little-endian base-p digits
are the coefficients of the residue polynomial; this keeps file formats
language-neutral (bijective, sortable, printable).  The prime subfield is
exactly {0, .., p-1}.

For m > 1 a monic irreducible modulus polynomial is required; when omitted,
the lexicographically smallest monic irreducible (by the same little-endian
integer encoding of its low coefficients) is searched exhaustively, so two
runs always agree on the default field.

The trace map tr(a) = a + a^p + .. + a^(p^(m-1)) lands in the prime
subfield and is returned as an int in [0, p-1].  For characteristic 2 the
field also exposes wgt(a): the number of self-dual-basis coordinates of `a`
with nonzero trace pairing, which the even-q phase gate needs.  The
self-dual basis is found by exhaustive search (only desk-scale q is
supported) and cached, and so is the trace form, which turns tr(a b) into
an integer bilinear form on the base-p digits of a and b.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional, Sequence

from .errors import (
    BadArgumentError,
    EntryOutOfRangeError,
    NonPrimeError,
    OddCharacteristicError,
    ReduciblePolynomialError,
    ZeroInverseError,
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, little-endian)
# ---------------------------------------------------------------------------

def _poly_trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, mod, p):
    # mod is monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) - 1 >= dm and any(a):
        a = _poly_trim(a)
        if len(a) - 1 < dm:
            break
        lead = a[-1]
        shift = len(a) - 1 - dm
        for i, mi in enumerate(mod):
            a[shift + i] = (a[shift + i] - lead * mi) % p
        a = _poly_trim(a)
    return a


def _poly_divisible(a, b, p):
    """True if b divides a over F_p (b monic after normalization)."""
    b = _poly_trim(list(b))
    lead_inv = pow(b[-1], -1, p)
    b = [(ci * lead_inv) % p for ci in b]
    return not _poly_mod(a, b, p)


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Exhaustive divisor search; fine at desk scale."""
    c = _poly_trim(list(coeffs))
    deg = len(c) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    # no roots (degree-1 factors)
    for x in range(p):
        acc = 0
        for ci in reversed(c):
            acc = (acc * x + ci) % p
        if acc == 0:
            return False
    # no monic factor of degree 2 .. deg//2
    for d in range(2, deg // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            cand = list(low) + [1]
            if _poly_divisible(c, cand, p):
                return False
    return True


def find_irreducible(p: int, m: int):
    """Lexicographically smallest monic irreducible of degree m over F_p."""
    for enc in range(p ** m):
        low = []
        v = enc
        for _ in range(m):
            low.append(v % p)
            v //= p
        cand = low + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise ReduciblePolynomialError(f"no irreducible of degree {m} over F_{p}")  # pragma: no cover


class GaloisField:
    """The field GF(p^m) with integer-encoded elements.

    All operations are pure and the instance is immutable after
    construction, so a field can be shared freely across threads.
    """

    def __init__(self, p: int, m: int = 1, modulus: Optional[Sequence[int]] = None):
        if not isinstance(p, int) or not is_prime(p):
            raise NonPrimeError(f"p = {p} is not prime")
        if not isinstance(m, int) or m < 1:
            raise BadArgumentError(f"extension degree m = {m} must be >= 1")
        self.p = p
        self.m = m
        self.q = p ** m
        if m == 1:
            if modulus is not None:
                raise BadArgumentError("modulus polynomial is only meaningful for m > 1")
            self.modulus = None
        else:
            if modulus is None:
                modulus = find_irreducible(p, m)
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ReduciblePolynomialError(
                    f"modulus must be monic of degree {m}; got {modulus}")
            if not _is_irreducible(modulus, p):
                raise ReduciblePolynomialError(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = modulus
        self._sdb = None
        self._trace_form = None

    # -- element codecs --

    def digits(self, a: int):
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return out

    def from_digits(self, ds) -> int:
        v = 0
        for d in reversed(list(ds)):
            v = v * self.p + (d % self.p)
        return v

    def check(self, *values):
        """The one element rule: each value is an int (not a bool) in 0..q-1."""
        q = self.q
        for v in values:
            if type(v) is not int or not 0 <= v < q:
                raise EntryOutOfRangeError(f"{v!r} is not an element of GF({self.p}^{self.m})")

    def elements(self):
        return range(self.q)

    # -- arithmetic --

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        return self.from_digits(x + y for x, y in zip(self.digits(a), self.digits(b)))

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        return self.from_digits(x - y for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        return self.from_digits(-x for x in self.digits(a))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        prod = _poly_mul(self.digits(a), self.digits(b), self.p)
        return self.from_digits(_poly_mod(prod, list(self.modulus), self.p) + [0] * self.m)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverseError("0 has no multiplicative inverse")
        if self.m == 1:
            return pow(a, -1, self.p)
        return self.pow(a, self.q - 2)

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        r, base = 1, a
        while k:
            if k & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            k >>= 1
        return r

    def scale(self, s: int, a: int) -> int:
        """Multiply by a prime-subfield scalar s in [0, p-1]."""
        if self.m == 1:
            return (s * a) % self.p
        return self.from_digits(s * x for x in self.digits(a))

    # -- trace and weight --

    def trace(self, a: int) -> int:
        """tr(a) = sum of Frobenius conjugates; an int in [0, p-1]."""
        if self.m == 1:
            return a % self.p
        t, x = 0, a
        for _ in range(self.m):
            t = self.add(t, x)
            x = self.pow(x, self.p)
        if t >= self.p:  # pragma: no cover - an irreducible modulus keeps it in F_p
            raise ReduciblePolynomialError("trace escaped the prime subfield")
        return t

    def trace_form(self):
        """G[k][l] = tr(alpha^(k+l)), alpha the element encoded as p, so that
        tr(a b) = digits(a) . G digits(b); G = ((1,),) for m = 1."""
        if self._trace_form is None:
            t = [self.trace(self.pow(self.p, k)) for k in range(2 * self.m - 1)]
            self._trace_form = tuple(tuple(t[k:k + self.m]) for k in range(self.m))
        return self._trace_form

    def self_dual_basis(self):
        """A basis {b_1..b_m} with tr(b_i b_j) = delta_ij (characteristic 2 only)."""
        if self.p != 2:
            raise OddCharacteristicError("self-dual basis is only used for even q")
        if self._sdb is None:
            self._sdb = self._find_self_dual_basis()
        return self._sdb

    def _find_self_dual_basis(self):
        if self.m == 1:
            return (1,)
        for combo in itertools.combinations(range(1, self.q), self.m):
            ok = True
            for i, bi in enumerate(combo):
                for j, bj in enumerate(combo):
                    if self.trace(self.mul(bi, bj)) != (1 if i == j else 0):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                # gram = identity already forces linear independence
                return combo
        raise OddCharacteristicError(  # pragma: no cover - exists for all 2^m
            f"no self-dual basis found for GF(2^{self.m})")

    def wgt(self, a: int) -> int:
        """Number of self-dual basis elements b_j with tr(a*b_j) != 0."""
        basis = self.self_dual_basis()
        return sum(1 for bj in basis if self.trace(self.mul(a, bj)) != 0)

    def sqrt(self, a: int) -> int:
        """Square root in characteristic 2 (Frobenius inverse, always exists)."""
        if self.p != 2:
            raise OddCharacteristicError("sqrt helper is only provided for even q")
        return self.pow(a, self.q // 2) if self.m > 1 else a

    # -- identity / hashing --

    def __eq__(self, other):
        return (isinstance(other, GaloisField)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"GaloisField({self.p})"
        return f"GaloisField({self.p}^{self.m}, modulus={list(self.modulus)})"


@lru_cache(maxsize=None)
def _cached_field(p, m, modulus):
    return GaloisField(p, m, list(modulus) if modulus is not None else None)


def make_field(p: int, m: int = 1, modulus: Optional[Sequence[int]] = None) -> GaloisField:
    """Validated field context; identical arguments share one instance.

    Nothing is cast: a p, m or coefficient that is not an int, or is a bool, is an error."""
    key = tuple(modulus) if modulus is not None else None
    if any(type(v) is not int for v in (p, m, *(key or ()))):
        raise BadArgumentError(f"field parameters must be ints, got {(p, m, modulus)!r}")
    return _cached_field(p, m, key)
