"""The benchmark's own exact arithmetic, independent of eaqec.

Every correctness check of the benchmark is made with this module, never
with `eaqec.linalg` or `eaqec.pauli`, so a defect shared by the library
and its own self-checks still shows.  Rows are pairs (x, z) of integer
sequences; the prime-field functions take the prime p, the GF(p^m)
column rules take a `RefField`.

Column rules (1-based qudits, as in the EACM and circuit formats):

    DFT(t):        (x_t, z_t) -> (z_t, -x_t)
    MUL(g, t):     (x_t, z_t) -> (g^-1 x_t, g z_t)
    PHASE(g, t):   z_t -> z_t + g x_t
    ADD(c -> t):   x_t += x_c;  z_c -= z_t
"""

from __future__ import annotations

import itertools


def rank_mod_p(rows, p):
    """Rank over F_p of integer row vectors (Gaussian elimination)."""
    mat = [[v % p for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        prow = [(v * inv) % p for v in mat[rank]]
        mat[rank] = prow
        for i in range(rank + 1, len(mat)):
            f = mat[i][col]
            if f:
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], prow)]
        rank += 1
    return rank


def flat(row):
    return list(row[0]) + list(row[1])


def same_span(rows_a, rows_b, p):
    """True iff the two row sets span the same F_p space."""
    fa = [flat(r) for r in rows_a]
    fb = [flat(r) for r in rows_b]
    ra = rank_mod_p(fa, p)
    return ra == rank_mod_p(fb, p) == rank_mod_p(fa + fb, p)


def product(g, h, p):
    """Prime-field symplectic product sum x_g z_h - x_h z_g mod p."""
    (xg, zg), (xh, zh) = g, h
    return (sum(a * d - c * b for a, b, c, d in zip(xg, zg, xh, zh))) % p


def gram(rows, p):
    return [[product(g, h, p) for h in rows] for g in rows]


def ebits(rows, p):
    """c from the optimal-ebit formula 2c = rank of the Gram matrix."""
    rank = rank_mod_p(gram(rows, p), p)
    assert rank % 2 == 0, "an antisymmetric Gram matrix has even rank"
    return rank // 2


def code_counts(rows, n, p):
    """(c, a, k) of a generator set with independent rows."""
    c = ebits(rows, p)
    a = len(rows) - 2 * c
    return c, a, n - a - c


def canonical_layout(n, c, a):
    """( e_t | 0 ), ( 0 | e_t ) for t <= c, then ( 0 | e_t ) ancillas."""
    zero = (0,) * n
    rows = []
    for t in range(c + a):
        e = tuple(1 if i == t else 0 for i in range(n))
        if t < c:
            rows.append((e, zero))
        rows.append((zero, e))
    return rows


def augment(rows, n, c, p):
    """Receiver columns: pair t gets x = 1 (X row) and z = p - 1 (Z row)."""
    out = []
    for idx, (x, z) in enumerate(rows):
        bx, bz = [0] * c, [0] * c
        if idx < 2 * c:
            pair, is_z = divmod(idx, 2)
            if is_z:
                bz[pair] = p - 1
            else:
                bx[pair] = 1
        out.append((tuple(x) + tuple(bx), tuple(z) + tuple(bz)))
    return out


class RefField:
    """GF(p^m) by tables, with eaqec's documented default modulus.

    The default modulus is the lexicographically smallest monic
    irreducible, ordered by the little-endian base-p integer encoding of
    its low coefficients; elements are integers whose base-p digits are
    the coefficients of the residue polynomial.
    """

    def __init__(self, p, m=1):
        self.p, self.m, self.q = p, m, p ** m
        self.modulus = _smallest_irreducible(p, m) if m > 1 else None
        q = self.q
        self._add = [[_from_digits([(a + b) % p for a, b in zip(_digits(x, p, m), _digits(y, p, m))], p)
                      for y in range(q)] for x in range(q)]
        self._mul = [[self._slow_mul(x, y) for y in range(q)] for x in range(q)]
        self._inv = [0] + [next(y for y in range(1, q) if self._mul[x][y] == 1)
                           for x in range(1, q)]
        self._neg = [next(y for y in range(q) if self._add[x][y] == 0) for x in range(q)]

    def _slow_mul(self, x, y):
        p, m = self.p, self.m
        if m == 1:
            return (x * y) % p
        prod = [0] * (2 * m - 1)
        for i, a in enumerate(_digits(x, p, m)):
            for j, b in enumerate(_digits(y, p, m)):
                prod[i + j] = (prod[i + j] + a * b) % p
        for deg in range(2 * m - 2, m - 1, -1):
            lead = prod[deg]
            if lead:
                for i, c in enumerate(self.modulus):
                    prod[deg - m + i] = (prod[deg - m + i] - lead * c) % p
        return _from_digits(prod[:m], p)

    def add(self, x, y):
        return self._add[x][y]

    def neg(self, x):
        return self._neg[x]

    def sub(self, x, y):
        return self._add[x][self._neg[y]]

    def mul(self, x, y):
        return self._mul[x][y]

    def inv(self, x):
        return self._inv[x]


def _digits(v, p, m):
    out = []
    for _ in range(m):
        out.append(v % p)
        v //= p
    return out


def _from_digits(ds, p):
    v = 0
    for d in reversed(ds):
        v = v * p + d
    return v


def _has_factor(poly, p, deg):
    """True if the monic `poly` (little-endian) has a monic factor of degree deg."""
    for low in itertools.product(range(p), repeat=deg):
        div = list(low) + [1]
        rem = list(poly)
        for top in range(len(rem) - 1, deg - 1, -1):
            lead = rem[top]
            if lead:
                for i, c in enumerate(div):
                    rem[top - deg + i] = (rem[top - deg + i] - lead * c) % p
        if not any(rem[:deg]):
            return True
    return False


def _smallest_irreducible(p, m):
    for enc in range(p ** m):
        poly = _digits(enc, p, m) + [1]
        if not any(_has_factor(poly, p, d) for d in range(1, m // 2 + 1)):
            return tuple(poly)
    raise ValueError(f"no irreducible of degree {m} over F_{p}")


def prime_field(p):
    return RefField(p, 1)


def apply_gate(rows, gate, f):
    """Column rule of one gate on mutable [x, z] list rows over the field f.

    `gate` is (kind, target, gamma, control) with 1-based qudits.
    """
    kind, t, gamma, ctl = gate
    t -= 1
    if kind == "DFT":
        for x, z in rows:
            x[t], z[t] = z[t], f.neg(x[t])
    elif kind == "MUL":
        ginv = f.inv(gamma)
        for x, z in rows:
            x[t], z[t] = f.mul(ginv, x[t]), f.mul(gamma, z[t])
    elif kind == "PHASE":
        for x, z in rows:
            z[t] = f.add(z[t], f.mul(gamma, x[t]))
    elif kind == "ADD":
        c = ctl - 1
        for x, z in rows:
            x[t] = f.add(x[t], x[c])
            z[c] = f.sub(z[c], z[t])
    else:
        raise ValueError(f"unknown gate kind {kind!r}")


def replay(rows, gates, f):
    """Rows (as tuples) after applying the column rules of `gates` in order."""
    work = [[list(x), list(z)] for x, z in rows]
    for g in gates:
        apply_gate(work, g, f)
    return [(tuple(x), tuple(z)) for x, z in work]


def gates_from_json(doc):
    """(kind, target, gamma, control) tuples from a version-1 circuit document."""
    out = []
    for g in doc["gates"]:
        kind = g["g"]
        if kind == "ADD":
            out.append(("ADD", g["tgt"], None, g["ctl"]))
        else:
            out.append((kind, g["t"], g.get("gamma"), None))
    return out
