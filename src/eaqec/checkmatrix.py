"""Phaseless stabilizer presentations: rows of (x | z) over GF(q).

A CheckMatrix is immutable and validated; every operation returns a new
value.  Multi-op work (reduction, replay, circuits) runs on one private
mutable working tableau, `_Tableau`, and validates the result once.

Row operations (swap, scaled add, scale) change the generating set but
not the generated group; Clifford column operations (DFT, MUL, PHASE,
ADD) are the symplectic transformations induced by conjugating the
generators by the corresponding gates, one column per qudit:

    DFT(i):        (x_i, z_i) -> (z_i, -x_i)
    MUL(g, i):     (x_i, z_i) -> (g^-1 x_i, g z_i),  g != 0
    PHASE(g, i):   (x_i, z_i) -> (x_i, z_i + g x_i)
    ADD(g, i -> j):  x_j += g x_i;  z_i -= g z_j    (control i, target j, g != 0)

All four preserve every pairwise symplectic product.  Qudit and row
indices on the public surface are 1-based, matching the file format.

Text format (bit-exact contract)::

    EACM p m n r
    poly c0 c1 ... cm        # only if m > 1
    a1 .. an | b1 .. bn      # r such rows, entries in 0..q-1

'#' starts a comment; tokens are whitespace-separated; integers are ASCII
digits only; q = p^m must not exceed 2^16, and n, r must not exceed 4096.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import (
    BadArgumentError,
    BadScalarError,
    DimensionMismatchError,
    EaqecError,
    EmptyMatrixError,
    EntryOutOfRangeError,
    IndexOutOfRangeError,
    NonInvertibleGammaError,
    ParseError,
    UnknownOpError,
)
from .field import GaloisField, make_field
from .linalg import rref_mod_p
from .pauli import Row, prime_coordinates, product_table, symplectic_product

DFT = "DFT"
MUL = "MUL"
PHASE = "PHASE"
ADD = "ADD"

SWAP = "SWAP"
ADDMUL = "ADDMUL"
SCALE = "SCALE"

# documented scope of the field size q = p^m and of the qudit and row
# counts n, r; parsing enforces both
MAX_Q = 2 ** 16
MAX_N = 4096
# largest Hilbert-space dimension the dense oracle builds
MAX_DIM = 1024


@dataclass(frozen=True, slots=True)
class CliffordOp:
    """A column operation; `target` (and `control` for ADD) are 1-based qudits."""

    kind: str
    target: int
    gamma: Optional[int] = None
    control: Optional[int] = None

    def __str__(self):
        if self.kind == ADD:  # the unit ADD is written without its gamma
            g = self.gamma
            scale = "" if type(g) is int and g == 1 else f"{g},"
            return f"ADD({scale}{self.control}->{self.target})"
        if self.kind == DFT:
            return f"DFT({self.target})"
        return f"{self.kind}({self.gamma},{self.target})"


def dft(target: int) -> CliffordOp:
    return CliffordOp(DFT, target)


def mul(gamma: int, target: int) -> CliffordOp:
    return CliffordOp(MUL, target, gamma=gamma)


def phase(gamma: int, target: int) -> CliffordOp:
    return CliffordOp(PHASE, target, gamma=gamma)


def add(control: int, target: int, gamma: int = 1) -> CliffordOp:
    return CliffordOp(ADD, target, gamma=gamma, control=control)


@dataclass(frozen=True, slots=True)
class RowOp:
    """A generating-set operation; row indices are 1-based."""

    kind: str
    dest: int
    src: Optional[int] = None
    scalar: Optional[int] = None

    def __str__(self):
        if self.kind == SWAP:
            return f"SWAP({self.dest},{self.src})"
        if self.kind == SCALE:
            return f"SCALE({self.dest},{self.scalar})"
        return f"R{self.dest} += {self.scalar}*R{self.src}"


def row_op_swap(i: int, j: int) -> RowOp:
    return RowOp(SWAP, i, src=j)


def row_op_addmul(dest: int, src: int, scalar: int) -> RowOp:
    return RowOp(ADDMUL, dest, src=src, scalar=scalar)


def row_op_scale(i: int, scalar: int) -> RowOp:
    return RowOp(SCALE, i, scalar=scalar)


def _row_index(i: int, r: int) -> int:
    """0-based position of 1-based row i among r rows; a bool is not an index."""
    if type(i) is not int or not 1 <= i <= r:
        raise IndexOutOfRangeError(f"row {i!r} outside 1..{r}")
    return i - 1


@dataclass(frozen=True)
class CheckMatrix:
    field: GaloisField
    n: int
    rows: Tuple[Row, ...]

    def __post_init__(self):
        n, check = self.n, self.field.check
        for x, z in self.rows:
            if len(x) != n or len(z) != n:
                raise DimensionMismatchError("every row needs n entries on each side")
            check(*x, *z)

    @classmethod
    def from_rows(cls, field: GaloisField, rows: Sequence[Sequence[Sequence[int]]],
                  n: Optional[int] = None) -> "CheckMatrix":
        rows = tuple((tuple(x), tuple(z)) for x, z in rows)
        if n is None:
            if not rows:
                raise EmptyMatrixError("n is required for an empty matrix")
            n = len(rows[0][0])
        return cls(field, n, rows)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> Row:
        """1-based row access."""
        return self.rows[_row_index(i, len(self.rows))]

    def product(self, i: int, j: int) -> int:
        """Symplectic product of rows i and j (1-based)."""
        return symplectic_product(self.field, self.row(i), self.row(j))

    def symplectic_table(self) -> Tuple[Tuple[int, ...], ...]:
        """Full antisymmetric Gram table of the rows over F_p."""
        return tuple(map(tuple, product_table(self.field, self.rows, self.rows)))


# ---------------------------------------------------------------------------
# the working tableau
# ---------------------------------------------------------------------------

def _gamma_check(q: int, kind: str, g):
    """A MUL, PHASE or ADD gamma: an int element of GF(q), not a bool, nonzero
    for MUL and ADD."""
    if type(g) is not int or not 0 <= g < q:
        raise NonInvertibleGammaError(f"{kind} gamma {g!r} is not a field element")
    if g == 0 and kind != PHASE:
        raise NonInvertibleGammaError(f"{kind} gamma must be invertible")


def _gate_args(op: CliffordOp, n: int, q: int):
    """(t, gamma, c) of a valid gate on n qudits over GF(q); the one definition
    of a valid CliffordOp, which the tableau, `Circuit`, the audit and the
    oracle all check through.

    t and c (ADD's control, else None) are 0-based.  The target, and ADD's
    control, must be ints in 1..n (a bool is not an index) and differ;
    MUL, PHASE and ADD carry a gamma (`_gamma_check`), DFT none, and only
    ADD a control.  Errors: `UnknownOpError` for an op that is not a
    CliffordOp or a kind outside the four, `IndexOutOfRangeError` for a
    qudit and `NonInvertibleGammaError` for a gamma.  Indices are tested
    inline: this runs once per tableau op.
    """
    if type(op) is not CliffordOp:
        raise UnknownOpError(f"{op!r} is not a CliffordOp")
    kind, t, g, c = op.kind, op.target, op.gamma, op.control
    if kind != ADD and kind != DFT and kind != MUL and kind != PHASE:
        raise UnknownOpError(f"unknown clifford op kind {kind!r}")
    if type(t) is not int or not 1 <= t <= n:
        raise IndexOutOfRangeError(f"qudit {t!r} outside 1..{n}")
    if kind == ADD:
        if type(c) is not int or not 1 <= c <= n:
            raise IndexOutOfRangeError(f"qudit {c!r} outside 1..{n}")
        if c == t:
            raise IndexOutOfRangeError("ADD control and target must differ")
        c -= 1
    elif c is not None:
        raise IndexOutOfRangeError(f"{kind} takes no control, got {c!r}")
    if kind != DFT:
        _gamma_check(q, kind, g)
    elif g is not None:
        raise NonInvertibleGammaError(f"{kind} takes no gamma, got {g!r}")
    return t - 1, g, c


def _row_args(op: RowOp, r: int, field: GaloisField):
    """(d, s, lam) of a valid row op on r rows over `field`; the one definition
    of a valid RowOp, which the tableau and `inverse_ops` check through.

    A RowOp of kind SWAP, ADDMUL or SCALE (`UnknownOpError`); rows are ints,
    not bools, in 1..r, ADDMUL's two differ (`IndexOutOfRangeError`); ADDMUL
    and SCALE carry an int scalar in 0..p-1, nonzero for SCALE
    (`BadScalarError`).  A src on SCALE or a scalar on SWAP is rejected last.
    d and s are 0-based, and s or lam is None where the kind has none.
    """
    if type(op) is not RowOp or op.kind not in (SWAP, ADDMUL, SCALE):
        raise UnknownOpError(f"unknown row op kind {getattr(op, 'kind', op)!r}")
    kind, d, s, lam = op.kind, op.dest, op.src, op.scalar
    if type(d) is not int or not 1 <= d <= r:
        raise IndexOutOfRangeError(f"row {d!r} outside 1..{r}")
    if kind != SCALE:
        if type(s) is not int or not 1 <= s <= r:
            raise IndexOutOfRangeError(f"row {s!r} outside 1..{r}")
        if kind == ADDMUL and d == s:
            raise IndexOutOfRangeError("dest and src must differ")
        s -= 1
    if kind != SWAP:
        if type(lam) is not int or not 0 <= lam < field.p:
            raise BadScalarError(f"scalar {lam!r} outside the allowed domain 0..{field.p - 1}")
        if kind == SCALE and lam == 0:
            raise BadScalarError("SCALE scalar must be nonzero")
    if kind == SCALE and s is not None:
        raise IndexOutOfRangeError(f"SCALE takes no src, got {s!r}")
    if kind == SWAP and lam is not None:
        raise BadScalarError(f"SWAP takes no scalar, got {lam!r}")
    return d - 1, s, lam


class _Tableau:
    """Mutable working copy of a CheckMatrix: one list of ints per row side.

    Built from a validated CheckMatrix, updated in place by `row_op` and
    `clifford` and turned back into a validated CheckMatrix by `freeze`, so
    entries are checked once on the way in and once on the way out.  A
    column op costs O(rows), however often it is repeated, and a row op
    O(n); over GF(p) both work in integer arithmetic mod p, with no
    field-method call per entry.  Every op is checked (indices, gamma,
    scalar) before anything is written, with the same errors as the
    single-op functions below, which are wrappers around this class.
    """

    __slots__ = ("field", "n", "xs", "zs")

    def __init__(self, m: CheckMatrix):
        self.field = m.field
        self.n = m.n
        self.xs = [list(x) for x, _ in m.rows]
        self.zs = [list(z) for _, z in m.rows]

    @property
    def row_count(self) -> int:
        return len(self.xs)

    def freeze(self) -> CheckMatrix:
        return CheckMatrix(self.field, self.n,
                           tuple((tuple(x), tuple(z)) for x, z in zip(self.xs, self.zs)))

    def product(self, i: int, j: int) -> int:
        """Symplectic product of rows i and j (1-based)."""
        return symplectic_product(self.field, (self.xs[i - 1], self.zs[i - 1]),
                                  (self.xs[j - 1], self.zs[j - 1]))

    def row_op(self, op: RowOp) -> "_Tableau":
        """Generating-set operation; the generated group is unchanged."""
        f = self.field
        d, s, lam = _row_args(op, len(self.xs), f)
        kind, p = op.kind, f.p
        for side in (self.xs, self.zs):
            if kind == SWAP:
                side[d], side[s] = side[s], side[d]
            elif kind == ADDMUL:
                if f.m == 1:
                    side[d] = [(a + lam * b) % p for a, b in zip(side[d], side[s])]
                else:  # lam lies in the prime subfield
                    side[d] = [f.add(a, f.scale(lam, b)) for a, b in zip(side[d], side[s])]
            elif f.m == 1:  # SCALE
                side[d] = [lam * v % p for v in side[d]]
            else:
                side[d] = [f.scale(lam, v) for v in side[d]]
        return self

    def clifford(self, op: CliffordOp, times: int = 1) -> "_Tableau":
        """Column action of a Clifford gate, applied `times` >= 0 times, on every row.

        Every check runs once, before anything is written.  For m = 1 the
        run is one pass of the gate's power in integer arithmetic mod p:
        DFT^k by k mod 4, MUL(g)^k = MUL(g^k), PHASE(g)^k = PHASE(k g) and
        ADD(g)^k = ADD(k g) as x_t += k g x_c, z_c -= k g z_t.  For m > 1
        the field-method rule runs `times` times.
        """
        f, xs, zs = self.field, self.xs, self.zs
        t, g, c = _gate_args(op, self.n, f.q)
        kind = op.kind
        if type(times) is not int or times < 0:
            raise BadArgumentError(f"times must be a non-negative integer, got {times!r}")
        if f.m > 1:
            for _ in range(times):
                _field_rule(f, xs, zs, kind, t, g, c)
            return self
        p = f.p
        if kind == DFT:
            k = times % 4
            if k == 1:
                for x, z in zip(xs, zs):
                    x[t], z[t] = z[t], -x[t] % p
            elif k == 2:
                for x, z in zip(xs, zs):
                    x[t], z[t] = -x[t] % p, -z[t] % p
            elif k == 3:
                for x, z in zip(xs, zs):
                    x[t], z[t] = -z[t] % p, x[t]
        elif kind == MUL:
            gk = pow(g, times, p)
            if gk != 1:
                gik = pow(gk, -1, p)
                for x in xs:
                    x[t] = gik * x[t] % p
                for z in zs:
                    z[t] = gk * z[t] % p
        elif kind == PHASE:
            gk = times * g % p
            if gk:
                for x, z in zip(xs, zs):
                    if x[t]:
                        z[t] = (z[t] + gk * x[t]) % p
        else:
            k = times * g % p
            if k:
                for x in xs:
                    if x[c]:
                        x[t] = (x[t] + k * x[c]) % p
                for z in zs:
                    if z[t]:
                        z[c] = (z[c] - k * z[t]) % p
        return self


def _field_rule(f: GaloisField, xs, zs, kind: str, t: int, g, c):
    """One application of a checked column rule through the field's methods
    (m > 1): target column t, gamma g, control column c of ADD."""
    if kind == DFT:
        for x, z in zip(xs, zs):
            x[t], z[t] = z[t], f.neg(x[t])
    elif kind == MUL:
        ginv = f.inv(g)
        for x, z in zip(xs, zs):
            x[t] = f.mul(ginv, x[t])
            z[t] = f.mul(g, z[t])
    elif kind == PHASE:
        for x, z in zip(xs, zs):
            z[t] = f.add(z[t], f.mul(g, x[t]))
    else:
        for x, z in zip(xs, zs):
            x[t] = f.add(x[t], f.mul(g, x[c]))
            z[c] = f.sub(z[c], f.mul(g, z[t]))


# ---------------------------------------------------------------------------
# single-op and multi-op entry points
# ---------------------------------------------------------------------------

def apply_row_op(m: CheckMatrix, op: RowOp) -> CheckMatrix:
    """One generating-set operation; the generated group is unchanged."""
    return _Tableau(m).row_op(op).freeze()


def apply_clifford(m: CheckMatrix, op: CliffordOp) -> CheckMatrix:
    """Column action of a Clifford gate on every row."""
    return _Tableau(m).clifford(op).freeze()


def apply_ops(m: CheckMatrix, ops) -> CheckMatrix:
    """Fold a mixed sequence of RowOp / CliffordOp over the matrix.

    A run of one CliffordOp object repeated back to back, as `inverse_ops`
    emits for a DFT or ADD, is applied in one pass as the
    gate's power.  Runs are found by identity, not equality: equal ops of
    different types (gamma 2 and 2.0) need not pass the same checks.
    """
    work = _Tableau(m)
    run, times = None, 0
    for op in ops:
        if times and op is run:
            times += 1
            continue
        if times:
            work.clifford(run, times)
            times = 0
        if isinstance(op, RowOp):
            work.row_op(op)
        else:
            run, times = op, 1
    if times:
        work.clifford(run, times)
    return work.freeze()


def replay_steps(m: CheckMatrix, ops):
    """Yield (op, matrix-after-op) pairs; useful for invariant auditing."""
    work = _Tableau(m)
    for op in ops:
        if isinstance(op, RowOp):
            work.row_op(op)
        else:
            work.clifford(op)
        yield op, work.freeze()


# ---------------------------------------------------------------------------
# row-space comparison
# ---------------------------------------------------------------------------

def row_space_equal(m1: CheckMatrix, m2: CheckMatrix) -> bool:
    """True iff the rows span the same F_p-space (phaseless group equality).

    Each GF(p^m) entry becomes its m base-p digits, and the two spaces are
    equal iff the rows' reduced echelon forms over F_p agree.
    """
    if m1.field != m2.field or m1.n != m2.n:
        raise DimensionMismatchError("matrices live on different spaces")
    f = m1.field
    return (rref_mod_p([prime_coordinates(f, x + z) for x, z in m1.rows], f.p)[0]
            == rref_mod_p([prime_coordinates(f, x + z) for x, z in m2.rows], f.p)[0])


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

def _tokenize(text: str):
    """Yield (token, line, column) with comments stripped; 1-based locations."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        # runs of \S end at exactly the characters str.isspace accepts
        for tok in re.finditer(r"\S+", raw.split("#", 1)[0]):
            yield tok.group(), ln, tok.start() + 1


class _TokenStream:
    """The tokens of a text, read lazily with one token of lookahead."""

    def __init__(self, text):
        self._toks = _tokenize(text)
        self._ahead = next(self._toks, None)
        self._last = (None, 1, 1)

    def next(self, what):
        tok = self._ahead
        if tok is None:  # point at the last token of the input
            raise ParseError(f"unexpected end of input, expected {what}",
                             line=self._last[1], column=self._last[2])
        self._last = tok
        self._ahead = next(self._toks, None)
        return tok

    def next_int(self, what):
        """A non-negative integer written in ASCII digits only."""
        tok, ln, col = self.next(what)
        if tok.isascii() and tok.isdigit():
            try:
                return int(tok), ln, col
            except ValueError:  # more digits than int() converts
                pass
        raise ParseError(f"expected {what}, got {tok!r}", line=ln, column=col)

    def finish(self):
        if self._ahead is not None:
            tok, ln, col = self._ahead
            raise ParseError(f"trailing token {tok!r}", line=ln, column=col)


def _read_header(ts: _TokenStream, magics=("EACM",)):
    """Read `MAGIC p m n r` and, for m > 1, the `poly` line.

    Returns (magic, field, n, r).  The documented scope q = p^m <= 2^16 is
    enforced before the field is built, bounding p and m first, so an
    out-of-scope header fails at once instead of running a primality or
    irreducibility search; n, r <= 4096 is enforced before anything is
    sized by them.
    """
    magic, ln, col = ts.next(" or ".join(magics) + " header")
    if magic not in magics:
        names = " or ".join(repr(mg) for mg in magics)
        raise ParseError(f"expected {names} magic, got {magic!r}", line=ln, column=col)
    p, pln, pcol = ts.next_int("p")
    m, _, _ = ts.next_int("m")
    if p > MAX_Q or m > 16 or p ** m > MAX_Q:  # p >= 2 in scope, so m <= 16
        raise ParseError(f"field GF({p}^{m}) is outside the supported scope q <= {MAX_Q}",
                         line=pln, column=pcol)
    n, ln, col = ts.next_int("n")
    if not 1 <= n <= MAX_N:
        raise ParseError(f"n must be in 1..{MAX_N}, got {n}", line=ln, column=col)
    r, ln, col = ts.next_int("r")
    if r > MAX_N:
        raise ParseError(f"r must be at most {MAX_N}, got {r}", line=ln, column=col)
    modulus = None
    if m > 1:
        tok, ln, col = ts.next("'poly' line")
        if tok != "poly":
            raise ParseError(f"expected 'poly' for m > 1, got {tok!r}", line=ln, column=col)
        modulus = [ts.next_int("polynomial coefficient")[0] for _ in range(m + 1)]
    try:
        field = make_field(p, m, modulus)
    except EaqecError as exc:
        raise ParseError(f"invalid field declaration: {exc}") from exc
    return magic, field, n, r


def _read_vector(ts: _TokenStream, field: GaloisField, n: int) -> Tuple[int, ...]:
    out = []
    for _ in range(n):
        v, ln, col = ts.next_int("field element")
        if v >= field.q:
            raise EntryOutOfRangeError(
                f"entry {v} outside 0..{field.q - 1}", line=ln, column=col)
        out.append(v)
    return tuple(out)


def _read_rows(ts: _TokenStream, field: GaloisField, n: int, r: int):
    """r check-matrix rows `x | z`, then the end of input."""
    rows = []
    for _ in range(r):
        x = _read_vector(ts, field, n)
        bar, ln, col = ts.next("'|' separator")
        if bar != "|":
            raise ParseError(f"expected '|', got {bar!r}", line=ln, column=col)
        rows.append((x, _read_vector(ts, field, n)))
    ts.finish()
    return CheckMatrix(field, n, tuple(rows))


def parse_check_matrix(text: str) -> CheckMatrix:
    ts = _TokenStream(text)
    _, field, n, r = _read_header(ts)
    return _read_rows(ts, field, n, r)


def serialize_check_matrix(m: CheckMatrix) -> str:
    f = m.field
    lines = [f"EACM {f.p} {f.m} {m.n} {m.row_count}"]
    if f.m > 1:
        lines.append("poly " + " ".join(str(c) for c in f.modulus))
    for x, z in m.rows:
        lines.append(" ".join(str(v) for v in x) + " | " + " ".join(str(v) for v in z))
    return "\n".join(lines) + "\n"
