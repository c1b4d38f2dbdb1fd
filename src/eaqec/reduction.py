"""Reduction of a check matrix to canonical hyperbolic form.

The algorithm repeatedly locates a non-commuting pair of generators,
normalizes its symplectic product to 1 (by mixing in a third generator, a
la the classical pair-normalization trick, or in `normalized` mode by
rescaling a generator), and clears the pair to ( e_t | 0 ), ( 0 | e_t )
with column operations confined to qudits >= t.  Remaining generators all
commute and are swept into pure-Z rows ( 0 | e_t ).  The result is, in row
order:

    ( e_1 | 0 ), ( 0 | e_1 ), .., ( e_c | 0 ), ( 0 | e_c ),
    ( 0 | e_{c+1} ), .., ( 0 | e_{c+a} )

so c counts ebits, a = rows - 2c counts ancillas, and k = n - a - c.

Modes:

* ``strict``     - only SWAP/ADDMUL row operations.  A residual 2-row
                   block whose product is neither 0 nor 1 cannot be
                   repaired and raises NotConstructibleError.
* ``normalized`` - additionally allows SCALE row operations (replacing a
                   generator by a power of itself), which makes every
                   instance reducible; it follows exactly the strict path
                   and rescales only where strict would fail, so whenever
                   strict succeeds both modes emit the same operation log.

Every emitted operation is recorded; replaying the log over the input
reproduces the canonical matrix bit for bit.  In either mode, 2c equals
the F_p-rank of the input's antisymmetric Gram matrix.

Dependent input rows need no elimination up front: pairs are always
independent, so a dependent set empties a row in the isotropic sweep or
runs it past column n, and both raise DependentRowsError.  Strict mode's
NotConstructibleError needs an independent set, so it never fires first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from .checkmatrix import (
    ADD,
    ADDMUL,
    DFT,
    MAX_N,
    MUL,
    SWAP,
    CheckMatrix,
    CliffordOp,
    RowOp,
    _gate_args,
    _row_args,
    _Tableau,
    add,
    apply_ops,
    dft,
    mul,
    phase,
    row_op_addmul,
    row_op_scale,
    row_op_swap,
)
from .errors import (
    BadArgumentError,
    DependentRowsError,
    InconsistentCountsError,
    NonPrimeFieldError,
    NotConstructibleError,
    ReductionFailedError,
    ZeroA2Error,
)

STRICT = "strict"
NORMALIZED = "normalized"

_DEPENDENT = "input rows are linearly dependent over F_p"


@dataclass(frozen=True)
class ReductionResult:
    """A reduction and the encoding derived from it.

    `encoding_gates` and `encoded` are computed on first use and then kept
    (the dataclass keeps its `__dict__` for them), so a plain reduction pays
    for no replay and an encoding pays for exactly one; a copy made by
    `dataclasses.replace` computes its own.  Both are immutable, so a result
    stays shareable.
    """

    source: CheckMatrix
    canonical: CheckMatrix
    oplog: Tuple
    c: int
    a: int
    k: int
    mode: str
    augmented: CheckMatrix

    @cached_property
    def encoding_gates(self) -> Tuple[CliffordOp, ...]:
        """The encoding circuit's gates: the log's column ops, inverted."""
        return invert_oplog(self.oplog, self.source.field)

    @cached_property
    def encoded(self) -> CheckMatrix:
        """The augmented canonical rows pushed through `encoding_gates`."""
        return apply_ops(self.augmented, self.encoding_gates)

    @property
    def params(self):
        f = self.source.field
        return {"n": self.source.n, "k": self.k, "c": self.c, "a": self.a,
                "p": f.p, "m": f.m}

    def display(self) -> str:
        return f"[[{self.source.n},{self.k};{self.c}]]_{self.source.field.q}"


def normalize_pair(p: int, a1: int, a2: int) -> int:
    """Multiplier m with a1 + m*a2 = 1 (mod p); the pair-repair coefficient."""
    if a2 % p == 0:
        raise ZeroA2Error("a2 must be nonzero mod p")
    return ((1 - a1) * pow(a2 % p, -1, p)) % p


def code_params(n: int, row_count: int, c: int) -> Tuple[int, int]:
    """(ancillas, logicals) from qudit, generator and ebit counts."""
    if not (0 <= 2 * c <= row_count <= n + c):
        raise InconsistentCountsError(
            f"need 0 <= 2c <= rows <= n + c, got n={n} rows={row_count} c={c}")
    a = row_count - 2 * c
    return a, n - a - c


class _Reducer:
    """Single-use state machine; tracks the working tableau and the op log."""

    def __init__(self, matrix: CheckMatrix, mode: str):
        self.field = matrix.field
        self.p = matrix.field.p
        self.n = matrix.n
        self.mode = mode
        self.work = _Tableau(matrix)
        self.ops = []

    # -- op emission (identity ops are skipped so logs stay minimal) --

    def row(self, op: RowOp):
        self.work.row_op(op)
        self.ops.append(op)

    def gate(self, op: CliffordOp):
        self.work.clifford(op)
        self.ops.append(op)

    def swap_rows(self, i, j):
        if i != j:
            self.row(row_op_swap(i, j))

    def addmul(self, dest, src, scalar):
        if scalar % self.p:
            self.row(row_op_addmul(dest, src, scalar % self.p))

    def add_times(self, ctl, tgt, times):
        """ADD(ctl -> tgt) raised to times mod p: one logged ADD(k), none for k = 0."""
        k = times % self.p
        if k:
            self.gate(add(ctl, tgt, k))

    def x(self, r, col):
        return self.work.xs[r - 1][col - 1]

    def z(self, r, col):
        return self.work.zs[r - 1][col - 1]

    # -- pivot handling --

    def find_pivot(self, start):
        """Lexicographically first non-commuting pair among rows >= start."""
        r = self.work.row_count
        for i in range(start, r + 1):
            for j in range(i + 1, r + 1):
                if self.work.product(i, j) != 0:
                    return i, j
        return None

    def normalize_product(self, s):
        """Make product(row s, row s+1) = 1 using rows > s."""
        r = self.work.row_count
        v = self.work.product(s, s + 1)
        if v == 1:
            return
        j2 = next((j for j in range(s + 2, r + 1) if self.work.product(s, j) != 0), None)
        if j2 is not None:
            self.addmul(s + 1, j2, normalize_pair(self.p, v, self.work.product(s, j2)))
            return
        # row s+1 is the only partner; v != 0 here because a pivot was found
        if r >= s + 2:
            # borrow a commuting row, give it product 1, swap it into place
            self.addmul(s + 2, s + 1, normalize_pair(self.p, 0, v))
            self.swap_rows(s + 1, s + 2)
            return
        if self.mode == NORMALIZED:
            self.row(row_op_scale(s + 1, pow(v, -1, self.p)))
            return
        raise NotConstructibleError(
            f"residual 2-row block has symplectic product {v}, not 0 or 1")

    # -- column clearing --

    def make_unit_x_row(self, s, t):
        """Drive row s to ( e_t | 0 ) using columns >= t only."""
        n = self.n
        # pivot an X entry into column t (ADD preferred, DFT to swap sides)
        if self.x(s, t) == 0:
            cx = next((c for c in range(t + 1, n + 1) if self.x(s, c) != 0), None)
            if cx is not None:
                self.gate(add(cx, t))
            elif self.z(s, t) != 0:
                self.gate(dft(t))
            else:
                cz = next((c for c in range(t + 1, n + 1) if self.z(s, c) != 0), None)
                if cz is None:
                    raise DependentRowsError(_DEPENDENT)
                self.gate(dft(cz))
                self.gate(add(cz, t))
        # scale the pivot to 1
        g = self.x(s, t)
        if g != 1:
            self.gate(mul(g, t))
        # clear the rest of the X side
        for c in range(t + 1, n + 1):
            self.add_times(t, c, -self.x(s, c))
        # clear the Z diagonal entry
        zt = self.z(s, t)
        if zt != 0:
            self.gate(phase((-zt) % self.p, t))
        # clear the rest of the Z side (swap each entry to the X side first)
        for c in range(t + 1, n + 1):
            zc = self.z(s, c)
            if zc != 0:
                self.gate(dft(c))
                self.add_times(t, c, -self.x(s, c))

    def clear_pair(self, s, t):
        """Rows s, s+1 with product 1 -> ( e_t | 0 ), ( 0 | e_t )."""
        self.make_unit_x_row(s, t)
        # partner row: its z_t equals the symplectic product, i.e. 1 already
        w = s + 1
        for c in range(t + 1, self.n + 1):
            zc = self.z(w, c)
            if zc != 0:
                self.add_times(c, t, zc)
            if self.x(w, c) != 0:
                self.gate(dft(c))
                self.add_times(c, t, self.z(w, c))
        # only column t remains; cancel the X part against row s
        self.addmul(w, s, -self.x(w, t))

    def make_unit_z_row(self, s, t):
        """Drive commuting row s to ( 0 | e_t ) using columns >= t only."""
        n = self.n
        has_x = any(self.x(s, c) != 0 for c in range(t, n + 1))
        if has_x:
            self.make_unit_x_row(s, t)
            self.gate(dft(t))
            if self.p > 2:
                self.gate(mul(self.p - 1, t))
            return
        if self.z(s, t) == 0:
            cz = next((c for c in range(t + 1, n + 1) if self.z(s, c) != 0), None)
            if cz is None:
                raise DependentRowsError(_DEPENDENT)
            self.gate(add(t, cz))
        zt = self.z(s, t)
        if zt != 1:
            self.gate(mul(pow(zt, -1, self.p), t))
        for c in range(t + 1, n + 1):
            self.add_times(c, t, self.z(s, c))

    def eliminate_column(self, s_x, s_z, t, start):
        """Row-reduce column t out of rows >= start using the finished pair."""
        for v in range(start, self.work.row_count + 1):
            if s_x is not None:
                self.addmul(v, s_x, -self.x(v, t))
            if s_z is not None:
                self.addmul(v, s_z, -self.z(v, t))

    def run(self) -> Tuple[CheckMatrix, list, int]:
        pairs = 0
        while True:
            s = 2 * pairs + 1
            pivot = self.find_pivot(s)
            if pivot is None:
                break
            i, _ = pivot
            self.swap_rows(s, i)
            self.normalize_product(s)
            t = pairs + 1
            self.clear_pair(s, t)
            self.eliminate_column(s, s + 1, t, s + 2)
            pairs += 1
        c = pairs
        for idx in range(2 * c + 1, self.work.row_count + 1):
            t = c + (idx - 2 * c)
            if t > self.n:  # more isotropic rows than n - c: r > n + c
                raise DependentRowsError(_DEPENDENT)
            self.make_unit_z_row(idx, t)
            self.eliminate_column(None, idx, t, idx + 1)
        return self.work.freeze(), self.ops, c


def _canonical_layout(field, n, c, a):
    rows = []
    for i in range(c):
        ex = [0] * n
        ex[i] = 1
        rows.append((tuple(ex), (0,) * n))
        rows.append(((0,) * n, tuple(ex)))
    for i in range(a):
        ez = [0] * n
        ez[c + i] = 1
        rows.append(((0,) * n, tuple(ez)))
    return tuple(rows)


def reduce_matrix(matrix: CheckMatrix, mode: str = STRICT) -> ReductionResult:
    """Full reduction: canonical form, op log, (c, a, k) and ebit-augmented matrix."""
    if mode not in (STRICT, NORMALIZED):
        raise BadArgumentError(f"mode must be {STRICT!r} or {NORMALIZED!r}")
    field = matrix.field
    if field.m != 1:
        raise NonPrimeFieldError("reduction is defined over prime fields only")
    canonical, ops, c = _Reducer(matrix, mode).run()
    a, k = code_params(matrix.n, matrix.row_count, c)
    if canonical.rows != _canonical_layout(field, matrix.n, c, a):
        raise ReductionFailedError("internal error: canonical layout violated")
    return ReductionResult(
        source=matrix, canonical=canonical, oplog=tuple(ops), c=c, a=a, k=k,
        mode=mode, augmented=augment_ebits(canonical, c))


def augment_ebits(canonical: CheckMatrix, c: int) -> CheckMatrix:
    """Append one receiver column per hyperbolic pair of a canonical matrix.

    The X row of pair t gains x = 1 and its Z partner gains z = p - 1 in
    receiver column n + t, which makes the whole generator set abelian.
    """
    field, n = canonical.field, canonical.n
    if c == 0:
        return canonical
    rows = []
    for idx, (x, z) in enumerate(canonical.rows):
        bob_x, bob_z = [0] * c, [0] * c
        if idx < 2 * c:
            pair, is_z = divmod(idx, 2)
            if is_z:
                bob_z[pair] = field.p - 1
            else:
                bob_x[pair] = 1
        rows.append((tuple(x) + tuple(bob_x), tuple(z) + tuple(bob_z)))
    return CheckMatrix(field, n + c, tuple(rows))


# ---------------------------------------------------------------------------
# replay helpers
# ---------------------------------------------------------------------------

def inverse_ops(ops, field):
    """Inverted log in reverse order, with every ADD a unit ADD.

    A DFT is undone by repeating the op itself three times.  ADD(g), g in
    the prime subfield, is undone by p - g unit ADDs: one shared unit
    `add(control, target)` object per qudit pair, repeated, so a consumer
    that works per distinct object (`apply_ops`, `Circuit`,
    `circuit_to_json`) does so once per pair.  Over GF(p^m), ADD(g) with g
    outside the prime subfield becomes the one gate ADD(-g).  MUL and PHASE
    become MUL(1/g) and PHASE(-g).  Row ops pass `_row_args` and gates
    `_gate_args` with r = n = MAX_N, the scope; the consumer, which knows n,
    checks the qudits again.
    """
    out, units = [], {}
    p = field.p
    for op in reversed(list(ops)):
        if isinstance(op, RowOp):
            _, _, lam = _row_args(op, MAX_N, field)
            if op.kind == SWAP:
                out.append(op)
            elif op.kind == ADDMUL:
                out.append(row_op_addmul(op.dest, op.src, (-lam) % p))
            else:
                out.append(row_op_scale(op.dest, pow(lam, -1, p)))
            continue
        _, g, _ = _gate_args(op, MAX_N, field.q)
        if op.kind == DFT:
            out.extend([op] * 3)
        elif op.kind != ADD:
            g = field.inv(g) if op.kind == MUL else field.neg(g)
            out.append(CliffordOp(op.kind, op.target, gamma=g))
        elif g < p:
            pair = (op.control, op.target)
            unit = units.get(pair)
            if unit is None:
                unit = units[pair] = add(*pair)
            out.extend([unit] * (p - g))
        else:
            out.append(add(op.control, op.target, field.neg(g)))
    return out


def invert_oplog(oplog, field) -> Tuple[CliffordOp, ...]:
    """Reverse and invert the Clifford part of a reduction log."""
    return tuple(inverse_ops([op for op in oplog if not isinstance(op, RowOp)], field))


def augmented_source(result: ReductionResult) -> CheckMatrix:
    """The input generators carrying their induced receiver-column entries.

    Obtained by replaying the inverted full op log over the augmented
    canonical matrix; the sender-side part equals the input matrix exactly.
    """
    return apply_ops(result.augmented, inverse_ops(result.oplog, result.source.field))


def encoded_generators(result: ReductionResult) -> CheckMatrix:
    """Augmented canonical rows pushed through the inverted column operations.

    Row order (and hence the pair / isotropic split) is preserved because
    row operations are excluded; the row space equals augmented_source's.
    Computed once per result and shared (`ReductionResult.encoded`).
    """
    return result.encoded
