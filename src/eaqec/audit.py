"""Invariant audit of a reduction and of random operation streams.

The construction is sound only if every column op in the reduction log is
symplectic, so it keeps every pairwise product, and every row op keeps the
generated group.  The audit replays the log on one working tableau through
the tableau's own rules, which are what it audits, and checks each op as it
is applied, at a cost that scales with what the op touched:

* a column op on qudits T must leave every other column unchanged and give
  field elements in T that keep every pairwise product.  The fast path
  computes each touched column from the copy through the gate's local
  2|T| x 2|T| map M on (x_T | z_T) (the table in `checkmatrix`), checked
  once per (kind, gamma, p) to satisfy M^T Omega M = Omega mod p.  Columns
  equal to M applied to the old ones are field elements and keep every
  product, so O(r |T|) integer work settles the op.  Only when they differ
  does the general check run: by bilinearity the change of the product of
  rows i and j is the symplectic form of their T-entries before and after
  the op, so every product is kept iff those 2|T|-entry pseudo-rows
  commute pairwise, O(r^2 |T|).  Rows that are zero on T before and after
  add nothing and are skipped.  Both paths give the same verdict.
* a row op must satisfy its defining relation on the rows before it:
  SWAP exchanges two rows, ADDMUL adds lambda * src to dest != src, SCALE
  multiplies by lambda != 0 mod p, and every other row is unchanged.  Each
  of these is invertible, so the F_p row space is unchanged.

Both checks compare whole rows, at C speed, with a copy of the rows before
the op that the check brings to the rows the op must give; so a rule that
writes where it should not is caught too.  The copy is taken once and kept
equal to the tableau: a passing op updates it only where it acts, and only
after a failed op is it taken again.  Prime fields only, like the reduction.
A failed `Verdict` names the first op that broke its invariant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, Optional, Tuple, Union

from .checkmatrix import (
    ADD,
    ADDMUL,
    DFT,
    MUL,
    PHASE,
    SCALE,
    SWAP,
    CheckMatrix,
    CliffordOp,
    RowOp,
    _gate_args,
    _row_index,
    _Tableau,
    add,
    dft,
    mul,
    phase,
    row_op_addmul,
)
from .errors import NonPrimeFieldError
from .pauli import rows_commute
from .reduction import ReductionResult


@dataclass(frozen=True)
class Verdict:
    """Outcome of one audit check; true iff it passed.

    On failure, `index` is the 1-based position of the first op that broke
    the invariant in the sequence audited (None for a check of the end
    state), `op` is `str()` of that op and `reason` says what was broken.
    """

    ok: bool
    index: Optional[int] = None
    op: Optional[str] = None
    reason: str = ""

    @classmethod
    def check(cls, ok: bool, reason: str) -> "Verdict":
        """A verdict on an end state: passed, or failed for `reason`."""
        return OK if ok else cls(False, reason=reason)

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        where = "" if self.index is None else f" at op {self.index} ({self.op})"
        return f"FAIL{where}" + (f": {self.reason}" if self.reason else "")


OK = Verdict(True)


def _snapshot(work: _Tableau):
    return [x[:] for x in work.xs], [z[:] for z in work.zs]


def _is_symplectic(matrix, p: int) -> bool:
    """M^T Omega M = Omega mod p, Omega the form ((0, I), (-I, 0)) on (x_T | z_T)."""
    k = len(matrix) // 2
    cols = list(zip(*matrix))

    def form(u, v):
        return sum(u[i] * v[k + i] - u[k + i] * v[i] for i in range(k))

    return all((form(u, v) - (b == a + k) + (a == b + k)) % p == 0
               for a, u in enumerate(cols) for b, v in enumerate(cols))


@lru_cache(maxsize=4096)
def _local_map(kind: str, gamma: Optional[int], p: int):
    """The gate's map on a row's entries (x_T | z_T), T = (target,) or
    (target, control) for ADD, as a 2|T| x 2|T| matrix mod p; None if the
    gate has no such map or the map is not symplectic."""
    if kind == DFT:
        matrix = ((0, 1), (p - 1, 0))
    elif kind == MUL and gamma % p:
        matrix = ((pow(gamma, -1, p), 0), (0, gamma % p))
    elif kind == PHASE:
        matrix = ((1, 0), (gamma % p, 1))
    elif kind == ADD and gamma % p:
        matrix = ((1, gamma % p, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, -gamma % p, 1))
    else:
        return None
    return matrix if _is_symplectic(matrix, p) else None


def _image(matrix, columns, p: int):
    """M applied to every row's entries at once: column k of the result is
    sum_j M[k][j] * columns[j] mod p."""
    out = []
    for coeffs in matrix:
        (c, first), *rest = [(c, col) for c, col in zip(coeffs, columns) if c]
        if len(rest) == 1:  # the one two-term column of ADD, in one pass
            (d, second), = rest
            out.append([(c * a + d * b) % p for a, b in zip(first, second)])
            continue
        acc = [c * v for v in first]
        for d, col in rest:
            acc = [a + d * v for a, v in zip(acc, col)]
        out.append([a % p for a in acc])
    return out


def _column_step(work: _Tableau, rows, op: CliffordOp) -> Optional[str]:
    """Apply a column op through the tableau; None iff it kept every invariant.

    `rows` is the (xs, zs) copy of the tableau before the op; on a pass it
    is updated to the rows after it.
    """
    p = work.field.p
    old_x, old_z = rows
    t, gamma, c = _gate_args(op, work.n, p)
    work.clifford(op)
    xs, zs = work.xs, work.zs
    cols = [t] if c is None else [t, c]
    old = [[x[t] for x in old_x] for t in cols] + [[z[t] for z in old_z] for t in cols]
    new_x = [[x[t] for x in xs] for t in cols]
    new_z = [[z[t] for z in zs] for t in cols]
    local = _local_map(op.kind, gamma, p)
    mapped = local is not None and _image(local, old, p) == new_x + new_z
    for t, nx, nz in zip(cols, new_x, new_z):  # the copy takes the touched entries
        for ox, oz, a, b in zip(old_x, old_z, nx, nz):
            ox[t], oz[t] = a, b
    if old_x != xs or old_z != zs:
        return "changed a column it does not act on"
    if mapped:
        return None
    if not all(0 <= min(col, default=0) and max(col, default=0) < p
               for col in new_x + new_z):
        return "wrote an entry outside 0..p-1"
    # row i's pseudo-row (x'_T, x_T | z'_T, -z_T): the product of two of
    # them is the change of the product of the two rows
    half = 2 * len(cols)
    pseudo = [(w[:half], w[half:]) for w in zip(
        *new_x, *old[:len(cols)], *new_z, *([-v for v in col] for col in old[len(cols):]))
        if any(w)]
    if not rows_commute(work.field, pseudo):
        return "changed a pairwise symplectic product"
    return None


def _row_step(work: _Tableau, rows, op: RowOp) -> Optional[str]:
    """Apply a row op through the tableau; None iff the rows obey the op's
    relation on `rows`, the copy of the tableau before it, which on a pass
    is updated to the rows after it."""
    p, r = work.field.p, work.row_count
    expect_x, expect_z = rows
    work.row_op(op)
    d = _row_index(op.dest, r)
    if op.kind == SWAP:
        s = _row_index(op.src, r)
        for side in (expect_x, expect_z):
            side[d], side[s] = side[s], side[d]
    elif op.kind == ADDMUL:
        s = _row_index(op.src, r)
        if d == s:
            return "ADDMUL with dest = src"
        lam = op.scalar
        for side in (expect_x, expect_z):
            side[d] = [(a + lam * b) % p for a, b in zip(side[d], side[s])]
    elif op.kind == SCALE:
        lam = op.scalar
        if lam % p == 0:
            return "SCALE by 0 mod p"
        for side in (expect_x, expect_z):
            side[d] = [lam * a % p for a in side[d]]
    else:
        return f"unknown row op kind {op.kind!r}"
    if expect_x != work.xs or expect_z != work.zs:
        return "rows differ from the op's defining relation"
    return None


def _prime_tableau(matrix: CheckMatrix) -> _Tableau:
    if matrix.field.m != 1:
        raise NonPrimeFieldError("the audit is defined over prime fields only")
    return _Tableau(matrix)


def _audit_ops(work: _Tableau, ops) -> Tuple[Verdict, Verdict]:
    """Apply and check every op; the first failure among the row ops and
    among the column ops, each OK if there is none."""
    row_space = symplectic = OK
    rows = _snapshot(work)
    for index, op in enumerate(ops, start=1):
        if isinstance(op, RowOp):
            reason = _row_step(work, rows, op)
            if reason and row_space:
                row_space = Verdict(False, index, str(op), reason)
        else:
            reason = _column_step(work, rows, op)
            if reason and symplectic:
                symplectic = Verdict(False, index, str(op), reason)
        if reason:  # the copy may differ from the tableau now
            rows = _snapshot(work)
    return row_space, symplectic


def audit_reduction(result: ReductionResult) -> Dict[str, Verdict]:
    """Verdicts `replay`, `row_space`, `symplectic` and `abelian`, in that order.

    `row_space` and `symplectic` hold iff every row op and every column op
    of the log kept its invariant (see the module docstring); `replay` iff
    the log folded over the source gives the canonical rows; `abelian` iff
    the ebit-augmented generators commute pairwise.
    """
    work = _prime_tableau(result.source)
    row_space, symplectic = _audit_ops(work, result.oplog)
    canonical = result.canonical.rows
    replayed = Verdict.check(work.xs == [list(x) for x, _ in canonical]
                             and work.zs == [list(z) for _, z in canonical],
                             "the replayed log does not give the canonical rows")
    abelian = Verdict.check(rows_commute(result.source.field, result.augmented.rows),
                            "the augmented generators do not commute")
    return {"replay": replayed, "row_space": row_space,
            "symplectic": symplectic, "abelian": abelian}


def random_ops(n: int, r: int, q: int, count: int,
               rng: random.Random) -> Iterator[Union[CliffordOp, RowOp]]:
    """`count` random column ops on n qudits, each followed by a random
    row addition when there are at least two of the r rows.

    The draws are fixed by the seed alone, so a given `rng` state always
    yields the same stream whatever the matrix.
    """
    for _ in range(count):
        roll = rng.randrange(5)
        if roll == 0 and n >= 2:
            i, j = rng.sample(range(1, n + 1), 2)
            yield add(i, j)
        elif roll == 1:
            yield mul(rng.randrange(1, q), rng.randrange(1, n + 1))
        elif roll == 2:
            yield phase(rng.randrange(q), rng.randrange(1, n + 1))
        else:
            yield dft(rng.randrange(1, n + 1))
        if r >= 2:
            d, s = rng.sample(range(1, r + 1), 2)
            yield row_op_addmul(d, s, rng.randrange(q))


def audit_random_ops(matrix: CheckMatrix, count: int, rng: random.Random) -> Verdict:
    """Apply `random_ops(...)` to the matrix and check every op as it goes.

    Column ops must keep every product and row ops the row space.  The
    whole stream is drawn even after a failure, so `rng` ends in the same
    state either way.
    """
    work = _prime_tableau(matrix)
    ops = random_ops(matrix.n, matrix.row_count, matrix.field.q, count, rng)
    failed = [v for v in _audit_ops(work, ops) if not v]
    return min(failed, key=lambda v: v.index, default=OK)
