"""Brute-force dense-unitary ground truth for tiny q and n.

Builds the generalized Pauli and Clifford gates as explicit complex
matrices and checks the symbolic layers against them: conjugation rules,
commutation phases, ebit stabilization, and stabilized-subspace
dimensions.  Dimensions are capped at 1024 and floating-point
comparisons use a 1e-9 tolerance.

Matrices are built by index arithmetic, not by per-entry field calls.
Three q x q integer tables, add[a, b] = a + b, mul[a, b] = a b and
trmul[a, b] = tr(a b), are made once per field from the field's own
`add`, `mul` and `trace` (never from `GaloisField.trace_form`, which the
symbolic product kernel uses, so the oracle does not share its mistakes)
and cached; q <= 1024 keeps them small, and trmul = tr[mul] takes only q
trace calls.  A cached big-endian digit grid per (q, n) lists every basis
index's qudit values.  X_x Z_z sends |d> to w^(sum tr(z_i d_i)) |d + x>,
so every column of a Pauli is one table lookup per qudit; the Fourier,
multiplier and phase gates read the same tables.  One embedding, `_embed`,
places a local gate on any tuple of distinct qudits by scattering its
columns through the digit grid.

A Pauli is a monomial matrix, one root of unity per column, and the
oracle keeps it as two integer arrays, a permutation and a phase exponent
mod p (`_monomial`); the dense matrix (`pauli_unitary`) is a scatter of
them.  Products and powers of Paulis are exact array compositions, so
commutation and operator orders are decided without a tolerance.
Conjugation applies the Pauli to U as a column gather, and
`stabilized_subspace_dim` applies each eigenprojector to the running
projector as row gathers, with no dense matrix product.

Two unitary constructors exist on purpose:

* ``gate_unitary`` returns the literal textbook gate (Fourier, multiplier,
  phase, controlled add).  The odd-q phase gate is diag(w^-tr(g y^2 / 2));
  the even-q one is M_{g0}^-1 diag((-i)^wgt(y)) with g0^2 = g, which is
  the only place wgt and the self-dual basis matter.

* ``clifford_unitary`` returns the unitary whose conjugation U g U+
  realizes the check-matrix column rule for a CliffordOp.  The tableau
  convention matches conjugation by the *inverse* Fourier / multiplier /
  phase gate (and by ADD(gamma) itself), so DFT maps to the adjoint Fourier
  matrix, MUL(g) to the multiplier with g^-1, and PHASE(g) to the phase
  gate with -g (odd q) or the multiplier-conjugated diagonal (even q).
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .checkmatrix import ADD, DFT, MAX_DIM, MUL, PHASE, CliffordOp, _gamma_check, _gate_args
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    EmptyMatrixError,
    NonCommutingGeneratorsError,
    NotAPauliError,
)
from .field import GaloisField
from .pauli import Pauli, _as_row, rows_commute

ATOL = 1e-9


def _check_dim(dim: int, max_dim: int = MAX_DIM):
    if dim > max_dim:
        raise DimensionTooLargeError(f"dimension {dim} exceeds cap {max_dim}")


def omega(field: GaloisField) -> complex:
    return cmath.exp(2j * cmath.pi / field.p)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _roots(field: GaloisField) -> np.ndarray:
    """w^k for k in [0, p-1], the values a trace exponent can take."""
    w = omega(field)
    return _readonly(np.array([w ** k for k in range(field.p)], dtype=complex))


@lru_cache(maxsize=None)
def _tables(field: GaloisField):
    """(add, mul, trmul): q x q tables of a + b, a b and tr(a b), from the field's own methods."""
    q = field.q
    _check_dim(q)
    add = np.array([[field.add(a, b) for b in range(q)] for a in range(q)], dtype=np.intp)
    mul = np.array([[field.mul(a, b) for b in range(q)] for a in range(q)], dtype=np.intp)
    trace = np.array([field.trace(a) for a in range(q)], dtype=np.intp)
    return _readonly(add), _readonly(mul), _readonly(trace[mul])


@lru_cache(maxsize=None)
def _digit_grid(q: int, n: int) -> np.ndarray:
    """(q^n, n) array of big-endian digits: qudit 1 is the most significant factor."""
    _check_dim(q ** n)
    weights = q ** np.arange(n - 1, -1, -1)
    return _readonly(np.arange(q ** n)[:, None] // weights % q)


# ---------------------------------------------------------------------------
# single-qudit constructors
# ---------------------------------------------------------------------------

def fourier_unitary(field: GaloisField) -> np.ndarray:
    return _roots(field)[_tables(field)[2]] / np.sqrt(field.q)


def multiplier_unitary(field: GaloisField, gamma: int) -> np.ndarray:
    _gamma_check(field.q, MUL, gamma)
    q = field.q
    u = np.zeros((q, q), dtype=complex)
    u[_tables(field)[1][gamma], np.arange(q)] = 1.0
    return u


def phase_unitary(field: GaloisField, gamma: int) -> np.ndarray:
    _gamma_check(field.q, PHASE, gamma)
    q = field.q
    if gamma == 0:
        return np.eye(q, dtype=complex)
    _, mul, trmul = _tables(field)
    y = np.arange(q)
    if field.p != 2:
        half_g = mul[field.inv(field.add(1, 1)), gamma]
        return np.diag(_roots(field)[-trmul[half_g, mul[y, y]] % field.p])
    g0 = field.sqrt(gamma)
    wgt = (trmul[:, list(field.self_dual_basis())] != 0).sum(axis=1)
    d = np.diag(np.array([1, -1j, -1, 1j])[wgt % 4])
    return multiplier_unitary(field, field.inv(g0)) @ d


def add_unitary(field: GaloisField, gamma: int) -> np.ndarray:
    """ADD(gamma) on two qudits (control first): |x, y> -> |x, y + gamma x>."""
    _gamma_check(field.q, ADD, gamma)
    q = field.q
    add, mul, _ = _tables(field)
    x, y = np.divmod(np.arange(q * q), q)
    u = np.zeros((q * q, q * q), dtype=complex)
    u[x * q + add[y, mul[gamma, x]], x * q + y] = 1.0
    return u


# ---------------------------------------------------------------------------
# n-qudit embedding
# ---------------------------------------------------------------------------

def _embed(field: GaloisField, u: np.ndarray, qudits: Sequence[int], n: int) -> np.ndarray:
    """u on the distinct 1-based `qudits` of n, its first factor on qudits[0].

    The qudits are a gate's that `_gate_args` has checked, so they are
    not checked again here.
    """
    q = field.q
    dim = q ** n
    _check_dim(dim)
    cols = np.array(qudits, dtype=np.intp) - 1
    k = cols.size
    digits = _digit_grid(q, n)[:, cols]          # every basis index's digits on `qudits`
    weights = q ** (n - 1 - cols)
    local = digits @ q ** np.arange(k - 1, -1, -1)
    # column d holds u[:, local[d]] at the rows that replace d's digits on
    # `qudits` by every local row index's digits
    rows = (np.arange(dim) - digits @ weights)[None, :] + (_digit_grid(q, k) @ weights)[:, None]
    out = np.zeros((dim, dim), dtype=complex)
    out[rows, np.arange(dim)[None, :]] = u[:, local]
    return out


def _qudits(op: CliffordOp) -> Tuple[int, ...]:
    """The qudits op acts on, in the order of its local matrix's factors."""
    return (op.control, op.target) if op.kind == ADD else (op.target,)


def _monomial(field: GaloisField, g, n: Optional[int] = None):
    """(rows, expo): column d of w^phase X_x Z_z holds w^expo[d] at row rows[d].

    Every generalized Pauli is a monomial matrix, so these two integer
    arrays (expo reduced mod p) are the whole operator.
    """
    if isinstance(g, Pauli):
        x, z, ph = g.x, g.z, g.phase
    else:
        x, z = g
        ph = 0
    n = len(x) if n is None else n
    if len(x) != n or len(z) != n:
        raise DimensionMismatchError(
            f"x and z need length n = {n}, got {len(x)} and {len(z)}")
    q = field.q
    _check_dim(q ** n)
    field.check(*x, *z)
    add, _, trmul = _tables(field)
    digits = _digit_grid(q, n)
    rows = add[digits, np.array(x, dtype=np.intp)] @ q ** np.arange(n - 1, -1, -1)
    expo = (trmul[np.array(z, dtype=np.intp), digits].sum(axis=1) + ph) % field.p
    return rows, expo


def pauli_unitary(field: GaloisField, g, n: Optional[int] = None) -> np.ndarray:
    """Dense matrix of w^phase X_x Z_z (phase 0 for bare rows).

    Column d holds w^(phase + sum tr(z_i d_i)) at row d + x.
    """
    rows, expo = _monomial(field, g, n)
    out = np.zeros((rows.size, rows.size), dtype=complex)
    out[rows, np.arange(rows.size)] = _roots(field)[expo]
    return out


def paulis_commute(field: GaloisField, a, b, n: Optional[int] = None) -> bool:
    """Whether a b == b a, compared exactly as (rows, expo) products."""
    if n is None:
        n = a.n if isinstance(a, Pauli) else len(a[0])
    ra, ea = _monomial(field, a, n)
    rb, eb = _monomial(field, b, n)
    # column d of a b holds w^(eb[d] + ea[rb[d]]) at row ra[rb[d]]
    return bool(np.array_equal(ra[rb], rb[ra])
                and np.array_equal((eb + ea[rb]) % field.p, (ea + eb[ra]) % field.p))


def gate_unitary(field: GaloisField, op, n: int = 1) -> np.ndarray:
    """The literal definition of a gate (or shift/clock operator), on n qudits."""
    if not isinstance(op, CliffordOp):
        return pauli_unitary(field, op, n)
    _gate_args(op, n, field.q)
    if op.kind == DFT:
        u = fourier_unitary(field)
    elif op.kind == MUL:
        u = multiplier_unitary(field, op.gamma)
    elif op.kind == PHASE:
        u = phase_unitary(field, op.gamma)
    else:
        u = add_unitary(field, op.gamma)
    return _embed(field, u, _qudits(op), n)


def clifford_unitary(field: GaloisField, op: CliffordOp, n: int = 1) -> np.ndarray:
    """The unitary whose U g U+ conjugation realizes op's column rule."""
    _gate_args(op, n, field.q)   # before inv, neg or sqrt wraps the gamma
    if op.kind == DFT:
        u = fourier_unitary(field).conj().T
    elif op.kind == MUL:
        u = multiplier_unitary(field, field.inv(op.gamma))
    elif op.kind == PHASE and field.p != 2:
        u = phase_unitary(field, field.neg(op.gamma))
    elif op.kind == PHASE and op.gamma == 0:
        u = np.eye(field.q, dtype=complex)
    elif op.kind == PHASE:
        u = phase_unitary(field, op.gamma) @ multiplier_unitary(field, field.sqrt(op.gamma))
    else:
        u = add_unitary(field, op.gamma)
    return _embed(field, u, _qudits(op), n)


# ---------------------------------------------------------------------------
# conjugation and identification
# ---------------------------------------------------------------------------

def conjugate_to_pauli(field: GaloisField, u: np.ndarray, g,
                       n: Optional[int] = None) -> Tuple[Pauli, complex]:
    """Identify U g U+ as (phaseless Pauli, unit-modulus factor).

    Raises NotAPauliError when the conjugate is not proportional to any
    X_x Z_z, which signals a wrong gate construction.
    """
    if isinstance(g, Pauli):
        n = g.n
    elif n is None:
        n = len(g[0])
    dim = field.q ** n
    _check_dim(dim)
    if np.shape(u) != (dim, dim):
        raise DimensionMismatchError(f"unitary has shape {np.shape(u)}, want {(dim, dim)}")
    rows, expo = _monomial(field, g, n)
    # column d of U g is U[:, rows[d]] w^expo[d]
    mat = (u[:, rows] * _roots(field)[expo]) @ u.conj().T
    x, z, phase_factor = _identify(field, mat, n)
    return Pauli(field, n, 0, x, z), phase_factor


def _identify(field: GaloisField, mat: np.ndarray, n: int):
    """(x, z, factor) with mat = factor X_x Z_z, or NotAPauliError.

    x is the row of column 0's largest entry and factor that entry; z is
    read from the shift amplitudes of the columns |v e_i>, qudit by qudit
    and v by v, and the first failure in that order names the error.
    """
    q = field.q
    col0 = mat[:, 0]
    r0 = int(np.argmax(np.abs(col0)))
    if abs(col0[r0]) < 1e-6:
        raise NotAPauliError("conjugate has a vanishing first column")
    x = tuple(_digit_grid(q, n)[r0].tolist())
    phase_factor = col0[r0]
    # z read-off: column |v e_i> holds w^tr(z_i v) times the factor at row |v e_i + x>;
    # row i of each array below is qudit i, column v is the amplitude read for v
    add, _, trmul = _tables(field)
    v = np.arange(q)
    weight = (q ** np.arange(n - 1, -1, -1))[:, None]
    xs = np.array(x, dtype=np.intp)[:, None]
    amp = mat[r0 + (add[v, xs] - xs) * weight, v * weight]
    ratio = amp / phase_factor
    missing = np.abs(amp) < 1e-6
    expo = np.rint(np.angle(ratio) / (2 * np.pi) * field.p).astype(np.intp) % field.p
    bad = missing | (np.abs(ratio - _roots(field)[expo]) > 1e-6)
    match = (trmul == expo[:, None, :]).all(axis=2)   # match[i, b]: tr(b v) fits qudit i
    failing = bad.any(axis=1) | ~match.any(axis=1)
    if failing.any():
        i = int(np.argmax(failing))
        if not bad[i].any():
            raise NotAPauliError("no field element matches the observed phases")
        if missing[i, np.argmax(bad[i])]:
            raise NotAPauliError("conjugate is missing a shift amplitude")
        raise NotAPauliError("conjugate phase is not a p-th root of unity")
    z = tuple(match.argmax(axis=1).tolist())
    rows, expo = _monomial(field, (x, z), n)
    if not _on_monomial(mat, rows, phase_factor * _roots(field)[expo]):
        raise NotAPauliError("conjugate deviates from the identified Pauli")
    return x, z, phase_factor


def _on_monomial(mat: np.ndarray, rows: np.ndarray, want: np.ndarray) -> bool:
    """np.allclose(mat, M, atol=ATOL) for the monomial M with M[rows[d], d] = want[d].

    On the support |mat - want| <= ATOL + 1e-5 |want|; off it |mat| <= ATOL.
    """
    cols = np.arange(rows.size)
    if not (np.abs(mat[rows, cols] - want) <= ATOL + 1e-5 * np.abs(want)).all():
        return False
    off = np.abs(mat)
    off[rows, cols] = 0.0
    return bool((off <= ATOL).all())


# ---------------------------------------------------------------------------
# states and subspaces
# ---------------------------------------------------------------------------

def ebit_state(field: GaloisField) -> np.ndarray:
    """Maximally entangled pair sum_k |k>|k> / sqrt(d)."""
    d = field.q
    _check_dim(d * d)
    vec = np.zeros(d * d, dtype=complex)
    vec[np.arange(d) * (d + 1)] = 1.0
    return vec / np.sqrt(d)


def is_stabilized(state: np.ndarray, op_matrix: np.ndarray) -> bool:
    return bool(np.linalg.norm(op_matrix @ state - state) <= ATOL)


def stabilized_subspace_dim(field: GaloisField, generators: Sequence,
                            n: Optional[int] = None,
                            max_dim: int = MAX_DIM) -> int:
    """Rank of the product of generator eigenprojectors (1/ord) sum g^j.

    For r independent commuting generators on N qudits over prime q this
    equals q^(N-r).  Each eigenprojector is applied to the running
    projector as a sum of row gathers, one per power of g, so no dense
    matrix product is formed; the order is found exactly, when the
    (rows, expo) arrays of the power return to the identity's.
    """
    gens = list(generators)
    if not gens:
        if n is None:
            raise EmptyMatrixError("n required for an empty generator list")
        _check_dim(field.q ** n, max_dim)
        return field.q ** n
    if isinstance(gens[0], Pauli):
        n = gens[0].n
    elif n is None:
        n = len(gens[0][0])
    dim = field.q ** n
    _check_dim(dim, max_dim)
    if not rows_commute(field, [_as_row(field, g) for g in gens]):
        raise NonCommutingGeneratorsError("the generators do not commute pairwise")
    p, roots, ident = field.p, _roots(field), np.arange(dim)
    proj = np.eye(dim, dtype=complex)
    for g in gens:
        rows_g, expo_g = _monomial(field, g, n)
        # sum_j g^j = sum_j g^-j over a whole cycle, and row d of g^-j proj is
        # w^-expo[d] proj[rows[d]] when column d of g^j is w^expo[d] at row rows[d]
        acc = proj.copy()
        rows, expo, order = rows_g, expo_g, 1
        while expo.any() or not np.array_equal(rows, ident):
            if order == 2 * p:
                raise NotAPauliError("operator has no small finite order")
            term = proj[rows]
            term *= roots[-expo % p][:, None]
            acc += term
            del term                 # proj, acc and one term: three arrays at most
            rows, expo = rows_g[rows], (expo + expo_g[rows]) % p
            order += 1
        acc /= order
        proj = acc
    return int(round(np.trace(proj).real))
