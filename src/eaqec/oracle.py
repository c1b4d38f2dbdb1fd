"""Brute-force dense-unitary ground truth for tiny q and n.

Builds the generalized Pauli and Clifford gates as explicit complex
matrices and checks the symbolic layers against them: conjugation rules,
commutation phases, ebit stabilization, and stabilized-subspace
dimensions.  Dimensions are capped at 1024 and all comparisons use a
1e-9 tolerance.

Two unitary constructors exist on purpose:

* ``gate_unitary`` returns the literal textbook gate (Fourier, multiplier,
  phase, controlled add).  The odd-q phase gate is diag(w^-tr(g y^2 / 2));
  the even-q one is M_{g0}^-1 diag((-i)^wgt(y)) with g0^2 = g, which is
  the only place wgt and the self-dual basis matter.

* ``clifford_unitary`` returns the unitary whose conjugation U g U+
  realizes the check-matrix column rule for a CliffordOp.  The tableau
  convention matches conjugation by the *inverse* Fourier / multiplier /
  phase gate (and by ADD itself), so DFT maps to the adjoint Fourier
  matrix, MUL(g) to the multiplier with g^-1, and PHASE(g) to the phase
  gate with -g (odd q) or the multiplier-conjugated diagonal (even q).
"""

from __future__ import annotations

import cmath
from typing import Optional, Sequence, Tuple

import numpy as np

from .checkmatrix import ADD, DFT, MAX_DIM, MUL, PHASE, CliffordOp
from .errors import (
    DimensionTooLargeError,
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


# ---------------------------------------------------------------------------
# single-qudit constructors
# ---------------------------------------------------------------------------

def shift_unitary(field: GaloisField, a: int) -> np.ndarray:
    """X_a = sum_x |x+a><x|."""
    q = field.q
    u = np.zeros((q, q), dtype=complex)
    for x in range(q):
        u[field.add(x, a), x] = 1.0
    return u


def clock_unitary(field: GaloisField, b: int) -> np.ndarray:
    """Z_b = diag(w^tr(b z))."""
    w = omega(field)
    return np.diag([w ** field.trace(field.mul(b, z)) for z in range(field.q)])


def fourier_unitary(field: GaloisField) -> np.ndarray:
    q, w = field.q, omega(field)
    u = np.array([[w ** field.trace(field.mul(x, z)) for z in range(q)]
                  for x in range(q)], dtype=complex)
    return u / np.sqrt(q)


def multiplier_unitary(field: GaloisField, gamma: int) -> np.ndarray:
    if gamma == 0:
        raise NotAPauliError("multiplier gamma must be invertible")
    q = field.q
    u = np.zeros((q, q), dtype=complex)
    for y in range(q):
        u[field.mul(gamma, y), y] = 1.0
    return u


def phase_unitary(field: GaloisField, gamma: int) -> np.ndarray:
    q = field.q
    if gamma == 0:
        return np.eye(q, dtype=complex)
    if field.p != 2:
        w = omega(field)
        half = field.inv(field.add(1, 1))
        diag = [w ** field.trace(field.neg(field.mul(half, field.mul(gamma, field.mul(y, y)))))
                for y in range(q)]
        return np.diag(diag).astype(complex)
    g0 = field.sqrt(gamma)
    d = np.diag([(-1j) ** field.wgt(y) for y in range(q)])
    return multiplier_unitary(field, field.inv(g0)) @ d


def add_unitary(field: GaloisField) -> np.ndarray:
    """ADD on two qudits (control first): |x, y> -> |x, x+y>."""
    q = field.q
    u = np.zeros((q * q, q * q), dtype=complex)
    for x in range(q):
        for y in range(q):
            u[x * q + field.add(x, y), x * q + y] = 1.0
    return u


# ---------------------------------------------------------------------------
# n-qudit embedding
# ---------------------------------------------------------------------------

def _embed_single(field: GaloisField, u: np.ndarray, target: int, n: int) -> np.ndarray:
    q = field.q
    _check_dim(q ** n)
    out = np.eye(1, dtype=complex)
    for pos in range(1, n + 1):
        out = np.kron(out, u if pos == target else np.eye(q, dtype=complex))
    return out


def _embed_pair(field: GaloisField, u2: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """Embed a two-qudit gate (first factor = control a, second = target b)."""
    q = field.q
    dim = q ** n
    _check_dim(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        digs = _index_digits(col, q, n)
        sub_col = digs[a - 1] * q + digs[b - 1]
        for x in range(q):
            for y in range(q):
                amp = u2[x * q + y, sub_col]
                if amp != 0:
                    nd = list(digs)
                    nd[a - 1], nd[b - 1] = x, y
                    out[_digits_index(nd, q), col] += amp
    return out


def _index_digits(idx: int, q: int, n: int):
    """Big-endian digits: qudit 1 is the most significant factor."""
    digs = []
    for _ in range(n):
        digs.append(idx % q)
        idx //= q
    return list(reversed(digs))


def _digits_index(digs, q: int) -> int:
    idx = 0
    for d in digs:
        idx = idx * q + d
    return idx


def pauli_unitary(field: GaloisField, g, n: Optional[int] = None) -> np.ndarray:
    """Dense matrix of w^phase X_x Z_z (phase 0 for bare rows)."""
    if isinstance(g, Pauli):
        x, z, ph = g.x, g.z, g.phase
    else:
        x, z = g
        ph = 0
    n = len(x) if n is None else n
    _check_dim(field.q ** n)
    out = np.eye(1, dtype=complex)
    for xi, zi in zip(x, z):
        out = np.kron(out, shift_unitary(field, xi) @ clock_unitary(field, zi))
    return (omega(field) ** ph) * out


def gate_unitary(field: GaloisField, op, n: int = 1) -> np.ndarray:
    """The literal definition of a gate (or shift/clock operator), on n qudits."""
    if not isinstance(op, CliffordOp):
        return pauli_unitary(field, op, n)
    if op.kind == DFT:
        return _embed_single(field, fourier_unitary(field), op.target, n)
    if op.kind == MUL:
        return _embed_single(field, multiplier_unitary(field, op.gamma), op.target, n)
    if op.kind == PHASE:
        return _embed_single(field, phase_unitary(field, op.gamma), op.target, n)
    if op.kind == ADD:
        return _embed_pair(field, add_unitary(field), op.control, op.target, n)
    raise ValueError(f"unknown op kind {op.kind!r}")


def clifford_unitary(field: GaloisField, op: CliffordOp, n: int = 1) -> np.ndarray:
    """The unitary whose U g U+ conjugation realizes op's column rule."""
    if op.kind == DFT:
        return _embed_single(field, fourier_unitary(field).conj().T, op.target, n)
    if op.kind == MUL:
        return _embed_single(field, multiplier_unitary(field, field.inv(op.gamma)),
                             op.target, n)
    if op.kind == PHASE:
        if field.p != 2:
            u = phase_unitary(field, field.neg(op.gamma))
        elif op.gamma == 0:
            u = np.eye(field.q, dtype=complex)
        else:
            u = (phase_unitary(field, op.gamma)
                 @ multiplier_unitary(field, field.sqrt(op.gamma)))
        return _embed_single(field, u, op.target, n)
    if op.kind == ADD:
        return _embed_pair(field, add_unitary(field), op.control, op.target, n)
    raise ValueError(f"unknown op kind {op.kind!r}")


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
    q = field.q
    dim = q ** n
    _check_dim(dim)
    mat = u @ pauli_unitary(field, g, n) @ u.conj().T
    col0 = mat[:, 0]
    r0 = int(np.argmax(np.abs(col0)))
    if abs(col0[r0]) < 1e-6:
        raise NotAPauliError("conjugate has a vanishing first column")
    x = tuple(_index_digits(r0, q, n))
    phase_factor = col0[r0]
    # per-qudit z read-off: column |v e_i> has its nonzero entry scaled by w^tr(z_i v)
    z = []
    w = omega(field)
    for i in range(1, n + 1):
        traces = {}
        for v in range(q):
            digs = [0] * n
            digs[i - 1] = v
            col = _digits_index(digs, q)
            row = _digits_index([field.add(a, b) for a, b in zip(digs, x)], q)
            amp = mat[row, col]
            if abs(amp) < 1e-6:
                raise NotAPauliError("conjugate is missing a shift amplitude")
            ratio = amp / phase_factor
            expo = round((cmath.phase(ratio) / (2 * cmath.pi)) * field.p) % field.p
            if abs(ratio - w ** expo) > 1e-6:
                raise NotAPauliError("conjugate phase is not a p-th root of unity")
            traces[v] = expo
        cand = next((b for b in range(q)
                     if all(field.trace(field.mul(b, v)) == traces[v] for v in range(q))),
                    None)
        if cand is None:
            raise NotAPauliError("no field element matches the observed phases")
        z.append(cand)
    result = Pauli(field, n, 0, x, tuple(z))
    expected = phase_factor * pauli_unitary(field, result, n)
    if not np.allclose(mat, expected, atol=ATOL):
        raise NotAPauliError("conjugate deviates from the identified Pauli")
    return result, phase_factor


# ---------------------------------------------------------------------------
# states and subspaces
# ---------------------------------------------------------------------------

def ebit_state(field: GaloisField) -> np.ndarray:
    """Maximally entangled pair sum_k |k>|k> / sqrt(d)."""
    d = field.q
    _check_dim(d * d)
    vec = np.zeros(d * d, dtype=complex)
    for k in range(d):
        vec[k * d + k] = 1.0
    return vec / np.sqrt(d)


def is_stabilized(state: np.ndarray, op_matrix: np.ndarray) -> bool:
    return bool(np.linalg.norm(op_matrix @ state - state) <= ATOL)


def _operator_order(u: np.ndarray, limit: int) -> int:
    acc = np.eye(u.shape[0], dtype=complex)
    for k in range(1, limit + 1):
        acc = acc @ u
        if np.allclose(acc, np.eye(u.shape[0]), atol=ATOL):
            return k
    raise NotAPauliError("operator has no small finite order")


def stabilized_subspace_dim(field: GaloisField, generators: Sequence,
                            n: Optional[int] = None,
                            max_dim: int = MAX_DIM) -> int:
    """Rank of the product of generator eigenprojectors (1/ord) sum g^j.

    For r independent commuting generators on N qudits over prime q this
    equals q^(N-r).
    """
    gens = list(generators)
    if not gens:
        if n is None:
            raise ValueError("n required for an empty generator list")
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
    proj = np.eye(dim, dtype=complex)
    for g in gens:
        u = pauli_unitary(field, g, n)
        order = _operator_order(u, 2 * field.p)
        acc = np.zeros((dim, dim), dtype=complex)
        power = np.eye(dim, dtype=complex)
        for _ in range(order):
            acc += power
            power = power @ u
        proj = proj @ (acc / order)
    return int(round(np.trace(proj).real))
