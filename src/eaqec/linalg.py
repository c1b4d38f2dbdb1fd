"""Exact Gaussian elimination mod a prime.

Small dense row-lists of Python ints; no floating point anywhere.  Used
for row-space comparison, membership tests and the Gram-rank oracle.
"""

from __future__ import annotations


def rref_mod_p(rows, p):
    """Reduced row echelon form mod p.

    Returns (rref_rows, pivot_cols); zero rows are dropped from the result
    so equal row spaces produce identical output.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] % p), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][col] % p, -1, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] % p:
                f = mat[i][col] % p
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return [row for row in mat[:r]], pivots


def rank_mod_p(rows, p) -> int:
    return len(rref_mod_p(rows, p)[1])


def in_span_mod_p(rows, target, p) -> bool:
    """True if target is an F_p-combination of rows.

    One elimination: the target is reduced against the rows' reduced
    echelon form and lies in their span iff nothing is left.
    """
    echelon, pivots = rref_mod_p(rows, p)
    rest = [v % p for v in target]
    for row, col in zip(echelon, pivots):
        f = rest[col]
        if f:
            rest = [(a - f * b) % p for a, b in zip(rest, row)]
    return not any(rest)
