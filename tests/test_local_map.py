"""The audit's fast path: each column op checked against its gate's local map.

`audit._local_map` gives a gate's 2|T| x 2|T| symplectic map on a row's
entries (x_T | z_T); an op whose touched columns equal that map applied to
the rows before it passes without the pairwise Gram-delta check, which
then runs only for an op that is already wrong (see `tests/test_audit.py`
for the verdicts under injected faults).
"""

import itertools
import random

import pytest

from eaqec import CheckMatrix, make_field, reduce_matrix
from eaqec import audit
from eaqec.audit import audit_reduction
from eaqec.checkmatrix import ADD, DFT, MUL, PHASE, CliffordOp, _Tableau, add, dft, mul, phase
from eaqec.errors import NotConstructibleError
from eaqec.reduction import NORMALIZED, STRICT
from test_audit import _instance
from test_golden import corpus


def _gates(p):
    """Every gate kind with every gamma in F_p* on a 3-qudit register."""
    yield dft(2)
    for g in range(1, p):
        yield mul(g, 2)
        yield phase(g, 2)
    yield add(3, 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_local_map_is_the_tableau_rule(p):
    rng = random.Random(1400 + p)
    rows = [(tuple(rng.randrange(p) for _ in range(3)),
             tuple(rng.randrange(p) for _ in range(3))) for _ in range(12)]
    matrix = CheckMatrix.from_rows(make_field(p), rows)
    for op in _gates(p):
        local = audit._local_map(op.kind, op.gamma, p)
        assert local is not None and audit._is_symplectic(local, p)
        cols = [op.target - 1] + ([op.control - 1] if op.kind == ADD else [])
        after = _Tableau(matrix).clifford(op)
        for (x, z), ax, az in zip(rows, after.xs, after.zs):
            v = [x[t] for t in cols] + [z[t] for t in cols]
            image = [sum(m * e for m, e in zip(row, v)) % p for row in local]
            assert image == [ax[t] for t in cols] + [az[t] for t in cols], op
        columns = [[x[t] for x, _ in rows] for t in cols] + [[z[t] for _, z in rows]
                                                              for t in cols]
        assert audit._image(local, columns, p) == (
            [[x[t] for x in after.xs] for t in cols] + [[z[t] for z in after.zs] for t in cols])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_scaled_add_map_is_symplectic_for_every_gamma(p):
    """ADD(gamma)'s map keeps the form for every gamma in F_p*, and it is the
    tableau rule on every row over (x_t, x_c | z_t, z_c), a seeded sample of
    them past p = 5."""
    every = [(flat[:2], flat[2:]) for flat in itertools.product(range(p), repeat=4)]
    if p > 5:
        every = random.Random(1500 + p).sample(every, 200)
    matrix = CheckMatrix.from_rows(make_field(p), every, n=2)
    columns = [[x[0] for x, _ in every], [x[1] for x, _ in every],
               [z[0] for _, z in every], [z[1] for _, z in every]]
    for g in range(1, p):
        local = audit._local_map(ADD, g, p)
        assert local == ((1, g, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, -g % p, 1))
        assert audit._is_symplectic(local, p)
        after = _Tableau(matrix).clifford(add(2, 1, g))
        assert audit._image(local, columns, p) == [
            [x[0] for x in after.xs], [x[1] for x in after.xs],
            [z[0] for z in after.zs], [z[1] for z in after.zs]]
    assert audit._local_map(ADD, 0, p) is None


def test_symplectic_check_rejects_a_wrong_map():
    assert audit._is_symplectic(((0, 1), (6, 0)), 7)
    assert not audit._is_symplectic(((0, 1), (1, 0)), 7)       # DFT without the sign
    assert not audit._is_symplectic(((2, 0), (0, 2)), 7)       # MUL(2) without the inverse
    assert not audit._is_symplectic(((1, 1, 0, 0), (0, 1, 0, 0),
                                     (0, 0, 1, 0), (0, 0, 1, 1)), 7)  # ADD, wrong z sign
    assert audit._is_symplectic(((1, 1, 0, 0), (0, 1, 0, 0),
                                 (0, 0, 1, 0), (0, 0, 1, 1)), 2)      # ... a no-op at p = 2
    assert audit._local_map(MUL, 0, 7) is None
    assert audit._local_map("SWAP", None, 7) is None
    assert audit._local_map(DFT, None, 7) == ((0, 1), (6, 0))
    assert audit._local_map(PHASE, 3, 7) == ((1, 0), (3, 1))
    assert audit._local_map(MUL, 3, 7) == ((5, 0), (0, 3))


def test_sound_audit_runs_the_pairwise_check_only_for_abelian(monkeypatch):
    """No column op of a sound reduction reaches the Gram-delta check: the
    one `rows_commute` call is the end-state `abelian` check."""
    real = audit.rows_commute
    calls = []

    def counted(field, rows):
        calls.append(rows)
        return real(field, rows)

    monkeypatch.setattr(audit, "rows_commute", counted)
    column_ops = 0
    for _, matrix in corpus():
        for mode in (STRICT, NORMALIZED):
            try:
                res = reduce_matrix(matrix, mode)
            except NotConstructibleError:
                continue
            calls.clear()
            assert all(audit_reduction(res).values())
            assert calls == [res.augmented.rows]
            column_ops += sum(isinstance(op, CliffordOp) for op in res.oplog)
    assert column_ops > 1000


def test_audit_at_n_32():
    res = reduce_matrix(_instance(7, 32, 32, 1432), NORMALIZED)
    verdicts = audit_reduction(res)
    assert list(verdicts) == ["replay", "row_space", "symplectic", "abelian"]
    assert all(verdicts.values())
