"""Contract of the in-place working tableau behind the multi-op paths.

`apply_ops` and `replay_steps` run a whole sequence on one mutable copy
of the matrix.  They must agree with folding the public single-op
functions, never write through to their input or to a snapshot already
handed out, and fail on a bad op with the same error as the single-op
call would.
"""

import random

import pytest

from eaqec import (
    CheckMatrix,
    RowOp,
    add,
    apply_clifford,
    apply_ops,
    apply_row_op,
    dft,
    make_field,
    mul,
    phase,
)
from eaqec.checkmatrix import (
    ADDMUL,
    SWAP,
    replay_steps,
    row_op_addmul,
    row_op_scale,
    row_op_swap,
)
from eaqec.errors import BadScalarError, IndexOutOfRangeError, NonInvertibleGammaError

FIELDS = [(3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]   # q = 3, 4, 5, 8, 9


def _matrix(rng, field, n, r):
    rows = [(tuple(rng.randrange(field.q) for _ in range(n)),
             tuple(rng.randrange(field.q) for _ in range(n))) for _ in range(r)]
    return CheckMatrix.from_rows(field, rows, n=n)


def _random_op(rng, field, n, r):
    """A valid op; row-op scalars stay in the prime subfield when m > 1."""
    scalars = field.p if field.m > 1 else field.q
    roll = rng.randrange(7)
    if roll == 0:
        return dft(rng.randint(1, n))
    if roll == 1:
        return mul(rng.randrange(1, field.q), rng.randint(1, n))
    if roll == 2:
        return phase(rng.randrange(field.q), rng.randint(1, n))
    if roll == 3:
        ctl, tgt = rng.sample(range(1, n + 1), 2)
        return add(ctl, tgt)
    if roll == 4:
        return row_op_swap(*rng.sample(range(1, r + 1), 2))
    if roll == 5:
        dest, src = rng.sample(range(1, r + 1), 2)
        return row_op_addmul(dest, src, rng.randrange(scalars))
    return row_op_scale(rng.randint(1, r), rng.randrange(1, field.p))


def _single(m, op):
    """One op through the public single-op functions."""
    if not isinstance(op, RowOp):
        return apply_clifford(m, op)
    if op.kind == SWAP:
        return apply_row_op(m, row_op_swap(op.dest, op.src))
    if op.kind == ADDMUL:
        return apply_row_op(m, row_op_addmul(op.dest, op.src, op.scalar))
    return apply_row_op(m, row_op_scale(op.dest, op.scalar))


def _cases():
    for p, m in FIELDS:
        rng = random.Random(1000 * p + m)
        field = make_field(p, m)
        for _ in range(4):
            n, r = rng.randint(2, 5), rng.randint(2, 5)
            ops = [_random_op(rng, field, n, r) for _ in range(40)]
            yield rng, _matrix(rng, field, n, r), ops


def test_apply_ops_equals_single_op_fold_and_leaves_input_alone():
    for _, matrix, ops in _cases():
        before = matrix.rows
        expect = matrix
        for op in ops:
            expect = _single(expect, op)
        got = apply_ops(matrix, ops)
        assert got == expect
        assert matrix.rows == before
        assert all(type(x) is tuple and type(z) is tuple for x, z in got.rows)


def test_replay_snapshots_are_not_aliased():
    for _, matrix, ops in _cases():
        steps = list(replay_steps(matrix, ops))
        expect = matrix
        for (op, snap), want in zip(steps, ops):
            assert op is want
            expect = _single(expect, op)
            assert snap == expect    # still equal after every later step ran


def _bad_ops(field, n, r):
    return [
        (dft(n + 1), IndexOutOfRangeError),
        (add(2, 2), IndexOutOfRangeError),
        (add(n + 1, 1), IndexOutOfRangeError),
        (mul(0, 1), NonInvertibleGammaError),
        (mul(field.q, 1), NonInvertibleGammaError),
        (phase(field.q, 1), NonInvertibleGammaError),
        (row_op_swap(0, 1), IndexOutOfRangeError),
        (row_op_addmul(1, 1, 1), IndexOutOfRangeError),
        (row_op_addmul(1, r + 1, 1), IndexOutOfRangeError),
        (row_op_addmul(1, 2, field.q), BadScalarError),
        (row_op_addmul(1, 2, field.p if field.m > 1 else -1), BadScalarError),
        (row_op_scale(1, 0), BadScalarError),
        (row_op_scale(r + 1, 1), IndexOutOfRangeError),
    ]


@pytest.mark.parametrize("p,m", FIELDS)
def test_bad_op_mid_sequence_raises_like_single_op(p, m):
    field = make_field(p, m)
    rng = random.Random(77 * p + m)
    n, r = 3, 3
    matrix = _matrix(rng, field, n, r)
    head = [_random_op(rng, field, n, r) for _ in range(10)]
    tail = [_random_op(rng, field, n, r) for _ in range(5)]
    prefix = matrix
    for op in head:
        prefix = _single(prefix, op)
    for bad, error in _bad_ops(field, n, r):
        with pytest.raises(error) as single:
            _single(prefix, bad)
        with pytest.raises(error) as multi:
            apply_ops(matrix, head + [bad] + tail)
        assert str(multi.value) == str(single.value)
        with pytest.raises(error):
            list(replay_steps(matrix, head + [bad] + tail))
