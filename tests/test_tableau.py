"""Contract of the in-place working tableau behind the multi-op paths.

`apply_ops` and `replay_steps` run a whole sequence on one mutable copy
of the matrix.  They must agree with folding the public single-op
functions, never write through to their input or to a snapshot already
handed out, and fail on a bad op with the same error as the single-op
call would.  A column rule given a repetition count must equal that many
single applications, and check as much as one.
"""

import random

import pytest

from eaqec import (
    CheckMatrix,
    CliffordOp,
    RowOp,
    add,
    apply_clifford,
    apply_ops,
    apply_row_op,
    dft,
    make_field,
    mul,
    phase,
    reduce_matrix,
)
from eaqec.checkmatrix import (
    ADDMUL,
    SWAP,
    _Tableau,
    replay_steps,
    row_op_addmul,
    row_op_scale,
    row_op_swap,
)
from eaqec.errors import (
    BadArgumentError,
    BadScalarError,
    IndexOutOfRangeError,
    NonInvertibleGammaError,
    UnknownOpError,
)
from eaqec.reduction import NORMALIZED
from test_golden import corpus

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


def test_encoding_replay_equals_step_by_step_replay_on_golden_corpus():
    """The multi-op path and the one-op-at-a-time path agree on the circuits
    the pipeline emits, whose gates come in long runs of one repeated op."""
    for _, matrix in corpus():
        res = reduce_matrix(matrix, NORMALIZED)
        *_, (_, last) = replay_steps(res.augmented, res.encoding_gates)
        assert apply_ops(res.augmented, res.encoding_gates) == last
        assert res.encoded == last


RUN_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]   # q = 2, 3, 5, 7, 4, 9


def _every_gate(field):
    yield dft(1)
    for g in range(1, field.q):
        yield mul(g, 2)
    for g in range(field.q):
        yield phase(g, 3)
    yield add(1, 3)
    yield add(3, 2)


@pytest.mark.parametrize("p,m", RUN_FIELDS)
def test_a_run_equals_its_single_applications(p, m):
    """clifford(op, k) is the k-th power of the rule: DFT by k mod 4, MUL(g^k),
    PHASE(k g) and ADD by k for m = 1, the rule looped for m > 1."""
    field = make_field(p, m)
    rng = random.Random(31 * p + m)
    matrix = _matrix(rng, field, 3, 6)
    for op in _every_gate(field):
        top = 8 if op.kind == "DFT" else 2 * field.q + 1
        single = _Tableau(matrix)
        assert _Tableau(matrix).clifford(op, 0).freeze() == matrix
        for k in range(1, top + 1):
            single.clifford(op)
            assert _Tableau(matrix).clifford(op, k).freeze() == single.freeze(), (op, k)
            assert apply_ops(matrix, [op] * k) == single.freeze()


@pytest.mark.parametrize("p,m", RUN_FIELDS)
def test_a_bad_run_raises_like_one_op_and_writes_nothing(p, m):
    field = make_field(p, m)
    n = r = 3
    matrix = _matrix(random.Random(p + 10 * m), field, n, r)
    bad_ops = [(op, err) for op, err in _bad_ops(field, n, r) if not isinstance(op, RowOp)]
    bad_ops += [(dft(0), IndexOutOfRangeError), (CliffordOp("T", 1), ValueError)]
    bad_ops.append((None, UnknownOpError))  # not a CliffordOp at all
    for bad, error in bad_ops:
        with pytest.raises(error) as once:
            _Tableau(matrix).clifford(bad)
        for k in (2, 3, 2 * field.q + 1):
            work = _Tableau(matrix)
            with pytest.raises(error) as run:
                work.clifford(bad, k)
            assert str(run.value) == str(once.value)
            assert work.freeze() == matrix
            with pytest.raises(error) as multi:
                apply_ops(matrix, [bad] * k)
            assert str(multi.value) == str(once.value)
    for times in (-1, 1.0, None):
        work = _Tableau(matrix)
        with pytest.raises(ValueError):
            work.clifford(dft(1), times)
        assert work.freeze() == matrix


def test_a_repetition_count_is_an_int_not_a_bool():
    """A bool is no repetition count: True must not run the gate once."""
    field = make_field(5)
    matrix = _matrix(random.Random(3), field, 2, 2)
    for times in (True, False):
        work = _Tableau(matrix)
        with pytest.raises(BadArgumentError, match="times must be a non-negative integer"):
            work.clifford(dft(1), times)
        assert work.freeze() == matrix


def test_runs_are_found_by_identity_not_equality():
    """mul(2.0, 1) equals mul(2, 1) but is not a valid op; a run of equal ops
    must still check each distinct object."""
    field = make_field(5)
    matrix = _matrix(random.Random(5), field, 2, 2)
    with pytest.raises(NonInvertibleGammaError):
        apply_ops(matrix, [mul(2, 1), mul(2.0, 1)])
