"""The library's error contract: only an EaqecError leaves the package.

Malformed ops and values are fed to every op- and value-taking entry point
with well-formed containers (lists, pairs of rows, a built field and
matrix): an op may be a CliffordOp or RowOp whose fields are any of ints
in and out of range, bools, floats, strings or None, or a bare value that
is no op at all; field elements, field parameters, `n` and the reduction
mode take the same values.  Each call either returns or raises an
EaqecError subclass; any other exception fails the test.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from eaqec import (
    NORMALIZED,
    STRICT,
    CheckMatrix,
    Circuit,
    CliffordOp,
    Pauli,
    RowOp,
    apply_clifford,
    apply_ops,
    apply_row_op,
    inverse_ops,
    invert_oplog,
    make_field,
    reduce_matrix,
)
from eaqec.checkmatrix import ADD, ADDMUL, DFT, MUL, PHASE, SCALE, SWAP
from eaqec.errors import EaqecError
from eaqec.oracle import clifford_unitary, gate_unitary

VALUES = st.one_of(st.integers(-2, 10),
                   st.sampled_from([True, False, 0.0, 1.0, 1.5, "1", None]))
KINDS = st.sampled_from([DFT, MUL, PHASE, ADD, SWAP, ADDMUL, SCALE, "NOPE", None])
GATES = st.builds(CliffordOp, KINDS, VALUES, gamma=VALUES, control=VALUES)
ROW_OPS = st.builds(RowOp, KINDS, VALUES, src=VALUES, scalar=VALUES)
OPS = st.one_of(GATES, ROW_OPS, VALUES)
FIELDS = st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])


def _returns_or_raises_eaqec(call, *args):
    try:
        call(*args)
    except EaqecError:
        pass


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pm=FIELDS, ops=st.lists(OPS, max_size=3), entries=st.lists(VALUES, min_size=4, max_size=4),
       n=VALUES, mode=st.one_of(VALUES, st.sampled_from([STRICT, NORMALIZED])))
def test_only_eaqec_errors_leave_the_op_and_value_entry_points(pm, ops, entries, n, mode):
    f = make_field(*pm)
    matrix = CheckMatrix.from_rows(f, [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 0))])
    for op in ops:
        _returns_or_raises_eaqec(apply_row_op, matrix, op)
        _returns_or_raises_eaqec(apply_clifford, matrix, op)
        if isinstance(op, CliffordOp):
            _returns_or_raises_eaqec(gate_unitary, f, op, 2)
            _returns_or_raises_eaqec(clifford_unitary, f, op, 2)
    _returns_or_raises_eaqec(apply_ops, matrix, ops)
    _returns_or_raises_eaqec(inverse_ops, ops, f)
    _returns_or_raises_eaqec(invert_oplog, ops, f)
    _returns_or_raises_eaqec(lambda: Circuit(p=f.p, m=f.m, n=2, c=0, gates=tuple(ops)))
    x, z = tuple(entries[:2]), tuple(entries[2:])
    _returns_or_raises_eaqec(CheckMatrix.from_rows, f, [(x, z)], n)
    _returns_or_raises_eaqec(CheckMatrix.from_rows, f, [], n)
    _returns_or_raises_eaqec(Pauli, f, 2, 1, x, z)
    _returns_or_raises_eaqec(gate_unitary, f, (x, z), 2)
    _returns_or_raises_eaqec(reduce_matrix, matrix, mode)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.one_of(st.integers(-2, 8), VALUES), m=st.one_of(st.integers(-1, 3), VALUES),
       modulus=st.one_of(st.none(), st.lists(VALUES, max_size=4)))
def test_only_eaqec_errors_leave_make_field(p, m, modulus):
    _returns_or_raises_eaqec(make_field, p, m, modulus)
