import json
import random

import pytest

from eaqec import (
    CheckMatrix,
    Circuit,
    apply_circuit,
    apply_ops,
    circuit_from_json,
    circuit_to_json,
    invert_oplog,
    make_field,
    reduce_matrix,
    row_space_equal,
    synthesize_encoding_circuit,
    verify_encoding_circuit,
)
from eaqec.checkmatrix import add, dft, mul, phase, row_op_addmul, row_op_swap
from eaqec.errors import ParseError
from eaqec.reduction import NORMALIZED, STRICT, augmented_source, inverse_ops
from conftest import random_instance


def test_invert_phase_f5():
    f = make_field(5)
    assert invert_oplog([phase(2, 1)], f) == (phase(3, 1),)


def test_invert_mul_f7():
    f = make_field(7)
    assert invert_oplog([mul(3, 2)], f) == (mul(5, 2),)


def test_invert_add_f2_self_inverse():
    f = make_field(2)
    assert invert_oplog([add(1, 2)], f) == (add(1, 2),)


def test_invert_dft_is_three_dfts():
    f = make_field(5)
    assert invert_oplog([dft(1)], f) == (dft(1),) * 3


def test_row_ops_are_dropped_from_circuits():
    f = make_field(5)
    ops = [row_op_swap(1, 2), phase(1, 1), row_op_addmul(2, 1, 3)]
    assert invert_oplog(ops, f) == (phase(4, 1),)


def test_inverse_ops_undo_everything():
    rng = random.Random(5150)
    for p in (2, 3, 5, 7):
        f = make_field(p)
        n, r = 4, 3
        rows = [(tuple(rng.randrange(p) for _ in range(n)),
                 tuple(rng.randrange(p) for _ in range(n))) for _ in range(r)]
        m = CheckMatrix.from_rows(f, rows, n=n)
        ops = []
        for _ in range(30):
            roll = rng.randrange(6)
            if roll == 0:
                ops.append(dft(rng.randint(1, n)))
            elif roll == 1:
                ops.append(mul(rng.randrange(1, p), rng.randint(1, n)))
            elif roll == 2:
                ops.append(phase(rng.randrange(p), rng.randint(1, n)))
            elif roll == 3:
                i, j = rng.sample(range(1, n + 1), 2)
                ops.append(add(i, j))
            elif roll == 4:
                i, j = rng.sample(range(1, r + 1), 2)
                ops.append(row_op_swap(i, j))
            else:
                i, j = rng.sample(range(1, r + 1), 2)
                ops.append(row_op_addmul(i, j, rng.randrange(p)))
        forward = apply_ops(m, ops)
        assert apply_ops(forward, inverse_ops(ops, f)) == m


def test_f5_circuit_postcondition(f5_matrix):
    res = reduce_matrix(f5_matrix, STRICT)
    circuit = synthesize_encoding_circuit(res)
    assert verify_encoding_circuit(res, circuit)
    encoded = apply_circuit(circuit, res.augmented)
    assert row_space_equal(encoded, augmented_source(res))


def test_canonical_input_gives_empty_circuit():
    f = make_field(5)
    m = CheckMatrix.from_rows(f, [
        ((1, 0), (0, 0)),
        ((0, 0), (1, 0)),
    ])
    res = reduce_matrix(m, STRICT)
    circuit = synthesize_encoding_circuit(res)
    assert circuit.gates == ()
    assert verify_encoding_circuit(res, circuit)


def test_f7_circuit_stays_on_sender_qudits(f7_matrix):
    res = reduce_matrix(f7_matrix, NORMALIZED)
    circuit = synthesize_encoding_circuit(res)
    assert circuit.n == 5 and circuit.c == 2
    for g in circuit.gates:
        assert 1 <= g.target <= 5
        if g.control is not None:
            assert 1 <= g.control <= 5
    assert verify_encoding_circuit(res, circuit)


def test_random_circuit_postconditions():
    rng = random.Random(31337)
    for p in (2, 3, 5, 7):
        for _ in range(6):
            m = random_instance(rng, p, max_n=5)
            res = reduce_matrix(m, NORMALIZED)
            assert verify_encoding_circuit(res, synthesize_encoding_circuit(res))


# --- serialization ---

def test_empty_circuit_serialization():
    c = Circuit(p=5, m=1, n=4, c=1, gates=())
    assert '"gates": []' in circuit_to_json(c)
    assert circuit_from_json(circuit_to_json(c)) == c


def test_round_trip():
    c = Circuit(p=5, m=1, n=3, c=0, gates=(dft(2), add(1, 3), mul(2, 1), phase(4, 2)))
    assert circuit_from_json(circuit_to_json(c)) == c


def test_receiver_qudit_gate_rejected():
    with pytest.raises(ParseError):
        Circuit(p=5, m=1, n=3, c=1, gates=(dft(4),))
    with pytest.raises(ParseError):
        Circuit(p=5, m=1, n=3, c=1, gates=(add(1, 4),))


def test_gate_validation():
    with pytest.raises(ParseError):
        Circuit(p=5, m=1, n=3, c=0, gates=(add(2, 2),))
    with pytest.raises(ParseError):
        Circuit(p=5, m=1, n=3, c=0, gates=(mul(0, 1),))


def test_parse_bad_documents():
    with pytest.raises(ParseError):
        circuit_from_json("{not json")
    with pytest.raises(ParseError):
        circuit_from_json('{"version": 2}')
    with pytest.raises(ParseError):
        circuit_from_json('{"version": 1, "p": 5, "m": 1, "n": 2, "c": 0,'
                          ' "gates": [{"g": "NOPE", "t": 1}]}')


def _doc(gates, p=5, m=1):
    return json.dumps({"version": 1, "p": p, "m": m, "n": 2, "c": 0, "gates": gates})


@pytest.mark.parametrize("text", [
    _doc([3]),                                             # gate is not an object
    _doc([{"g": "DFT"}]),                                  # no "t"
    _doc(7),                                               # gates is not a list
    _doc([{"g": "MUL", "t": 1, "gamma": 99}], p=4),        # p = 4 is not prime
    _doc([], p=4),
    _doc([], p=1000000000000000003),                       # prime, but out of scope
    _doc([], p=2, m=2),                                    # circuits are over GF(p)
    _doc([{"g": "MUL", "t": 1, "gamma": 5}]),              # gamma outside 0..p-1
    _doc([{"g": "PHASE", "t": 1, "gamma": -1}]),
    _doc([{"g": "PHASE", "t": 1, "gamma": "2"}]),
    _doc([{"g": "PHASE", "t": 1}]),
    _doc([{"g": "ADD", "ctl": 1}]),
    _doc([{"g": "ADD", "ctl": 1, "tgt": 2.0}]),
    _doc([{"t": 1}]),
    '{"version": 1, "p": "5", "m": 1, "n": 2, "c": 0, "gates": []}',
    '{"version": 1, "p": 5, "m": 1, "n": 2, "gates": []}',
    '[]',
])
def test_circuit_from_json_raises_only_parse_error(text):
    with pytest.raises(ParseError):
        circuit_from_json(text)
