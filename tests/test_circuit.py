import dataclasses
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
from eaqec import build_code, reduction
from eaqec import circuit as circuit_module
from eaqec.checkmatrix import (
    ADD,
    DFT,
    MAX_N,
    MUL,
    PHASE,
    add,
    dft,
    mul,
    phase,
    row_op_addmul,
    row_op_swap,
)
from eaqec.errors import NotConstructibleError, ParseError
from eaqec.linalg import rank_mod_p
from eaqec.reduction import NORMALIZED, STRICT, augmented_source, inverse_ops
from conftest import random_instance
from test_golden import corpus


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
    with pytest.raises(ParseError):  # JSON would write `true`, not a qudit
        Circuit(p=5, m=1, n=3, c=0, gates=(dft(True),))
    with pytest.raises(ParseError):
        Circuit(p=5, m=1, n=3, c=0, gates=(row_op_swap(1, 2),))


@pytest.mark.parametrize("header", [
    {"p": None}, {"p": 5.0}, {"p": True}, {"p": "5"}, {"m": None}, {"m": True},
    {"n": 3.0}, {"c": None}, {"c": True},
    {"p": 4}, {"p": 1}, {"p": -5}, {"p": 65537}, {"m": 0}, {"m": 17}, {"p": 257, "m": 2},
    {"n": 0}, {"n": MAX_N + 1}, {"c": -1}, {"c": 4},
])
def test_circuit_header_is_checked_like_a_file_header(header):
    """p, m, n and c follow `circuit_from_json`'s header rule (an EaqecError,
    never a TypeError), except that an in-memory circuit may act over
    GF(p^m) while a circuit file is over GF(p) only."""
    with pytest.raises(ParseError):
        Circuit(**{"p": 5, "m": 1, "n": 3, "c": 0, **header}, gates=())
    assert Circuit(p=2, m=2, n=3, c=3, gates=(add(1, 3),)).gate_count == 1
    with pytest.raises(ParseError, match="prime field"):
        circuit_from_json(_doc([], p=2, m=2))


def test_circuit_adds_are_unit_adds():
    with pytest.raises(ParseError) as exc:
        Circuit(p=5, m=1, n=3, c=0, gates=(add(1, 2), add(1, 2, 2)))
    assert str(exc.value) == "gate ADD(2,1->2): a circuit ADD is the unit ADD, not gamma 2"
    res = reduce_matrix(_full_rank(random.Random(41), 7, 6, 6), NORMALIZED)
    assert any(op.kind == ADD and op.gamma > 1 for op in res.oplog)
    assert all(g.gamma == 1 for g in synthesize_encoding_circuit(res).gates if g.kind == ADD)


def test_parse_bad_documents():
    with pytest.raises(ParseError):
        circuit_from_json("{not json")
    with pytest.raises(ParseError):
        circuit_from_json('{"version": 2}')
    with pytest.raises(ParseError):
        circuit_from_json('{"version": 1, "p": 5, "m": 1, "n": 2, "c": 0,'
                          ' "gates": [{"g": "NOPE", "t": 1}]}')


def _doc(gates, p=5, m=1, n=2, c=0):
    return json.dumps({"version": 1, "p": p, "m": m, "n": n, "c": c, "gates": gates})


@pytest.mark.parametrize("n,c", [(0, 0), (0, -3), (MAX_N + 1, 0), (10 ** 12, 0),
                                 (3, -1), (3, 4)])
def test_circuit_header_outside_scope_is_a_parse_error(n, c):
    with pytest.raises(ParseError, match="1 <= n"):
        circuit_from_json(_doc([], n=n, c=c))


@pytest.mark.parametrize("n,c", [(1, 0), (1, 1), (MAX_N, 0), (MAX_N, MAX_N), (3, 3)])
def test_circuit_header_at_scope_edges_parses(n, c):
    assert circuit_from_json(_doc([], n=n, c=c)) == Circuit(p=5, m=1, n=n, c=c, gates=())


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
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-array"),   # RecursionError
    pytest.param('{"a": ' * 100_000 + "1" + "}" * 100_000, id="nested-object"),
    pytest.param('{"version": 1, "p": ' + "1" * 5000 + "}", id="5000-digit-integer"),
])
def test_circuit_from_json_raises_only_parse_error(text):
    with pytest.raises(ParseError):
        circuit_from_json(text)


# --- the postcondition rejects what is not an encoding of the input ---

def _full_rank(rng, p, n, r):
    field = make_field(p)
    while True:
        rows = [(tuple(rng.randrange(p) for _ in range(n)),
                 tuple(rng.randrange(p) for _ in range(n))) for _ in range(r)]
        if rank_mod_p([list(x) + list(z) for x, z in rows], p) == r:
            return CheckMatrix.from_rows(field, rows, n=n)


def _tampered(circuit, gates):
    return Circuit(p=circuit.p, m=circuit.m, n=circuit.n, c=circuit.c, gates=tuple(gates))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_postcondition_rejects_tampered_circuits(p):
    rng = random.Random(700 + p)
    n, r = 6, 6
    res = reduce_matrix(_full_rank(rng, p, n, r), NORMALIZED)
    circuit = synthesize_encoding_circuit(res)
    gates = list(circuit.gates)
    assert verify_encoding_circuit(res, circuit)

    mid = len(gates) // 2
    assert not verify_encoding_circuit(res, _tampered(circuit, gates[:mid] + gates[mid + 1:]))

    # the last one: early gates may act on the canonical frame's ancilla
    # qudits, where MUL only rescales a generator and leaves the group as it is
    i = max(i for i, g in enumerate(gates) if g.kind in (MUL, PHASE))
    g = gates[i]
    other = (g.gamma * 2) % p if g.kind == MUL else (g.gamma + 1) % p
    changed = (mul if g.kind == MUL else phase)(other, g.target)
    assert not verify_encoding_circuit(res, _tampered(circuit, gates[:i] + [changed] + gates[i + 1:]))

    assert not verify_encoding_circuit(res, _tampered(circuit, gates + [add(1, 2)]))

    while True:
        twin = reduce_matrix(_full_rank(rng, p, n, r), NORMALIZED)
        if twin.c == res.c and not row_space_equal(twin.source, res.source):
            break
    foreign = synthesize_encoding_circuit(twin)
    assert verify_encoding_circuit(twin, foreign)
    assert not verify_encoding_circuit(res, foreign)

    parsed = circuit_from_json(circuit_to_json(circuit))
    assert parsed.gates is not res.encoding_gates  # takes the replay path
    assert verify_encoding_circuit(res, parsed)


def test_postcondition_catches_a_wrong_gate_inverse(monkeypatch):
    # PHASE(g) left uninverted: a check that compares two replays of the same
    # inverted log cannot see this, the one anchored on the input does
    real = reduction.inverse_ops

    def uninverted_phase(ops, field):
        return [phase(field.neg(g.gamma), g.target) if g.kind == PHASE else g
                for g in real(ops, field)]

    monkeypatch.setattr(reduction, "inverse_ops", uninverted_phase)
    res = reduce_matrix(_full_rank(random.Random(75), 5, 6, 6), NORMALIZED)
    circuit = synthesize_encoding_circuit(res)
    assert any(g.kind == PHASE and g.gamma for g in circuit.gates)
    assert row_space_equal(apply_circuit(circuit, res.augmented), augmented_source(res))
    assert not verify_encoding_circuit(res, circuit)


def test_circuit_header_must_match_the_result(f5_matrix):
    res = reduce_matrix(f5_matrix, STRICT)
    circuit = synthesize_encoding_circuit(res)
    for field in ("n", "c"):
        shifted = dict(p=circuit.p, m=circuit.m, n=circuit.n, c=circuit.c)
        shifted[field] += 1
        assert not verify_encoding_circuit(res, Circuit(gates=circuit.gates, **shifted))


def test_encoding_is_replayed_once_and_shared(f5_matrix, monkeypatch):
    res = reduce_matrix(f5_matrix, STRICT)
    assert "encoded" not in vars(res)  # a plain reduction pays for no replay
    circuit = synthesize_encoding_circuit(res)
    assert circuit.gates is res.encoding_gates

    def no_replay(*args):
        raise AssertionError("a synthesized circuit must not be replayed again")

    monkeypatch.setattr(circuit_module, "apply_circuit", no_replay)
    assert verify_encoding_circuit(res, circuit)
    assert build_code(res).augmented is res.encoded


def test_no_row_reduction_on_a_jobs_path(f5_matrix, monkeypatch):
    # dependence is found by the reducer and the row space certified by the
    # log, so neither reduce nor the postcondition eliminates
    from eaqec import checkmatrix, linalg
    calls = []

    def counted(rows, p):
        calls.append(len(rows))
        return linalg.rref_mod_p(rows, p)

    monkeypatch.setattr(checkmatrix, "rref_mod_p", counted)
    res = reduce_matrix(f5_matrix, STRICT)
    assert verify_encoding_circuit(res, synthesize_encoding_circuit(res))
    assert calls == []


def test_replaced_source_is_checked_against_its_own_echelon_form():
    rng = random.Random(78)
    res = reduce_matrix(_full_rank(rng, 5, 6, 6), NORMALIZED)
    other = _full_rank(rng, 5, 6, 6)
    assert not row_space_equal(other, res.source)
    moved = dataclasses.replace(res, source=other)
    assert not verify_encoding_circuit(moved, synthesize_encoding_circuit(moved))
    same = dataclasses.replace(res)
    assert verify_encoding_circuit(same, synthesize_encoding_circuit(same))


def test_rows_off_the_logged_basis_fall_back_to_the_rank_check(monkeypatch):
    # an extra logged row swap keeps the encoding but moves R S, so the
    # sender rows no longer match it and `row_space_equal` decides
    rng = random.Random(79)
    res = reduce_matrix(_full_rank(rng, 5, 6, 6), NORMALIZED)
    swapped = dataclasses.replace(res, oplog=res.oplog + (row_op_swap(1, 2),))
    assert swapped.encoding_gates == res.encoding_gates
    real, calls = circuit_module.row_space_equal, []

    def counted(m1, m2):
        calls.append(m2)
        return real(m1, m2)

    monkeypatch.setattr(circuit_module, "row_space_equal", counted)
    assert verify_encoding_circuit(swapped, synthesize_encoding_circuit(swapped))
    assert calls == [swapped.source]
    moved = dataclasses.replace(swapped, source=_full_rank(rng, 5, 6, 6))
    assert not verify_encoding_circuit(moved, synthesize_encoding_circuit(moved))
    assert calls == [swapped.source, moved.source]


def test_postcondition_catches_a_wrong_ebit_augmentation():
    # the Z partner of pair 1 gets +1 instead of p - 1 in its receiver column:
    # the sender part still spans the input, but the set no longer commutes
    res = reduce_matrix(_full_rank(random.Random(76), 5, 6, 6), NORMALIZED)
    n, rows = res.source.n, list(res.augmented.rows)
    x, z = rows[1]
    rows[1] = (x, z[:n] + (1,) + z[n + 1:])
    bad = dataclasses.replace(res, augmented=CheckMatrix(res.source.field, n + res.c, tuple(rows)))
    assert not verify_encoding_circuit(bad, synthesize_encoding_circuit(bad))


def test_postcondition_pins_the_receiver_columns():
    # a receiver-side DFT keeps the set abelian and its sender part intact,
    # but the ebit halves are no longer the ones the receiver holds
    res = reduce_matrix(_full_rank(random.Random(77), 5, 6, 6), NORMALIZED)
    assert res.c >= 1
    moved = dataclasses.replace(res)
    vars(moved)["encoded"] = apply_ops(res.encoded, [dft(res.source.n + 1)])
    assert not verify_encoding_circuit(moved, synthesize_encoding_circuit(moved))


def test_build_code_equals_circuit_replay_on_golden_corpus():
    for _, matrix in corpus():
        for mode in (STRICT, NORMALIZED):
            try:
                res = reduce_matrix(matrix, mode)
            except NotConstructibleError:
                continue
            circuit = synthesize_encoding_circuit(res)
            assert build_code(res).augmented == apply_circuit(circuit, res.augmented)
            assert verify_encoding_circuit(res, circuit)


# --- circuit_to_json writes exactly what json.dumps(indent=1) writes ---

def _reference_json(circuit):
    gates = []
    for g in circuit.gates:
        if g.kind == DFT:
            gates.append({"g": "DFT", "t": g.target})
        elif g.kind == ADD:
            gates.append({"g": "ADD", "ctl": g.control, "tgt": g.target})
        else:
            gates.append({"g": g.kind, "t": g.target, "gamma": g.gamma})
    doc = {"version": 1, "p": circuit.p, "m": circuit.m,
           "n": circuit.n, "c": circuit.c, "gates": gates}
    return json.dumps(doc, indent=1) + "\n"


def _random_circuit(rng):
    p = rng.choice([2, 3, 5, 7, 11, 65521])
    n = rng.randint(2, 150)
    gates = []
    for _ in range(rng.randrange(40)):
        kind, t = rng.randrange(4), rng.randint(1, n)
        if kind == 0:
            gates.append(dft(t))
        elif kind == 1:
            gates.append(mul(rng.randrange(1, p), t))
        elif kind == 2:
            gates.append(phase(rng.randrange(p), t))
        else:
            gates.append(add(*rng.sample(range(1, n + 1), 2)))
    return Circuit(p=p, m=1, n=n, c=min(rng.randrange(20), n), gates=tuple(gates))


@pytest.mark.parametrize("circuit", [
    Circuit(p=5, m=1, n=4, c=1, gates=()),
    Circuit(p=7, m=1, n=12, c=0, gates=(dft(12),)),
    Circuit(p=7, m=1, n=12, c=3, gates=(mul(6, 10),)),
    Circuit(p=7, m=1, n=12, c=3, gates=(phase(0, 11),)),
    Circuit(p=7, m=1, n=12, c=3, gates=(add(12, 9),)),
] + [_random_circuit(random.Random(f"json:{i}")) for i in range(50)])
def test_circuit_to_json_is_byte_identical_to_json_dumps(circuit):
    text = circuit_to_json(circuit)
    assert text == _reference_json(circuit)
    assert circuit_from_json(text) == circuit


def test_each_distinct_gate_object_is_validated_once(f5_matrix, monkeypatch):
    res = reduce_matrix(f5_matrix, STRICT)
    validated = []
    real = circuit_module._gate_args
    monkeypatch.setattr(circuit_module, "_gate_args",
                        lambda g, n, q: validated.append(g) or real(g, n, q))
    circuit = synthesize_encoding_circuit(res)
    assert len(validated) == len({id(g) for g in circuit.gates}) < circuit.gate_count
    # equal but distinct objects are each validated: DFT(True) == DFT(1)
    with pytest.raises(ParseError):
        Circuit(p=5, m=1, n=3, c=0, gates=(dft(1), dft(True)))
