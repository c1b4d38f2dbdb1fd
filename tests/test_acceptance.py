"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Fixture values are exact; dense comparisons use the 1e-9 tolerance.
"""

import itertools
import random

import numpy as np
import pytest

from eaqec import (
    CheckMatrix,
    CliffordOp,
    RowOp,
    apply_clifford,
    apply_ops,
    apply_row_op,
    css_import,
    make_field,
    normalize_pair,
    reduce_matrix,
    row_space_equal,
    symplectic_product,
    synthesize_encoding_circuit,
    verify_encoding_circuit,
)
from eaqec.checkmatrix import add, dft, mul, phase, replay_steps, row_op_addmul
from eaqec.errors import NotConstructibleError
from eaqec.linalg import rank_mod_p
from eaqec.oracle import (
    clifford_unitary,
    conjugate_to_pauli,
    omega,
    pauli_unitary,
    stabilized_subspace_dim,
)
from eaqec.reduction import NORMALIZED, STRICT, augmented_source
from conftest import F5_ROWS, F7_ROWS

ATOL = 1e-9


def report(num, ok, desc):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def f5_matrix():
    return CheckMatrix.from_rows(make_field(5), F5_ROWS)


def f7_matrix():
    return CheckMatrix.from_rows(make_field(7), F7_ROWS)


def test_criterion_1_f5_example():
    ok = True
    for mode in (STRICT, NORMALIZED):
        res = reduce_matrix(f5_matrix(), mode)
        ok &= (res.c, res.a, res.k) == (1, 2, 1)
        ok &= res.display() == "[[4,1;1]]_5"
        ok &= res.canonical.rows == (
            ((1, 0, 0, 0), (0, 0, 0, 0)),
            ((0, 0, 0, 0), (1, 0, 0, 0)),
            ((0, 0, 0, 0), (0, 1, 0, 0)),
            ((0, 0, 0, 0), (0, 0, 1, 0)),
        )
        ok &= res.augmented.rows[0] == ((1, 0, 0, 0, 1), (0, 0, 0, 0, 0))
        ok &= res.augmented.rows[1] == ((0, 0, 0, 0, 0), (1, 0, 0, 0, 4))
    report(1, ok, "F_5 example: [[4,1;1]]_5, exact canonical rows, receiver entries (1, 4)")


def test_criterion_2_f5_intermediate_values():
    f = make_field(5)
    m = f5_matrix()
    ok = symplectic_product(f, m.rows[0], m.rows[1]) == 2
    ok &= symplectic_product(f, m.rows[0], m.rows[2]) == 4
    ok &= normalize_pair(5, 2, 4) == 1
    ok &= apply_row_op(m, row_op_addmul(2, 3, 1)).rows[1] == ((1, 4, 0, 1), (0, 0, 2, 0))
    report(2, ok, "F_5 intermediates: products (2, 4), multiplier m=1, exact repaired row")


def test_criterion_3_f7_example():
    strict_failed = False
    try:
        reduce_matrix(f7_matrix(), STRICT)
    except NotConstructibleError:
        strict_failed = True
    res = reduce_matrix(f7_matrix(), NORMALIZED)
    gram_rank = rank_mod_p(f7_matrix().symplectic_table(), 7)
    ok = strict_failed
    ok &= (res.c, res.a, res.k) == (2, 0, 3)
    ok &= 2 * res.c == gram_rank
    report(3, ok, "F_7 example: strict NotConstructible; normalized c=2 a=0 k=3 = Gram rank oracle")


def test_criterion_4_exhaustive_gate_equivalence():
    checked = 0
    ok = True
    for field in (make_field(2), make_field(3), make_field(2, 2), make_field(5)):
        for n in (1, 2):
            ops = []
            for t in range(1, n + 1):
                ops.append(dft(t))
                ops += [mul(g, t) for g in range(1, field.q)]
                ops += [phase(g, t) for g in range(field.q)]
            if n == 2:
                ops += [add(1, 2), add(2, 1)]
            all_rows = [
                (flat[:n], flat[n:])
                for flat in itertools.product(range(field.q), repeat=2 * n)
            ]
            tableau = CheckMatrix.from_rows(field, all_rows, n=n)
            for op in ops:
                unitary = clifford_unitary(field, op, n)
                moved = apply_clifford(tableau, op)
                for row, want in zip(all_rows, moved.rows):
                    got, ph = conjugate_to_pauli(field, unitary, row)
                    if (got.x, got.z) != want or abs(abs(ph) - 1) > ATOL:
                        ok = False
                    checked += 1
    report(4, ok, f"tableau action = dense conjugation up to global phase "
                  f"({checked} exhaustive checks, q in {{2,3,4,5}}, n <= 2)")


def test_criterion_5_commutation_vs_dense():
    rng = random.Random(20240)
    ok = True
    for p in (2, 3, 5):
        field = make_field(p)
        w = omega(field)
        for trial in range(1000):
            n = 1 + (trial % 2)
            g = (tuple(rng.randrange(p) for _ in range(n)),
                 tuple(rng.randrange(p) for _ in range(n)))
            h = (tuple(rng.randrange(p) for _ in range(n)),
                 tuple(rng.randrange(p) for _ in range(n)))
            s = symplectic_product(field, g, h)
            gm, hm = pauli_unitary(field, g), pauli_unitary(field, h)
            dense_commute = np.allclose(gm @ hm, hm @ gm, atol=ATOL)
            ok &= dense_commute == (s == 0)
            # the phase relation: g h = w^product(h, g) h g, exactly
            ok &= np.allclose(gm @ hm,
                              w ** symplectic_product(field, h, g) * (hm @ gm),
                              atol=ATOL)
    report(5, ok, "commutes(g, h) iff dense matrices commute; phase exponent = "
                  "symplectic product (1000 pairs per q in {2,3,5})")


def test_criterion_6_invariant_suite(reduced_corpus):
    ok = True
    count = 0
    for res in reduced_corpus:
        count += 1
        source = res.source
        p = source.field.p
        ok &= apply_ops(source, res.oplog).rows == res.canonical.rows
        prev = source
        for op, cur in replay_steps(source, res.oplog):
            if isinstance(op, RowOp):
                ok &= row_space_equal(prev, cur)
            else:
                ok &= prev.symplectic_table() == cur.symplectic_table()
            prev = cur
        aug = res.augmented
        ok &= all(aug.product(i, j) == 0
                  for i in range(1, aug.row_count + 1)
                  for j in range(i + 1, aug.row_count + 1))
        ok &= 2 * res.c == rank_mod_p(source.symplectic_table(), p)
        ok &= res.k == source.n - res.a - res.c
        if not ok:
            break
    report(6, ok, f"invariant suite on {count} random reductions "
                  "(replay, per-step preservation, abelianness, Gram rank, k)")


def test_criterion_7_encoding_circuits(reduced_corpus):
    ok = True
    for res in reduced_corpus:
        circuit = synthesize_encoding_circuit(res)
        ok &= all(1 <= g.target <= res.source.n for g in circuit.gates)
        ok &= verify_encoding_circuit(res, circuit)
        if not ok:
            break
    report(7, ok, f"encoding-circuit row-space postcondition on "
                  f"{len(reduced_corpus)} instances")


def test_criterion_8_stabilized_subspace_dimensions():
    # [[3,1;2]]_2: 4 augmented generators on 5 qubits fix a 2^k = 2 dim space
    f2 = make_field(2)
    res2 = reduce_matrix(css_import(f2, [(1, 0, 1), (0, 1, 1)]), NORMALIZED)
    dim2 = stabilized_subspace_dim(f2, list(res2.augmented.rows), res2.source.n + res2.c)
    ok = (res2.c, res2.k) == (2, 1) and dim2 == 2
    # a qutrit instance with k = 1: scramble X1, Z1, Z2 on 3 qutrits and reduce
    f3 = make_field(3)
    base = CheckMatrix.from_rows(f3, [
        ((1, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (1, 0, 0)),
        ((0, 0, 0), (0, 1, 0)),
    ])
    scrambled = apply_ops(base, [dft(2), add(1, 2), mul(2, 3), phase(1, 1),
                                 add(3, 1), dft(3)])
    scrambled = apply_row_op(apply_row_op(scrambled, row_op_addmul(3, 1, 2)),
                             row_op_addmul(2, 3, 1))
    res3 = reduce_matrix(scrambled, NORMALIZED)
    dim3 = stabilized_subspace_dim(f3, list(res3.augmented.rows), res3.source.n + res3.c)
    ok &= res3.k == 1 and dim3 == 3
    report(8, ok, f"projector ranks: [[3,1;2]]_2 -> {dim2} (want 2), "
                  f"qutrit k=1 instance -> {dim3} (want 3)")


def test_criterion_9_css_import():
    f2 = make_field(2)
    res = reduce_matrix(css_import(f2, [(1, 0, 1), (0, 1, 1)]), NORMALIZED)
    ok = res.display() == "[[3,1;2]]_2"
    ok &= rank_mod_p(css_import(f2, [(1, 0, 1), (0, 1, 1)]).symplectic_table(), 2) == 2 * res.c
    # self-orthogonal H (trace form): zero ebits
    h = [(1, 1, 0, 0), (0, 0, 1, 1)]
    res_so = reduce_matrix(css_import(f2, h), NORMALIZED)
    ok &= res_so.c == 0
    report(9, ok, "CSS import: H=[[101],[011]] -> [[3,1;2]]_2; self-orthogonal H -> c=0")
