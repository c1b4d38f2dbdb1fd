import itertools
import random

import numpy as np
import pytest

from eaqec import (
    NORMALIZED,
    CheckMatrix,
    EACode,
    Pauli,
    build_code,
    commutes,
    in_centralizer,
    make_field,
    pauli_mul,
    pauli_weight,
    reduce_matrix,
    symplectic_product,
    syndrome,
)
from eaqec.errors import DimensionMismatchError, EntryOutOfRangeError
from eaqec.oracle import omega, pauli_unitary
from eaqec.pauli import rows_commute

F5_ROW1 = ((3, 1, 1, 0), (1, 2, 0, 2))
F5_ROW2 = ((0, 3, 0, 4), (2, 4, 1, 3))
F5_ROW3 = ((1, 1, 0, 2), (3, 1, 1, 2))


def test_x_times_z_needs_no_reordering():
    f = make_field(2)
    x = Pauli(f, 1, 0, (1,), (0,))
    z = Pauli(f, 1, 0, (0,), (1,))
    assert x * z == Pauli(f, 1, 0, (1,), (1,))


def test_z_times_x_picks_up_a_phase():
    f = make_field(2)
    x = Pauli(f, 1, 0, (1,), (0,))
    z = Pauli(f, 1, 0, (0,), (1,))
    prod = z * x
    assert prod == Pauli(f, 1, 1, (1,), (1,))
    # dense 2x2 oracle: Z X = -(X Z)
    dense = pauli_unitary(f, z) @ pauli_unitary(f, x)
    assert np.allclose(dense, pauli_unitary(f, prod))


def test_identity_is_neutral():
    f = make_field(5)
    g = Pauli(f, 2, 3, (1, 4), (0, 2))
    assert g * Pauli.identity(f, 2) == g
    assert Pauli.identity(f, 2) * g == g


def test_mul_matches_dense_product_small_cases():
    rng = random.Random(7)
    for p in (2, 3, 5):
        f = make_field(p)
        for _ in range(25):
            n = rng.choice((1, 2))
            g = Pauli(f, n, rng.randrange(p),
                      tuple(rng.randrange(p) for _ in range(n)),
                      tuple(rng.randrange(p) for _ in range(n)))
            h = Pauli(f, n, rng.randrange(p),
                      tuple(rng.randrange(p) for _ in range(n)),
                      tuple(rng.randrange(p) for _ in range(n)))
            assert np.allclose(pauli_unitary(f, g) @ pauli_unitary(f, h),
                               pauli_unitary(f, g * h), atol=1e-9)


def test_f5_fixture_symplectic_products():
    f = make_field(5)
    assert symplectic_product(f, F5_ROW1, F5_ROW2) == 2
    assert symplectic_product(f, F5_ROW1, F5_ROW3) == 4


def test_symplectic_product_of_row_with_itself_is_zero():
    f = make_field(5)
    assert symplectic_product(f, F5_ROW1, F5_ROW1) == 0


def test_antisymmetry_random():
    rng = random.Random(11)
    for p in (2, 3, 5, 7):
        f = make_field(p)
        for _ in range(50):
            n = rng.randint(1, 4)
            g = (tuple(rng.randrange(p) for _ in range(n)),
                 tuple(rng.randrange(p) for _ in range(n)))
            h = (tuple(rng.randrange(p) for _ in range(n)),
                 tuple(rng.randrange(p) for _ in range(n)))
            assert symplectic_product(f, g, h) == (-symplectic_product(f, h, g)) % p


def test_commutes_examples():
    f5 = make_field(5)
    assert not commutes(f5, F5_ROW1, F5_ROW2)
    assert commutes(f5, F5_ROW1, F5_ROW1)
    f3 = make_field(3)
    x1 = ((1,), (0,))
    x2 = ((2,), (0,))
    assert commutes(f3, x1, x2)
    # dense 3x3 commutator oracle
    a, b = pauli_unitary(f3, x1), pauli_unitary(f3, x2)
    assert np.allclose(a @ b, b @ a)


def test_phase_exponent_matches_symplectic_product():
    # g h = w^product(h, g) h g, exactly, for random pairs
    rng = random.Random(23)
    for p in (2, 3, 5):
        f = make_field(p)
        for _ in range(30):
            n = rng.choice((1, 2))
            g = Pauli(f, n, 0, tuple(rng.randrange(p) for _ in range(n)),
                      tuple(rng.randrange(p) for _ in range(n)))
            h = Pauli(f, n, 0, tuple(rng.randrange(p) for _ in range(n)),
                      tuple(rng.randrange(p) for _ in range(n)))
            gh, hg = g * h, h * g
            s = symplectic_product(f, h, g)
            assert (gh.phase - hg.phase) % p == s
            assert np.allclose(pauli_unitary(f, g) @ pauli_unitary(f, h),
                               omega(f) ** s * pauli_unitary(f, h) @ pauli_unitary(f, g),
                               atol=1e-9)


def test_weight():
    f = make_field(5)
    assert pauli_weight(Pauli.identity(f, 3)) == 0
    assert pauli_weight(F5_ROW1) == 4
    assert pauli_weight(((1, 0), (0, 0))) == 1


def test_dimension_mismatch():
    f5, f7 = make_field(5), make_field(7)
    g5 = Pauli(f5, 1, 0, (1,), (0,))
    g7 = Pauli(f7, 1, 0, (1,), (0,))
    with pytest.raises(DimensionMismatchError):
        pauli_mul(g5, g7)
    short, full = ((1,), (0,)), ((1, 0), (0, 0))
    ragged = ((1, 0), (1,))   # x and z of one row differ in length
    code = build_code(reduce_matrix(CheckMatrix.from_rows(f5, [full]), NORMALIZED))
    for call in (lambda: symplectic_product(f5, short, full),
                 lambda: symplectic_product(f5, ragged, ((1, 0), (0, 1))),
                 lambda: rows_commute(f5, [full, short]),
                 lambda: rows_commute(f5, [full, ragged]),
                 lambda: in_centralizer(f5, short, [full]),
                 lambda: syndrome(code, short, allow_bob=True)):
        with pytest.raises(DimensionMismatchError):
            call()


@pytest.mark.parametrize("x", [(5,), (True,)], ids=["5", "bool"])
def test_non_element_entry_is_an_eaqec_error(x):
    with pytest.raises(EntryOutOfRangeError, match=r"is not an element of GF\(5\^1\)"):
        Pauli(make_field(5), 1, 0, x, (0,))


def test_str_rendering():
    f = make_field(3)
    assert str(Pauli(f, 2, 1, (1, 0), (2, 2))) == "w^1 X(1,0) Z(2,2)"


# --- the per-entry definition as the reference ---

def reference_product(field, g, h):
    """sum_i tr(x_g z_h - x_h z_g) mod p, one field call per entry."""
    (xg, zg), (xh, zh) = g, h
    total = 0
    for a, b, c, d in zip(xg, zg, xh, zh):
        total += field.trace(field.sub(field.mul(a, d), field.mul(c, b)))
    return total % field.p


FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (5, 2)]


def _random_rows(rng, field, n, count):
    return [(tuple(rng.randrange(field.q) for _ in range(n)),
             tuple(rng.randrange(field.q) for _ in range(n))) for _ in range(count)]


def _commuting_rows(rng, field, n, tries):
    """Greedily keep random rows that commute with every row kept so far."""
    kept = []
    for row in _random_rows(rng, field, n, tries):
        if all(reference_product(field, row, k) == 0 for k in kept):
            kept.append(row)
    return kept


@pytest.mark.parametrize("p,m", FIELDS)
def test_products_agree_with_the_per_entry_definition(p, m):
    field = make_field(p, m)
    rng = random.Random(1000 * p + m)
    for n in (1, 2, 3, 5):
        rows = _random_rows(rng, field, n, 6)
        ref = [[reference_product(field, g, h) for h in rows] for g in rows]
        assert [[symplectic_product(field, g, h) for h in rows] for g in rows] == ref
        paulis = [Pauli(field, n, 0, x, z) for x, z in rows]
        assert [[symplectic_product(field, g, h) for h in paulis] for g in paulis] == ref
        matrix = CheckMatrix(field, n, tuple(rows))
        assert [list(t) for t in matrix.symplectic_table()] == ref
        assert [[matrix.product(i, j) for j in range(1, 7)] for i in range(1, 7)] == ref
        code = EACode(field=field, n=n, k=0, c=0, a=len(rows), augmented=matrix,
                      canonical_augmented=matrix, result=None)
        for error in _random_rows(rng, field, n, 4):
            want = tuple(reference_product(field, error, g) for g in rows)
            assert syndrome(code, error, allow_bob=True) == want
            assert in_centralizer(field, error, rows) == (not any(want))
            partners = [g for g, v in zip(rows, want) if v == 0]
            assert in_centralizer(field, error, partners)


@pytest.mark.parametrize("p,m", FIELDS)
def test_rows_commute_agrees_with_the_per_entry_definition(p, m):
    field = make_field(p, m)
    rng = random.Random(77 + p)
    for n in (1, 2, 4):
        commuting = _commuting_rows(rng, field, n, 40)
        assert len(commuting) >= 2
        assert rows_commute(field, commuting)
        for extra in _random_rows(rng, field, n, 6):
            want = all(reference_product(field, extra, k) == 0 for k in commuting)
            assert rows_commute(field, commuting + [extra]) == want
            if m > 1:
                continue
            # any integer representatives, as in the audit's pseudo-rows
            shifted = [(tuple(v - p * rng.randrange(-2, 3) for v in x),
                        tuple(v - p * rng.randrange(-2, 3) for v in z))
                       for x, z in commuting + [extra]]
            assert rows_commute(field, shifted) == want


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2)])
def test_product_is_the_dense_commutator_phase_over_extension_fields(p, m):
    # g h = w^product(h, g) h g on one qudit, for every pair of rows
    field = make_field(p, m)
    w = omega(field)
    rows = [((x,), (z,)) for x, z in itertools.product(range(field.q), repeat=2)]
    dense = [pauli_unitary(field, row) for row in rows]
    for g, gm in zip(rows, dense):
        for h, hm in zip(rows, dense):
            s = symplectic_product(field, h, g)
            assert np.allclose(gm @ hm, w ** s * (hm @ gm), atol=1e-9)
