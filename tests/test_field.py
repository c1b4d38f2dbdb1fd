import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqec.errors import (
    BadArgumentError,
    EaqecError,
    EntryOutOfRangeError,
    NonPrimeError,
    OddCharacteristicError,
    ReduciblePolynomialError,
    ZeroInverseError,
)
from eaqec.field import GaloisField, find_irreducible, make_field


def test_prime_field_needs_no_polynomial():
    f = make_field(5)
    assert (f.p, f.m, f.q, f.modulus) == (5, 1, 5, None)


def test_f4_with_explicit_modulus():
    f = make_field(2, 2, [1, 1, 1])  # x^2 + x + 1, no root over F_2
    assert f.q == 4
    for x in range(2):
        assert (x * x + x + 1) % 2 != 0


def test_nonprime_p_rejected():
    with pytest.raises(NonPrimeError):
        make_field(4)
    with pytest.raises(NonPrimeError):
        make_field(1)


def test_make_field_casts_nothing():
    """A p, m or modulus coefficient that is not an int is an error, not GF(3)."""
    for args in ((3.5,), ("3",), (3, True), (True,), (3, 1.5), (None,),
                 (3, 2, [2.0, 2, 1]), (3, 2, [2, 2, True])):
        with pytest.raises(BadArgumentError) as exc:
            make_field(*args)
        assert isinstance(exc.value, EaqecError)
    assert make_field(3, 2, [2, 2, 1]).modulus == (2, 2, 1)
    for args in ((3, 0), (3, 1, [1, 1])):  # the field's own checks raise the same class
        with pytest.raises(BadArgumentError):
            make_field(*args)


def test_check_is_the_element_rule():
    """Every value an int, not a bool, in 0..q-1, else EntryOutOfRangeError."""
    f = make_field(3, 2)
    f.check()
    f.check(*range(9))
    for bad in (9, -1, True, False, 1.0, "1", None):
        with pytest.raises(EntryOutOfRangeError) as exc:
            f.check(0, bad, 1)
        assert str(exc.value) == f"{bad!r} is not an element of GF(3^2)"


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x + 1)^2 over F_2
    with pytest.raises(ReduciblePolynomialError):
        GaloisField(2, 2, [1, 0, 1])
    with pytest.raises(ReduciblePolynomialError):
        GaloisField(3, 2, [0, 0, 1])  # x^2


def test_default_modulus_is_lexicographically_smallest():
    assert find_irreducible(2, 2) == (1, 1, 1)
    assert make_field(2, 2).modulus == (1, 1, 1)
    # x^2 + 1 is irreducible over F_3 and comes first
    assert make_field(3, 2).modulus == (1, 0, 1)


def test_inverses_prime_fields():
    assert make_field(5).inv(3) == 2
    assert make_field(7).inv(2) == 4


def test_inverse_f4_against_exhaustive_search():
    f = make_field(2, 2)
    omega = 2  # the polynomial x
    brute = next(x for x in range(1, 4) if f.mul(omega, x) == 1)
    assert f.inv(omega) == brute == 3  # omega^2 encodes as x + 1


def test_zero_inverse():
    with pytest.raises(ZeroInverseError):
        make_field(5).inv(0)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, m):
    f = make_field(p, m)
    elems = list(f.elements())
    for a, b in itertools.product(elems, repeat=2):
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, b) == f.add(b, a)
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    for a, b, c in itertools.product(elems, repeat=3):
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_trace_identity_on_prime_field():
    f = make_field(5)
    assert f.trace(3) == 3


def test_trace_f4_values():
    f = make_field(2, 2)
    # omega + omega^2 = 1 by direct polynomial arithmetic
    omega = 2
    assert f.add(omega, f.mul(omega, omega)) == 1
    assert [f.trace(a) for a in range(4)] == [0, 0, 1, 1]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8))
def test_trace_linearity_and_frobenius(a, b):
    f = make_field(3, 2)
    assert f.trace(f.add(a, b)) == (f.trace(a) + f.trace(b)) % 3
    assert f.trace(f.pow(a, 3)) == f.trace(a)


def test_trace_of_zero():
    for f in (make_field(2), make_field(2, 3), make_field(7)):
        assert f.trace(0) == 0


def test_self_dual_basis_f4():
    f = make_field(2, 2)
    assert f.self_dual_basis() == (2, 3)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_self_dual_basis_property(m):
    f = make_field(2, m)
    basis = f.self_dual_basis()
    assert len(basis) == m
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            assert f.trace(f.mul(bi, bj)) == (1 if i == j else 0)


def test_wgt_f4_values():
    f = make_field(2, 2)
    assert f.wgt(0) == 0
    assert f.wgt(2) == 1  # omega
    assert f.wgt(1) == 2


def test_wgt_requires_even_characteristic():
    with pytest.raises(OddCharacteristicError):
        make_field(3).wgt(1)


def test_wgt_bounds():
    f = make_field(2, 3)
    for a in f.elements():
        assert 0 <= f.wgt(a) <= 3


def test_sqrt_char2():
    for f in (make_field(2, 2), make_field(2, 3)):
        for a in f.elements():
            assert f.mul(f.sqrt(a), f.sqrt(a)) == a
