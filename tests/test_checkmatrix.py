import random

import pytest

from eaqec import (
    CheckMatrix,
    add,
    apply_clifford,
    apply_ops,
    apply_row_op,
    dft,
    make_field,
    mul,
    parse_check_matrix,
    phase,
    row_space_equal,
    serialize_check_matrix,
)
from eaqec.checkmatrix import row_op_addmul, row_op_scale, row_op_swap
from eaqec.errors import (
    BadScalarError,
    DimensionMismatchError,
    EntryOutOfRangeError,
    IndexOutOfRangeError,
    NonInvertibleGammaError,
    ParseError,
)
from conftest import F5_ROWS, fixture_text


def f5_matrix():
    return CheckMatrix.from_rows(make_field(5), F5_ROWS)


# --- parsing / serialization ---

def test_parse_f5_fixture():
    m = parse_check_matrix(fixture_text("f5_pair.eacm"))
    assert m.field.q == 5 and m.n == 4 and m.row_count == 4
    assert m.rows == F5_ROWS


def test_round_trip_is_identity():
    m = f5_matrix()
    assert parse_check_matrix(serialize_check_matrix(m)) == m
    text = serialize_check_matrix(m)
    assert serialize_check_matrix(parse_check_matrix(text)) == text


def test_parse_extension_field():
    m = parse_check_matrix(fixture_text("f4_single.eacm"))
    assert m.field.q == 4 and m.field.modulus == (1, 1, 1)
    assert m.rows == (((2, 3), (0, 1)),)
    assert parse_check_matrix(serialize_check_matrix(m)) == m


def test_parse_entry_out_of_range_reports_location():
    text = "EACM 5 1 2 1\n1 7 | 0 0\n"
    with pytest.raises(EntryOutOfRangeError) as exc:
        parse_check_matrix(text)
    assert exc.value.line == 2 and exc.value.column == 3


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_check_matrix("EACM 5 1 2 1\n1 2 0 0\n")  # missing bar
    with pytest.raises(ParseError):
        parse_check_matrix("XXXX 5 1 2 1\n")
    with pytest.raises(ParseError):
        parse_check_matrix("EACM 5 1 2 1\n1 2 | 0\n")  # truncated
    with pytest.raises(ParseError):
        parse_check_matrix(serialize_check_matrix(f5_matrix()) + "9\n")  # trailing
    with pytest.raises(ParseError):
        parse_check_matrix("EACM 4 1 2 0\n")  # 4 is not prime
    with pytest.raises(ParseError):
        parse_check_matrix("EACM 2 2 2 0\npoly 1 0 1\n")  # reducible modulus


def test_comments_and_whitespace_ignored():
    text = "# header comment\nEACM 5 1 2 1\n  1 2 |\t3 4   # row comment\n"
    m = parse_check_matrix(text)
    assert m.rows == (((1, 2), (3, 4)),)


def test_parse_error_locations_point_at_the_token():
    with pytest.raises(ParseError) as exc:
        parse_check_matrix("EACM 5 1 2 1\n1 2 | 0  # cut short\n\n")
    assert "end of input" in str(exc.value)
    assert (exc.value.line, exc.value.column) == (2, 7)       # the last token read
    with pytest.raises(ParseError) as exc:
        parse_check_matrix("EACM 5 1 1 1\n1 | 0\n\t 4\n")
    assert (exc.value.line, exc.value.column) == (3, 3)       # the trailing token
    with pytest.raises(ParseError) as exc:
        parse_check_matrix("")
    assert (exc.value.line, exc.value.column) == (1, 1)


def test_parse_memory_is_bounded_by_the_matrix():
    # tokens are read lazily; a token list built up front peaks at 13.8 MB here
    import tracemalloc
    rng, n = random.Random(256), 256
    text = f"EACM 7 1 {n} {n}\n" + "".join(
        " ".join(str(rng.randrange(7)) for _ in range(n)) + " | "
        + " ".join(str(rng.randrange(7)) for _ in range(n)) + "\n" for _ in range(n))
    tracemalloc.start()
    try:
        m = parse_check_matrix(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.row_count == n
    assert peak < 4 * 2 ** 20, peak


# --- row operations ---

def test_row_add_f5_repair_step():
    m2 = apply_row_op(f5_matrix(), row_op_addmul(2, 3, 1))
    assert m2.rows[1] == ((1, 4, 0, 1), (0, 0, 2, 0))
    # untouched rows stay put
    assert m2.rows[0] == F5_ROWS[0] and m2.rows[2] == F5_ROWS[2]


def test_row_add_accumulates_multiple_sources():
    # mid-reduction fixture: row4 <- row4 + 4*row1 + 3*row2
    f = make_field(5)
    m = CheckMatrix.from_rows(f, [
        ((1, 0, 0, 0), (0, 0, 0, 0)),
        ((0, 0, 0, 0), (1, 0, 0, 0)),
        ((3, 2, 0, 1), (3, 1, 1, 0)),
        ((1, 0, 2, 2), (2, 0, 4, 2)),
    ])
    m = apply_row_op(m, row_op_addmul(4, 1, 4))
    m = apply_row_op(m, row_op_addmul(4, 2, 3))
    assert m.rows[3] == ((0, 0, 2, 2), (0, 0, 4, 2))


def test_row_add_zero_scalar_is_identity():
    m = f5_matrix()
    assert apply_row_op(m, row_op_addmul(1, 2, 0)) == m


def test_row_add_validation():
    m = f5_matrix()
    with pytest.raises(IndexOutOfRangeError):
        apply_row_op(m, row_op_addmul(1, 1, 2))
    with pytest.raises(IndexOutOfRangeError):
        apply_row_op(m, row_op_addmul(0, 2, 1))
    with pytest.raises(BadScalarError):
        apply_row_op(m, row_op_addmul(1, 2, 5))


def test_row_scale_and_swap():
    m = f5_matrix()
    swapped = apply_row_op(m, row_op_swap(1, 3))
    assert swapped.rows[0] == m.rows[2] and swapped.rows[2] == m.rows[0]
    scaled = apply_row_op(m, row_op_scale(1, 2))
    assert scaled.rows[0] == ((1, 2, 2, 0), (2, 4, 0, 4))
    with pytest.raises(BadScalarError):
        apply_row_op(m, row_op_scale(1, 0))


def test_extension_field_scalars_restricted_to_prime_subfield():
    f4 = make_field(2, 2)
    m = CheckMatrix.from_rows(f4, [((2, 3), (0, 1)), ((1, 0), (2, 2))])
    with pytest.raises(BadScalarError):
        apply_row_op(m, row_op_addmul(1, 2, 2))  # omega is not an allowed generator power
    assert apply_row_op(m, row_op_addmul(1, 2, 1)).rows[0] == ((3, 3), (2, 3))


# --- Clifford column operations ---

def test_dft_rule_q5():
    f = make_field(5)
    m = CheckMatrix.from_rows(f, [((2,), (3,))], n=1)
    assert apply_clifford(m, dft(1)).rows[0] == ((3,), (3,))


def test_mul_rule_q5():
    f = make_field(5)
    m = CheckMatrix.from_rows(f, [((1,), (1,))], n=1)
    assert apply_clifford(m, mul(2, 1)).rows[0] == ((3,), (2,))


def test_add_rule_is_cnot_at_q2():
    f = make_field(2)
    m = CheckMatrix.from_rows(f, [((1, 0), (0, 0))], n=2)
    assert apply_clifford(m, add(1, 2)).rows[0] == ((1, 1), (0, 0))


def test_phase_rule():
    f = make_field(7)
    m = CheckMatrix.from_rows(f, [((3,), (1,))], n=1)
    assert apply_clifford(m, phase(2, 1)).rows[0] == ((3,), (0,))  # 1 + 2*3 = 7 = 0


def test_clifford_validation():
    m = f5_matrix()
    with pytest.raises(NonInvertibleGammaError):
        apply_clifford(m, mul(0, 1))
    with pytest.raises(IndexOutOfRangeError):
        apply_clifford(m, dft(9))
    with pytest.raises(IndexOutOfRangeError):
        apply_clifford(m, add(2, 2))


def _random_matrix(rng, field, n, r):
    rows = [(tuple(rng.randrange(field.q) for _ in range(n)),
             tuple(rng.randrange(field.q) for _ in range(n))) for _ in range(r)]
    return CheckMatrix.from_rows(field, rows, n=n)


def _random_op(rng, field, n):
    kind = rng.randrange(4)
    t = rng.randint(1, n)
    if kind == 0:
        return dft(t)
    if kind == 1:
        return mul(rng.randrange(1, field.q), t)
    if kind == 2:
        return phase(rng.randrange(field.q), t)
    c = rng.choice([i for i in range(1, n + 1) if i != t]) if n > 1 else None
    return add(c, t) if c else dft(t)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2)])
def test_symplectic_invariance_under_random_cliffords(p, m):
    rng = random.Random(100 * p + m)
    field = make_field(p, m)
    for _ in range(20):
        n = rng.randint(1, 4)
        mat = _random_matrix(rng, field, n, rng.randint(1, 5))
        table = mat.symplectic_table()
        for _ in range(10):
            mat = apply_clifford(mat, _random_op(rng, field, n))
            assert mat.symplectic_table() == table


@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (2, 2)])
def test_operation_orders(p, m):
    rng = random.Random(31 + p + m)
    field = make_field(p, m)
    mat = _random_matrix(rng, field, 3, 4)
    assert apply_ops(mat, [dft(2)] * 4) == mat
    g = rng.randrange(1, field.q)
    assert apply_ops(mat, [phase(g, 1), phase(field.neg(g), 1)]) == mat
    assert apply_ops(mat, [mul(g, 3), mul(field.inv(g), 3)]) == mat
    assert apply_ops(mat, [add(1, 2)] * field.p) == mat


# --- row space comparison ---

def test_row_space_equal_under_permutation():
    m = f5_matrix()
    assert row_space_equal(m, apply_row_op(m, row_op_swap(1, 4)))


def test_row_space_equal_after_row_add():
    m = f5_matrix()
    assert row_space_equal(m, apply_row_op(m, row_op_addmul(2, 3, 1)))


def test_row_space_not_equal_with_zeroed_row():
    m = f5_matrix()
    rows = list(m.rows)
    rows[2] = (((0,) * 4), ((0,) * 4))
    assert not row_space_equal(m, CheckMatrix.from_rows(m.field, rows))


def test_row_space_equal_extension_field():
    f4 = make_field(2, 2)
    m = CheckMatrix.from_rows(f4, [((2, 3), (0, 1)), ((1, 1), (3, 0))])
    assert row_space_equal(m, apply_row_op(m, row_op_addmul(2, 1, 1)))
    # omega * row is outside the F_2-span of the rows
    scaled = CheckMatrix.from_rows(
        f4, [((f4.mul(2, 2), f4.mul(2, 3)), (0, f4.mul(2, 1))), m.rows[1]])
    assert not row_space_equal(m, scaled)


def test_non_element_entry_is_an_eaqec_error():
    f5 = make_field(5)
    for bad in (5, -1, 1.0, "1", None):
        with pytest.raises(EntryOutOfRangeError) as exc:
            CheckMatrix.from_rows(f5, [((0, bad), (1, 2))])
        assert str(exc.value) == f"{bad!r} is not an element of GF(5^1)"
    with pytest.raises(EntryOutOfRangeError):
        CheckMatrix.from_rows(make_field(2, 2), [((4,), (0,))])


def test_bool_entry_is_rejected():
    with pytest.raises(EntryOutOfRangeError, match="True is not an element"):
        CheckMatrix.from_rows(make_field(5), [((True,), (0,))])
    with pytest.raises(EntryOutOfRangeError, match="False is not an element"):
        CheckMatrix.from_rows(make_field(5), [((0,), (False,))])


def test_row_space_requires_same_space():
    m = f5_matrix()
    other = CheckMatrix.from_rows(make_field(7), [((0,) * 4, (0,) * 4)], n=4)
    with pytest.raises(DimensionMismatchError):
        row_space_equal(m, other)


# --- input boundary: integer tokens and field scope ---

@pytest.mark.parametrize("text", [
    "EACM 5 1 1_0 0\n",          # underscore separator
    "EACM +5 1 1 0\n",           # explicit sign
    "EACM ٣ 1 1 0\n",       # Arabic-Indic digit three
    "EACM 5 1 1 1\n１ | 0\n",  # fullwidth digit one as an entry
    "EACM 5 1 1 1\n-1 | 0\n",    # negative entry
])
def test_integer_tokens_are_ascii_digits_only(text):
    with pytest.raises(ParseError):
        parse_check_matrix(text)


@pytest.mark.parametrize("header", [
    "EACM 1000000000000000003 1 1 0",   # prime far outside q <= 2^16
    "EACM 65537 1 1 0",                  # smallest prime above 2^16
    "EACM 2 17 1 0",
    "EACM 3 11 1 0",                     # 3^11 > 2^16
    "EACM 2 100000000000000000000 1 0",
])
def test_field_outside_documented_scope_is_a_parse_error(header):
    with pytest.raises(ParseError, match="outside the supported scope"):
        parse_check_matrix(header + "\n")


def test_field_at_scope_edge_parses():
    m = parse_check_matrix("EACM 65521 1 1 1\n65520 | 1\n")   # largest prime below 2^16
    assert m.field.q == 65521 and m.rows == (((65520,), (1,)),)
