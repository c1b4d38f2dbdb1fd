import random

import pytest

from eaqec import (
    CheckMatrix,
    alice_error,
    build_code,
    check_eq4,
    css_import,
    in_centralizer,
    in_group,
    is_correctable,
    make_field,
    parse_classical,
    reduce_matrix,
    row_space_equal,
    syndrome,
)
from eaqec.errors import (
    BadGroupingError,
    EmptyMatrixError,
    EntryOutOfRangeError,
    ErrorOnBobQuditError,
    NonPrimeFieldError,
    ParseError,
    TooLargeError,
)
from eaqec.linalg import in_span_mod_p, rank_mod_p
from eaqec.reduction import NORMALIZED, STRICT, augmented_source
from conftest import fixture_text


@pytest.fixture
def hamming_code():
    """[[3,1;2]]_2 from the classical parity checks (101), (011)."""
    f = make_field(2)
    matrix = css_import(f, [(1, 0, 1), (0, 1, 1)])
    return build_code(reduce_matrix(matrix, NORMALIZED))


# --- structure of a built code ---

def test_f5_code_structure(f5_matrix):
    code = build_code(reduce_matrix(f5_matrix, STRICT))
    assert (code.n, code.k, code.c, code.a) == (4, 1, 1, 2)
    assert code.pair_rows == ((0, 1),)
    assert code.isotropic_rows == (2, 3)
    assert code.display() == "[[4,1;1]]_5"
    # the encoded frame generates the same group as the augmented source
    assert row_space_equal(code.augmented, augmented_source(code.result))
    # and every generator commutes with the rest of the set
    for row in code.augmented.rows:
        assert in_centralizer(code.field, row, code.augmented.rows)


def test_f5_eq4_grouping_passes(f5_matrix):
    code = build_code(reduce_matrix(f5_matrix, STRICT))
    z_rows, x_rows = code.eq4_grouping()
    assert len(z_rows) == 3 and len(x_rows) == 1
    assert check_eq4(code.field, z_rows, x_rows)


def test_check_eq4_rejects_noncommuting_x_rows():
    f = make_field(5)
    x1 = ((1, 0), (0, 0))
    x2 = ((0, 0), (2, 0))  # product(x1, x2) = tr(1*2) = 2 != 0
    z1 = ((0, 1), (0, 0))
    z2 = ((0, 0), (0, 1))
    assert not check_eq4(f, [z1, z2], [x1, x2])


def test_check_eq4_empty_is_vacuous():
    assert check_eq4(make_field(5), [], [])


def test_eq4_and_centralizer_hold_on_random_reductions():
    import random

    from conftest import random_instance
    from eaqec import reduce_matrix
    from eaqec.reduction import NORMALIZED

    rng = random.Random(606)
    for p in (2, 3, 5):
        for _ in range(6):
            code = build_code(reduce_matrix(random_instance(rng, p, max_n=4),
                                            NORMALIZED))
            z_rows, x_rows = code.eq4_grouping()
            assert check_eq4(code.field, z_rows, x_rows)
            for row in code.augmented.rows:
                assert in_centralizer(code.field, row, code.augmented.rows)


def test_check_eq4_requires_unit_paired_product():
    f = make_field(5)
    x = ((1, 0), (0, 0))
    z_good = ((0, 0), (1, 0))
    z_bad = ((0, 0), (2, 0))
    assert check_eq4(f, [z_good], [x])
    assert not check_eq4(f, [z_bad], [x])


def test_check_eq4_bad_grouping():
    f = make_field(5)
    with pytest.raises(BadGroupingError):
        check_eq4(f, [], [((1,), (0,))])


# --- membership ---

def test_identity_always_in_group(f5_matrix):
    f = make_field(5)
    zero = ((0, 0, 0, 0), (0, 0, 0, 0))
    assert in_group(f, zero, f5_matrix.rows)


def test_generator_in_its_own_set(f5_matrix):
    f = make_field(5)
    g = f5_matrix.rows[1]
    assert in_group(f, g, f5_matrix.rows)
    assert not in_centralizer(f, g, f5_matrix.rows)  # rows 1, 2 anticommute


def test_x_not_in_centralizer_of_z():
    f = make_field(2)
    assert not in_centralizer(f, ((1,), (0,)), [((0,), (1,))])


def test_in_group_negative_case():
    f = make_field(3)
    gens = [((1, 0), (0, 0))]
    assert not in_group(f, ((0, 1), (0, 0)), gens)
    assert in_group(f, ((2, 0), (0, 0)), gens)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_in_span_matches_the_two_rank_definition(p):
    rng = random.Random(4400 + p)
    for _ in range(200):
        width, count = rng.randint(1, 8), rng.randint(0, 6)
        rows = [[rng.randrange(p) for _ in range(width)] for _ in range(count)]
        if rows and rng.random() < 0.5:  # a target in the span, built on purpose
            coeffs = [rng.randrange(p) for _ in rows]
            target = [sum(c * r[i] for c, r in zip(coeffs, rows)) % p for i in range(width)]
        else:
            target = [rng.randrange(p) for _ in range(width)]
        expected = rank_mod_p(rows + [target], p) == rank_mod_p(rows, p)
        assert in_span_mod_p(rows, target, p) is expected


def test_in_group_requires_prime_field():
    f4 = make_field(2, 2)
    with pytest.raises(NonPrimeFieldError):
        in_group(f4, ((0,), (0,)), [((1,), (0,))])


# --- syndromes ---

def test_identity_error_has_zero_syndrome(hamming_code):
    err = alice_error(hamming_code)
    assert syndrome(hamming_code, err) == (0, 0, 0, 0)


def test_generator_rows_have_zero_syndrome(hamming_code):
    for row in hamming_code.augmented.rows:
        assert all(v == 0 for v in syndrome(hamming_code, row, allow_bob=True))


def test_weight_one_error_detected(hamming_code):
    err = alice_error(hamming_code, x=(1, 0, 0))
    assert any(syndrome(hamming_code, err))


def test_bob_support_rejected(hamming_code):
    bad = ((0, 0, 0, 1, 0), (0, 0, 0, 0, 0))
    with pytest.raises(ErrorOnBobQuditError):
        syndrome(hamming_code, bad)


def test_syndrome_is_a_coset_invariant(f5_matrix):
    code = build_code(reduce_matrix(f5_matrix, STRICT))
    f = code.field
    base = alice_error(code, x=(1, 0, 2, 0), z=(0, 3, 0, 0))
    # isotropic generators have no receiver support, so shifting by one
    # keeps the error on the sender's side
    iso = code.augmented.rows[code.isotropic_rows[0]]
    assert not any(iso[0][code.n:]) and not any(iso[1][code.n:])
    shifted = (tuple(f.add(a, b) for a, b in zip(base[0], iso[0])),
               tuple(f.add(a, b) for a, b in zip(base[1], iso[1])))
    assert syndrome(code, base) == syndrome(code, shifted)


# --- correctability ---

def test_identity_set_correctable(hamming_code):
    assert is_correctable(hamming_code, [alice_error(hamming_code)])


def test_weight_one_x_errors_correctable(hamming_code):
    # brute-force pairwise check over all weight<=1 X errors; frozen verdict
    errs = [alice_error(hamming_code)]
    for qudit in range(3):
        x = [0, 0, 0]
        x[qudit] = 1
        errs.append(alice_error(hamming_code, x=tuple(x)))
    assert is_correctable(hamming_code, errs) is True


def test_logical_difference_not_correctable(f5_matrix):
    # two errors differing by a centralizer-but-not-isotropic element
    code = build_code(reduce_matrix(f5_matrix, STRICT))
    f = code.field
    # build a logical: in the canonical frame, X on the first logical

    # column (n-th column) commutes with every canonical generator
    logical_row = ((0, 0, 0, 1, 0), (0, 0, 0, 0, 0))
    canonical = code.canonical_augmented
    assert in_centralizer(f, logical_row, canonical.rows)
    from eaqec.circuit import apply_circuit, synthesize_encoding_circuit
    encoded_logical = apply_circuit(
        synthesize_encoding_circuit(code.result),
        CheckMatrix.from_rows(f, [logical_row], n=5)).rows[0]
    assert in_centralizer(f, encoded_logical, code.augmented.rows)
    assert not any(encoded_logical[0][code.n:]) and not any(encoded_logical[1][code.n:])
    e0 = alice_error(code)
    assert not is_correctable(code, [e0, encoded_logical])


def test_pair_cap():
    code = build_code(reduce_matrix(
        CheckMatrix.from_rows(make_field(2), [((1,), (0,))], n=1), NORMALIZED))
    errs = [alice_error(code)] * 2000
    with pytest.raises(TooLargeError):
        is_correctable(code, errs)


def _is_correctable_pairwise(code, errors):
    """Reference: the pairwise definition, one difference and one row of
    products per pair of errors."""
    errs = list(errors)
    pairs = len(errs) * (len(errs) + 1) // 2
    if pairs > 10 ** 6:
        raise TooLargeError(f"{pairs} pairs exceed the cap")
    f = code.field
    for x, z in errs:
        if len(x) != code.n + code.c or any(x[code.n:]) or any(z[code.n:]):
            raise ErrorOnBobQuditError("receiver qudits")
    gens = list(code.augmented.rows)
    iso_flat = [list(x) + list(z) for x, z in
                (code.augmented.rows[i] for i in code.isotropic_rows)]
    for i in range(len(errs)):
        for j in range(i + 1, len(errs)):
            (x1, z1), (x2, z2) = errs[i], errs[j]
            diff = (tuple(f.sub(a, b) for a, b in zip(x2, x1)),
                    tuple(f.sub(a, b) for a, b in zip(z2, z1)))
            flat = list(diff[0]) + list(diff[1])
            if not any(flat) or not in_centralizer(f, diff, gens):
                continue
            if in_span_mod_p(iso_flat, flat, f.p):
                continue
            return False
    return True


def _error_set(rng, code):
    """Random low-weight errors, some shifted by an isotropic generator or by
    a generator's sender part, so undetected pairs of both kinds occur."""
    f, n = code.field, code.n
    errs = []
    for _ in range(rng.randint(1, 6)):
        x, z = [0] * n, [0] * n
        for q in rng.sample(range(n), min(n, rng.randint(1, 2))):
            x[q], z[q] = rng.randrange(f.q), rng.randrange(f.q)
        errs.append(alice_error(code, x, z))
    for e in list(errs):
        roll = rng.randrange(3)
        if roll == 0 and code.a:
            g = code.augmented.rows[rng.choice(code.isotropic_rows)]
        elif roll == 1:
            g = rng.choice(code.augmented.rows)
            g = (g[0][:n] + (0,) * code.c, g[1][:n] + (0,) * code.c)
        else:
            continue
        errs.append(tuple(tuple(f.add(a, b) for a, b in zip(u, v))
                          for u, v in zip(e, g)))
    return errs


def test_is_correctable_agrees_with_the_pairwise_definition():
    from conftest import random_instance
    outcomes = set()
    for p in (2, 3, 5, 7):
        rng = random.Random(4400 + p)
        for _ in range(40):
            code = build_code(reduce_matrix(random_instance(rng, p), NORMALIZED))
            for _ in range(3):
                errs = _error_set(rng, code)
                want = _is_correctable_pairwise(code, errs)
                assert is_correctable(code, errs) is want
                outcomes.add(want)
    assert outcomes == {True, False}


def test_is_correctable_checks_receiver_support_like_the_pairwise_definition(f5_matrix):
    code = build_code(reduce_matrix(f5_matrix, STRICT))
    e0 = alice_error(code)
    bob = (e0[0][:-1] + (1,), e0[1])
    short = (e0[0][:-1], e0[1])
    for errs in ([e0, bob], [bob], [short, e0]):
        with pytest.raises(ErrorOnBobQuditError):
            _is_correctable_pairwise(code, errs)
        with pytest.raises(ErrorOnBobQuditError):
            is_correctable(code, errs)
    with pytest.raises(TooLargeError):
        _is_correctable_pairwise(code, [e0] * 2000)


# --- classical import ---

def test_css_import_commuting_pair():
    f = make_field(2)
    m = css_import(f, [(1, 1)])
    assert m.rows == (((1, 1), (0, 0)), ((0, 0), (1, 1)))
    res = reduce_matrix(m, NORMALIZED)
    assert (res.c, res.a, res.k) == (0, 2, 0)


def test_css_import_hamming(hamming_code):
    assert hamming_code.display() == "[[3,1;2]]_2"
    # independent oracle: the gram matrix of the doubled rows has rank 4
    f = make_field(2)
    m = css_import(f, [(1, 0, 1), (0, 1, 1)])
    assert rank_mod_p(m.symplectic_table(), 2) == 4


def test_css_import_identity_f3():
    f = make_field(3)
    res = reduce_matrix(css_import(f, [(1, 0), (0, 1)]), NORMALIZED)
    assert (res.c, res.a, res.k) == (2, 0, 0)


def test_css_import_self_orthogonal_gives_no_ebits():
    f = make_field(2)
    h = [(1, 1, 0, 0), (0, 0, 1, 1)]
    # H H^T = 0 over F_2
    for r1 in h:
        for r2 in h:
            assert sum(a * b for a, b in zip(r1, r2)) % 2 == 0
    res = reduce_matrix(css_import(f, h), NORMALIZED)
    assert res.c == 0


def test_css_import_empty_rejected():
    f = make_field(2)
    with pytest.raises(EmptyMatrixError):
        css_import(f, [])
    with pytest.raises(EmptyMatrixError):
        css_import(f, [()])
    with pytest.raises(EmptyMatrixError):
        css_import(f, [(1, 0), (1,)])


def test_css_import_non_element_is_an_eaqec_error():
    with pytest.raises(EntryOutOfRangeError, match=r"^5 is not an element of GF\(5\^1\)$"):
        css_import(make_field(5), [[5, 1]])


def test_parse_classical_clsc():
    field, rows = parse_classical(fixture_text("hamming_f2.clsc"))
    assert field.q == 2
    assert rows == [(1, 0, 1), (0, 1, 1)]


def test_parse_classical_eacm_container():
    field, rows = parse_classical(fixture_text("hamming_f2_eacm.clsc"))
    assert rows == [(1, 0, 1), (0, 1, 1)]


def test_parse_classical_rejects_nonzero_z_side():
    text = "EACM 2 1 2 1\n1 0 | 1 0\n"
    with pytest.raises(ParseError):
        parse_classical(text)


@pytest.mark.parametrize("text", [
    "CLSC 1000000000000000003 1 1 1\n1\n",
    "CLSC 2 1 1_0 1\n1 0\n",
    "CLSC 2 1 2 1\n1 +1\n",
    "CLSC 2 1 2 1\n1 2\n",
    "CLSC 2 1 2 1\n1 0 1\n",
])
def test_parse_classical_boundary_errors(text):
    with pytest.raises(ParseError):
        parse_classical(text)
