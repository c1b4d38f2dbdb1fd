import random

import pytest

from eaqec import (
    CheckMatrix,
    CliffordOp,
    RowOp,
    apply_ops,
    augment_ebits,
    code_params,
    make_field,
    normalize_pair,
    reduce_matrix,
    row_space_equal,
)
from eaqec.checkmatrix import add, replay_steps, row_op_addmul
from eaqec.errors import (
    DependentRowsError,
    InconsistentCountsError,
    NonInvertibleGammaError,
    NonPrimeFieldError,
    NotConstructibleError,
    UnknownOpError,
    ZeroA2Error,
)
from eaqec.linalg import rank_mod_p
from eaqec.reduction import NORMALIZED, STRICT, augmented_source, inverse_ops
from conftest import random_instance


# --- pair normalization ---

def test_normalize_pair_known_value():
    assert normalize_pair(5, 2, 4) == 1


def test_normalize_pair_already_one():
    for a2 in (1, 2, 3, 4):
        assert normalize_pair(5, 1, a2) == 0


def test_normalize_pair_inverse_case():
    # 1/3 mod 7 by exhaustive search
    inv3 = next(m for m in range(7) if (3 * m) % 7 == 1)
    assert normalize_pair(7, 0, 3) == inv3 == 5


def test_normalize_pair_zero_a2():
    with pytest.raises(ZeroA2Error):
        normalize_pair(5, 2, 0)


# --- parameter bookkeeping ---

def test_code_params_examples():
    assert code_params(4, 4, 1) == (2, 1)
    assert code_params(5, 4, 2) == (0, 3)
    assert code_params(6, 6, 0) == (6, 0)


def test_code_params_inconsistent():
    with pytest.raises(InconsistentCountsError):
        code_params(4, 3, 2)
    with pytest.raises(InconsistentCountsError):
        code_params(4, 6, 1)


# --- the worked examples ---

def test_f5_reduction(f5_matrix):
    for mode in (STRICT, NORMALIZED):
        res = reduce_matrix(f5_matrix, mode)
        assert (res.c, res.a, res.k) == (1, 2, 1)
        assert res.display() == "[[4,1;1]]_5"
        assert res.canonical.rows == (
            ((1, 0, 0, 0), (0, 0, 0, 0)),
            ((0, 0, 0, 0), (1, 0, 0, 0)),
            ((0, 0, 0, 0), (0, 1, 0, 0)),
            ((0, 0, 0, 0), (0, 0, 1, 0)),
        )


def test_f5_first_op_is_the_pair_repair(f5_matrix):
    res = reduce_matrix(f5_matrix, STRICT)
    assert res.oplog[0] == row_op_addmul(2, 3, 1)
    after = apply_ops(f5_matrix, res.oplog[:1])
    assert after.rows[1] == ((1, 4, 0, 1), (0, 0, 2, 0))


def test_f5_augmented(f5_matrix):
    res = reduce_matrix(f5_matrix, STRICT)
    assert res.augmented.rows == (
        ((1, 0, 0, 0, 1), (0, 0, 0, 0, 0)),
        ((0, 0, 0, 0, 0), (1, 0, 0, 0, 4)),
        ((0, 0, 0, 0, 0), (0, 1, 0, 0, 0)),
        ((0, 0, 0, 0, 0), (0, 0, 1, 0, 0)),
    )


def test_f7_strict_fails(f7_matrix):
    with pytest.raises(NotConstructibleError):
        reduce_matrix(f7_matrix, STRICT)


def test_f7_normalized_matches_gram_rank(f7_matrix):
    res = reduce_matrix(f7_matrix, NORMALIZED)
    assert (res.c, res.a, res.k) == (2, 0, 3)
    assert rank_mod_p(f7_matrix.symplectic_table(), 7) == 2 * res.c == 4


def test_already_canonical_yields_empty_log():
    f = make_field(5)
    m = CheckMatrix.from_rows(f, [
        ((1, 0, 0, 0), (0, 0, 0, 0)),
        ((0, 0, 0, 0), (1, 0, 0, 0)),
        ((0, 0, 0, 0), (0, 1, 0, 0)),
        ((0, 0, 0, 0), (0, 0, 1, 0)),
    ])
    res = reduce_matrix(m, STRICT)
    assert res.oplog == ()
    assert (res.c, res.a) == (1, 2)
    assert res.canonical == m


def test_single_commuting_row():
    f = make_field(3)
    m = CheckMatrix.from_rows(f, [((1,), (0,))], n=1)
    res = reduce_matrix(m, STRICT)
    assert (res.c, res.a, res.k) == (0, 1, 0)
    assert res.canonical.rows == (((0,), (1,)),)


def test_strict_borrows_a_commuting_row_when_lone_partner_is_non_unit():
    # pivot pair (1, 2) has product 2 and no third non-commuting partner;
    # strict repairs it by giving a commuting row product 1 and swapping it in
    f3 = make_field(3)
    m = CheckMatrix.from_rows(f3, [
        ((1, 0), (0, 0)),
        ((0, 0), (2, 0)),
        ((0, 1), (0, 0)),
    ])
    res = reduce_matrix(m, STRICT)
    assert (res.c, res.a, res.k) == (1, 1, 0)
    assert res.oplog[0] == row_op_addmul(3, 2, 2)
    assert apply_ops(m, res.oplog).rows == res.canonical.rows


def test_residual_pair_with_product_p_minus_1_is_strict_failure():
    # verbatim failure rule: a residual product of p-1 is outside {0, 1}
    f = make_field(5)
    m = CheckMatrix.from_rows(f, [((1, 0), (0, 0)), ((0, 0), (4, 0))])
    with pytest.raises(NotConstructibleError):
        reduce_matrix(m, STRICT)
    res = reduce_matrix(m, NORMALIZED)
    assert (res.c, res.a, res.k) == (1, 0, 1)


def dependent_instance(kind: str, p: int, n: int, seed: int) -> CheckMatrix:
    """Independent uniform rows over F_p with one dependent row inserted: a
    zero row, a scaled copy of a row, or (kind "r > n + c") one more row
    than a spanning set of 2n rows can take, since then c = n."""
    rng = random.Random(seed)
    r = 2 * n if kind == "r > n + c" else rng.randint(1, n)
    while True:
        rows = [[rng.randrange(p) for _ in range(2 * n)] for _ in range(r)]
        if rank_mod_p(rows, p) == r:
            break
    if kind == "zero row":
        extra = [0] * (2 * n)
    elif kind == "duplicated row":
        scalar, row = rng.randrange(1, p), rng.choice(rows)
        extra = [scalar * v % p for v in row]
    else:
        extra = [rng.randrange(p) for _ in range(2 * n)]
    rows.insert(rng.randint(0, r), extra)
    return CheckMatrix.from_rows(make_field(p), [(row[:n], row[n:]) for row in rows], n=n)


@pytest.mark.parametrize("mode", [STRICT, NORMALIZED])
@pytest.mark.parametrize("kind,p,n,seed", [
    ("zero row", 5, 4, 1), ("zero row", 2, 3, 2),
    ("duplicated row", 7, 4, 3), ("duplicated row", 3, 5, 4),
    ("r > n + c", 5, 3, 5), ("r > n + c", 2, 1, 6),
])
def test_dependent_rows_rejected(kind, p, n, seed, mode):
    m = dependent_instance(kind, p, n, seed)
    with pytest.raises(DependentRowsError) as exc:
        reduce_matrix(m, mode)
    assert str(exc.value) == "input rows are linearly dependent over F_p"


def test_extension_field_rejected():
    f4 = make_field(2, 2)
    m = CheckMatrix.from_rows(f4, [((2, 3), (0, 1))])
    with pytest.raises(NonPrimeFieldError):
        reduce_matrix(m, STRICT)


def test_bad_mode_rejected(f5_matrix):
    with pytest.raises(ValueError):
        reduce_matrix(f5_matrix, "fast")


def test_inverse_ops_rejects_unknown_kinds():
    for op in (RowOp("NOPE", 1), CliffordOp("NOPE", 1)):
        with pytest.raises(UnknownOpError):
            inverse_ops([op], make_field(5))


def test_empty_matrix_reduces_to_itself():
    f = make_field(3)
    m = CheckMatrix.from_rows(f, [], n=2)
    res = reduce_matrix(m, STRICT)
    assert (res.c, res.a, res.k) == (0, 0, 2)
    assert res.oplog == () and res.canonical == m and res.augmented == m


# --- augmentation ---

def test_augment_no_ebits_is_unchanged():
    f = make_field(3)
    m = CheckMatrix.from_rows(f, [((0, 0), (1, 0)), ((0, 0), (0, 1))])
    res = reduce_matrix(m, STRICT)
    assert res.c == 0
    assert augment_ebits(res.canonical, res.c) == res.canonical


def test_augment_f7_receiver_entries():
    f = make_field(7)
    m = CheckMatrix.from_rows(f, [((1, 0), (0, 0)), ((0, 0), (1, 0))])
    res = reduce_matrix(m, STRICT)
    assert res.c == 1
    assert res.augmented.rows == (
        ((1, 0, 1), (0, 0, 0)),
        ((0, 0, 0), (1, 0, 6)),
    )


def test_augmented_rows_commute(f5_matrix, f7_matrix):
    for m, mode in ((f5_matrix, STRICT), (f7_matrix, NORMALIZED)):
        aug = reduce_matrix(m, mode).augmented
        for i in range(1, aug.row_count + 1):
            for j in range(i + 1, aug.row_count + 1):
                assert aug.product(i, j) == 0


# --- replay and per-step invariants on random instances ---

def test_random_instances_full_invariants():
    rng = random.Random(424242)
    for p in (2, 3, 5, 7):
        for _ in range(8):
            m = random_instance(rng, p, max_n=5)
            res = reduce_matrix(m, NORMALIZED)
            # replay soundness
            assert apply_ops(m, res.oplog).rows == res.canonical.rows
            # per-step invariants
            prev = m
            for op, cur in replay_steps(m, res.oplog):
                if isinstance(op, RowOp):
                    assert row_space_equal(prev, cur)
                else:
                    assert isinstance(op, CliffordOp)
                    assert prev.symplectic_table() == cur.symplectic_table()
                prev = cur
            # independently computed ebit count and parameter identity
            assert 2 * res.c == rank_mod_p(m.symplectic_table(), p)
            assert res.k == m.n - res.a - res.c
            # determinism
            res2 = reduce_matrix(m, NORMALIZED)
            assert res2.oplog == res.oplog and res2.canonical == res.canonical


def test_mode_monotonicity_random():
    rng = random.Random(777)
    agree = strict_ok = 0
    for p in (2, 3, 5, 7):
        for _ in range(10):
            m = random_instance(rng, p, max_n=4)
            norm = reduce_matrix(m, NORMALIZED)
            try:
                strict = reduce_matrix(m, STRICT)
            except NotConstructibleError:
                continue
            strict_ok += 1
            assert (strict.c, strict.a, strict.k) == (norm.c, norm.a, norm.k)
            assert strict.oplog == norm.oplog
            agree += 1
    assert strict_ok == agree and strict_ok > 0


def test_augmented_source_restores_input(f5_matrix):
    res = reduce_matrix(f5_matrix, STRICT)
    asrc = augmented_source(res)
    n = f5_matrix.n
    for i, (x, z) in enumerate(asrc.rows):
        assert (x[:n], z[:n]) == f5_matrix.rows[i]
    # receiver halves make the source generators commute as well
    for i in range(1, asrc.row_count + 1):
        for j in range(i + 1, asrc.row_count + 1):
            assert asrc.product(i, j) == 0


# --- the log does not grow with p ---

@pytest.mark.parametrize("p", [7, 251, 65521])
def test_column_ops_are_bounded_by_n_alone(p):
    """Each cleared entry is one logged ADD(k), not k unit ADDs, so the log's
    column ops are bounded by the reducer's emit sites, at most 6n + 4 per
    row, whatever p.  The log replays to the canonical rows and every audit
    verdict holds; a log of unit ADDs had 657,630 column ops at p = 65521."""
    from eaqec.audit import audit_reduction
    from test_golden import _full_rank

    n = r = 4
    flat = _full_rank(random.Random(1), p, n, r)
    matrix = CheckMatrix.from_rows(make_field(p), [(v[:n], v[n:]) for v in flat], n=n)
    res = reduce_matrix(matrix, NORMALIZED)
    column_ops = [op for op in res.oplog if isinstance(op, CliffordOp)]
    assert len(column_ops) <= r * (6 * n + 4)
    assert max(op.gamma or 1 for op in column_ops) < p
    assert all(audit_reduction(res).values())


def test_inverse_of_scaled_add_is_a_run_of_one_shared_unit_add():
    """ADD(g) becomes p - g unit ADDs, one object per qudit pair."""
    ops = [add(1, 2, 3), add(2, 1, 5), add(1, 2, 6), add(1, 2)]
    inverse = inverse_ops(ops, make_field(7))
    assert [(g.control, g.target, g.gamma) for g in inverse] == (
        [(1, 2, 1)] * (6 + 1) + [(2, 1, 1)] * 2 + [(1, 2, 1)] * 4)
    assert len({id(g) for g in inverse}) == 2


def test_inverse_ops_checks_add_gammas_like_the_tableau():
    f = make_field(5)
    matrix = CheckMatrix.from_rows(f, [((1, 0), (0, 1))])
    for g in (None, 0, True, 2.0, 5, -1):
        with pytest.raises(NonInvertibleGammaError) as tableau:
            apply_ops(matrix, [add(1, 2, g)])
        with pytest.raises(NonInvertibleGammaError) as inverse:
            inverse_ops([add(1, 2, g)], f)
        assert str(inverse.value) == str(tableau.value)


@pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (3, 2), (2, 3)])
def test_scaled_adds_are_undone_by_inverse_ops(p, m):
    f = make_field(p, m)
    rng = random.Random(f"inverse:{p}:{m}")
    rows = [(tuple(rng.randrange(f.q) for _ in range(3)),
             tuple(rng.randrange(f.q) for _ in range(3))) for _ in range(5)]
    matrix = CheckMatrix.from_rows(f, rows)
    ops = [add(*rng.sample(range(1, 4), 2), rng.randrange(1, f.q)) for _ in range(30)]
    assert apply_ops(apply_ops(matrix, ops), inverse_ops(ops, f)) == matrix
