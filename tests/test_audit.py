"""The incremental invariant audit (`eaqec.audit`).

The audit checks each op as the working tableau applies it: column ops by
their column-local Gram delta, row ops by their defining relation.  The
snapshot audit it replaced is kept here as the reference (a frozen
CheckMatrix per step, the full symplectic table before and after every
column op, two rrefs per row op), and faults injected into the tableau's
own rules show that every verdict still catches a broken op and names it.
Faults are injected at p >= 3, where a sign error is not a no-op.
"""

import dataclasses
import random

import pytest

from eaqec import CheckMatrix, apply_ops, make_field, reduce_matrix, row_space_equal
from eaqec.audit import OK, Verdict, audit_random_ops, audit_reduction, random_ops
from eaqec.checkmatrix import (
    ADD,
    ADDMUL,
    DFT,
    CliffordOp,
    RowOp,
    _Tableau,
    add,
    apply_clifford,
    apply_row_op,
    dft,
    mul,
    phase,
    replay_steps,
    row_op_addmul,
    row_op_scale,
)
from eaqec.cli import main
from eaqec.errors import NonPrimeFieldError, NotConstructibleError
from eaqec.linalg import rank_mod_p
from eaqec.reduction import NORMALIZED, STRICT
from conftest import random_instance
from test_golden import corpus


# ---------------------------------------------------------------------------
# the reference: the snapshot audit the incremental one replaced
# ---------------------------------------------------------------------------

def reference_audit(result):
    source = result.source
    verdicts = {"replay": True, "row_space": True, "symplectic": True, "abelian": True}
    prev = source
    for op, cur in replay_steps(source, result.oplog):
        if isinstance(op, RowOp):
            if not row_space_equal(prev, cur):
                verdicts["row_space"] = False
        else:
            if prev.symplectic_table() != cur.symplectic_table():
                verdicts["symplectic"] = False
        prev = cur
    verdicts["replay"] = prev.rows == result.canonical.rows
    aug = result.augmented
    verdicts["abelian"] = all(
        aug.product(i, j) == 0
        for i in range(1, aug.row_count + 1)
        for j in range(i + 1, aug.row_count + 1))
    return verdicts


def reference_random_ops(matrix, count, rng):
    f = matrix.field
    cur = matrix
    ok = True
    for _ in range(count):
        roll = rng.randrange(5)
        if roll == 0 and matrix.n >= 2:
            i, j = rng.sample(range(1, matrix.n + 1), 2)
            op = add(i, j)
        elif roll == 1:
            op = mul(rng.randrange(1, f.q), rng.randrange(1, matrix.n + 1))
        elif roll == 2:
            op = phase(rng.randrange(f.q), rng.randrange(1, matrix.n + 1))
        else:
            op = dft(rng.randrange(1, matrix.n + 1))
        nxt = apply_clifford(cur, op)
        ok &= nxt.symplectic_table() == cur.symplectic_table()
        cur = nxt
        if cur.row_count >= 2:
            d, s = rng.sample(range(1, cur.row_count + 1), 2)
            nxt = apply_row_op(cur, row_op_addmul(d, s, rng.randrange(f.p if f.m > 1 else f.q)))
            ok &= row_space_equal(cur, nxt)
            cur = nxt
    return ok


def _bools(verdicts):
    return {name: v.ok for name, v in verdicts.items()}


# ---------------------------------------------------------------------------
# fault injection into the tableau's rules
# ---------------------------------------------------------------------------

def _corrupt(monkeypatch, method, kind, k, bad):
    """From now on, the k-th call of `_Tableau.<method>` with an op of `kind`
    (every such call if k is None) runs `bad` instead of the rule."""
    rule = getattr(_Tableau, method)
    seen = [0]

    def patched(self, op, *times):
        if op.kind != kind:
            return rule(self, op, *times)
        seen[0] += 1
        if k is None or seen[0] == k:
            return bad(self, op)
        return rule(self, op, *times)

    monkeypatch.setattr(_Tableau, method, patched)


def _add_wrong_sign(work, op):
    """ADD(c -> t) with z_c += z_t instead of z_c -= z_t."""
    p, t, c = work.field.p, op.target - 1, op.control - 1
    for x, z in zip(work.xs, work.zs):
        x[t] = (x[t] + x[c]) % p
        z[c] = (z[c] + z[t]) % p
    return work


def _dft_wrong_sign(work, op):
    """DFT with (x, z) -> (z, x) instead of (z, -x)."""
    t = op.target - 1
    for x, z in zip(work.xs, work.zs):
        x[t], z[t] = z[t], x[t]
    return work


def _addmul_wrong_sign(work, op):
    """dest -= scalar * src instead of +=: the row space is kept."""
    p, d, s = work.field.p, op.dest - 1, op.src - 1
    for side in (work.xs, work.zs):
        side[d] = [(a - op.scalar * b) % p for a, b in zip(side[d], side[s])]
    return work


def _addmul_x_only(work, op):
    """dest += scalar * src on the X side only: the row space moves."""
    p, d, s = work.field.p, op.dest - 1, op.src - 1
    work.xs[d] = [(a + op.scalar * b) % p for a, b in zip(work.xs[d], work.xs[s])]
    return work


def _nth_position(oplog, kind, k):
    """1-based log position of the k-th op of `kind`."""
    hits = [i for i, op in enumerate(oplog, start=1) if op.kind == kind]
    return hits[k - 1]


def _add_sign_matters(result, k):
    """Whether the wrong-sign z_c update of the k-th ADD changes a product:
    it adds 2 (x_i[c] z_j[t] - x_j[c] z_i[t]) to product (i, j)."""
    pos = _nth_position(result.oplog, ADD, k)
    op = result.oplog[pos - 1]
    before = apply_ops(result.source, result.oplog[:pos - 1])
    p, t, c = before.field.p, op.target - 1, op.control - 1
    rows = before.rows
    return any((xi[c] * zj[t] - xj[c] * zi[t]) % p
               for xi, zi in rows for xj, zj in rows)


def _instance(p, n, r, seed):
    """Independent uniform rows over F_p."""
    rng = random.Random(seed)
    while True:
        rows = [(tuple(rng.randrange(p) for _ in range(n)),
                 tuple(rng.randrange(p) for _ in range(n))) for _ in range(r)]
        if rank_mod_p([x + z for x, z in rows], p) == r:
            return CheckMatrix.from_rows(make_field(p), rows, n=n)


def _f7_result():
    """p = 7, n = r = 6: a log with dozens of ADDs, several ADDMULs and DFTs."""
    return reduce_matrix(_instance(7, 6, 6, 707), NORMALIZED)


def test_corrupt_column_rule_is_reported_at_its_op(monkeypatch):
    res = _f7_result()
    k = next(k for k in range(3, 9) if _add_sign_matters(res, k))
    _corrupt(monkeypatch, "clifford", ADD, k, _add_wrong_sign)
    verdicts = audit_reduction(res)
    pos = _nth_position(res.oplog, ADD, k)
    assert verdicts["symplectic"] == Verdict(
        False, pos, str(res.oplog[pos - 1]), "changed a pairwise symplectic product")
    assert verdicts["row_space"] == OK
    assert not verdicts["replay"]


def test_corrupt_row_rule_is_reported_at_its_op(monkeypatch):
    res = _f7_result()
    k = 2
    _corrupt(monkeypatch, "row_op", ADDMUL, k, _addmul_wrong_sign)
    verdicts = audit_reduction(res)
    pos = _nth_position(res.oplog, ADDMUL, k)
    assert not verdicts["row_space"]
    assert (verdicts["row_space"].index, verdicts["row_space"].op) == (
        pos, str(res.oplog[pos - 1]))
    assert verdicts["symplectic"] == OK
    assert not verdicts["replay"]


def test_rule_writing_outside_its_columns_is_caught(monkeypatch):
    """A column op that also rewrites an untouched column is caught even when
    the write keeps every product (here: DFT applied to qudit t and t+1)."""
    res = _f7_result()
    rule = _Tableau.clifford

    def leaky(work, op):
        rule(work, op)
        if op.target < work.n:
            rule(work, dft(op.target + 1))
        return work

    _corrupt(monkeypatch, "clifford", DFT, 1, leaky)
    pos = _nth_position(res.oplog, DFT, 1)
    assert res.oplog[pos - 1].target < res.source.n
    verdict = audit_reduction(res)["symplectic"]
    assert (verdict.ok, verdict.index) == (False, pos)
    assert verdict.reason == "changed a column it does not act on"


def test_rule_writing_unreduced_entries_is_caught(monkeypatch):
    """DFT writing p - x instead of -x mod p keeps every product mod p, but
    x = 0 becomes p, which is not a field element."""
    res = _f7_result()

    def unreduced(work, op):
        t = op.target - 1
        for x, z in zip(work.xs, work.zs):
            x[t], z[t] = z[t], work.field.p - x[t]
        return work

    _corrupt(monkeypatch, "clifford", DFT, None, unreduced)
    verdict = audit_reduction(res)["symplectic"]
    assert (verdict.ok, verdict.reason) == (False, "wrote an entry outside 0..p-1")
    assert verdict.index == _nth_position(res.oplog, DFT, 1)


def _unchecked_row_rule(work, op):
    """ADDMUL and SCALE without their argument checks."""
    p, d = work.field.p, op.dest - 1
    for side in (work.xs, work.zs):
        if op.kind == ADDMUL:
            side[d] = [(a + op.scalar * b) % p for a, b in zip(side[d], side[op.src - 1])]
        else:
            side[d] = [op.scalar * a % p for a in side[d]]
    return work


@pytest.mark.parametrize("bad, reason", [
    (row_op_addmul(2, 2, 6), "ADDMUL with dest = src"),   # row 2 *= 7 = 0
    (row_op_scale(2, 7), "SCALE by 0 mod p"),
])
def test_row_op_arguments_are_part_of_the_relation(monkeypatch, bad, reason):
    """A rule that stops rejecting a degenerate row op is still caught: the
    audit checks the op's arguments itself, not only the rows."""
    res = _f7_result()
    _corrupt(monkeypatch, "row_op", bad.kind, None, _unchecked_row_rule)
    pos = 5
    tampered = dataclasses.replace(res, oplog=res.oplog[:pos - 1] + (bad,) + res.oplog[pos - 1:])
    assert audit_reduction(tampered)["row_space"] == Verdict(False, pos, str(bad), reason)


def test_tampered_log_fails_replay_only():
    res = _f7_result()
    pos = next(i for i, op in enumerate(res.oplog) if op.kind == ADDMUL)
    op = res.oplog[pos]
    bad = dataclasses.replace(op, scalar=(op.scalar + 1) % 7 or 2)
    tampered = dataclasses.replace(res, oplog=res.oplog[:pos] + (bad,) + res.oplog[pos + 1:])
    verdicts = audit_reduction(tampered)
    assert not verdicts["replay"]
    assert verdicts["replay"].index is None
    assert all(verdicts[name] for name in ("row_space", "symplectic", "abelian"))


def test_corrupt_rule_during_random_checks(monkeypatch):
    matrix = _instance(5, 5, 4, 5)
    assert audit_random_ops(matrix, 20, random.Random(3)) == OK
    _corrupt(monkeypatch, "clifford", DFT, None, _dft_wrong_sign)
    verdict = audit_random_ops(matrix, 20, random.Random(3))
    assert not verdict
    assert verdict.op.startswith("DFT(")


# ---------------------------------------------------------------------------
# the CLI reports the failing op
# ---------------------------------------------------------------------------

def _after_reduction(monkeypatch, install):
    """Install a fault once `verify` has reduced, so the reduction is sound."""
    import eaqec.cli as cli

    def reduce_then_corrupt(matrix, mode):
        res = reduce_matrix(matrix, mode=mode)
        install(res)
        return res

    monkeypatch.setattr(cli, "reduce_matrix", reduce_then_corrupt)


def test_verify_names_the_corrupted_op(monkeypatch, tmp_path, capsys):
    from eaqec import serialize_check_matrix
    res = _f7_result()
    path = tmp_path / "m.eacm"
    path.write_text(serialize_check_matrix(res.source))
    k = next(k for k in range(3, 9) if _add_sign_matters(res, k))
    pos = _nth_position(res.oplog, ADD, k)
    _after_reduction(monkeypatch, lambda _: _corrupt(
        monkeypatch, "clifford", ADD, k, _add_wrong_sign))
    assert main(["verify", str(path)]) == 4
    out = capsys.readouterr().out.splitlines()
    assert f"symplectic: FAIL at op {pos} ({res.oplog[pos - 1]}): " \
           "changed a pairwise symplectic product" in out
    assert "row_space: ok" in out


def test_verify_random_checks_fail_under_a_corrupt_rule(monkeypatch, tmp_path, capsys):
    import eaqec.cli as cli
    from eaqec import serialize_check_matrix
    matrix = _instance(5, 5, 4, 5)
    path = tmp_path / "m.eacm"
    path.write_text(serialize_check_matrix(matrix))

    def corrupt_then_audit(m, count, rng):
        _corrupt(monkeypatch, "clifford", DFT, None, _dft_wrong_sign)
        return audit_random_ops(m, count, rng)

    monkeypatch.setattr(cli, "audit_random_ops", corrupt_then_audit)
    assert main(["verify", str(path), "--random-checks", "20", "--seed", "3"]) == 4
    out = capsys.readouterr().out.splitlines()
    assert out[:5] == ["replay: ok", "row_space: ok", "symplectic: ok", "abelian: ok",
                       "circuit: ok"]
    assert out[5].startswith("random_ops: FAIL at op ")


def test_reduce_json_reports_failures_only_on_failure(monkeypatch, tmp_path, capsys):
    import json
    from eaqec import serialize_check_matrix
    res = _f7_result()
    path = tmp_path / "m.eacm"
    path.write_text(serialize_check_matrix(res.source))
    assert main(["reduce", str(path), "--mode", "normalized", "--json"]) == 0
    assert "failures" not in json.loads(capsys.readouterr().out)
    _after_reduction(monkeypatch, lambda _: _corrupt(
        monkeypatch, "row_op", ADDMUL, 1, _addmul_wrong_sign))
    assert main(["reduce", str(path), "--mode", "normalized", "--json"]) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["row_space"] is False
    pos = _nth_position(res.oplog, ADDMUL, 1)
    assert report["failures"]["row_space"] == {
        "index": pos, "op": str(res.oplog[pos - 1]),
        "reason": "rows differ from the op's defining relation"}


# ---------------------------------------------------------------------------
# agreement with the reference
# ---------------------------------------------------------------------------

def test_agrees_with_reference_on_golden_corpus():
    reference = {}
    for name, matrix in corpus():
        for mode in (STRICT, NORMALIZED):
            try:
                res = reduce_matrix(matrix, mode)
            except NotConstructibleError:
                continue
            # both modes emit the same log whenever strict succeeds
            key = (name, res.oplog)
            if key not in reference:
                reference[key] = reference_audit(res)
            assert _bools(audit_reduction(res)) == reference[key]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_agrees_with_reference_under_column_faults(monkeypatch, p):
    """The wrong-sign ADD writes field elements in its own columns only, so
    the two audits must agree on every verdict, failed or not."""
    rng = random.Random(50 + p)
    for _ in range(4):
        res = reduce_matrix(random_instance(rng, p, max_n=5), NORMALIZED)
        adds = sum(op.kind == ADD for op in res.oplog)
        for k in sorted({1, (adds + 1) // 2, adds} - {0}):
            with monkeypatch.context() as mp:
                _corrupt(mp, "clifford", ADD, k, _add_wrong_sign)
                new = _bools(audit_reduction(res))
            with monkeypatch.context() as mp:
                _corrupt(mp, "clifford", ADD, k, _add_wrong_sign)
                assert new == reference_audit(res)


def test_agrees_with_reference_under_a_row_space_fault(monkeypatch):
    res = _f7_result()
    with monkeypatch.context() as mp:
        _corrupt(mp, "row_op", ADDMUL, 1, _addmul_x_only)
        new = _bools(audit_reduction(res))
    with monkeypatch.context() as mp:
        _corrupt(mp, "row_op", ADDMUL, 1, _addmul_x_only)
        assert new == reference_audit(res)
    assert new["row_space"] is False


def _recording(monkeypatch, log):
    for method in ("clifford", "row_op"):
        rule = getattr(_Tableau, method)

        def record(self, op, rule=rule):
            log.append(op)
            return rule(self, op)

        monkeypatch.setattr(_Tableau, method, record)


@pytest.mark.parametrize("fault", [None, "dft"])
def test_random_checks_agree_with_reference(monkeypatch, fault):
    """Same seed, same ops audited, same verdict, same RNG state after."""
    for p, seed in ((3, 1), (5, 2), (7, 3), (2, 4)):
        matrix = _instance(p, 5, 4, seed)
        runs = []
        for audit in (reference_random_ops, audit_random_ops):
            ops, rng = [], random.Random(seed)
            with monkeypatch.context() as mp:
                if fault:
                    _corrupt(mp, "clifford", DFT, None, _dft_wrong_sign)
                _recording(mp, ops)
                verdict = bool(audit(matrix, 25, rng))
            runs.append((verdict, ops, rng.getstate()))
        assert runs[0] == runs[1]
        if fault is None:
            assert runs[0][0] is True


def test_random_ops_stream_is_fixed_by_the_seed():
    ops = list(random_ops(4, 3, 5, 10, random.Random(9)))
    assert ops == list(random_ops(4, 3, 5, 10, random.Random(9)))
    assert [type(op) for op in ops] == [CliffordOp, RowOp] * 10
    # one qudit: no ADD; one row: no row op
    lone = list(random_ops(1, 1, 5, 12, random.Random(9)))
    assert len(lone) == 12 and all(op.kind in ("DFT", "MUL", "PHASE") for op in lone)


def test_verify_runs_random_checks_on_a_matrix_without_rows(tmp_path, capsys):
    path = tmp_path / "empty.eacm"
    path.write_text("EACM 5 1 2 0\n")
    assert main(["verify", str(path), "--random-checks", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "random_ops: ok"


def test_audit_needs_a_prime_field():
    f4 = make_field(2, 2)
    m = CheckMatrix.from_rows(f4, [((1,), (2,))])
    with pytest.raises(NonPrimeFieldError):
        audit_random_ops(m, 1, random.Random(0))


def test_verdict_text():
    assert str(OK) == "ok"
    assert str(Verdict(False, reason="r")) == "FAIL: r"
    assert str(Verdict(False, 3, "DFT(2)", "r")) == "FAIL at op 3 (DFT(2)): r"
    assert not Verdict(False) and Verdict(True)
