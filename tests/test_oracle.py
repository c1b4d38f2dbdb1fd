import cmath
import itertools
import random

import numpy as np
import pytest

from eaqec import (
    CheckMatrix,
    Circuit,
    CliffordOp,
    Pauli,
    RowOp,
    apply_clifford,
    apply_ops,
    apply_row_op,
    make_field,
)
from eaqec import audit, oracle
from eaqec.checkmatrix import (
    ADD,
    DFT,
    MAX_N,
    MUL,
    PHASE,
    SCALE,
    SWAP,
    _Tableau,
    add,
    dft,
    mul,
    phase,
    row_op_addmul,
    row_op_scale,
    row_op_swap,
)
from eaqec.errors import (
    BadScalarError,
    DimensionMismatchError,
    DimensionTooLargeError,
    EaqecError,
    EntryOutOfRangeError,
    IndexOutOfRangeError,
    NonCommutingGeneratorsError,
    NonInvertibleGammaError,
    NotAPauliError,
    ParseError,
    UnknownOpError,
)
from eaqec.oracle import (
    _tables,
    clifford_unitary,
    conjugate_to_pauli,
    ebit_state,
    gate_unitary,
    is_stabilized,
    omega,
    pauli_unitary,
    stabilized_subspace_dim,
)
from eaqec.reduction import inverse_ops, invert_oplog


def _unitary(u):
    return np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-9)


# --- gate constructors ---

def test_qubit_dft_is_hadamard():
    h = gate_unitary(make_field(2), dft(1), 1)
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_qubit_x_is_not_gate():
    u = gate_unitary(make_field(2), ((1,), (0,)))
    assert np.allclose(u, np.array([[0, 1], [1, 0]]))
    assert np.allclose(u, pauli_unitary(make_field(2), ((1,), (0,))))


def test_qutrit_phase_gate_diagonal():
    f = make_field(3)
    w = omega(f)
    u = gate_unitary(f, phase(1, 1), 1)
    assert np.allclose(u, np.diag([1, w, w]), atol=1e-9)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_all_gates_unitary(p, m):
    f = make_field(p, m)
    assert _unitary(gate_unitary(f, dft(1), 1))
    for g in range(1, f.q):
        assert _unitary(gate_unitary(f, mul(g, 1), 1))
    for g in range(f.q):
        assert _unitary(gate_unitary(f, phase(g, 1), 1))
        assert _unitary(clifford_unitary(f, phase(g, 1), 1))
    assert _unitary(gate_unitary(f, add(1, 2), 2))


# --- conjugation ---

def test_hadamard_sends_x_to_z():
    f = make_field(2)
    g, ph = conjugate_to_pauli(f, gate_unitary(f, dft(1), 1), ((1,), (0,)))
    assert (g.x, g.z) == ((0,), (1,))
    assert abs(ph - 1) <= 1e-9


def test_qubit_phase_gate_shows_quarter_phase():
    # the reason the tableau layer is phaseless: conjugating X by the
    # phase gate produces XZ with a factor outside {+1, -1}
    f = make_field(2)
    p1 = gate_unitary(f, phase(1, 1), 1)
    g, ph = conjugate_to_pauli(f, p1, ((1,), (0,)))
    assert (g.x, g.z) == ((1,), (1,))
    assert abs(ph - (-1j)) <= 1e-9
    # its adjoint (the textbook S gate) gives the conjugate factor
    g, ph = conjugate_to_pauli(f, p1.conj().T, ((1,), (0,)))
    assert (g.x, g.z) == ((1,), (1,))
    assert abs(ph - 1j) <= 1e-9


def test_add_conjugation_matches_column_rule_q5():
    f = make_field(5)
    u = clifford_unitary(f, add(1, 2), 2)
    for xa in range(5):
        for zb in range(5):
            row = ((xa, 0), (0, zb))
            got, ph = conjugate_to_pauli(f, u, row)
            want = apply_clifford(
                CheckMatrix.from_rows(f, [row], n=2), add(1, 2)).rows[0]
            assert (got.x, got.z) == want
            assert abs(abs(ph) - 1) <= 1e-9


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_scaled_add_conjugation_matches_column_rule(p, m):
    """ADD(gamma) for every gamma in F_q* and both orientations: the dense
    gate sends |x, y> to |x, y + gamma x>, and conjugating every two-qudit
    row by it gives the tableau's x_t += gamma x_c, z_c -= gamma z_t."""
    f = make_field(p, m)
    every = [(flat[:2], flat[2:]) for flat in itertools.product(range(f.q), repeat=4)]
    for g in range(1, f.q):
        u = gate_unitary(f, add(1, 2, g), 2)
        assert _unitary(u)
        for x, y in itertools.product(range(f.q), repeat=2):
            assert u[x * f.q + f.add(y, f.mul(g, x)), x * f.q + y] == 1
        for op in (add(1, 2, g), add(2, 1, g)):
            u = clifford_unitary(f, op, 2)
            moved = apply_clifford(CheckMatrix.from_rows(f, every, n=2), op)
            for row, want in zip(every, moved.rows):
                got, ph = conjugate_to_pauli(f, u, row)
                assert (got.x, got.z) == want, (op, row)
                assert abs(abs(ph) - 1) <= 1e-9


def test_non_clifford_gate_detected():
    f = make_field(2)
    t_gate = np.diag([1, np.exp(1j * np.pi / 4)])
    with pytest.raises(NotAPauliError):
        conjugate_to_pauli(f, t_gate, ((1,), (0,)))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1)])
def test_exhaustive_single_qudit_equivalence(p, m):
    f = make_field(p, m)
    ops = [dft(1)]
    ops += [mul(g, 1) for g in range(1, f.q)]
    ops += [phase(g, 1) for g in range(f.q)]
    for op in ops:
        u = clifford_unitary(f, op, 1)
        for x, z in itertools.product(range(f.q), repeat=2):
            row = ((x,), (z,))
            want = apply_clifford(CheckMatrix.from_rows(f, [row], n=1), op).rows[0]
            got, ph = conjugate_to_pauli(f, u, row)
            assert (got.x, got.z) == want
            assert abs(abs(ph) - 1) <= 1e-9


# --- entangled pairs ---

def test_ebit_state_qubits():
    f = make_field(2)
    state = ebit_state(f)
    assert np.allclose(state, np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert is_stabilized(state, pauli_unitary(f, ((1, 1), (0, 0))))
    assert is_stabilized(state, pauli_unitary(f, ((0, 0), (1, 1))))


def test_ebit_state_qutrits():
    f = make_field(3)
    state = ebit_state(f)
    assert is_stabilized(state, pauli_unitary(f, ((1, 1), (0, 0))))
    assert is_stabilized(state, pauli_unitary(f, ((0, 0), (1, 2))))
    assert not is_stabilized(state, pauli_unitary(f, ((0, 0), (1, 1))))


# --- stabilized subspaces ---

def test_empty_generator_set_spans_everything():
    assert stabilized_subspace_dim(make_field(2), [], n=1) == 2


def test_single_z_on_one_qubit():
    assert stabilized_subspace_dim(make_field(2), [((0,), (1,))]) == 1


def test_non_commuting_generators_rejected():
    f = make_field(2)
    with pytest.raises(NonCommutingGeneratorsError):
        stabilized_subspace_dim(f, [((1,), (0,)), ((0,), (1,))])


def test_dimension_cap():
    f = make_field(5)
    with pytest.raises(DimensionTooLargeError):
        stabilized_subspace_dim(f, [], n=5)
    with pytest.raises(DimensionTooLargeError):
        pauli_unitary(f, ((0,) * 5, (0,) * 5))


def test_mixed_xz_generator_has_no_fixed_space_at_q2():
    # (XZ)^2 = -I, so its +1 eigenspace is empty
    f = make_field(2)
    assert stabilized_subspace_dim(f, [((1,), (1,))]) == 0


def test_independent_commuting_generators_dimension():
    f = make_field(3)
    gens = [((0, 0), (1, 0)), ((0, 0), (0, 1))]
    assert stabilized_subspace_dim(f, gens) == 1
    assert stabilized_subspace_dim(f, gens[:1]) == 3


def test_reduced_instance_subspace_dimension_q2():
    # augmented canonical generators of a 7-qubit (n + c) reduction fix q^k states
    import random

    from eaqec import reduce_matrix
    from eaqec.reduction import NORMALIZED
    from conftest import random_instance

    rng = random.Random(2718)
    f = make_field(2)
    while True:
        res = reduce_matrix(random_instance(rng, 2, max_n=5), NORMALIZED)
        if res.c >= 1 and res.source.n + res.c == 7 and res.k >= 1:
            break
    dim = stabilized_subspace_dim(f, list(res.augmented.rows), 7)
    assert dim == 2 ** res.k


# --- table-built Paulis against the kron-built definition ---

TABLE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def _kron_pauli_unitary(field, g, n):
    """w^phase X_x Z_z as a kron chain of per-qudit shift @ clock matrices."""
    if isinstance(g, Pauli):
        x, z, ph = g.x, g.z, g.phase
    else:
        (x, z), ph = g, 0
    q, w = field.q, omega(field)
    out = np.eye(1, dtype=complex)
    for xi, zi in zip(x, z):
        shift = np.zeros((q, q), dtype=complex)
        for d in range(q):
            shift[field.add(d, xi), d] = 1.0
        clock = np.diag([w ** field.trace(field.mul(zi, d)) for d in range(q)])
        out = np.kron(out, shift @ clock)
    return (w ** ph) * out


@pytest.mark.parametrize("p,m", TABLE_FIELDS)
def test_tables_match_field_arithmetic(p, m):
    f = make_field(p, m)
    add_t, mul_t, trmul = _tables(f)
    for a, b in itertools.product(range(f.q), repeat=2):
        assert add_t[a, b] == f.add(a, b)
        assert mul_t[a, b] == f.mul(a, b)
        assert trmul[a, b] == f.trace(f.mul(a, b))


@pytest.mark.parametrize("p,m", TABLE_FIELDS)
def test_pauli_unitary_matches_kron_chain(p, m):
    f = make_field(p, m)
    for x, z, ph in itertools.product(range(f.q), range(f.q), range(p)):
        g = Pauli(f, 1, ph, (x,), (z,))
        assert np.abs(pauli_unitary(f, g) - _kron_pauli_unitary(f, g, 1)).max() <= 1e-12
    rng = random.Random(f"kron:{p}:{m}")
    for _ in range(40):
        g = Pauli(f, 2, rng.randrange(p), tuple(rng.randrange(f.q) for _ in range(2)),
                  tuple(rng.randrange(f.q) for _ in range(2)))
        assert np.abs(pauli_unitary(f, g, 2) - _kron_pauli_unitary(f, g, 2)).max() <= 1e-12
        assert np.abs(pauli_unitary(f, g.row, 2) - _kron_pauli_unitary(f, g.row, 2)).max() <= 1e-12


def _kron_embed(field, u, qudits, n):
    """u on `qudits` as a sum over u's entries of kron chains of |a_i><b_i| and I."""
    q, k = field.q, len(qudits)
    out = np.zeros((q ** n, q ** n), dtype=complex)
    for a, b in itertools.product(range(q ** k), repeat=2):
        unit = {t: np.zeros((q, q)) for t in qudits}
        for i, t in enumerate(qudits):
            unit[t][a // q ** (k - 1 - i) % q, b // q ** (k - 1 - i) % q] = 1.0
        chain = np.eye(1)
        for pos in range(1, n + 1):
            chain = np.kron(chain, unit.get(pos, np.eye(q)))
        out += u[a, b] * chain
    return out


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_embed_matches_kron_chain_at_every_placement(p, m):
    f = make_field(p, m)
    rng = np.random.default_rng(p * 10 + m)
    for n in (1, 2, 3):
        for k in range(1, min(n, 3 if f.q <= 3 else 2) + 1):
            for qudits in itertools.permutations(range(1, n + 1), k):
                u = rng.normal(size=(f.q ** k,) * 2) + 1j * rng.normal(size=(f.q ** k,) * 2)
                assert np.array_equal(oracle._embed(f, u, qudits, n),
                                      _kron_embed(f, u, qudits, n)), qudits


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2)])
def test_gate_set_equivalence_over_gf8_and_gf9(p, m):
    # criterion 4's generator set: exhaustive at n = 1, a seeded row sample at n = 2
    f = make_field(p, m)
    rng = random.Random(f"gf{f.q}")
    for n in (1, 2):
        ops = []
        for t in range(1, n + 1):
            ops += [dft(t)] + [mul(g, t) for g in range(1, f.q)]
            ops += [phase(g, t) for g in range(f.q)]
        if n == 2:
            ops += [add(1, 2), add(2, 1)]
        every = [(flat[:n], flat[n:]) for flat in itertools.product(range(f.q), repeat=2 * n)]
        for op in ops:
            rows = every if n == 1 else rng.sample(every, 12)
            u = clifford_unitary(f, op, n)
            moved = apply_clifford(CheckMatrix.from_rows(f, rows, n=n), op)
            for row, want in zip(rows, moved.rows):
                got, ph = conjugate_to_pauli(f, u, row)
                assert (got.x, got.z) == want, (op, row)
                assert abs(abs(ph) - 1) <= 1e-9


# --- NotAPauliError: every message, first failure in qudit-then-v order ---

def _scalar_read_off(field, mat, n):
    """The z read-off one amplitude at a time with field calls; returns the error text or None."""
    q, w = field.q, omega(field)

    def index(digs):
        idx = 0
        for d in digs:
            idx = idx * q + d
        return idx

    col0 = mat[:, 0]
    r0 = int(np.argmax(np.abs(col0)))
    if abs(col0[r0]) < 1e-6:
        return "conjugate has a vanishing first column"
    x = [(r0 // q ** (n - 1 - i)) % q for i in range(n)]
    z = []
    for i in range(n):
        traces = {}
        for v in range(q):
            digs = [0] * n
            digs[i] = v
            amp = mat[index([field.add(a, b) for a, b in zip(digs, x)]), index(digs)]
            if abs(amp) < 1e-6:
                return "conjugate is missing a shift amplitude"
            ratio = amp / col0[r0]
            expo = round((cmath.phase(ratio) / (2 * cmath.pi)) * field.p) % field.p
            if abs(ratio - w ** expo) > 1e-6:
                return "conjugate phase is not a p-th root of unity"
            traces[v] = expo
        cand = [b for b in range(q)
                if all(field.trace(field.mul(b, v)) == traces[v] for v in range(q))]
        if not cand:
            return "no field element matches the observed phases"
        z.append(cand[0])
    want = col0[r0] * pauli_unitary(field, (tuple(x), tuple(z)), n)
    if not np.allclose(mat, want, atol=1e-9):
        return "conjugate deviates from the identified Pauli"
    return None


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (5, 1)])
def test_not_a_pauli_messages_follow_the_read_off_order(p, m):
    # `_identify` is the read-off that conjugate_to_pauli runs on U g U+, so a
    # corrupted Pauli matrix handed to it directly takes the conjugate's path
    f, n = make_field(p, m), 2
    q = f.q
    rng = random.Random(f"notapauli:{p}:{m}")
    seen = set()
    for trial in range(300):
        g = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(2))
        mat = pauli_unitary(f, g, n) * cmath.exp(1j * rng.random())
        for _ in range(rng.randrange(1, 4)):
            col = 0 if trial % 25 == 0 else rng.randrange(q ** n)
            nz = np.flatnonzero(mat[:, col])
            row = int(nz[0]) if nz.size else 0
            kind = rng.randrange(4)
            if kind == 0:
                mat[:, col] = 0
            elif kind == 1:
                mat[row, col] *= cmath.exp(0.3j)
            elif kind == 2:
                mat[row, col] *= omega(f) ** rng.randrange(1, p)
            else:
                mat[rng.randrange(q ** n), col] += 0.5
        want = _scalar_read_off(f, mat, n)
        if want is None:
            oracle._identify(f, mat, n)
        else:
            with pytest.raises(NotAPauliError, match=want):
                oracle._identify(f, mat, n)
        seen.add(want)
    assert seen >= {
        "conjugate has a vanishing first column",
        "conjugate is missing a shift amplitude",
        "conjugate phase is not a p-th root of unity",
        "no field element matches the observed phases",
        "conjugate deviates from the identified Pauli",
    }


# --- lengths, entries and qudit indices ---

def test_pauli_unitary_checks_lengths_against_n():
    f3 = make_field(3)
    with pytest.raises(DimensionMismatchError):
        pauli_unitary(f3, ((1,), (0,)), 2)
    with pytest.raises(DimensionMismatchError):
        pauli_unitary(f3, ((1, 0), (0,)))
    assert np.array_equal(pauli_unitary(f3, ((), ()), 0), [[1]])


def test_stabilized_subspace_dim_checks_lengths_against_n():
    with pytest.raises(DimensionMismatchError):
        stabilized_subspace_dim(make_field(3), [((1,), (0,))], 2)


def test_conjugate_to_pauli_checks_lengths_against_n():
    f3 = make_field(3)
    with pytest.raises(DimensionMismatchError):
        conjugate_to_pauli(f3, clifford_unitary(f3, dft(1), 2), ((1,), (0,)), 2)
    with pytest.raises(DimensionMismatchError):
        conjugate_to_pauli(f3, clifford_unitary(f3, dft(1), 1), ((1, 0), (0, 0)))


def test_pauli_unitary_rejects_entries_outside_the_field():
    with pytest.raises(EntryOutOfRangeError):
        pauli_unitary(make_field(3), ((3,), (0,)))
    with pytest.raises(EntryOutOfRangeError):
        pauli_unitary(make_field(2, 2), ((0,), (-1,)))
    # the element rule of CheckMatrix and Pauli, in every oracle entry point
    f = make_field(3)
    for entry in (1.5, 1.0, True, "1", None):
        row = ((entry,), (0,))
        for call in (lambda: pauli_unitary(f, row),
                     lambda: oracle.paulis_commute(f, ((1,), (0,)), row),
                     lambda: conjugate_to_pauli(f, clifford_unitary(f, dft(1), 1), row),
                     lambda: stabilized_subspace_dim(f, [row], 1)):
            with pytest.raises(EntryOutOfRangeError):
                call()


def test_embedding_checks_qudit_indices():
    f = make_field(3)
    with pytest.raises(IndexOutOfRangeError):
        clifford_unitary(f, add(1, 1), 2)
    with pytest.raises(IndexOutOfRangeError):
        clifford_unitary(f, add(1, 3), 2)
    with pytest.raises(IndexOutOfRangeError):
        gate_unitary(f, dft(0), 2)
    with pytest.raises(IndexOutOfRangeError):      # not truncated to qudit 1
        gate_unitary(f, dft(1.5), 2)
    with pytest.raises(IndexOutOfRangeError):
        clifford_unitary(f, add(1, 2.0), 2)


# --- monomial subspace dimension against the dense-matmul reference ---

def _dense_subspace_dim(field, gens, n):
    """The projector product by dense matmuls: powers climb until allclose to I."""
    dim = field.q ** n
    proj = np.eye(dim, dtype=complex)
    for g in gens:
        u = pauli_unitary(field, g, n)
        acc = np.eye(dim, dtype=complex)
        power, order = u, 1
        while not np.allclose(power, np.eye(dim), atol=1e-9):
            assert order < 2 * field.p
            acc += power
            power = power @ u
            order += 1
        proj = proj @ (acc / order)
    return int(round(np.trace(proj).real))


def _commuting_set(rng, f, n, size):
    """Seeded commuting Paulis with phases: random rows kept while they commute."""
    from eaqec.pauli import rows_commute
    rows = []
    while len(rows) < size:
        row = tuple(tuple(rng.randrange(f.q) for _ in range(n)) for _ in range(2))
        if rows_commute(f, rows + [row]):
            rows.append(row)
    if rng.random() < 0.5:
        rows.append(rows[0])                       # a repeated generator
    return [Pauli(f, n, rng.choice((0, 0, rng.randrange(f.p))), x, z) for x, z in rows]


# (p, m, n, sets): small sets at every q, one set near the 1024 cap per field
SUBSPACE_CASES = [(2, 1, 4, 12), (2, 1, 10, 1), (3, 1, 3, 10), (3, 1, 6, 1),
                  (2, 2, 2, 10), (2, 2, 5, 1), (5, 1, 2, 10), (5, 1, 4, 1),
                  (7, 1, 2, 6), (7, 1, 3, 1), (3, 2, 2, 6), (3, 2, 3, 1)]


@pytest.mark.parametrize("p,m,n,sets", SUBSPACE_CASES)
def test_subspace_dim_matches_dense_reference(p, m, n, sets):
    f = make_field(p, m)
    rng = random.Random(f"subspace:{p}:{m}:{n}")
    for _ in range(sets):
        gens = _commuting_set(rng, f, n, rng.randrange(1, min(n, 3) + 1))
        assert stabilized_subspace_dim(f, gens) == _dense_subspace_dim(f, gens, n)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_subspace_dim_phased_and_order_four_generators(p, m):
    f, n = make_field(p, m), 2
    cases = [
        [Pauli(f, n, 1, (0, 0), (0, 0))],                           # w I fixes nothing
        [Pauli(f, n, 0, (0, 0), (0, 0)), Pauli(f, n, 0, (0, 1), (0, 0))],  # I has order 1
        [Pauli(f, n, 0, (1, 0), (1, 0))],                           # (XZ)^2 = -I at p = 2
        [Pauli(f, n, 0, (1, 1), (1, 1)), Pauli(f, n, 0, (1, 1), (1, 1))],
        [Pauli(f, n, p - 1, (0, 1), (0, 0)), Pauli(f, n, 0, (1, 0), (0, 0))],
    ]
    for gens in cases:
        assert stabilized_subspace_dim(f, gens) == _dense_subspace_dim(f, gens, n), gens
    assert stabilized_subspace_dim(f, cases[0]) == 0
    assert stabilized_subspace_dim(f, cases[1]) == f.q ** n // p   # X_1 keeps 1/p


# --- the identified Pauli checked on its support, against np.allclose ---

@pytest.mark.parametrize("p,m,n", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 2, 1)])
def test_support_check_agrees_with_allclose(p, m, n):
    f = make_field(p, m)
    dim = f.q ** n
    rng = random.Random(f"support:{p}:{m}:{n}")
    verdicts = set()
    for _ in range(200):
        g = tuple(tuple(rng.randrange(f.q) for _ in range(n)) for _ in range(2))
        pf = cmath.exp(2j * cmath.pi * rng.random()) * rng.choice((1.0, 0.5, 1e-3))
        want_mat = pf * pauli_unitary(f, g, n)
        rows, expo = oracle._monomial(f, g, n)
        want = pf * oracle._roots(f)[expo]
        mat = want_mat.copy()
        for _ in range(rng.randrange(1, 4)):
            d = rng.randrange(dim)
            scale = rng.choice((0.99, 1.01, 0.5, 2.0))
            turn = cmath.exp(2j * cmath.pi * rng.random())
            if rng.random() < 0.5:                # on the support: 1e-9 + 1e-5 |want|
                mat[rows[d], d] += scale * (1e-9 + 1e-5 * abs(want[d])) * turn
            else:                                 # off it: 1e-9
                r = (rows[d] + rng.randrange(1, dim)) % dim
                mat[r, d] += scale * 1e-9 * turn
        got = oracle._on_monomial(mat, rows, want)
        assert got == np.allclose(mat, want_mat, atol=1e-9)
        verdicts.add(got)
    assert verdicts == {True, False}


# --- exact commutation against dense products ---

@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_paulis_commute_matches_dense_products(p, m):
    f = make_field(p, m)
    n = 3 if f.q <= 3 else 2
    rng = random.Random(f"commute:{p}:{m}")
    outcomes = set()
    for _ in range(40):
        a, b = (Pauli(f, n, rng.randrange(p), tuple(rng.randrange(f.q) for _ in range(n)),
                      tuple(rng.randrange(f.q) for _ in range(n))) for _ in range(2))
        u, v = pauli_unitary(f, a), pauli_unitary(f, b)
        got = oracle.paulis_commute(f, a, b)
        assert got == np.allclose(u @ v, v @ u, atol=1e-9)
        assert got == oracle.paulis_commute(f, a.row, b.row, n)
        outcomes.add(got)
    assert outcomes == {True, False}
    with pytest.raises(DimensionMismatchError):
        oracle.paulis_commute(f, ((0,) * n, (0,) * n), ((0,) * (n + 1), (0,) * (n + 1)))


# --- gamma range: the tableau's rule in every gate constructor ---

def test_gate_constructors_reject_gammas_outside_the_field():
    f5, f9 = make_field(5), make_field(3, 2)
    with pytest.raises(NonInvertibleGammaError):
        oracle.multiplier_unitary(f5, 7)
    with pytest.raises(NonInvertibleGammaError):
        oracle.multiplier_unitary(f5, 0)
    with pytest.raises(NonInvertibleGammaError):
        oracle.phase_unitary(f9, 9)
    with pytest.raises(NonInvertibleGammaError):
        oracle.phase_unitary(f5, -1)
    with pytest.raises(NonInvertibleGammaError):
        clifford_unitary(f5, mul(7, 1), 1)       # used to build MUL(2)'s unitary
    with pytest.raises(NonInvertibleGammaError):
        clifford_unitary(f5, phase(-1, 1), 1)
    with pytest.raises(NonInvertibleGammaError):
        gate_unitary(f9, phase(9, 1), 1)
    with pytest.raises(NonInvertibleGammaError):
        gate_unitary(f5, mul(5, 1), 1)


def _contract_ops(f, n):
    """Well-formed gates from in-range ints, then one malformed op per rule of
    `checkmatrix._gate_args`."""
    ok = [dft(1), dft(n), add(1, n), add(n, 1), CliffordOp(ADD, 2, gamma=1, control=1)]
    ok += [mul(g, 1) for g in range(1, f.q)] + [phase(g, n) for g in range(f.q)]
    bad = [dft(i) for i in (1.0, 1.5, True, False, "1", None, 0, n + 1)]
    bad += [add(c, t) for c, t in ((1, 2.0), (True, 2), (1, True), ("1", 2), (None, 2),
                                   (1, None), (0, 1), (1, n + 1), (1, 1), (n, n))]
    bad += [mul(1, True), phase(0, 1.0), mul(1, 0), phase(1, n + 1)]
    bad += [add(1, 2, g) for g in (None, 0, True, 2.0, f.q)]
    bad += [CliffordOp(DFT, 1, gamma=1), CliffordOp(DFT, 1, gamma=0),
            CliffordOp(DFT, 1, control=2),
            CliffordOp(MUL, 1, gamma=1, control=2), CliffordOp(PHASE, 1, gamma=0, control=2),
            CliffordOp("T", 1), CliffordOp("dft", 1), CliffordOp(SWAP, 1, control=2)]
    bad += [build(g, 1) for build in (mul, phase)
            for g in (*range(-2, 0), *range(f.q, f.q + 3), 1.0, "1", None, True, False)]
    return ok, bad


def _contract_row_ops(f):
    """Well-formed row ops on two rows, then malformed ones with their error:
    float, bool, str and None rows and scalars, scalars outside the prime
    subfield, stray fields and unknown kinds (`checkmatrix._row_args`)."""
    ok = [row_op_swap(1, 2), row_op_swap(2, 2), row_op_addmul(2, 1, 0),
          row_op_addmul(1, 2, f.p - 1), row_op_scale(1, 1), row_op_scale(2, f.p - 1)]
    bad = []
    for v in (1.0, 1.5, True, False, "1", None, 0, MAX_N + 1):
        bad += [(op, IndexOutOfRangeError) for op in (
            row_op_swap(v, 2), row_op_swap(1, v), row_op_addmul(v, 1, 1),
            row_op_addmul(2, v, 1), row_op_scale(v, 1))]
    for v in (1.0, 1.5, True, False, "1", None, -1, f.p, f.q):
        bad += [(row_op_addmul(2, 1, v), BadScalarError), (row_op_scale(1, v), BadScalarError)]
    bad += [(row_op_scale(1, 0), BadScalarError), (row_op_addmul(1, 1, 1), IndexOutOfRangeError),
            (RowOp(SCALE, 1, src=2, scalar=f.p - 1), IndexOutOfRangeError),
            (RowOp(SCALE, 1, src=1, scalar=1), IndexOutOfRangeError),
            (RowOp(SWAP, 1, src=2, scalar=3), BadScalarError),
            (RowOp(SWAP, 1, src=2, scalar=0), BadScalarError)]
    bad += [(RowOp(kind, 1, src=2, scalar=1), UnknownOpError)
            for kind in ("NOPE", "swap", None, DFT, ADD)]
    return ok, bad


def _outcome(build, op):
    try:
        build(op)
    except EaqecError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (2, 2), (3, 2)])
def test_oracle_and_tableau_reject_the_same_gammas(p, m):
    """Every layer that takes a gate accepts the same ops and rejects the rest
    with the same EaqecError and message; `Circuit` wraps it in a ParseError,
    and `inverse_ops`, which checks gammas only, agrees on every gamma.  Row
    ops follow one rule in the tableau, the audit and `inverse_ops`, and a
    value that is no op at all is an UnknownOpError in each of them."""
    f, n = make_field(p, m), 2
    matrix = CheckMatrix.from_rows(f, [((1, 0), (1, 1)), ((0, 1), (1, 0))], n=n)
    layers = [lambda o: apply_clifford(matrix, o),
              lambda o: clifford_unitary(f, o, n),
              lambda o: gate_unitary(f, o, n)]
    if m == 1:  # the audit is defined over prime fields only
        layers.append(lambda o: audit._audit_ops(_Tableau(matrix), [o]))
    ok, bad = _contract_ops(f, n)
    for valid, op in [(True, op) for op in ok] + [(False, op) for op in bad]:
        outcomes = {_outcome(build, op) for build in layers}
        assert len(outcomes) == 1, (op, outcomes)
        (outcome,) = outcomes
        assert (outcome is None) == valid, (op, outcome)
        if op.kind in (MUL, PHASE) and (outcome is None or outcome[0] is NonInvertibleGammaError):
            assert _outcome(lambda o: inverse_ops([o], f), op) == outcome, op
        if outcome is None:
            Circuit(p=p, m=m, n=n, c=0, gates=(op,))
            continue
        with pytest.raises(ParseError) as exc:
            Circuit(p=p, m=m, n=n, c=0, gates=(op,))
        assert str(exc.value) == f"gate {op}: {outcome[1]}"
    # inverse_ops does not know r and checks rows against the scope MAX_N
    row_layers = [lambda o: apply_row_op(matrix, o), lambda o: apply_ops(matrix, [o]),
                  lambda o: inverse_ops([o], f)]
    if m == 1:
        row_layers.append(lambda o: audit._audit_ops(_Tableau(matrix), [o]))
    ok, bad = _contract_row_ops(f)
    for op, error in [(op, None) for op in ok] + bad:
        outcomes = {_outcome(build, op) for build in row_layers}
        outcomes = {o and (o[0], o[1].replace(f"1..{MAX_N}", "1..2")) for o in outcomes}
        assert len(outcomes) == 1, (op, outcomes)
        (outcome,) = outcomes
        assert (outcome and outcome[0]) is error, (op, outcome)
    # the layers that take both kinds send every op that is not a RowOp to
    # the gate rule, and invert_oplog drops row ops only
    mixed = row_layers[1:] + [lambda o: invert_oplog([row_op_swap(1, 2), o], f)]
    for op in (None, 1, "SWAP", dft, (SWAP, 1, 2)):
        outcomes = {_outcome(build, op) for build in mixed}
        assert outcomes == {(UnknownOpError, f"{op!r} is not a CliffordOp")}, outcomes
        with pytest.raises(UnknownOpError):
            apply_row_op(matrix, op)
