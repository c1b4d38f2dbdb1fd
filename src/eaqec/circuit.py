"""Encoding circuits from reduction logs.

The reduction maps the input generators to the canonical set; running the
recorded column operations backwards therefore maps the (augmented)
canonical generators to a set generating the same group as the (augmented)
input.  Row operations are dropped: they relabel generators without moving
any qudit.  Gates act on sender qudits 1..n only; the receiver's c ebit
halves are never touched.

Circuit file schema (JSON)::

    {"version": 1, "p": <int>, "m": <int>, "n": <int>, "c": <int>,
     "gates": [{"g": "DFT", "t": i} | {"g": "MUL", "t": i, "gamma": e}
               | {"g": "PHASE", "t": i, "gamma": e}
               | {"g": "ADD", "ctl": i, "tgt": j}]}

with 1-based qudits and field elements encoded as integers 0..q-1.  Every
ADD of a circuit is the unit controlled-add: the reduction log's scaled
ADD(g) is inverted into p - g of them (`reduction.inverse_ops`), so a
circuit still has a number of gates that grows with p.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Tuple

from .checkmatrix import (
    ADD,
    DFT,
    MAX_N,
    MAX_Q,
    MUL,
    PHASE,
    CheckMatrix,
    CliffordOp,
    RowOp,
    _gate_args,
    apply_ops,
    row_space_equal,
)
from .errors import EaqecError, ParseError
from .field import is_prime
from .pauli import rows_commute
from .reduction import ReductionResult


@dataclass(frozen=True)
class Circuit:
    p: int
    m: int
    n: int
    c: int
    gates: Tuple[CliffordOp, ...]

    def __post_init__(self):
        _check_header(self.p, self.m, self.n, self.c)
        # each distinct gate object once: `inverse_ops` repeats one object
        # up to p - 1 times.  Not by equality, since CliffordOp(DFT, True)
        # equals CliffordOp(DFT, 1) and only the first is invalid.
        q = self.p ** self.m
        for g in {id(g): g for g in self.gates}.values():
            try:
                _gate_args(g, self.n, q)
            except EaqecError as exc:
                raise ParseError(f"gate {g}: {exc}") from None
            if g.kind == ADD and g.gamma != 1:
                raise ParseError(f"gate {g}: a circuit ADD is the unit ADD, not gamma {g.gamma}")

    @property
    def gate_count(self) -> int:
        return len(self.gates)


def synthesize_encoding_circuit(result: ReductionResult) -> Circuit:
    """Gates taking the augmented canonical generators to the encoded ones."""
    field = result.source.field
    return Circuit(p=field.p, m=field.m, n=result.source.n, c=result.c,
                   gates=result.encoding_gates)


def apply_circuit(circuit: Circuit, matrix: CheckMatrix) -> CheckMatrix:
    """Replay the circuit's column actions (receiver columns untouched)."""
    return apply_ops(matrix, circuit.gates)


def verify_encoding_circuit(result: ReductionResult, circuit: Circuit) -> bool:
    """The circuit's postcondition, anchored on the input matrix.

    The circuit applied to the augmented canonical generators must give
    rows whose receiver columns n+1..n+c equal `result.augmented`'s, whose
    sender columns span the same F_p row space as `result.source`, and
    which commute pairwise.  A circuit synthesized from this result shares
    its gate tuple, so its image is the cached `result.encoded`; any other
    circuit is replayed here.

    The log certifies the row space: the canonical rows are R S C (logged
    row ops R, source S, logged column ops C), so a synthesized circuit's
    sender rows are exactly R S, and R is invertible (`_Tableau.row_op`
    rejects SCALE 0 and ADDMUL onto its source).  Rows that differ from
    R S, e.g. another basis of the same space, fall back to `row_space_equal`.
    """
    field, n = result.source.field, result.source.n
    if (circuit.p, circuit.m, circuit.n, circuit.c) != (field.p, field.m, n, result.c):
        return False
    if circuit.gates is result.encoding_gates:
        encoded = result.encoded
    else:
        encoded = apply_circuit(circuit, result.augmented)
    for (x, z), (ax, az) in zip(encoded.rows, result.augmented.rows):
        if x[n:] != ax[n:] or z[n:] != az[n:]:
            return False
    sender = tuple((x[:n], z[:n]) for x, z in encoded.rows)
    logged = apply_ops(result.source, [op for op in result.oplog if isinstance(op, RowOp)])
    return ((sender == logged.rows
             or row_space_equal(CheckMatrix(field, n, sender), result.source))
            and rows_commute(field, encoded.rows))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _gate_json(g: CliffordOp) -> str:
    if g.kind == ADD:
        body = f'"g": "ADD",\n   "ctl": {g.control},\n   "tgt": {g.target}'
    elif g.kind == DFT:
        body = f'"g": "DFT",\n   "t": {g.target}'
    else:
        body = f'"g": "{g.kind}",\n   "t": {g.target},\n   "gamma": {g.gamma}'
    return "  {\n   " + body + "\n  }"


def circuit_to_json(circuit: Circuit) -> str:
    """The version-1 document, byte for byte as `json.dumps(doc, indent=1)` + newline.

    Each distinct gate object's text is built once, as in validation.
    """
    text = {i: _gate_json(g) for i, g in {id(g): g for g in circuit.gates}.items()}
    gates = ",\n".join([text[id(g)] for g in circuit.gates])
    return "".join((
        f'{{\n "version": 1,\n "p": {circuit.p},\n "m": {circuit.m},\n',
        f' "n": {circuit.n},\n "c": {circuit.c},\n "gates": ',
        f"[\n{gates}\n ]" if gates else "[]",
        "\n}\n"))


def _int(v, key: str, where: str) -> int:
    if type(v) is not int:
        raise ParseError(f"{where}: {key!r} must be an integer, got {v!r}")
    return v


def _json_int(obj: dict, key: str, where: str) -> int:
    return _int(obj.get(key), key, where)


def _check_header(p, m, n, c):
    """The one rule for a circuit's p, m, n and c: ints (not bools), a field
    GF(p^m) with q <= MAX_Q (p and m bounded before p^m is formed), 1 <= n <=
    MAX_N and 0 <= c <= n; a ParseError otherwise."""
    for key, v in (("p", p), ("m", m), ("n", n), ("c", c)):
        _int(v, key, "header")
    if not 1 <= m <= 16 or p > MAX_Q or p ** m > MAX_Q or not is_prime(p):
        raise ParseError(f"circuits act over a field GF(p^m) with q <= {MAX_Q}; "
                         f"got p={p}, m={m}")
    if not 1 <= n <= MAX_N or not 0 <= c <= n:
        raise ParseError(f"circuits need 1 <= n <= {MAX_N} and 0 <= c <= n; got n={n}, c={c}")


def circuit_from_json(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno)
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # e.g. an integer literal longer than int() converts
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise ParseError("expected a version-1 circuit document")
    p, m, n, c = (doc.get(k) for k in ("p", "m", "n", "c"))
    _check_header(p, m, n, c)
    if m != 1:
        raise ParseError(f"circuit files act over a prime field GF(p); got p={p}, m={m}")
    raw_gates = doc.get("gates")
    if not isinstance(raw_gates, list):
        raise ParseError(f"'gates' must be a list, got {raw_gates!r}")
    gates = []
    for i, entry in enumerate(raw_gates, start=1):
        where = f"gate {i}"
        if not isinstance(entry, dict):
            raise ParseError(f"{where} is not an object: {entry!r}")
        kind = entry.get("g")
        if kind == ADD:
            gates.append(CliffordOp(ADD, _json_int(entry, "tgt", where), gamma=1,
                                    control=_json_int(entry, "ctl", where)))
        elif kind == DFT:
            gates.append(CliffordOp(DFT, _json_int(entry, "t", where)))
        elif kind in (MUL, PHASE):
            gates.append(CliffordOp(kind, _json_int(entry, "t", where),
                                    gamma=_json_int(entry, "gamma", where)))
        else:
            raise ParseError(f"unknown gate kind {kind!r}")
    return Circuit(p=p, m=m, n=n, c=c, gates=tuple(gates))
