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

with 1-based qudits and field elements encoded as integers 0..q-1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Tuple

from .checkmatrix import (
    ADD,
    DFT,
    MAX_Q,
    MUL,
    PHASE,
    CheckMatrix,
    CliffordOp,
    apply_ops,
    row_space_equal,
)
from .errors import ParseError, ReductionFailedError
from .field import is_prime
from .reduction import ReductionResult, augmented_source, inverse_ops


@dataclass(frozen=True)
class Circuit:
    p: int
    m: int
    n: int
    c: int
    gates: Tuple[CliffordOp, ...]

    def __post_init__(self):
        for g in self.gates:
            _validate_gate(g, self.n, self.p ** self.m)

    @property
    def gate_count(self) -> int:
        return len(self.gates)


def _validate_gate(g: CliffordOp, n: int, q: int):
    indices = [g.target] + ([g.control] if g.kind == ADD else [])
    for i in indices:
        if not isinstance(i, int) or not 1 <= i <= n:
            raise ParseError(f"gate {g} touches qudit {i}, outside the sender range 1..{n}")
    if g.kind == ADD and g.control == g.target:
        raise ParseError(f"gate {g} has identical control and target")
    if g.kind == MUL and (g.gamma is None or g.gamma == 0):
        raise ParseError(f"gate {g} needs an invertible gamma")
    if g.kind == PHASE and g.gamma is None:
        raise ParseError(f"gate {g} needs a gamma")
    if g.gamma is not None and not (isinstance(g.gamma, int) and 0 <= g.gamma < q):
        raise ParseError(f"gate {g} has gamma outside the field 0..{q - 1}")
    if g.kind not in (DFT, MUL, PHASE, ADD):
        raise ParseError(f"unknown gate kind {g.kind!r}")


def invert_oplog(oplog, field) -> Tuple[CliffordOp, ...]:
    """Reverse and invert the Clifford part of a reduction log."""
    gates = [op for op in oplog if isinstance(op, CliffordOp)]
    return tuple(inverse_ops(gates, field))


def synthesize_encoding_circuit(result: ReductionResult) -> Circuit:
    """Gates taking the augmented canonical generators to the encoded ones."""
    if result.canonical is None:  # defensive; reduce_matrix never yields this
        raise ReductionFailedError("cannot synthesize a circuit without a reduction")
    field = result.source.field
    return Circuit(p=field.p, m=field.m, n=result.source.n, c=result.c,
                   gates=invert_oplog(result.oplog, field))


def apply_circuit(circuit: Circuit, matrix: CheckMatrix) -> CheckMatrix:
    """Replay the circuit's column actions (receiver columns untouched)."""
    return apply_ops(matrix, circuit.gates)


def verify_encoding_circuit(result: ReductionResult, circuit: Circuit) -> bool:
    """Replay on the augmented canonical matrix must regenerate the encoded group."""
    encoded = apply_circuit(circuit, result.augmented)
    return row_space_equal(encoded, augmented_source(result))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def circuit_to_json(circuit: Circuit) -> str:
    gates = []
    for g in circuit.gates:
        if g.kind == DFT:
            gates.append({"g": "DFT", "t": g.target})
        elif g.kind == MUL:
            gates.append({"g": "MUL", "t": g.target, "gamma": g.gamma})
        elif g.kind == PHASE:
            gates.append({"g": "PHASE", "t": g.target, "gamma": g.gamma})
        else:
            gates.append({"g": "ADD", "ctl": g.control, "tgt": g.target})
    doc = {"version": 1, "p": circuit.p, "m": circuit.m,
           "n": circuit.n, "c": circuit.c, "gates": gates}
    return json.dumps(doc, indent=1) + "\n"


def _json_int(obj: dict, key: str, where: str) -> int:
    v = obj.get(key)
    if type(v) is not int:
        raise ParseError(f"{where}: {key!r} must be an integer, got {v!r}")
    return v


def circuit_from_json(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno)
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise ParseError("expected a version-1 circuit document")
    p, m, n, c = (_json_int(doc, k, "header") for k in ("p", "m", "n", "c"))
    if m != 1 or p > MAX_Q or not is_prime(p):
        raise ParseError(f"circuits act over a prime field GF(p) with p <= {MAX_Q}; "
                         f"got p={p}, m={m}")
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
            gates.append(CliffordOp(ADD, _json_int(entry, "tgt", where),
                                    control=_json_int(entry, "ctl", where)))
        elif kind == DFT:
            gates.append(CliffordOp(DFT, _json_int(entry, "t", where)))
        elif kind in (MUL, PHASE):
            gates.append(CliffordOp(kind, _json_int(entry, "t", where),
                                    gamma=_json_int(entry, "gamma", where)))
        else:
            raise ParseError(f"unknown gate kind {kind!r}")
    return Circuit(p=p, m=m, n=n, c=c, gates=tuple(gates))
