"""Entanglement-assisted qudit stabilizer codes over GF(p^m).

Construction pipeline: exact field arithmetic -> phaseless Pauli rows ->
check-matrix tableau with Clifford column operations -> reduction to
canonical hyperbolic form (ebit / ancilla / logical counts) -> ebit
augmentation -> encoding-circuit synthesis, with every symbolic rule
verifiable against a dense-unitary oracle at desk scale.
"""

__version__ = "0.2.0"

from .checkmatrix import (
    CheckMatrix,
    CliffordOp,
    RowOp,
    add,
    apply_clifford,
    apply_ops,
    apply_row_op,
    dft,
    mul,
    parse_check_matrix,
    phase,
    row_space_equal,
    serialize_check_matrix,
)
from .circuit import (
    Circuit,
    apply_circuit,
    circuit_from_json,
    circuit_to_json,
    synthesize_encoding_circuit,
    verify_encoding_circuit,
)
from .eacode import (
    EACode,
    alice_error,
    build_code,
    check_eq4,
    css_import,
    in_centralizer,
    in_group,
    is_correctable,
    parse_classical,
    syndrome,
)
from .field import GaloisField, make_field
from .pauli import Pauli, commutes, pauli_mul, pauli_weight, symplectic_product
from .reduction import (
    NORMALIZED,
    STRICT,
    ReductionResult,
    augment_ebits,
    augmented_source,
    code_params,
    encoded_generators,
    inverse_ops,
    invert_oplog,
    normalize_pair,
    reduce_matrix,
)

__all__ = [
    # checkmatrix
    "CheckMatrix", "CliffordOp", "RowOp", "add", "apply_clifford", "apply_ops",
    "apply_row_op", "dft", "mul", "parse_check_matrix", "phase", "row_space_equal",
    "serialize_check_matrix",
    # circuit
    "Circuit", "apply_circuit", "circuit_from_json", "circuit_to_json",
    "synthesize_encoding_circuit", "verify_encoding_circuit",
    # eacode
    "EACode", "alice_error", "build_code", "check_eq4", "css_import", "in_centralizer",
    "in_group", "is_correctable", "parse_classical", "syndrome",
    # field, pauli
    "GaloisField", "make_field", "Pauli", "commutes", "pauli_mul", "pauli_weight",
    "symplectic_product",
    # reduction
    "NORMALIZED", "STRICT", "ReductionResult", "augment_ebits", "augmented_source",
    "code_params", "encoded_generators", "inverse_ops", "invert_oplog",
    "normalize_pair", "reduce_matrix",
]
