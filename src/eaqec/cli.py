"""Command-line front end.

Commands: reduce, circuit, verify, oracle, css, syndrome.

Exit codes are a stable contract:
    0  success
    2  input error (unreadable file, syntax, bad error spec, receiver-qudit
       error), or a resource error: the run ran out of memory
    3  not constructible in strict mode
    4  verification failure
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import sys

from . import __version__
from .audit import Verdict, audit_random_ops, audit_reduction
from .checkmatrix import MAX_DIM, CliffordOp, RowOp, parse_check_matrix
from .circuit import (
    circuit_to_json,
    synthesize_encoding_circuit,
    verify_encoding_circuit,
)
from .eacode import alice_error, build_code, css_import, parse_classical, syndrome
from .errors import (
    DependentRowsError,
    DimensionTooLargeError,
    EaqecError,
    EmptyMatrixError,
    ErrorOnBobQuditError,
    NonPrimeFieldError,
    NotConstructibleError,
    ParseError,
)
from .reduction import NORMALIZED, STRICT, ReductionResult, reduce_matrix

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_CONSTRUCTIBLE = 3
EXIT_VERIFY = 4

# documented bound of `verify --random-checks`, so a run always ends
MAX_RANDOM_CHECKS = 10 ** 6


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") from None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report(result: ReductionResult, digest: str, verdicts: dict) -> dict:
    """The `reduce` report; `verdicts` maps names to `Verdict`s, and a
    `failures` entry locating each failed one is present only on failure."""
    ops = result.oplog
    kinds = {}
    for op in ops:
        key = op.kind
        kinds[key] = kinds.get(key, 0) + 1
    report = {
        "input_digest": digest,
        "mode": result.mode,
        "params": result.params,
        "display": result.display(),
        "canonical": [{"x": list(x), "z": list(z)} for x, z in result.canonical.rows],
        "augmented": [{"x": list(x), "z": list(z)} for x, z in result.augmented.rows],
        "op_counts": {
            "total": len(ops),
            "row_ops": sum(1 for op in ops if isinstance(op, RowOp)),
            "clifford_ops": sum(1 for op in ops if isinstance(op, CliffordOp)),
            "by_kind": kinds,
        },
        "verdicts": {name: v.ok for name, v in verdicts.items()},
    }
    failures = {name: {"index": v.index, "op": v.op, "reason": v.reason}
                for name, v in verdicts.items() if not v}
    if failures:
        report["failures"] = failures
    return report


def _print_report(report: dict, as_json: bool):
    if as_json:
        print(json.dumps(report, indent=1))
        return
    pr = report["params"]
    print(f"{report['display']}  (n={pr['n']} k={pr['k']} c={pr['c']} a={pr['a']} "
          f"p={pr['p']} m={pr['m']})")
    print(f"mode: {report['mode']}   ops: {report['op_counts']['row_ops']} row, "
          f"{report['op_counts']['clifford_ops']} clifford")
    print("canonical:")
    for row in report["canonical"]:
        print("  " + " ".join(str(v) for v in row["x"]) + " | "
              + " ".join(str(v) for v in row["z"]))
    verdicts = report["verdicts"]
    print("verified: " + "  ".join(f"{k}={'ok' if v else 'FAIL'}"
                                   for k, v in verdicts.items()))
    for name, where in report.get("failures", {}).items():
        print(f"{name}: {Verdict(False, **where)}")


def cmd_reduce(args) -> int:
    text = _read(args.file)
    matrix = parse_check_matrix(text)
    result = reduce_matrix(matrix, mode=args.mode)
    verdicts = audit_reduction(result)
    if args.oracle:
        from .oracle import stabilized_subspace_dim  # numpy only when asked for
        field = matrix.field
        total = matrix.n + result.c
        if field.q ** total <= MAX_DIM:
            dim = stabilized_subspace_dim(field, list(result.augmented.rows), total)
            expected = field.q ** result.k
            verdicts["oracle"] = Verdict.check(
                dim == expected,
                f"stabilized subspace dimension {dim}, expected q^k = {expected}")
        else:
            print(f"oracle skipped: dimension {field.q ** total} exceeds {MAX_DIM}",
                  file=sys.stderr)
    _print_report(_report(result, _digest(text), verdicts), args.json)
    return EXIT_OK if all(verdicts.values()) else EXIT_VERIFY


def cmd_circuit(args) -> int:
    matrix = parse_check_matrix(_read(args.file))
    result = reduce_matrix(matrix, mode=args.mode)
    circuit = synthesize_encoding_circuit(result)
    if not verify_encoding_circuit(result, circuit):
        print("circuit failed its postcondition (receiver columns, sender row space, "
              "abelian); not writing", file=sys.stderr)
        return EXIT_VERIFY
    payload = circuit_to_json(circuit)
    if args.output == "-":
        sys.stdout.write(payload)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {circuit.gate_count} gates to {args.output}")
    return EXIT_OK


def cmd_verify(args) -> int:
    text = _read(args.file)
    matrix = parse_check_matrix(text)
    result = reduce_matrix(matrix, mode=args.mode)
    verdicts = audit_reduction(result)
    circuit = synthesize_encoding_circuit(result)
    verdicts["circuit"] = Verdict.check(
        verify_encoding_circuit(result, circuit),
        "postcondition failed (receiver columns, sender row space, abelian)")
    if args.random_checks:
        verdicts["random_ops"] = audit_random_ops(matrix, args.random_checks,
                                                  random.Random(args.seed))
    for name, verdict in verdicts.items():
        print(f"{name}: {verdict}")
    return EXIT_OK if all(verdicts.values()) else EXIT_VERIFY


def cmd_oracle(args) -> int:
    from .oracle import (ebit_state, is_stabilized, pauli_unitary, paulis_commute,
                         stabilized_subspace_dim)
    matrix = parse_check_matrix(_read(args.file))
    result = reduce_matrix(matrix, mode=args.mode)
    field = matrix.field
    total_qudits = matrix.n + result.c
    dim = field.q ** total_qudits
    max_dim = min(args.max_dim, MAX_DIM)
    if dim > max_dim:
        print(f"skipped: dimension {dim} exceeds --max-dim {max_dim}")
        return EXIT_OK
    failures = []
    rows = list(result.augmented.rows)
    # abelianness of the augmented canonical generators, as exact operator products
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if not paulis_commute(field, rows[i], rows[j], total_qudits):
                failures.append(f"generators {i + 1} and {j + 1} do not commute densely")
    dim_found = stabilized_subspace_dim(field, rows, total_qudits, max_dim=max_dim)
    expected = field.q ** result.k
    print(f"stabilized subspace dimension: {dim_found} (expected q^k = {expected})")
    if dim_found != expected:
        failures.append("stabilized subspace dimension mismatch")
    if result.c > 0:
        pair_x = ((1, 1), (0, 0))
        pair_z = ((0, 0), (1, field.p - 1))
        state = ebit_state(field)
        for row in (pair_x, pair_z):
            if not is_stabilized(state, pauli_unitary(field, row, 2)):
                failures.append(f"ebit stabilizer {row} fails on the entangled pair")
    for msg in failures:
        print("FAIL: " + msg)
    if not failures:
        print("oracle checks: ok")
    return EXIT_OK if not failures else EXIT_VERIFY


def cmd_css(args) -> int:
    field, h_rows = parse_classical(_read(args.file))
    matrix = css_import(field, h_rows)
    result = reduce_matrix(matrix, mode=NORMALIZED)
    if args.json:
        print(json.dumps({"params": result.params, "display": result.display()}))
    else:
        print(result.display())
    return EXIT_OK


def _parse_error_spec(spec: str, code) -> tuple:
    f = code.field
    x = [0] * code.n
    z = [0] * code.n
    if spec.strip():
        for part in spec.split(","):
            fields = part.strip().split(":")
            if len(fields) != 3 or fields[0] not in ("X", "Z"):
                raise ParseError(f"bad error spec component {part!r}; "
                                 "use X:<qudit>:<elem> or Z:<qudit>:<elem>")
            try:
                qudit, elem = ascii_int(fields[1]), ascii_int(fields[2])
            except ValueError:
                raise ParseError(f"bad integers in error spec {part!r}") from None
            if not 1 <= qudit <= code.n:
                raise ErrorOnBobQuditError(
                    f"qudit {qudit} outside the sender range 1..{code.n}")
            if not 0 <= elem < f.q:
                raise ParseError(f"element {elem} outside 0..{f.q - 1}")
            if fields[0] == "X":
                x[qudit - 1] = f.add(x[qudit - 1], elem)
            else:
                z[qudit - 1] = f.add(z[qudit - 1], elem)
    return alice_error(code, x, z)


def cmd_syndrome(args) -> int:
    matrix = parse_check_matrix(_read(args.file))
    result = reduce_matrix(matrix, mode=args.mode)
    code = build_code(result)
    err = _parse_error_spec(args.error, code)
    vec = syndrome(code, err)
    print("syndrome: " + " ".join(str(v) for v in vec))
    return EXIT_OK


def ascii_int(text: str) -> int:
    """An integer in ASCII digits with an optional leading '-', the file format's
    rule plus a sign; blanks, '+', '_' and other digits are a ValueError."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer in ASCII digits: {text!r}")
    return int(text)


def random_check_count(text: str) -> int:
    """`--random-checks`: 0..MAX_RANDOM_CHECKS; anything else is a usage error (exit 2)."""
    value = ascii_int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    if value > MAX_RANDOM_CHECKS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_RANDOM_CHECKS}, got {value}")
    return value


def positive_int(text: str) -> int:
    """A positive integer option value; anything else is a usage error (exit 2)."""
    value = ascii_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged,
    and each command's function is bound to it here."""
    parser = argparse.ArgumentParser(
        prog="eaqec",
        description="Entanglement-assisted qudit stabilizer code construction")
    parser.add_argument("--version", action="version", version=f"eaqec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode(p, default=STRICT):
        p.add_argument("--mode", choices=[STRICT, NORMALIZED], default=default)

    p = sub.add_parser("reduce", help="reduce a check matrix to canonical form")
    p.add_argument("file")
    add_mode(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--oracle", action="store_true",
                   help="also check the dense stabilized-subspace dimension")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("circuit", help="synthesize and write an encoding circuit")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True, help="output path or '-'")
    add_mode(p)
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("verify", help="run the invariant suite on a reduction")
    p.add_argument("file")
    add_mode(p, default=NORMALIZED)
    p.add_argument("--random-checks", type=random_check_count, default=0, metavar="N",
                   help=f"random column/row op checks, at most {MAX_RANDOM_CHECKS}")
    p.add_argument("--seed", type=ascii_int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="dense-unitary checks at desk scale")
    p.add_argument("file")
    add_mode(p, default=NORMALIZED)
    p.add_argument("--max-dim", type=positive_int, default=MAX_DIM,
                   help=f"largest dense dimension to build (capped at {MAX_DIM})")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("css", help="derive EA parameters from a parity-check matrix")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_css)

    p = sub.add_parser("syndrome", help="syndrome of a sender-side error")
    p.add_argument("file")
    p.add_argument("--error", required=True,
                   help="comma-separated X:<qudit>:<elem> / Z:<qudit>:<elem>; empty = identity")
    add_mode(p, default=NORMALIZED)
    p.set_defaults(func=cmd_syndrome)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotConstructibleError as exc:
        print(f"not constructible: {exc}", file=sys.stderr)
        return EXIT_NOT_CONSTRUCTIBLE
    except (ParseError, ErrorOnBobQuditError, EmptyMatrixError,
            DependentRowsError, NonPrimeFieldError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DimensionTooLargeError as exc:
        print(f"skipped: {exc}")
        return EXIT_OK
    except MemoryError:
        print("resource error: out of memory", file=sys.stderr)
        return EXIT_INPUT
    except EaqecError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
