"""The four workloads: fixed-shape seeded batches, their jobs and checks.

scale  - the `circuit` + `syndrome` command path through the library on
         prime-field instances with n from 12 to 32.  Loads the per-op
         CheckMatrix rebuild (checkmatrix, field.check) and the gate
         expansion (circuit); runs no audit and no oracle.
audit  - `eaqec.cli.main(["verify", ...])` in process.  Loads the invariant
         audit (pauli.symplectic_product, linalg.rref_mod_p, cli.main);
         shares reduce and the circuit steps with scale.
desk   - cold `python -m eaqec.cli` processes over all six commands on
         small inputs.  Loads interpreter start and imports (cli); the
         algebra is negligible here.
dense  - the oracle in process: gate conjugation over GF(q), q in
         {3, 4, 5, 8, 9}, and stabilized-subspace dimensions of reduced
         codes with q^(n+c) in [256, 1024].  The only workload that loads
         GF(p^m) arithmetic (field) and the numpy path (oracle).

Every job returns its raw output; `check` compares it with the
benchmark's own reference arithmetic (refmath) outside the timed region
and returns (problems, counts).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import corpus
import refmath as ref

CLIFFORD_KINDS = ("DFT", "MUL", "PHASE", "ADD")
ORACLE_MAX_DIM = 1024          # eaqec.oracle.MAX_DIM, the documented cap
DESK_JOB_LIMIT_S = 3.0         # per cold CLI job; every in-scope job ends far below
HANG_HEADER = "EACM 1000000000000000003 1 1 0\n"

# (kind, p, n, r) or (kind, p, n, c, a).  Shapes are picked so that jobs
# cost about the same (0.3-0.7 s on a 2-core x86 VM), which keeps the job
# latency percentiles steady across seeds.
# scale: half random full-rank with r = n (c = floor(n/2)), half scrambled
# canonical layouts with a >= n/4 ancillas (the commuting branch).
SCALE_SHAPES = (
    ("random", 3, 16, 16), ("random", 3, 18, 18), ("random", 5, 12, 12),
    ("random", 5, 13, 13), ("random", 5, 14, 14), ("random", 7, 12, 12),
    ("scrambled", 3, 32, 2, 8), ("scrambled", 3, 28, 3, 7), ("scrambled", 3, 24, 3, 6),
    ("scrambled", 5, 20, 3, 5), ("scrambled", 7, 16, 2, 4), ("scrambled", 7, 14, 2, 4),
)
SCALE_ERRORS = 3
# Instances per shape.  More distinct instances per run average out the
# part of the cost that depends on the seeded entries.
COPIES = 3
AUDIT_SHAPES = (
    ("random", 2, 12, 12), ("random", 5, 9, 9), ("random", 5, 10, 10),
    ("random", 7, 8, 8), ("random", 7, 9, 9),
    ("scrambled", 2, 16, 4, 4), ("scrambled", 2, 14, 3, 4), ("scrambled", 5, 12, 3, 3),
    ("scrambled", 5, 11, 2, 3), ("scrambled", 7, 10, 2, 3),
)
AUDIT_RANDOM_CHECKS = 20
# (p, m, n, rows per op or None for all q^(2n) rows).  The samples make
# the GF(4) n = 2, GF(8) and GF(9) jobs cost about the same (~50 ms) and
# put the q = 5, n = 2 jobs (~70 ms) above them, so the median job falls
# inside that 52-job plateau rather than on the edge between two groups.
DENSE_GATE_FIELDS = (
    (3, 1, 1, None), (3, 1, 2, None), (5, 1, 1, None), (5, 1, 2, 260),
    (2, 2, 1, None), (2, 2, 2, 32), (2, 3, 1, 24), (3, 2, 1, 28),
)
# scrambled (p, n, c, a) with q^(n+c) = 256, 343 or 625.  Ten small
# binary codes keep the summed gate and op counts steady across seeds.
DENSE_CODES = tuple(("scrambled", 2, n, c, a) for n, c, a in (
    (6, 2, 2), (7, 1, 3), (5, 3, 1), (8, 0, 4), (8, 0, 6),
    (4, 4, 0), (6, 2, 3), (7, 1, 4), (5, 3, 2), (6, 2, 1),
)) + (("scrambled", 7, 2, 1, 1), ("scrambled", 5, 3, 1, 1))
TINY = {
    "scale": (("random", 3, 6, 6),),
    "audit": (("random", 2, 6, 6),),
    "dense_codes": (("scrambled", 2, 3, 1, 1),),
}


@dataclass
class Job:
    name: str
    cmd: str                              # command label, for per-command medians
    run: Callable[[], object]
    check: Callable[[object], tuple]      # output -> (problems, counts)


@dataclass
class Context:
    root: Path                            # checkout root; eaqec lives in root/src
    work: Path                            # this workload's input and scratch files
    seed: int
    tiny: bool = False
    E: object = None                      # the eaqec package
    cli: object = None                    # eaqec.cli
    env: dict = field(default_factory=dict)
    tracer: object = None                 # set during the traced pass; CLI children run traced

    def write(self, name, text):
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return str(path)


def import_eaqec(ctx: Context):
    """Import the package the way every workload's set-up does."""
    import eaqec
    import eaqec.cli
    import eaqec.oracle  # noqa: F401  (oracle is not re-exported by the package)

    ctx.E, ctx.cli = eaqec, eaqec.cli


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def check_reduction(p, n, rows, known, c, a, k, canonical, circuit_json, kinds):
    """Checks of one reduction and its circuit against the reference arithmetic.

    Returns (problems, counts, encoded) where `encoded` are the augmented
    canonical rows pushed through the circuit by the reference column rules.
    """
    problems = []
    c_ref, a_ref, k_ref = ref.code_counts(rows, n, p)
    if (c, a, k) != (c_ref, a_ref, k_ref):
        problems.append(f"(c, a, k) = {(c, a, k)}, reference {(c_ref, a_ref, k_ref)}")
    if known is not None and known != (c_ref, a_ref):
        problems.append(f"constructed (c, a) = {known}, Gram rank gives {(c_ref, a_ref)}")
    layout = ref.canonical_layout(n, c_ref, a_ref)
    if canonical is not None and [(tuple(x), tuple(z)) for x, z in canonical] != layout:
        problems.append("canonical rows differ from the canonical layout")
    counts = {"oplog_ops": len(kinds), "add_ops": kinds.count("ADD"),
              "clifford_ops": sum(kd in CLIFFORD_KINDS for kd in kinds)}
    encoded = None
    if circuit_json is not None:
        doc = json.loads(circuit_json)
        if (doc["p"], doc["m"], doc["n"], doc["c"]) != (p, 1, n, c_ref):
            problems.append("circuit header does not match the instance")
        gates = ref.gates_from_json(doc)
        counts["gates"] = len(gates)
        if any(not 1 <= g[1] <= n or (g[3] is not None and not 1 <= g[3] <= n) for g in gates):
            problems.append("a gate touches a receiver qudit")
            return problems, counts, None
        aug = ref.augment(layout, n, c_ref, p)
        encoded = ref.replay(aug, gates, ref.prime_field(p))
        if not ref.same_span([(x[:n], z[:n]) for x, z in encoded], rows, p):
            problems.append("circuit replay does not span the input row space")
        if any(ref.product(g, h, p) for i, g in enumerate(encoded) for h in encoded[i + 1:]):
            problems.append("encoded generators do not commute")
    return problems, counts, encoded


def check_result(inst, result, circuit_json):
    """check_reduction for an eaqec ReductionResult of a generated instance."""
    return check_reduction(inst.p, inst.n, inst.rows, inst.known, result.c, result.a, result.k,
                           result.canonical.rows, circuit_json,
                           [op.kind for op in result.oplog])


# ---------------------------------------------------------------------------
# scale
# ---------------------------------------------------------------------------

def run_scale(E, path, errors):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    matrix = E.parse_check_matrix(text)
    result = E.reduce_matrix(matrix, E.NORMALIZED)
    circuit = E.synthesize_encoding_circuit(result)
    verified = E.verify_encoding_circuit(result, circuit)
    payload = E.circuit_to_json(circuit)
    code = E.build_code(result)
    syndromes = [E.syndrome(code, E.alice_error(code, x, z)) for x, z in errors]
    return {"result": result, "verified": verified, "circuit_json": payload,
            "encoded": code.augmented.rows, "syndromes": syndromes}


def check_scale(inst, errors, out):
    problems, counts, encoded = check_result(inst, out["result"], out["circuit_json"])
    if out["verified"] is not True:
        problems.append("verify_encoding_circuit returned False")
    if encoded is not None:
        if [(tuple(x), tuple(z)) for x, z in out["encoded"]] != encoded:
            problems.append("encoded generators differ from the circuit replay")
        pad = (0,) * out["result"].c
        for (x, z), got in zip(errors, out["syndromes"]):
            err = (tuple(x) + pad, tuple(z) + pad)
            if tuple(got) != tuple(ref.product(err, g, inst.p) for g in encoded):
                problems.append("syndrome differs from the reference products")
    return problems, counts


def build_scale(ctx):
    rng = random.Random(f"scale:{ctx.seed}")
    jobs = []
    for i, spec in enumerate(TINY["scale"] if ctx.tiny else SCALE_SHAPES * COPIES):
        inst = corpus.make(rng, spec, f"scale{i}")
        path = ctx.write(f"{inst.name}.eacm", inst.text)
        errors = [(tuple(rng.randrange(inst.p) for _ in range(inst.n)),
                   tuple(rng.randrange(inst.p) for _ in range(inst.n)))
                  for _ in range(SCALE_ERRORS)]
        jobs.append(Job(inst.name, "circuit+syndrome", partial(run_scale, ctx.E, path, errors),
                        partial(check_scale, inst, errors)))
    return jobs


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def run_cli_in_process(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


AUDIT_VERDICTS = ["replay: ok", "row_space: ok", "symplectic: ok", "abelian: ok",
                  "circuit: ok", "random_ops: ok"]


def check_audit(ctx, inst, cache, out):
    rc, stdout, stderr = out
    problems = []
    if rc != 0 or stdout.splitlines() != AUDIT_VERDICTS or stderr:
        problems.append(f"verify exited {rc} with {stdout!r} {stderr!r}")
    if inst.name not in cache:
        # the reduction and circuit `verify` audited, recomputed outside the
        # timed region and checked by value
        E = ctx.E
        result = E.reduce_matrix(E.parse_check_matrix(inst.text), E.NORMALIZED)
        payload = E.circuit_to_json(E.synthesize_encoding_circuit(result))
        cache[inst.name] = check_result(inst, result, payload)[:2]
    lib_problems, counts = cache[inst.name]
    return problems + lib_problems, counts


def build_audit(ctx):
    rng = random.Random(f"audit:{ctx.seed}")
    jobs, cache = [], {}
    for i, spec in enumerate(TINY["audit"] if ctx.tiny else AUDIT_SHAPES * COPIES):
        inst = corpus.make(rng, spec, f"audit{i}")
        path = ctx.write(f"{inst.name}.eacm", inst.text)
        argv = ["verify", path, "--mode", "normalized",
                "--random-checks", str(AUDIT_RANDOM_CHECKS), "--seed", str(rng.randrange(2 ** 31))]
        jobs.append(Job(inst.name, "verify", partial(run_cli_in_process, ctx.cli, argv),
                        partial(check_audit, ctx, inst, cache)))
    return jobs


# ---------------------------------------------------------------------------
# desk
# ---------------------------------------------------------------------------

@dataclass
class ProcOut:
    rc: int
    stdout: str
    stderr: str
    timed_out: bool
    maxrss_kb: int = field(compare=False)


def run_cli_process(ctx, argv):
    """One cold CLI process, killed at DESK_JOB_LIMIT_S; reaped with wait4 for its rusage."""
    traced = ctx.tracer is not None
    if traced:
        spans_path = ctx.work / "child_spans.json"
        cmd = [sys.executable, str(ctx.root / "bench" / "childtrace.py"), str(spans_path), *argv]
    else:
        cmd = [sys.executable, "-m", "eaqec.cli", *argv]
    out_path, err_path = ctx.work / "stdout.txt", ctx.work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=ctx.env, cwd=ctx.work)
        timer = threading.Timer(DESK_JOB_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if traced and proc.returncode >= 0:
        ctx.tracer.add_child(json.loads(spans_path.read_text(encoding="utf-8")))
    return ProcOut(proc.returncode, out_path.read_text(encoding="utf-8"),
                   err_path.read_text(encoding="utf-8"), proc.returncode < 0, usage.ru_maxrss)


def _params_problems(params, p, n, rows):
    c, a, k = ref.code_counts(rows, n, p)
    want = {"n": n, "k": k, "c": c, "a": a, "p": p, "m": 1}
    got = {key: params.get(key) for key in want}
    return [] if got == want else [f"params {got}, reference {want}"]


def check_desk(spec, out):
    """Exit code in the expected set, no traceback, and the output by value."""
    kind, argv, expected, inst = spec
    problems, counts = [], {}
    if out.timed_out:
        return [f"killed after {DESK_JOB_LIMIT_S} s"], counts
    if out.rc not in expected:
        problems.append(f"exit {out.rc}, expected one of {sorted(expected)}")
    if "Traceback" in out.stderr:
        problems.append("traceback on stderr")
    if problems or out.rc != 0 or inst is None:
        return problems, counts
    p, n, rows = inst
    if kind == "reduce_json":
        doc = json.loads(out.stdout)
        problems += _params_problems(doc["params"], p, n, rows)
        c = doc["params"]["c"]
        canonical = [(tuple(r["x"]), tuple(r["z"])) for r in doc["canonical"]]
        if canonical != ref.canonical_layout(n, c, len(rows) - 2 * c):
            problems.append("canonical rows differ from the canonical layout")
        if "--oracle" in argv:
            dim = p ** (n + c)
            if dim > ORACLE_MAX_DIM:
                if "oracle skipped" not in out.stderr:
                    problems.append("oversized oracle check was not skipped")
                counts["skipped"] = 1
            elif doc["verdicts"].get("oracle") is not True:
                problems.append("dense oracle verdict is not ok")
        if not all(doc["verdicts"].values()):
            problems.append(f"verdicts {doc['verdicts']}")
        ops = doc["op_counts"]
        counts.update(oplog_ops=ops["total"], clifford_ops=ops["clifford_ops"],
                      add_ops=ops["by_kind"].get("ADD", 0))
    elif kind == "reduce_text":
        m = re.search(r"\(n=(\d+) k=(\d+) c=(\d+) a=(\d+) p=(\d+) m=(\d+)\)", out.stdout)
        params = dict(zip(("n", "k", "c", "a", "p", "m"), map(int, m.groups()))) if m else {}
        problems += _params_problems(params, p, n, rows)
        if not re.search(r"^verified: (\w+=ok\s*)+$", out.stdout, re.M):
            problems.append("not every verdict is ok")
    elif kind == "circuit":
        sub, cnt, _ = check_reduction(p, n, rows, None, *ref.code_counts(rows, n, p),
                                      None, out.stdout, [])
        problems += sub
        counts["gates"] = cnt["gates"]
    elif kind == "verify":
        lines = out.stdout.splitlines()
        if not lines or any(not line.endswith(": ok") for line in lines):
            problems.append(f"verify printed {lines}")
    elif kind == "oracle":
        c, _, k = ref.code_counts(rows, n, p)
        if p ** (n + c) > ORACLE_MAX_DIM:
            if not out.stdout.startswith("skipped: dimension"):
                problems.append("oversized oracle run was not skipped")
            counts["skipped"] = 1
        else:
            m = re.search(r"stabilized subspace dimension: (\d+)", out.stdout)
            if not m or int(m.group(1)) != p ** k or "oracle checks: ok" not in out.stdout:
                problems.append(f"oracle printed {out.stdout!r}, want dimension {p ** k}")
    elif kind == "css":
        c, _, k = ref.code_counts(rows, n, p)
        want = f"[[{n},{k};{c}]]_{p}"
        got = json.loads(out.stdout)["display"] if "--json" in argv else out.stdout.strip()
        if got != want:
            problems.append(f"css printed {got!r}, reference {want!r}")
    elif kind == "syndrome":
        vals = out.stdout.split()
        if vals[:1] != ["syndrome:"] or len(vals) != len(rows) + 1 or any(
                not 0 <= int(v) < p for v in vals[1:]):
            problems.append(f"syndrome printed {out.stdout!r}")
    return problems, counts


MALFORMED = {
    "short_row.eacm": "EACM 5 1 2 1\n1 2 | 3\n",
    "bad_magic.eacm": "EACX 5 1 2 1\n1 2 | 3 4\n",
    "out_of_range.eacm": "EACM 5 1 2 1\n1 7 | 0 0\n",
    "nonprime.eacm": "EACM 6 1 1 1\n1 | 0\n",
    "dependent.eacm": "EACM 3 1 2 2\n1 0 | 0 0\n2 0 | 0 0\n",
}
# seeded small instances: p, shape; N = n + c decides whether the oracle runs
DESK_SHAPES = {
    "d2": ("scrambled", 2, 6, 2, 1),   # 2^8 = 256, dense oracle runs
    "d3": ("random", 3, 4, 4),
    "d3s": ("scrambled", 3, 3, 1, 1),  # 3^4 = 81
    "d5": ("random", 5, 3, 3),
    "d7": ("scrambled", 7, 3, 1, 1),   # 7^4 > 1024, oracle skipped
}


def build_desk(ctx):
    rng = random.Random(f"desk:{ctx.seed}")
    fixtures = {}
    for src in sorted((ctx.root / "bench" / "fixtures").iterdir()):
        fixtures[src.name] = ctx.write(src.name, src.read_text(encoding="utf-8"))
    insts = {}
    for name, spec in DESK_SHAPES.items():
        inst = corpus.make(rng, spec, name)
        fixtures[name] = ctx.write(f"{name}.eacm", inst.text)
        insts[name] = (inst.p, inst.n, inst.rows)
    for name, text in MALFORMED.items():
        fixtures[name] = ctx.write(name, text)

    def rows_of(name, css):
        if name in insts:
            return insts[name]
        return corpus.parse_rows(Path(fixtures[name]).read_text(encoding="utf-8"), css)

    err = "X:1:{},Z:2:{}".format(rng.randrange(1, 5), rng.randrange(1, 5))
    specs = [
        ("reduce_text", ["reduce", "canonical_f5.eacm"], {0}, "canonical_f5.eacm"),
        ("reduce_json", ["reduce", "f5_pair.eacm", "--json"], {0}, "f5_pair.eacm"),
        ("circuit", ["circuit", "f5_pair.eacm", "-o", "-"], {0}, "f5_pair.eacm"),
        ("error", ["reduce", "f7_pairs.eacm", "--json"], {3}, None),
        ("verify", ["verify", "f7_pairs.eacm"], {0}, None),
        ("error", ["reduce", "f4_single.eacm"], {2}, None),
        ("error", ["oracle", "f4_single.eacm"], {2}, None),
        ("reduce_json", ["reduce", "canonical_f5.eacm", "--json", "--oracle"], {0},
         "canonical_f5.eacm"),
        ("css", ["css", "hamming_f2.clsc"], {0}, "hamming_f2.clsc"),
        ("css", ["css", "hamming_f2_eacm.clsc", "--json"], {0}, "hamming_f2_eacm.clsc"),
        ("css", ["css", "selforth_f2.clsc"], {0}, "selforth_f2.clsc"),
        ("syndrome", ["syndrome", "f5_pair.eacm", "--error", err], {0}, "f5_pair.eacm"),
        ("error", ["syndrome", "f5_pair.eacm", "--error", "X:9:1"], {2}, None),
        ("reduce_json", ["reduce", "d2", "--json", "--mode", "normalized"], {0}, "d2"),
        ("circuit", ["circuit", "d2", "--mode", "normalized", "-o", "-"], {0}, "d2"),
        ("oracle", ["oracle", "d2"], {0}, "d2"),
        ("reduce_json", ["reduce", "d3", "--json", "--mode", "normalized"], {0}, "d3"),
        ("circuit", ["circuit", "d3", "--mode", "normalized", "-o", "-"], {0}, "d3"),
        ("reduce_json", ["reduce", "d3s", "--json", "--oracle", "--mode", "normalized"], {0},
         "d3s"),
        ("syndrome", ["syndrome", "d5", "--error", err], {0}, "d5"),
        ("oracle", ["oracle", "d7"], {0}, "d7"),
        ("verify", ["verify", "d7"], {0}, None),
        ("reduce_json", ["reduce", "d7", "--json", "--mode", "normalized"], {0}, "d7"),
        ("error", ["reduce", "short_row.eacm"], {2}, None),
        ("error", ["syndrome", "bad_magic.eacm", "--error", ""], {2}, None),
        ("error", ["circuit", "out_of_range.eacm", "-o", "-"], {2}, None),
        ("error", ["css", "nonprime.eacm"], {2}, None),
        ("error", ["verify", "dependent.eacm"], {2}, None),
    ]
    if ctx.tiny:
        specs = specs[:1]
    jobs = []
    for i, (kind, argv, expected, inst_name) in enumerate(specs):
        argv = [argv[0], fixtures[argv[1]], *argv[2:]]
        inst = rows_of(inst_name, kind == "css") if inst_name else None
        jobs.append(Job(f"desk{i}", argv[0], partial(run_cli_process, ctx, argv),
                        partial(check_desk, (kind, argv, expected, inst))))
    return jobs


def hang_probe(ctx):
    """The out-of-scope header that makes `is_prime` run for hours today."""
    path = ctx.write("out_of_scope.eacm", HANG_HEADER)
    return run_cli_process(ctx, ["reduce", path])


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

def run_conjugation(E, fld, op, n, tableau):
    unitary = E.oracle.clifford_unitary(fld, op, n)
    moved = E.apply_clifford(tableau, op)
    found = []
    for row in tableau.rows:
        got, factor = E.oracle.conjugate_to_pauli(fld, unitary, row)
        found.append((got.x, got.z, abs(factor)))
    return moved.rows, found


def check_conjugation(rf, gate, rows, out):
    moved, found = out
    problems = []
    for row, mv, (gx, gz, mag) in zip(rows, moved, found):
        want = ref.replay([row], [gate], rf)[0]
        if (gx, gz) != want or mv != want or abs(mag - 1) > 1e-9:
            problems.append(f"{gate} on {row}: dense {(gx, gz)}, tableau {mv}, reference {want}")
            break
    return problems, {}


def run_dense_code(E, np, path):
    with open(path, encoding="utf-8") as fh:
        matrix = E.parse_check_matrix(fh.read())
    result = E.reduce_matrix(matrix, E.NORMALIZED)
    payload = E.circuit_to_json(E.synthesize_encoding_circuit(result))
    fld, total = matrix.field, matrix.n + result.c
    gens = list(result.augmented.rows)
    dim = E.oracle.stabilized_subspace_dim(fld, gens, total)
    mats = [E.oracle.pauli_unitary(fld, g, total) for g in gens]
    commute = [bool(np.allclose(u @ v, v @ u, atol=1e-9))
               for i, u in enumerate(mats) for v in mats[i + 1:]]
    return {"result": result, "circuit_json": payload, "augmented": gens, "dim": dim,
            "commute": commute}


def check_dense_code(inst, out):
    problems, counts, _ = check_result(inst, out["result"], out["circuit_json"])
    c_ref, a_ref, k_ref = ref.code_counts(inst.rows, inst.n, inst.p)
    aug = ref.augment(ref.canonical_layout(inst.n, c_ref, a_ref), inst.n, c_ref, inst.p)
    if [(tuple(x), tuple(z)) for x, z in out["augmented"]] != aug:
        problems.append("augmented canonical rows differ from the reference augmentation")
    if out["dim"] != inst.p ** k_ref:
        problems.append(f"stabilized dimension {out['dim']}, want q^k = {inst.p ** k_ref}")
    if not all(out["commute"]):
        problems.append("augmented generators do not commute densely")
    return problems, counts


def gate_set(E, q, n):
    """Every DFT, MUL and PHASE per qudit and both ADDs: criterion 4's generator set."""
    ck = E.checkmatrix
    ops = []
    for t in range(1, n + 1):
        ops.append(ck.dft(t))
        ops += [ck.mul(g, t) for g in range(1, q)]
        ops += [ck.phase(g, t) for g in range(q)]
    if n == 2:
        ops += [ck.add(1, 2), ck.add(2, 1)]
    return ops


def build_dense(ctx):
    import numpy as np

    E = ctx.E
    rng = random.Random(f"dense:{ctx.seed}")
    jobs = []
    for p, m, n, sample in DENSE_GATE_FIELDS[:1] if ctx.tiny else DENSE_GATE_FIELDS:
        fld, rf = E.make_field(p, m), ref.RefField(p, m)
        everything = [(f[:n], f[n:]) for f in itertools.product(range(fld.q), repeat=2 * n)]
        for op in gate_set(E, fld.q, n)[:1] if ctx.tiny else gate_set(E, fld.q, n):
            rows = everything if sample is None else rng.sample(everything, sample)
            tableau = E.CheckMatrix.from_rows(fld, rows, n=n)
            gate = (op.kind, op.target, op.gamma, op.control)
            jobs.append(Job(f"gf{fld.q}n{n}:{op}", "conjugate",
                            partial(run_conjugation, E, fld, op, n, tableau),
                            partial(check_conjugation, rf, gate, rows)))
    for i, spec in enumerate(TINY["dense_codes"] if ctx.tiny else DENSE_CODES):
        inst = corpus.make(rng, spec, f"dense{i}")
        path = ctx.write(f"{inst.name}.eacm", inst.text)
        jobs.append(Job(inst.name, "subspace", partial(run_dense_code, E, np, path),
                        partial(check_dense_code, inst)))
    return jobs


def warmup(ctx):
    """One small job through every layer, so caches fill and lazy set-up ends before timing."""
    E = ctx.E
    path = ctx.write("warmup.eacm",
                     (ctx.root / "bench" / "fixtures" / "f5_pair.eacm").read_text(encoding="utf-8"))
    run_scale(E, path, [((1, 0, 0, 0), (0, 0, 0, 0))])
    run_cli_in_process(ctx.cli, ["verify", path, "--random-checks", "2"])
    f4 = E.make_field(2, 2)
    run_conjugation(E, f4, E.checkmatrix.phase(2, 1), 1,
                    E.CheckMatrix.from_rows(f4, [((1,), (1,))], n=1))
    E.oracle.stabilized_subspace_dim(E.make_field(2), [((0,), (1,))], 1)


BUILDERS = {"scale": build_scale, "audit": build_audit, "desk": build_desk, "dense": build_dense}
