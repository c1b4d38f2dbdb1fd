"""Golden digest of the reduction pipeline on a seeded corpus past desk scale.

For every instance and both modes the digest covers the op log
(`str(op)`), the canonical rows, `(c, a, k)` and `circuit_to_json` of the
encoding circuit (or the fact that strict mode refused the instance).
It was re-recorded when the log began to carry one scaled ADD(gamma) per
cleared entry instead of gamma unit ADDs; any change to what the pipeline
emits, however small, changes the digest.

The invariant digest covers only what the pipeline computes, not how it
writes it down: (c, a, k), the forward log with every ADD written as unit
ADDs, the canonical rows and the encoded rows.  A change of the op
vocabulary that computes the same thing keeps it.

The instances are built here with plain integer arithmetic, not with the
library, so the corpus itself does not depend on the code under test.
"""

import hashlib
import random

from eaqec import (
    CheckMatrix,
    circuit_to_json,
    make_field,
    reduce_matrix,
    synthesize_encoding_circuit,
)
from eaqec.checkmatrix import ADD
from eaqec.errors import NotConstructibleError
from eaqec.linalg import rank_mod_p
from eaqec.reduction import NORMALIZED, STRICT

# ("random", p, n, r) or ("scrambled", p, n, c, a)
SHAPES = (
    ("random", 2, 8, 8), ("random", 3, 10, 10), ("random", 5, 9, 9),
    ("random", 7, 8, 8), ("random", 3, 12, 7), ("random", 5, 6, 8),
    ("scrambled", 2, 32, 2, 6), ("scrambled", 3, 24, 3, 4), ("scrambled", 5, 20, 2, 5),
    ("scrambled", 7, 16, 2, 3), ("scrambled", 2, 16, 4, 4), ("scrambled", 7, 12, 3, 2),
)

GOLDEN = "e18744232684d04d548743c4a0908de87b876143863e39a4e7611101b8765d2c"

# what a change of the op vocabulary must keep: see `invariant_lines`
INVARIANT = "e251328b7b818234c54b3188cd177141169fe56f20ce507fc6a042abadf50115"


def _full_rank(rng, p, n, r):
    while True:
        rows = [[rng.randrange(p) for _ in range(2 * n)] for _ in range(r)]
        if rank_mod_p(rows, p) == r:
            return rows


def _scrambled(rng, p, n, c, a):
    """Canonical layout for (c, a), hidden by column rules and row additions."""
    rows = []
    for t in range(c):
        rows.append([int(i == t) for i in range(n)] + [0] * n)
        rows.append([0] * n + [int(i == t) for i in range(n)])
    for t in range(c, c + a):
        rows.append([0] * n + [int(i == t) for i in range(n)])
    for _ in range(4 * n):
        kind, t = rng.randrange(4), rng.randrange(n)
        g, ctl = rng.randrange(1, p), rng.choice([i for i in range(n) if i != t])
        zt, zc = n + t, n + ctl
        for v in rows:
            if kind == 0:                      # DFT
                v[t], v[zt] = v[zt], (-v[t]) % p
            elif kind == 1:                    # MUL
                v[t], v[zt] = (v[t] * pow(g, -1, p)) % p, (v[zt] * g) % p
            elif kind == 2:                    # PHASE
                v[zt] = (v[zt] + g * v[t]) % p
            else:                              # ADD(ctl -> t)
                v[t] = (v[t] + v[ctl]) % p
                v[zc] = (v[zc] - v[zt]) % p
    r = len(rows)
    for _ in range(r * r):
        d, s = rng.sample(range(r), 2)
        g = rng.randrange(p)
        rows[d] = [(u + g * w) % p for u, w in zip(rows[d], rows[s])]
    rng.shuffle(rows)
    return rows


def corpus():
    rng = random.Random(20110527)
    out = []
    for i, (kind, p, n, *rest) in enumerate(SHAPES):
        flat = _full_rank(rng, p, n, *rest) if kind == "random" else _scrambled(rng, p, n, *rest)
        rows = [(tuple(v[:n]), tuple(v[n:])) for v in flat]
        out.append((f"{kind}{i}", CheckMatrix.from_rows(make_field(p), rows, n=n)))
    return out


def pipeline_lines(name, matrix, mode):
    try:
        res = reduce_matrix(matrix, mode)
    except NotConstructibleError:
        return [f"{name} {mode} not constructible"]
    lines = [f"{name} {mode} c={res.c} a={res.a} k={res.k}",
             ";".join(str(op) for op in res.oplog)]
    lines += [" ".join(map(str, x)) + " | " + " ".join(map(str, z))
              for x, z in res.canonical.rows]
    lines.append(circuit_to_json(synthesize_encoding_circuit(res)))
    return lines


def _unit_ops(op):
    """An op of the log as text, a scaled ADD(gamma) as gamma unit ADDs."""
    if op.kind == ADD:
        return [f"ADD({op.control}->{op.target})"] * (op.gamma or 1)
    return [str(op)]


def _row_lines(matrix):
    return [" ".join(map(str, x)) + " | " + " ".join(map(str, z)) for x, z in matrix.rows]


def invariant_lines(name, matrix, mode):
    """What the pipeline computes, whatever its op vocabulary: (c, a, k), the
    forward log with every ADD written as unit ADDs, the canonical rows and
    the encoded rows."""
    try:
        res = reduce_matrix(matrix, mode)
    except NotConstructibleError:
        return [f"{name} {mode} not constructible"]
    return [f"{name} {mode} c={res.c} a={res.a} k={res.k}",
            ";".join(text for op in res.oplog for text in _unit_ops(op)),
            *_row_lines(res.canonical), *_row_lines(res.encoded)]


def corpus_digest(lines=pipeline_lines):
    h = hashlib.sha256()
    for name, matrix in corpus():
        for mode in (STRICT, NORMALIZED):
            for line in lines(name, matrix, mode):
                h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def test_corpus_shapes():
    shapes = [(m.field.p, m.n, m.row_count) for _, m in corpus()]
    assert {p for p, _, _ in shapes} == {2, 3, 5, 7}
    assert max(n for _, n, _ in shapes) == 32
    for _, m in corpus():
        assert rank_mod_p([x + z for x, z in m.rows], m.field.p) == m.row_count


def test_golden_digest():
    assert corpus_digest() == GOLDEN


def test_invariant_digest():
    assert corpus_digest(invariant_lines) == INVARIANT
