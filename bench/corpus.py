"""Seeded instance generation for the benchmark workloads.

Instances are built with the benchmark's own arithmetic (refmath), so
the (c, a) of a scrambled canonical instance is known from its
construction, not from eaqec.  Shapes are fixed per workload; only the
entries depend on the seed, which keeps the work per batch nearly equal
across seeds while the inputs differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from refmath import apply_gate, canonical_layout, prime_field, rank_mod_p


@dataclass
class Instance:
    name: str
    p: int
    n: int
    r: int
    c: Optional[int]   # known by construction (scrambled) or None (random)
    a: Optional[int]
    kind: str          # "random" | "scrambled"
    rows: list

    @property
    def known(self):
        """(c, a) by construction, for scrambled instances."""
        return (self.c, self.a) if self.c is not None else None

    @property
    def text(self) -> str:
        return eacm_text(self.p, self.n, self.rows, f"{self.kind} instance {self.name}")


def eacm_text(p, n, rows, comment=""):
    lines = [f"# {comment}"] if comment else []
    lines.append(f"EACM {p} 1 {n} {len(rows)}")
    for x, z in rows:
        lines.append(" ".join(map(str, x)) + " | " + " ".join(map(str, z)))
    return "\n".join(lines) + "\n"


def random_full_rank(rng: random.Random, name, p, n, r) -> Instance:
    """r independent uniformly random rows; c is whatever the Gram rank gives."""
    while True:
        rows = [(tuple(rng.randrange(p) for _ in range(n)),
                 tuple(rng.randrange(p) for _ in range(n))) for _ in range(r)]
        if rank_mod_p([list(x) + list(z) for x, z in rows], p) == r:
            return Instance(name, p, n, r, None, None, "random", rows)


def scrambled_canonical(rng: random.Random, name, p, n, c, a) -> Instance:
    """The canonical layout for (c, a), hidden by seeded column and row operations.

    Column operations are Clifford, so they keep every symplectic
    product; row operations are invertible, so they keep the span and the
    Gram rank.  Both leave (c, a) unchanged.
    """
    f = prime_field(p)
    work = [[list(x), list(z)] for x, z in canonical_layout(n, c, a)]
    r = len(work)
    for _ in range(8 * n):
        kind = rng.choice(("DFT", "MUL", "PHASE", "ADD", "ADD"))
        t = rng.randrange(1, n + 1)
        if kind == "ADD" and n > 1:
            ctl = rng.choice([q for q in range(1, n + 1) if q != t])
            apply_gate(work, ("ADD", t, None, ctl), f)
        elif kind in ("MUL", "PHASE"):
            apply_gate(work, (kind, t, rng.randrange(1, p), None), f)
        else:
            apply_gate(work, ("DFT", t, None, None), f)
    for _ in range(r * r if r > 1 else 0):
        d, s = rng.sample(range(r), 2)
        g = rng.randrange(1, p)
        for side in (0, 1):
            work[d][side] = [(u + g * v) % p for u, v in zip(work[d][side], work[s][side])]
    rng.shuffle(work)
    for row in work:
        g = rng.randrange(1, p)
        row[0] = [(g * v) % p for v in row[0]]
        row[1] = [(g * v) % p for v in row[1]]
    rows = [(tuple(x), tuple(z)) for x, z in work]
    return Instance(name, p, n, r, c, a, "scrambled", rows)


def make(rng, spec, name):
    """Instance from a shape: ("random", p, n, r) or ("scrambled", p, n, c, a)."""
    if spec[0] == "random":
        return random_full_rank(rng, name, *spec[1:])
    return scrambled_canonical(rng, name, *spec[1:])


def _tokens(text):
    for line in text.splitlines():
        yield from line.split("#", 1)[0].split()


def parse_rows(text, css=False):
    """(p, n, rows) of a prime-field EACM or CLSC file.

    A CLSC parity-check matrix H, or with `css` the X side of an EACM file,
    is doubled to the rows (H_i | 0) then (0 | H_i), as `eaqec css` does.
    """
    toks = list(_tokens(text))
    magic, p, m, n, r = toks[0], *map(int, toks[1:5])
    if m != 1:
        raise ValueError("only prime-field inputs are checked by value")
    vals = [int(t) for t in toks[5:] if t != "|"]
    if magic == "EACM":
        rows = [(tuple(vals[i * 2 * n:i * 2 * n + n]), tuple(vals[i * 2 * n + n:(i + 1) * 2 * n]))
                for i in range(r)]
        if not css:
            return p, n, rows
        h = [x for x, _ in rows]
    else:
        h = [tuple(vals[i * n:(i + 1) * n]) for i in range(r)]
    zero = (0,) * n
    return p, n, [(row, zero) for row in h] + [(zero, row) for row in h]
