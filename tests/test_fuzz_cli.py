"""Hypothesis fuzz of the CLI and the two text readers.

Small random EACM files (p in {2, 3, 5, 7}, n <= 4, r <= 2n + 2, uniform
entries, so dependent and zero rows are common) go through `main()` for
every command that reduces; each must end in a documented exit code with
no exception escaping.  `parse_check_matrix`, `parse_classical` and
`circuit_from_json` on arbitrary text may raise only `EaqecError`.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from eaqec.checkmatrix import parse_check_matrix
from eaqec.circuit import circuit_from_json
from eaqec.cli import main
from eaqec.eacode import parse_classical
from eaqec.errors import EaqecError

FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# explicit alphabets: header words, digits (some not ASCII), separators,
# JSON punctuation and blanks
TEXT = st.text(alphabet='EACMCLSpoly0123456789١٣ |#-+_.e\n\t\u00a0{}[]":,truefalsn',
               max_size=120)

COMMANDS = (["reduce"], ["circuit", "-o", "-"], ["verify"], ["syndrome", "--error", ""])


@st.composite
def eacm_texts(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 4))
    r = draw(st.integers(0, 2 * n + 2))
    entries = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    lines = [f"EACM {p} 1 {n} {r}"]
    for _ in range(r):
        x, z = draw(entries), draw(entries)
        lines.append(" ".join(map(str, x)) + " | " + " ".join(map(str, z)))
    return "\n".join(lines) + "\n"


@FUZZ
@given(eacm_texts(), st.sampled_from(("strict", "normalized")))
def test_cli_exits_with_a_documented_code(text, mode):
    fd, path = tempfile.mkstemp(suffix=".eacm")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        for command in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([command[0], path, *command[1:], "--mode", mode])
            assert code in (0, 2, 3, 4), (command, code)
    finally:
        os.remove(path)


@FUZZ
@given(TEXT | eacm_texts().map(lambda t: t.replace("|", "", 1))
       | eacm_texts().map(lambda t: "CLSC" + t[4:].split("|")[0]))
def test_matrix_parsers_raise_only_eaqec_errors(text):
    for parse in (parse_check_matrix, parse_classical):
        try:
            parse(text)
        except EaqecError:
            pass


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.sampled_from(("", "1", "DFT")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(("g", "t", "ctl", "tgt", "gamma")), inner, max_size=4),
    max_leaves=12)

gate_objects = st.fixed_dictionaries(
    {"g": st.sampled_from(("DFT", "MUL", "PHASE", "ADD", "SWAP"))},
    optional={key: json_values for key in ("t", "ctl", "tgt", "gamma")})

circuit_documents = st.fixed_dictionaries({
    "version": st.sampled_from((1, 1, 2, "1")),
    "p": st.sampled_from((2, 3, 4, 5, 7, -1, 0, 2 ** 17)),
    "m": st.sampled_from((1, 1, 2)),
    "n": st.integers(-1, 4),
    "c": st.integers(-1, 2),
    "gates": st.lists(gate_objects | json_values, max_size=4) | json_values,
}).map(json.dumps)


@FUZZ
@given(TEXT | circuit_documents)
def test_circuit_reader_raises_only_eaqec_errors(text):
    try:
        circuit_from_json(text)
    except EaqecError:
        pass
