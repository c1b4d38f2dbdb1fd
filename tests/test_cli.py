import hashlib
import json
import subprocess
import sys

import pytest

from eaqec import cli
from eaqec.cli import build_parser, main
from eaqec.errors import DimensionTooLargeError, EaqecError
from conftest import FIXTURES, fixture_text


def run(args):
    return main([str(a) for a in args])


def test_reduce_f5_strict(capsys, fixture_path):
    assert run(["reduce", fixture_path("f5_pair.eacm")]) == 0
    out = capsys.readouterr().out
    assert "[[4,1;1]]_5" in out
    assert "replay=ok" in out


def test_reduce_json_roundtrip(capsys, fixture_path):
    path = fixture_path("f5_pair.eacm")
    assert run(["reduce", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["params"] == {"n": 4, "k": 1, "c": 1, "a": 2, "p": 5, "m": 1}
    assert report["display"] == "[[4,1;1]]_5"
    digest = hashlib.sha256(fixture_text("f5_pair.eacm").encode()).hexdigest()
    assert report["input_digest"] == digest
    assert report["canonical"][0] == {"x": [1, 0, 0, 0], "z": [0, 0, 0, 0]}
    assert all(report["verdicts"].values())


def _hamming_path(tmp_path):
    """The [[3,1;2]]_2 code of H = (1 0 1; 0 1 1): five qudits, dimension 32."""
    from eaqec import css_import, make_field, serialize_check_matrix
    path = tmp_path / "hamming.eacm"
    path.write_text(serialize_check_matrix(css_import(make_field(2), [(1, 0, 1), (0, 1, 1)])))
    return path


def test_reduce_with_oracle_verdict(capsys, tmp_path):
    assert run(["reduce", _hamming_path(tmp_path), "--mode", "normalized", "--json",
                "--oracle"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["oracle"] is True


def test_reduce_f7_strict_exit3(capsys, fixture_path):
    assert run(["reduce", fixture_path("f7_pairs.eacm"), "--mode", "strict"]) == 3


def test_reduce_f7_normalized(capsys, fixture_path):
    assert run(["reduce", fixture_path("f7_pairs.eacm"), "--mode", "normalized"]) == 0
    assert "[[5,3;2]]_7" in capsys.readouterr().out


def test_reduce_missing_file():
    assert run(["reduce", "/nonexistent/matrix.eacm"]) == 2


def test_reduce_corrupted_file(tmp_path):
    bad = tmp_path / "bad.eacm"
    bad.write_text("EACM 5 1 2 2\n1 9 | 0 0\n")
    assert run(["reduce", str(bad)]) == 2


def test_circuit_f5(capsys, fixture_path, tmp_path):
    out = tmp_path / "f5.circuit.json"
    assert run(["circuit", fixture_path("f5_pair.eacm"), "-o", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["version"] == 1 and doc["p"] == 5 and doc["n"] == 4 and doc["c"] == 1
    assert all(1 <= g.get("t", g.get("tgt")) <= 4 for g in doc["gates"])


def test_circuit_canonical_input_is_empty(capsys, fixture_path, tmp_path):
    out = tmp_path / "canon.circuit.json"
    assert run(["circuit", fixture_path("canonical_f5.eacm"), "-o", out]) == 0
    assert json.loads(out.read_text())["gates"] == []


def test_circuit_f7_strict_writes_nothing(fixture_path, tmp_path):
    out = tmp_path / "f7.circuit.json"
    assert run(["circuit", fixture_path("f7_pairs.eacm"), "-o", out]) == 3
    assert not out.exists()


def test_verify_f5(capsys, fixture_path):
    assert run(["verify", fixture_path("f5_pair.eacm"),
                "--random-checks", 10, "--seed", 1]) == 0
    out = capsys.readouterr().out
    for line in ("replay: ok", "abelian: ok", "circuit: ok", "random_ops: ok"):
        assert line in out


def test_oracle_hamming(capsys, tmp_path):
    assert run(["oracle", _hamming_path(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "stabilized subspace dimension: 2" in out
    assert "oracle checks: ok" in out


@pytest.mark.parametrize("name,fake,lines", [
    ("paulis_commute", lambda *args: False,
     ["FAIL: generators 1 and 2 do not commute densely"]),
    ("stabilized_subspace_dim", lambda *args, **kwargs: 0,
     ["FAIL: stabilized subspace dimension mismatch"]),
    ("is_stabilized", lambda *args: False,
     ["FAIL: ebit stabilizer ((1, 1), (0, 0)) fails on the entangled pair",
      "FAIL: ebit stabilizer ((0, 0), (1, 1)) fails on the entangled pair"]),
])
def test_oracle_failures_are_reported_and_exit_4(capsys, tmp_path, monkeypatch, name, fake, lines):
    from eaqec import oracle
    monkeypatch.setattr(oracle, name, fake)
    assert run(["oracle", _hamming_path(tmp_path)]) == 4
    out = capsys.readouterr().out.splitlines()
    assert set(lines) <= set(out)
    assert "oracle checks: ok" not in out


def test_circuit_failing_its_postcondition_exits_4_and_writes_nothing(
        capsys, fixture_path, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "verify_encoding_circuit", lambda result, circuit: False)
    out = tmp_path / "f5.circuit.json"
    assert run(["circuit", fixture_path("f5_pair.eacm"), "-o", out]) == 4
    assert capsys.readouterr().err.startswith("circuit failed its postcondition")
    assert not out.exists()


@pytest.mark.parametrize("exc,code,stream,text", [
    (DimensionTooLargeError("dimension 3125 exceeds cap 1024"), 0, "out",
     "skipped: dimension 3125 exceeds cap 1024\n"),
    (EaqecError("no such thing"), 4, "err", "verification error: no such thing\n"),
])
def test_main_maps_library_errors_to_exit_codes(capsys, fixture_path, monkeypatch,
                                                exc, code, stream, text):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "reduce_matrix", fail)
    assert run(["reduce", fixture_path("f5_pair.eacm")]) == code
    assert getattr(capsys.readouterr(), stream) == text


@pytest.mark.parametrize("command,name", [("circuit", "circuit_to_json"),
                                          ("verify", "synthesize_encoding_circuit")])
def test_running_out_of_memory_is_a_resource_error(capsys, fixture_path, tmp_path,
                                                   monkeypatch, command, name):
    """A MemoryError (here raised by a patched allocation, as a circuit that
    grows with p raises it for real) exits 2 with one line, no traceback."""
    def allocate(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, name, allocate)
    out = tmp_path / "big.circuit.json"
    args = ["-o", out] if command == "circuit" else []
    assert run([command, fixture_path("f5_pair.eacm"), *args]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "resource error: out of memory\n")
    assert not out.exists()


def test_oracle_skips_when_too_large(capsys, fixture_path):
    assert run(["oracle", fixture_path("f7_pairs.eacm"), "--max-dim", 100]) == 0
    assert "skipped" in capsys.readouterr().out


def test_css_command(capsys, fixture_path):
    assert run(["css", fixture_path("hamming_f2.clsc")]) == 0
    assert "[[3,1;2]]_2" in capsys.readouterr().out
    assert run(["css", fixture_path("hamming_f2_eacm.clsc")]) == 0
    assert "[[3,1;2]]_2" in capsys.readouterr().out
    assert run(["css", fixture_path("selforth_f2.clsc"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["params"]["c"] == 0


def test_syndrome_identity(capsys, tmp_path):
    from eaqec import css_import, make_field, serialize_check_matrix
    m = css_import(make_field(2), [(1, 0, 1), (0, 1, 1)])
    path = tmp_path / "hamming.eacm"
    path.write_text(serialize_check_matrix(m))
    assert run(["syndrome", str(path), "--error", ""]) == 0
    assert capsys.readouterr().out.strip() == "syndrome: 0 0 0 0"
    assert run(["syndrome", str(path), "--error", "X:1:1"]) == 0
    vec = capsys.readouterr().out.split(":")[1].split()
    assert any(v != "0" for v in vec)


def test_syndrome_bad_specs(tmp_path, fixture_path):
    path = fixture_path("f5_pair.eacm")
    assert run(["syndrome", path, "--error", "X:9:1"]) == 2   # receiver side / range
    assert run(["syndrome", path, "--error", "Y:1:1"]) == 2   # unknown axis
    assert run(["syndrome", path, "--error", "X:1:7"]) == 2   # element out of range


def test_extension_field_input_is_an_input_error(fixture_path):
    # reduction is defined over prime fields only; surfaced as exit 2
    assert run(["verify", fixture_path("f4_single.eacm")]) == 2


def test_cli_import_does_not_load_numpy():
    """Only `oracle` and `reduce --oracle` need the dense oracle and numpy."""
    code = "import sys, eaqec, eaqec.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "eaqec.cli", "reduce", str(FIXTURES / "f5_pair.eacm")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "[[4,1;1]]_5" in proc.stdout


def test_out_of_scope_prime_exits_2_at_once(tmp_path):
    # p far above q <= 2^16 used to send is_prime into trial division for hours
    path = tmp_path / "huge.eacm"
    path.write_text("EACM 1000000000000000003 1 1 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "eaqec.cli", "reduce", str(path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "outside the supported scope" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [["reduce"], ["circuit", "-o", "-"]],
                         ids=["reduce", "circuit"])
def test_dependent_rows_are_an_input_error(tmp_path, capsys, command):
    # one qudit, one pair, and a third row: r = 3 > n + c = 2
    path = tmp_path / "dependent.eacm"
    path.write_text("EACM 3 1 1 3\n1 | 0\n0 | 1\n1 | 1\n")
    assert run([command[0], path, *command[1:]]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "input error: input rows are linearly dependent over F_p\n")


@pytest.mark.parametrize("header", ["EACM 5 1 1_0 0", "EACM +5 1 1 0", "EACM ٣ 1 1 0"])
def test_non_ascii_digit_tokens_exit_2(tmp_path, capsys, header):
    path = tmp_path / "bad.eacm"
    path.write_text(header + "\n", encoding="utf-8")
    assert run(["reduce", path]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "EACM 2 1 3000000 0\n",        # used to allocate in proportion to n
    "EACM 2 1 4097 0\n",
    "EACM 2 1 3 4097\n",
    "CLSC 2 1 4097 1\n",
    "CLSC 2 1 3 4097\n",
])
def test_qudit_and_row_counts_are_bounded_at_parse_time(tmp_path, capsys, text):
    path = tmp_path / "big.eacm"
    path.write_text(text)
    command = ["css", path] if text.startswith("CLSC") else ["syndrome", path, "--error", ""]
    assert run(command) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "4096" in err


def test_n_4096_is_still_in_scope(tmp_path, capsys):
    eacm = tmp_path / "wide.eacm"
    eacm.write_text("EACM 2 1 4096 0\n")
    assert run(["syndrome", eacm, "--error", ""]) == 0
    assert capsys.readouterr().out.strip() == "syndrome:"
    clsc = tmp_path / "wide.clsc"
    clsc.write_text("CLSC 2 1 4096 1\n1" + " 0" * 4095 + "\n")
    assert run(["css", clsc]) == 0
    assert "[[4096,4095;1]]_2" in capsys.readouterr().out


def test_negative_random_check_count_is_an_input_error(capsys, fixture_path):
    with pytest.raises(SystemExit) as exc:
        run(["verify", fixture_path("f5_pair.eacm"), "--random-checks", -3])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--random-checks" in captured.err and "non-negative" in captured.err
    assert "random_ops" not in captured.out
    assert run(["verify", fixture_path("f5_pair.eacm"), "--random-checks", 0]) == 0


@pytest.mark.parametrize("command", [
    ["reduce"], ["circuit", "-o", "-"], ["verify"], ["oracle"], ["css"],
    ["syndrome", "--error", ""],
])
def test_non_utf8_input_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.eacm"
    path.write_bytes(b"EACM 5 1 1 1\n\xff | 0\n")
    assert run([command[0], path] + command[1:]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("input error:")
    assert "UTF-8" in err


@pytest.mark.parametrize("count", ["1000001", str(10 ** 23)])
def test_random_check_count_is_capped(capsys, count):
    # parse only: if the cap were missing, running the command would not end
    parser = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["verify", "x.eacm", "--random-checks", count])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--random-checks" in captured.err and "at most 1000000" in captured.err
    assert captured.out == ""
    args = parser.parse_args(["verify", "x.eacm", "--random-checks", "1000000"])
    assert args.random_checks == 10 ** 6


@pytest.mark.parametrize("max_dim", ["-5", "0"])
def test_oracle_max_dim_must_be_positive(capsys, fixture_path, max_dim):
    with pytest.raises(SystemExit) as exc:
        run(["oracle", fixture_path("f5_pair.eacm"), "--max-dim", max_dim])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--max-dim" in captured.err and "positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command,value,code", [
    ("syndrome --error", "X:\u0661:1", 2),          # Arabic-Indic qudit
    ("syndrome --error", "X:1:\u0661", 2),          # Arabic-Indic element
    ("syndrome --error", "Z: 2:1", 2),
    ("syndrome --error", "X:+1:1", 2),
    ("syndrome --error", "X:1:1,Z:2:3", 0),
    ("verify --random-checks", "\u0661\u0660", 2),
    ("verify --random-checks", "1_0", 2),
    ("verify --random-checks", "2", 0),
    ("verify --seed", " 3", 2),
    ("verify --seed", "+3", 2),
    ("verify --seed", "\u0663", 2),
    ("verify --seed", "-3", 0),
    ("oracle --max-dim", "\u0669", 2),
    ("oracle --max-dim", "\uff11\uff10\uff10", 2),  # fullwidth 100
    ("oracle --max-dim", "100", 0),
])
def test_integer_options_take_ascii_digits_only(capsys, fixture_path, command, value, code):
    name, option = command.split()
    try:
        got = run([name, fixture_path("f5_pair.eacm"), option, value])
    except SystemExit as exc:
        got = exc.code
    assert got == code
    if code:
        assert capsys.readouterr().err.strip()


def test_parser_is_built_once(capsys, fixture_path):
    assert build_parser() is build_parser()
    for _ in range(2):
        assert run(["css", fixture_path("hamming_f2.clsc")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0] == out[1]
