"""The library names that the benchmark under `bench/` reaches for.

`bench/tracing.py` looks up every entry of its span tables with `getattr`
when a traced run installs its wrappers, and `bench/workloads.py` calls
the package through its root (`E.<name>`).  A deleted or moved name
breaks only those runs, so this file pins them.  Both files are only
read: nothing is written under `bench/`.
"""

import importlib.util
import re
import sys
from pathlib import Path

import eaqec
import eaqec.cli  # noqa: F401  (the benchmark imports these two before tracing)
import eaqec.oracle  # noqa: F401

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module, attr):
    """What `Tracer.install` needs: the module loaded, and the function in its
    namespace or the method in its class's own `__dict__`."""
    home = sys.modules.get("eaqec." + module)
    if home is None:
        return False
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(home, cls_name, None)
        return isinstance(cls, type) and callable(vars(cls).get(meth))
    return callable(getattr(home, attr, None))


def test_every_traced_name_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    entries = tracing.SPANNED + tracing.TIMED_LEAVES + tracing.COUNTED_LEAVES
    assert ("checkmatrix", "apply_row_op") in entries   # the tables were read
    assert [f"{mod}.{attr}" for mod, attr in entries if not _resolves(mod, attr)] == []


def _called(pattern):
    text = (BENCH / "workloads.py").read_text(encoding="utf-8")
    return set(re.findall(pattern, text))


def test_every_name_the_workloads_call_resolves():
    root = _called(r"\bE\.([A-Za-z_]\w*)")
    assert {"apply_clifford", "reduce_matrix", "oracle"} <= root   # the scan saw the calls
    assert sorted(name for name in root if not hasattr(eaqec, name)) == []
    oracle = _called(r"\bE\.oracle\.([A-Za-z_]\w*)")
    assert oracle and sorted(n for n in oracle if not hasattr(eaqec.oracle, n)) == []
    gates = _called(r"\bck\.([A-Za-z_]\w*)")   # ck = E.checkmatrix
    assert gates and sorted(n for n in gates if not hasattr(eaqec.checkmatrix, n)) == []
