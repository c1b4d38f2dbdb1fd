"""Span tracing of eaqec from outside, for the benchmark's traced runs.

`Tracer.install()` replaces each traced function with a wrapper in every
`eaqec` module namespace that holds it (a function imported by name lives
in several), and each traced method on its class.  Wrappers of the
per-call functions record a span: name, start, end, parent span and job
id.  Spans stay in memory and are written out by `Tracer.dump()`.  The
field methods are called millions of times per job, so they are counted
(and `GaloisField.mul` timed) without a span; their time is charged to
the enclosing span as child time, like a span's.

Self time is a span's duration minus the time covered by its children.
It is accumulated per name while the run goes, and the stack of open
spans makes the per-name self times add up to the root spans' durations.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, attribute) pairs: a function looked up in module namespaces, or
# "Class.method" patched on its class.  See metric_name for the span names.
SPANNED = (
    ("pauli", "symplectic_product"),
    ("linalg", "rref_mod_p"),
    ("checkmatrix", "CheckMatrix.__post_init__"),
    ("checkmatrix", "CheckMatrix.symplectic_table"),
    ("checkmatrix", "apply_clifford"),
    ("checkmatrix", "apply_row_op"),
    ("checkmatrix", "row_space_equal"),
    ("checkmatrix", "parse_check_matrix"),
    ("reduction", "reduce_matrix"),
    ("reduction", "inverse_ops"),
    ("reduction", "augmented_source"),
    ("reduction", "encoded_generators"),
    ("circuit", "synthesize_encoding_circuit"),
    ("circuit", "verify_encoding_circuit"),
    ("circuit", "apply_circuit"),
    ("circuit", "circuit_to_json"),
    ("eacode", "build_code"),
    ("eacode", "syndrome"),
    ("oracle", "conjugate_to_pauli"),
    ("oracle", "clifford_unitary"),
    ("oracle", "pauli_unitary"),
    ("oracle", "stabilized_subspace_dim"),
    ("cli", "main"),
)
TIMED_LEAVES = (("field", "GaloisField.mul"),)
COUNTED_LEAVES = (
    ("field", "GaloisField.check"),
    ("field", "GaloisField.add"),
    ("field", "GaloisField.trace"),
)

perf = time.perf_counter


def metric_name(module, attr):
    """checkmatrix.CheckMatrix.init for the post-init hook, else module.function."""
    if "." not in attr:
        return f"{module}.{attr}"
    cls, meth = attr.split(".")
    return f"{module}.{cls}.init" if meth == "__post_init__" else f"{module}.{meth}"


class Tracer:
    def __init__(self):
        self.names = []          # index -> metric name
        self.calls = []          # index -> call count
        self.self_s = []         # index -> accumulated self seconds
        self.stack = []          # open spans: [span id, child seconds]
        self.job = 0
        # finished spans, kept in memory until dump()
        self.s_id = array("q")
        self.s_name = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("q")
        self.s_job = array("i")
        self._next_id = 0
        self._undo = []

    def _index(self, name):
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    # -- spans opened by the harness itself (jobs, imports) --

    def open(self, name):
        idx = self._index(name)
        sid = self._next_id
        self._next_id += 1
        self.stack.append([sid, 0.0])
        return idx, sid, perf()

    def close(self, token):
        idx, sid, t0 = token
        t1 = perf()
        _, child = self.stack.pop()
        dur = t1 - t0
        self.calls[idx] += 1
        self.self_s[idx] += dur - child
        parent = self.stack[-1][0] if self.stack else -1
        if self.stack:
            self.stack[-1][1] += dur
        self.s_id.append(sid)
        self.s_name.append(idx)
        self.s_start.append(t0)
        self.s_end.append(t1)
        self.s_parent.append(parent)
        self.s_job.append(self.job)

    def add_child(self, doc):
        """Merge what a traced child process recorded, under the open span.

        `doc` is `child_doc()` of the child's tracer; timestamps share the
        monotonic clock, so child spans nest inside the parent's job span.
        """
        for name, (calls, self_s) in doc["stats"].items():
            idx = self._index(name)
            self.calls[idx] += calls
            self.self_s[idx] += self_s
        base, parent = self._next_id, self.stack[-1]
        ids, name_idx, starts, ends, parents = doc["spans"]
        for sid, ni, t0, t1, par in zip(ids, name_idx, starts, ends, parents):
            self.s_id.append(base + sid)
            self.s_name.append(self.names.index(doc["names"][ni]))
            self.s_start.append(t0)
            self.s_end.append(t1)
            self.s_parent.append(parent[0] if par < 0 else base + par)
            self.s_job.append(self.job)
            if par < 0:
                parent[1] += t1 - t0
        self._next_id = base + (max(ids) + 1 if ids else 0)

    def child_doc(self):
        """Stats and spans of this process, for `add_child` in the parent."""
        return {"names": self.names,
                "stats": {n: [c, s] for n, c, s in zip(self.names, self.calls, self.self_s)
                          if c},
                "spans": [list(self.s_id), list(self.s_name), list(self.s_start),
                          list(self.s_end), list(self.s_parent)]}

    # -- wrappers --

    def _span_wrapper(self, fn, idx):
        stack, calls, self_s = self.stack, self.calls, self.self_s
        s_id, s_name, s_start, s_end, s_parent, s_job = (
            self.s_id, self.s_name, self.s_start, self.s_end, self.s_parent, self.s_job)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    s_parent.append(parent[0])
                else:
                    s_parent.append(-1)
                s_id.append(sid)
                s_name.append(idx)
                s_start.append(t0)
                s_end.append(t1)
                s_job.append(tracer.job)

        return traced

    def _timed_wrapper(self, fn, idx):
        stack, calls, self_s = self.stack, self.calls, self.self_s

        def timed(*args):
            t0 = perf()
            out = fn(*args)
            dur = perf() - t0
            calls[idx] += 1
            self_s[idx] += dur
            if stack:
                stack[-1][1] += dur
            return out

        return timed

    def _counted_wrapper(self, fn, idx):
        calls = self.calls

        def counted(*args):
            calls[idx] += 1
            return fn(*args)

        return counted

    def install(self):
        """Wrap every traced function of the already imported eaqec modules."""
        mods = {name: mod for name, mod in list(sys.modules.items())
                if name == "eaqec" or name.startswith("eaqec.")}
        for group, make in ((SPANNED, self._span_wrapper),
                            (TIMED_LEAVES, self._timed_wrapper),
                            (COUNTED_LEAVES, self._counted_wrapper)):
            for module, attr in group:
                idx = self._index(metric_name(module, attr))
                home = mods["eaqec." + module]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, make(orig, idx))
                    self._undo.append((cls, meth, orig))
                    continue
                orig = getattr(home, attr)
                wrapped = make(orig, idx)
                for mod in mods.values():
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)
                            self._undo.append((mod, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- results --

    def stats(self):
        """{name: (calls, self seconds)}."""
        return {n: (c, s) for n, c, s in zip(self.names, self.calls, self.self_s)}

    def dump(self, path):
        """Write every finished span: a JSON header line, then the raw columns.

        Columns follow in header order, each `count` native values of the
        given array typecode; `name` indexes the header's `names`.
        """
        cols = (("id", self.s_id), ("name", self.s_name), ("start_s", self.s_start),
                ("end_s", self.s_end), ("parent_id", self.s_parent), ("job", self.s_job))
        header = {"names": self.names, "count": len(self.s_id),
                  "columns": [[key, col.typecode] for key, col in cols]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for _, col in cols:
                col.tofile(fh)
