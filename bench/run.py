"""The eaqec benchmark.

    python3 bench/run.py --workload {scale,audit,desk,dense} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; eaqec is imported from ./src.  One
client runs the workload's fixed, seeded batch in whole cycles, back to
back (closed loop; CLI processes one at a time).  A run makes
round(S / NOMINAL_CYCLE_S) cycles, about S seconds at the commit that
defined the benchmark.  Outputs are checked with the benchmark's own
arithmetic after the timed region.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics for --trace 0 and the per-layer metrics for --trace 1.  A traced
run first repeats the untraced measurement, then runs the warm-up job and
one batch cycle under tracing, and reports the difference as overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS thread: the machine is shared and the loop is single-client.
# Set before numpy is imported, and inherited by every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

perf = time.perf_counter
SETUP_REPEATS = 5          # set-ups per run (this process plus fresh ones); median
COLD_PROBES = 5            # fresh interpreters per cold-start figure; median
TAIL_BEYOND = 10           # samples the tail percentile leaves beyond it
# Seconds one batch cycle took at the commit that defined the benchmark.  A
# run makes round(--seconds / this) whole cycles, so the work per run, the
# job count and the tail percentile stay fixed when the code gets faster.
NOMINAL_CYCLE_S = {"scale": 20.0, "audit": 16.0, "desk": 5.6, "dense": 8.0}

END_TO_END = {
    "setup_s": "s", "jobs_per_s": "jobs/s", "job_ms.p50": "ms", "job_ms.tail": "ms",
    "gates": "count", "oplog_ops": "count", "peak_rss_mb": "MB",
}
SPAN_METRICS = (
    "field.check.calls", "field.mul.calls", "field.mul.self_ms", "field.add.calls",
    "field.trace.calls",
    "pauli.symplectic_product.calls", "pauli.symplectic_product.self_ms",
    "linalg.rref_mod_p.calls", "linalg.rref_mod_p.self_ms",
    "checkmatrix.CheckMatrix.init.calls", "checkmatrix.CheckMatrix.init.self_ms",
    "checkmatrix.apply_clifford.calls", "checkmatrix.apply_clifford.self_ms",
    "checkmatrix.apply_row_op.calls", "checkmatrix.apply_row_op.self_ms",
    "checkmatrix.row_space_equal.calls", "checkmatrix.row_space_equal.self_ms",
    "checkmatrix.symplectic_table.calls", "checkmatrix.symplectic_table.self_ms",
    "checkmatrix.parse_check_matrix.self_ms",
    "reduction.reduce_matrix.self_ms", "reduction.inverse_ops.self_ms",
    "reduction.augmented_source.self_ms", "reduction.encoded_generators.self_ms",
    "circuit.synthesize_encoding_circuit.self_ms", "circuit.verify_encoding_circuit.self_ms",
    "circuit.apply_circuit.self_ms",
    "eacode.build_code.self_ms", "eacode.syndrome.calls", "eacode.syndrome.self_ms",
    "oracle.conjugate_to_pauli.calls", "oracle.conjugate_to_pauli.self_ms",
    "oracle.clifford_unitary.self_ms", "oracle.pauli_unitary.calls",
    "oracle.pauli_unitary.self_ms", "oracle.stabilized_subspace_dim.self_ms",
    "cli.main.self_ms",
)
LAYERS = ("field", "pauli", "linalg", "checkmatrix", "reduction", "circuit", "eacode",
          "oracle", "cli", "harness")
OTHER_PER_LAYER = {
    "reduction.oplog.add_share": "share", "circuit.gates_per_clifford_op": "ratio",
    "oracle.skipped": "count", "cli.interp_ms": "ms", "cli.import_ms": "ms",
    "cli.hang.killed": "count", "trace.overhead": "share", "trace.coverage": "share",
    "trace.wall_ms": "ms", "trace.spans": "count",
}


def per_layer_units():
    units = {m: ("count" if m.endswith(".calls") else "ms") for m in SPAN_METRICS}
    units.update({f"layer.{layer}.self_ms": "ms" for layer in LAYERS})
    units.update(OTHER_PER_LAYER)
    return units


@dataclass
class Crash:
    traceback: str


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one small job per workload (the benchmark's own smoke test)")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up seconds and exit (used for setup_s)")
    return ap.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def set_up(args):
    """Write the seeded corpus, import eaqec and warm up; returns (ctx, jobs, seconds)."""
    t0 = perf()
    work = HERE / ".work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    ctx = W.Context(root=ROOT, work=work, seed=args.seed, tiny=args.tiny, env=child_env())
    W.import_eaqec(ctx)
    jobs = W.BUILDERS[args.workload](ctx)
    W.warmup(ctx)
    return ctx, jobs, perf() - t0


def setup_probe(args):
    """Set-up time of a fresh process, the way this one was set up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def run_job(job):
    try:
        return job.run()
    except Exception:  # a crash is a failed job, not the end of the run
        return Crash(traceback.format_exc())


class Batch:
    """Runs a batch and keeps, per job, the first output and whether later ones matched."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.first = [None] * len(jobs)
        self.runs = [0] * len(jobs)
        self.mismatches = [0] * len(jobs)
        self.latency = []          # (job index, seconds)
        self.busy = 0.0
        self.peak_child_kb = 0

    def record(self, i, out, seconds):
        self.latency.append((i, seconds))
        self.busy += seconds
        self.runs[i] += 1
        self.peak_child_kb = max(self.peak_child_kb, getattr(out, "maxrss_kb", 0))
        if self.runs[i] == 1:
            self.first[i] = out
        elif out != self.first[i]:
            self.mismatches[i] += 1

    def cycle(self, tracer=None):
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = i + 1
                token = tracer.open("harness.job")
            t0 = perf()
            out = run_job(job)
            seconds = perf() - t0
            if tracer is not None:
                tracer.close(token)
            self.record(i, out, seconds)

    def measure(self, cycles):
        for _ in range(cycles):
            self.cycle()

    def check(self):
        """(attempted, failed, counts summed over one cycle, problem lines)."""
        failed, totals, lines = 0, {}, []
        for i, job in enumerate(self.jobs):
            out = self.first[i]
            if isinstance(out, Crash):
                problems, counts = [f"crashed:\n{out.traceback}"], {}
            else:
                try:
                    problems, counts = job.check(out)
                except Exception:
                    problems, counts = [f"check crashed:\n{traceback.format_exc()}"], {}
            if problems:
                failed += self.runs[i]
            elif self.mismatches[i]:
                failed += self.mismatches[i]
                problems.append(f"{self.mismatches[i]} later runs gave a different output")
            if problems:
                lines.append(f"FAIL {job.name} ({job.cmd}): " + "; ".join(problems))
            for key, val in counts.items():
                totals[key] = totals.get(key, 0) + val
        return sum(self.runs), failed, totals, lines


def tail(samples):
    """The highest whole percentile leaving TAIL_BEYOND samples beyond it, and its value."""
    n = len(samples)
    pct = max(50, math.floor(100 * (1 - TAIL_BEYOND / n))) if n > 1 else 50
    if n < 2:
        return pct, samples[0]
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def cold_ms(argv, env):
    t0 = perf()
    subprocess.run([sys.executable, *argv], env=env, check=True, stdout=subprocess.DEVNULL)
    return (perf() - t0) * 1e3


def cold_start(env):
    """cli.interp_ms (bare interpreter) and cli.import_ms (import eaqec.cli minus that)."""
    interp, full = [], []
    for _ in range(COLD_PROBES):
        interp.append(cold_ms(["-c", "pass"], env))
        full.append(cold_ms(["-c", "import eaqec.cli"], env))
    i_ms = statistics.median(interp)
    return i_ms, statistics.median(full) - i_ms


def ratio(num, den):
    return num / den if den else 0.0


def traced_pass(ctx, batch, untraced_jobs_per_s):
    """The warm-up job and one batch cycle under tracing; metrics from the spans."""
    tracer = Tracer()
    tracer.install()
    ctx.tracer = tracer
    t0 = perf()
    tracer.job = 0
    token = tracer.open("harness.job")
    W.warmup(ctx)
    tracer.close(token)
    t_batch = perf()
    batch.cycle(tracer)
    t1 = perf()
    tracer.uninstall()
    ctx.tracer = None
    tracer.dump(ctx.work / "spans.bin")

    stats = tracer.stats()
    wall = t1 - t0
    self_total = sum(s for _, s in stats.values())
    metrics = {}
    for name in SPAN_METRICS:
        span, kind = name.rsplit(".", 1)
        calls, self_s = stats.get(span, (0, 0.0))
        metrics[name] = calls if kind == "calls" else self_s * 1e3
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_ms"] = 1e3 * sum(
            s for n, (_, s) in stats.items() if n.split(".")[0] == layer)
    overhead = untraced_jobs_per_s * (t1 - t_batch) / len(batch.jobs) - 1
    interp_ms, import_ms = cold_start(ctx.env)
    metrics.update({
        "cli.interp_ms": interp_ms, "cli.import_ms": import_ms,
        "trace.overhead": overhead, "trace.coverage": self_total / wall,
        "trace.wall_ms": wall * 1e3, "trace.spans": len(tracer.s_id),
    })
    dominant = max(LAYERS, key=lambda layer: metrics[f"layer.{layer}.self_ms"])
    print(f"traced: {wall:.2f} s, overhead {overhead:+.1%} of untraced jobs/s, "
          f"self times cover {self_total / wall:.1%} of the traced wall; dominant layer "
          f"{dominant} ({metrics[f'layer.{dominant}.self_ms'] / 1e3 / wall:.1%})")
    return metrics


def desk_report(ctx, batch):
    """The known-hang probe and per-command medians; returns 1 if the probe was killed."""
    hang = W.hang_probe(ctx)
    print("known defect: out-of-scope header " + W.HANG_HEADER.strip() + (
        f" killed after {W.DESK_JOB_LIMIT_S} s (is_prime trial division)"
        if hang.timed_out else f" exited {hang.rc}"))
    by_cmd = {}
    for i, sec in batch.latency:
        by_cmd.setdefault(batch.jobs[i].cmd, []).append(sec * 1e3)
    print("desk per-command p50 ms: " + ", ".join(
        f"{cmd}={statistics.median(v):.1f}" for cmd, v in sorted(by_cmd.items())))
    return int(hang.timed_out)


def end_to_end(args, setup_s, batch, jobs_per_s, counts):
    setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_REPEATS - 1)]
    lat_ms = [sec * 1e3 for _, sec in batch.latency]
    pct, tail_ms = tail(lat_ms)
    print(f"job_ms.tail is p{pct} of {len(lat_ms)} samples; set-ups {setups}")
    if args.workload == "desk":
        peak_mb = batch.peak_child_kb / 1024
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": statistics.median(setups), "jobs_per_s": jobs_per_s,
        "job_ms.p50": statistics.median(lat_ms), "job_ms.tail": tail_ms,
        "gates": counts.get("gates", 0), "oplog_ops": counts.get("oplog_ops", 0),
        "peak_rss_mb": peak_mb,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "eaqec" / "cli.py").is_file():
        print(f"eaqec sources not found under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    ctx, jobs, setup_s = set_up(args)
    if args.setup_only:
        print(repr(setup_s))
        return 0

    batch = Batch(jobs)
    cycles = max(1, round(args.seconds / NOMINAL_CYCLE_S[args.workload]))
    t0 = perf()
    batch.measure(cycles)
    wall = perf() - t0
    jobs_per_s = len(batch.latency) / batch.busy
    print(f"{args.workload}: {len(jobs)} jobs per cycle, {cycles} cycles, "
          f"{len(batch.latency)} jobs in {wall:.2f} s ({batch.busy:.2f} s in jobs)")
    if args.trace:
        metrics = traced_pass(ctx, batch, jobs_per_s)

    attempted, failed, counts, problems = batch.check()
    for line in problems:
        print(line)
    hang_killed = desk_report(ctx, batch) if args.workload == "desk" else 0
    print(f"fail_rate: {failed}/{attempted} = {ratio(failed, attempted):.4f}")

    if args.trace:
        metrics.update({
            "reduction.oplog.add_share": ratio(counts.get("add_ops", 0),
                                               counts.get("oplog_ops", 0)),
            "circuit.gates_per_clifford_op": ratio(counts.get("gates", 0),
                                                   counts.get("clifford_ops", 0)),
            "oracle.skipped": counts.get("skipped", 0),
            "cli.hang.killed": hang_killed,
        })
        units = per_layer_units()
    else:
        metrics = end_to_end(args, setup_s, batch, jobs_per_s, counts)
        units = END_TO_END
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
