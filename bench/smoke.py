"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

For each workload it runs one small job (`run.py --tiny`, seed 1) twice
untraced and twice traced, and asserts that:

- every end-to-end metric of BENCHMARK.json is printed with its unit, and
  every per-layer metric in the traced runs;
- `gates`, `oplog_ops` and every `*.calls` count repeat exactly;
- the in-scope jobs all pass their checks (fail_rate 0).

Exits 0 when all hold, 1 otherwise, printing what failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = ("gates", "oplog_ops")


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            first, second = run(name, trace), run(name, trace)
            for doc in (first, second):
                if not doc["correct"] or doc["failed"]:
                    failures.append(f"{name} trace={trace}: {doc['failed']} jobs failed")
                for metric in listed:
                    got = doc["metrics"].get(metric["name"])
                    if got is None or got["unit"] != metric["unit"]:
                        failures.append(f"{name} trace={trace}: {metric['name']} missing "
                                        f"or not in {metric['unit']}: {got}")
            for key, val in first["metrics"].items():
                if (key in COUNTS or key.endswith(".calls")) and \
                        second["metrics"][key]["value"] != val["value"]:
                    failures.append(f"{name} trace={trace}: {key} did not repeat: "
                                    f"{val['value']} then {second['metrics'][key]['value']}")
        print(f"{name}: ok" if not any(f.startswith(name + " ") for f in failures)
              else f"{name}: FAILED")
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
