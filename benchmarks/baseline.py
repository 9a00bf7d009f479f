"""Record a baseline: run every workload at several seeds, untraced,
plus one traced run each, and summarise them in one JSON file.

    python3 benchmarks/baseline.py --runs 10 --out benchmarks/baseline.json

For each end-to-end figure it stores the median, the quartiles and the
spread (interquartile range over the median) across seeds, and for each
workload the per-layer metrics and self time by call of the traced
run. Runs go one at a time, so they do not compete for the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "report": report}


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {"run_seconds": seconds, "seeds": list(range(args.runs)), "workloads": {}}
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, seconds, 0) for seed in out["seeds"]]
        figures = {}
        for name in runs[0]["report"]["figures"]:
            values = [r["report"]["figures"][name]["value"] for r in runs]
            figures[name] = dict(unit=runs[0]["report"]["figures"][name]["unit"], **summarise(values))
        traced = run_once(workload, 0, seconds, 1)["report"]
        out["machine"] = runs[0]["report"]["machine"]
        out["workloads"][workload] = {
            "end_to_end": figures,
            "per_layer": traced["layers"],
            "self_s_by_call": traced["self_s_by_call"],
            "absent_layers": traced["absent_layers"],
        }
        for metric in spec["end_to_end"]:
            f = figures[metric["name"]]
            print(f"{workload:13s} {metric['name']:12s} median {f['median']:.6g} spread {f['spread']:.3f} (bound {metric['bound']})")
    out["machine"].pop("workload", None)
    out["machine"].pop("seed", None)
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
