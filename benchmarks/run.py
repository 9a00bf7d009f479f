"""Benchmark of nlconcepts: two workloads, timed end to end and per layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload number-cv --seed 0 --seconds 10 --trace 0

Workloads (see workloads.py): ``number-cv`` (the tuned and uniform
Number Game CV experiments, then rounds of propose -> translate replay
and record and lookup on an empty replay store) and ``shape-pools``
(shape fit and online evaluation on synthetic pools of 10, 100, 400
and 1600 rules).

Load model: one process, one client, closed loop, BLAS pinned to one
thread. A set-up runs from the first line of this file to the first
timed call: imports of numpy, scipy and nlconcepts, fixture load, input
generation from ``--seed`` and warm-up. The process times its own
set-up, then repeats timed passes until ``--seconds`` have gone by, at
least one, and checks every pass's outputs outside the timed region.
A pass that checks outputs between its steps reports the time of its
steps alone. An untraced run also starts SETUPS_BEFORE fresh processes
of this file before its passes and SETUPS_AFTER after them, one at a
time, each of which sets up, reports its time and exits.

Set-ups and untraced passes run under hostspeed.HostSpeed, which times
a fixed probe every 20 ms and takes the probes' own time out of theirs.
The host's other load slows a run by up to twice, so wall times are
also given at a fixed host speed: wall time over the measured slowdown. ``setup_s`` and ``pass_ref_s`` are the medians of set-up and
pass time at that speed; ``setup_wall_s``, ``pass_wall_s`` and
``host_slowdown`` the medians as measured.

With ``--trace 1`` the same untraced passes run first, then traced
passes, without the probe: the functions of layers.LAYERS are wrapped
where callers find them, and the per-layer metrics are per-pass
averages over the traced passes. ``bench.tracing_overhead_s`` is the
median traced pass wall time minus the median untraced one. Spans are
written to ``.bench_out/``.

Earlier lines of standard output give machine facts and each
workload's own figures; the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 1
when an operation or an output check failed, 2 when the checkout lacks
the library or its fixtures.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # set-up time counts from here

import os  # noqa: E402

# Before numpy loads: one BLAS thread, so timings do not depend on how
# many cores are idle.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

# The probe needs numpy; the set-up's slowdown is measured from here on.
SETUP_SPEED = HostSpeed().start()

import scipy  # noqa: E402

from layers import ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = (
    "src/nlconcepts/__init__.py",
    "fixtures/configs/number_tuned.json",
    "fixtures/configs/number_uniform.json",
    "fixtures/configs/shape_online.json",
    "fixtures/shape",
    "fixtures/replay",
)
# Fresh-process set-ups of an untraced run, beside its own. Host speed
# drifts from second to second and minute to minute, so set-ups from
# both ends of the run give a steadier median than as many together.
SETUPS_BEFORE = 2
SETUPS_AFTER = 2
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up, print the set-up seconds and exit: how child set-ups run
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def child_setups(args, count: int) -> list:
    """(wall s, slowdown) of `count` set-ups, each in a fresh process of
    this file, run one at a time."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}:\n{proc.stderr}")
        wall_s, slowdown = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(wall_s), float(slowdown)))
    return times


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot say."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
    }


def measure(workload, ctx, ops, seconds, tracer=None):
    """Timed passes until `seconds` have gone by (at least one); each
    pass is checked after its timing ends."""
    passes = []
    deadline = perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.run_id = f"{tracer.run_prefix}-p{len(passes)}"
            tracer.install()
            try:
                start = perf_counter()
                out = tracer.call_in_span(ROOT_SPAN, workload.run_pass, (ctx, ops))
                wall = perf_counter() - start
            finally:
                tracer.uninstall()  # checks call the library too: keep them out of the trace
            out["pass_wall_s"] = out.pop("timed_s", wall)
        else:
            speed = HostSpeed().start()
            try:
                out = workload.run_pass(ctx, ops)
            finally:
                speed.stop()
            out["pass_wall_s"] = speed.own_s(out.pop("timed_s", speed.wall_s))
            out["host_slowdown"] = speed.slowdown
            out["pass_ref_s"] = out["pass_wall_s"] / speed.slowdown
        workload.check(ctx, out, ops)
        passes.append(out)
        if perf_counter() >= deadline:
            return passes


def _print_table(title, rows):
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"benchmark: checkout at {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        ctx = workload.setup(ROOT, args.seed, tmp)
        SETUP_SPEED.stop()
        setup_s = [(SETUP_SPEED.own_s(perf_counter() - STARTED), SETUP_SPEED.slowdown)]
        library = Path(sys.modules["nlconcepts"].__file__).resolve()
        if ROOT / "src" not in library.parents:
            print(f"benchmark: imported nlconcepts from {library}, not this checkout", file=sys.stderr)
            return 2
        if args.setup_only:
            print(*setup_s[0])
            return 0
        if not args.trace:  # a traced run reports per-layer metrics only
            setup_s += child_setups(args, SETUPS_BEFORE)

        ops = Ops()
        passes = measure(workload, ctx, ops, args.seconds)
        pass_wall_s = statistics.median(p["pass_wall_s"] for p in passes)
        figures = {
            "pass_ref_s": (statistics.median(p["pass_ref_s"] for p in passes), "s"),
            "pass_wall_s": (pass_wall_s, "s"),
            "host_slowdown": (statistics.median(p["host_slowdown"] for p in passes), "ratio"),
        }
        figures["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        figures.update(workload.report(ctx, passes))

        layer_metrics, by_call, absent = None, None, []
        if args.trace:
            tracer = Tracer(f"{tag}-{os.getpid()}")
            traced = measure(workload, ctx, ops, args.seconds, tracer)
            layer_metrics = tracer.layer_metrics(len(traced))
            layer_metrics["bench.tracing_overhead_s"] = (
                statistics.median(p["pass_wall_s"] for p in traced) - pass_wall_s
            )
            parity = workload.report(ctx, traced).get("shape_parity_max_abs", (0.0, "1"))
            layer_metrics["fit.shape_parity_max_abs"] = parity[0]
            by_call = tracer.self_s_by_call(len(traced))
            absent = tracer.absent
            out_dir.mkdir(exist_ok=True)
            tracer.write_spans(out_dir / f"spans-{tag}.jsonl")
        else:
            setup_s += child_setups(args, SETUPS_AFTER)
        figures["setup_s"] = (statistics.median(wall / slowdown for wall, slowdown in setup_s), "s")
        figures["setup_wall_s"] = (statistics.median(wall for wall, _ in setup_s), "s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    figures["error_rate"] = (ops.failed / ops.attempted, "ratio")
    facts = machine_facts(args.workload, args.seed)
    print("machine " + json.dumps(facts))
    print(f"setups (wall s, slowdown) {[(round(w, 4), round(k, 3)) for w, k in setup_s]}, untraced passes {len(passes)}")
    _print_table(f"{args.workload} end-to-end (untraced)", figures)
    if layer_metrics is not None:
        print(f"traced passes {len(traced)}; self time per module under each call of a pass:")
        for call, modules in sorted(by_call.items(), key=lambda kv: -sum(kv[1].values())):
            total = sum(modules.values())
            shares = ", ".join(f"{m} {s / total:.1%}" for m, s in sorted(modules.items(), key=lambda kv: -kv[1]))
            print(f"  {call:34s} {total:12.6f} s: {shares}")
        print(f"absent layers: {absent or 'none'}")
    for error in ops.errors:
        print(error, file=sys.stderr)

    # The metrics of the result line are the ones BENCHMARK.json names.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = {m["name"]: {"value": layer_metrics[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": figures[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
    out_dir.mkdir(exist_ok=True)
    report = {
        "machine": facts,
        "setup_s_each": setup_s,
        "pass_wall_s_each": [p["pass_wall_s"] for p in passes],
        "pass_ref_s_each": [p["pass_ref_s"] for p in passes],
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "layers": layer_metrics,
        "self_s_by_call": by_call,
        "absent_layers": absent,
        "errors": ops.errors,
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps(report, indent=2))
    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if ops.failed == 0 else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        SETUP_SPEED.stop()
    sys.exit(code)
