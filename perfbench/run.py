"""treezeta benchmark: one workload, one seed, metrics by name and unit.

    python3 perfbench/run.py --workload points --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one table each

Run from the repository root (any directory works; paths are resolved from
this file).  Load model: a closed loop, one client, one process.  Each run
starts fresh worker processes with BLAS/OpenMP pinned to one thread, so every
cache starts cold, as it does for a ``treezeta`` user on each call.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the workload untraced and then traced, in two fresh workers, and prints
the per-layer metrics, including the tracing overhead (on cli-cold one traced
worker runs the argv mix in process and measures the overhead itself).  The
last stdout line is one JSON object; a fuller record goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("battery", "tables", "points", "cli-cold")

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_SAMPLES = 7
RUN_BUDGET_S = 170.0

# Process start until ``import treezeta`` returns, split at the first line
# the interpreter runs.  time.monotonic is one clock for every process here.
PROBE = (
    "import time, json, sys; t1 = time.monotonic(); import treezeta; t2 = time.monotonic(); "
    "print(json.dumps([t1, t2, treezeta.__file__, sys.modules['numpy'].__version__]))"
)


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded its {RUN_BUDGET_S:.0f} s budget")
    return left


def probe_setup(env: dict[str, str], deadline: float) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=remaining(deadline),
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import treezeta from {SRC}: {proc.stderr.strip()[-400:]}")
    t1, t2, path, numpy_version = json.loads(proc.stdout.splitlines()[-1])
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported treezeta from {path}, not from {SRC}")
    return {"interp_s": t1 - t0, "import_s": t2 - t1, "setup_s": t2 - t0, "numpy": numpy_version}


def run_worker(workload: str, seed: int, seconds: int, trace: bool, env, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if trace:
        cmd += ["--spans", str(RESULTS / f"{workload}-seed{seed}-spans.json")]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def machine(numpy_version: str) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "thread_env": THREAD_PINS,
    }


def git_commit() -> str:
    """HEAD of the checkout, or 'none' outside a git repository."""
    if not (ROOT / ".git").exists():  # else git would report an enclosing repository
        return "none"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "treezeta").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    env = child_env()
    probes = [probe_setup(env, deadline) for _ in range(SETUP_SAMPLES)]
    workers = []
    # the traced cli-cold worker measures its own overhead, in process
    if not (trace and workload == "cli-cold"):
        base = run_worker(workload, seed, seconds, False, env, deadline)
        workers.append(base)
    if trace:
        traced = run_worker(workload, seed, seconds, True, env, deadline)
        workers.append(traced)
        measured = dict(traced["layers"])
        measured["cli.interp_s"] = statistics.median(p["interp_s"] for p in probes)
        measured["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        if "trace_overhead_s" in traced:
            measured["trace.overhead_s"] = traced["trace_overhead_s"]
        else:
            measured["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
        wanted = spec()["per_layer"]
    else:
        measured = {k: base[k] for k in ("wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")}
        measured["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        wanted = spec()["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"{workload} measured no value for {missing}")
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": [f for w in workers for f in w["failures"]],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
        "timed_cpu_s": workers[0]["cpu_s"],
        "op_tail_percentile": workers[0]["op_tail_percentile"],
        "op_samples": workers[0]["op_samples"],
        "setup_samples_s": [p["setup_s"] for p in probes],
        "reads_digest": workers[0].get("reads_digest"),
        "machine": machine(probes[0]["numpy"]),
        "unix_time": time.time(),
    }


def report(res: dict) -> None:
    print(f"treezeta benchmark  workload={res['workload']} seed={res['seed']} "
          f"seconds={res['seconds']} trace={res['trace']}")
    for name, m in res["metrics"].items():
        print(f"  {name:<46} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':<46} {res['fail_ratio']:>16.6g} ({res['failed']}/{res['attempted']} ops)")
    if not res["trace"]:
        print(f"  op_tail_ms is p{res['op_tail_percentile']:.4g} of {res['op_samples']} ops")
    for f in res["failures"]:
        print(f"  FAILED: {f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="treezeta benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "treezeta" / "__init__.py").is_file():
        print(f"error: no treezeta sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    if seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        try:
            res = run_one(name, args.seed, seconds, bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(res, indent=2) + "\n", encoding="utf-8")
        report(res)
        runs.append(res)
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in runs for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
