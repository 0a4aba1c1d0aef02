"""Run one workload in this (fresh) process and print its measurements.

The timed loop calls each operation once, in order, with nothing else in the
loop.  The checks run after the loop, outside the timed region.  With
``--trace 1`` the library's public functions are swapped for span-recording
shims for the loop and swapped back before the checks; the untraced run never
imports the tracer.  On ``cli-cold`` the traced run calls ``cli.main`` in this
process instead of starting processes, since nothing inside a child process
is traced.  The last stdout line is one JSON object.

    PYTHONPATH=src python3 perfbench/worker.py --workload points --seed 1 --seconds 6 --trace 0
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time

from treezeta import special_values, verify

from workloads import WORKLOADS, Op, cli_cold, reads_digest

SPECTRAL_P50 = ("zeta_numeric", "xi_value", "heat_trace", "resolvent_transform")
CLI_TRACE_ROUNDS = 3


def run_ops(ops: list[Op], fns: list) -> tuple[list, dict, list[float], float, float]:
    n = len(ops)
    results: list = [None] * n
    errors: dict[int, str] = {}
    latency = [0.0] * n
    clock = time.perf_counter
    cpu = time.process_time()
    start = clock()
    for i in range(n):
        t0 = clock()
        try:
            results[i] = fns[i](*ops[i].args)
        except Exception as exc:  # a raising operation is a failed operation, not a crash
            errors[i] = repr(exc)
        latency[i] = clock() - t0
    return results, errors, latency, clock() - start, time.process_time() - cpu


# held here because the traced run replaces the module names with shims
CACHED_BUILDERS = (special_values.negative_value_table, special_values.moment_polynomials)


def cache_counts() -> tuple[int, int]:
    infos = [f.cache_info() for f in CACHED_BUILDERS]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def median_or_zero(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def tail(xs: list[float]) -> tuple[float, float, int]:
    """The tail latency: p99, or higher when fewer than ten samples lie beyond p99.

    Returns (value, percentile, sample count).  With at least 1000 samples
    this is p99 (nearest rank); below that, the highest percentile with ten
    samples beyond it.  Below twenty samples that percentile would sit at or
    under the median, so the maximum is reported instead, as percentile 100.
    """
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(xs)
    if n < 20:
        return ordered[-1], 100.0, n
    k = min(n - 11, math.ceil(0.99 * n) - 1)
    return ordered[k], 100.0 * (k + 1) / n, n


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def traced_in_process(ops: list[Op], tracer) -> tuple[tuple, float]:
    """cli-cold traced: the in-process argv mix, untraced and traced.

    One untraced pass fills the caches.  Then untraced and traced passes
    alternate, CLI_TRACE_ROUNDS of each; the tracing overhead is the
    difference of their median times.  Returns the last traced pass, which
    is the one checked, and the overhead.
    """
    fns = [op.fn for op in ops]
    run_ops(ops, fns)
    plain, traced = [], []
    for _ in range(CLI_TRACE_ROUNDS):
        plain.append(run_ops(ops, fns)[3])
        restore = tracer.install()
        try:
            last = run_ops(ops, fns)
        finally:
            restore()
        traced.append(last[3])
    return last, statistics.median(traced) - statistics.median(plain)


def layer_metrics(tracer, ops: list[Op], results: list, errors: dict, cache: tuple[int, int]) -> dict:
    def total(name):
        return sum(tracer.durations(name))

    def p50_us(name):
        return median_or_zero(tracer.durations(name)) * 1e6

    m: dict[str, float] = {}
    sv = "special_values"
    m[f"{sv}.value_polynomials.s"] = total(f"{sv}.value_polynomials")
    for method in special_values.NEG_VALUE_METHODS:
        m[f"{sv}.negative_value_table.{method}.s"] = total(f"{sv}.negative_value_table.{method}")
    m[f"{sv}.positive_value_sequence.s"] = total(f"{sv}.positive_value_sequence")
    m[f"{sv}.zeta_pos.us_p50"] = p50_us(f"{sv}.zeta_pos")
    m[f"{sv}.zeta_integer.us_p50"] = p50_us(f"{sv}.zeta_integer")
    m[f"{sv}.cache_hits"], m[f"{sv}.cache_misses"] = cache

    m["exact.series_sqrt.s"] = total("exact.series_sqrt")
    m["exact.series_sqrt.calls"] = len(tracer.durations("exact.series_sqrt"))

    m["genfun.quadratic_residual_series.s"] = total("genfun.quadratic_residual_series")
    entries = tracer.entries("genfun")
    m["genfun.calls"] = len(entries)
    m["genfun.us_per_call"] = sum(entries) / len(entries) * 1e6 if entries else 0.0

    for fn in SPECTRAL_P50:
        m[f"spectral.{fn}.us_p50"] = p50_us(f"spectral.{fn}")
    m["spectral.zeta_numeric.us_tail"] = tail(tracer.durations("spectral.zeta_numeric"))[0] * 1e6
    nodes = tracer.attrs("spectral.zeta_numeric", "nodes")
    m["spectral.zeta_numeric.nodes_mean"] = statistics.fmean(nodes) if nodes else 0.0
    hard = [results[i].nodes for i, op in enumerate(ops) if op.kind == "hard" and i not in errors]
    m["spectral.hard.nodes_mean"] = statistics.fmean(hard) if hard else 0.0
    m["spectral.nonconverged"] = sum(not c for c in tracer.attrs("spectral.zeta_numeric", "converged"))

    brute = total("dyck.weight_polynomial.bruteforce")
    words = sum(tracer.attrs("dyck.weight_polynomial.bruteforce", "words"))
    m["dyck.weight_polynomial.bruteforce.s"] = brute
    m["dyck.bruteforce.words_per_s"] = words / brute if brute else 0.0
    m["dyck.weight_polynomial.dp.s"] = total("dyck.weight_polynomial.dp")

    elapsed = {
        r.name: r.elapsed
        for i, op in enumerate(ops)
        if op.label == "verify.run_battery" and i not in errors
        for r in results[i]
    }
    for name in verify.ALL_CHECKS:
        m[f"verify.{name}.s"] = elapsed.get(name, 0.0)

    m["cli.main_ms_p50"] = median_or_zero(tracer.durations("cli.main")) * 1e3
    for layer, seconds in tracer.self_times().items():
        m[f"{layer}.self_s"] = seconds
    m["trace.spans"] = len(tracer.spans)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    in_process = bool(args.trace) and args.workload == "cli-cold"
    if in_process:
        wl = cli_cold(args.seed, args.seconds, in_process=True)
    else:
        wl = WORKLOADS[args.workload](args.seed, args.seconds)
    ops = wl.ops
    fns = [op.fn for op in ops]
    tracer = None
    overhead = None
    if args.trace:
        from tracing import LAYERS, Tracer

        tracer = Tracer()
    if in_process:
        (results, errors, latency, wall, cpu), overhead = traced_in_process(ops, tracer)
    elif tracer is not None:
        fns = [tracer.wrap(op.label, op.fn) if op.label.split(".")[0] in LAYERS else op.fn for op in ops]
        restore = tracer.install()
        try:
            results, errors, latency, wall, cpu = run_ops(ops, fns)
        finally:
            restore()
    else:
        results, errors, latency, wall, cpu = run_ops(ops, fns)
    rss = peak_rss_mb()
    cache = cache_counts()

    failures = wl.check(results, errors)
    failed = [f for f in failures if f is not None]

    if not wl.per_op:
        latency = [wall]
    tail_value, tail_pct, samples = tail(latency)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "wall_s": wall,
        "cpu_s": cpu,
        "attempted": len(ops),
        "failed": len(failed),
        "failures": failed[:5],
        "op_p50_ms": median_or_zero(latency) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "op_tail_percentile": tail_pct,
        "op_samples": samples,
        "peak_rss_mb": rss,
        "cache_hits": cache[0],
        "cache_misses": cache[1],
    }
    if overhead is not None:
        out["trace_overhead_s"] = overhead
    if args.workload == "tables":
        out["reads_digest"] = reads_digest(ops, results)
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, ops, results, errors, cache)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
