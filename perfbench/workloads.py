"""The four benchmark workloads: seeded inputs, operation lists and checks.

Each builder returns a ``Workload``: a fixed list of operations for the timed
loop and a ``check`` function that holds every result to an independent
route after the loop has finished.  Inputs come only from the seed; the
library receives nothing but the generated arguments.

Why these four (see METRICS.md for the metric table):

* ``battery``: ``treezeta verify all`` without rendering, the headline user
  flow.  The only workload that runs the brute-force Dyck oracle.
* ``tables``: deep exact tables built cold, then warm seeded reads.  Exercises
  ``special_values``, ``exact`` and the Dyck dynamic program; no quadrature,
  no brute force.
* ``points``: a seeded stream of quadrature calls.  Exercises ``spectral``; no
  exact tables, no Dyck code.
* ``cli-cold``: fresh ``python -m treezeta`` processes.  Exercises ``cli``,
  interpreter start and import cost.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Optional

from treezeta import cli, dyck, genfun, special_values, spectral, verify

GOLDEN = Path(__file__).with_name("golden.json")  # digests of three tables cold builds
TREE_QS = (2, 3, 5, 7, 11)

# points: operations per second of --seconds.  No user traffic has been
# measured, so every kind gets an equal share: at 5000 ops per second each
# kind has thousands of samples per run for its per-layer p50, and the p99
# of the whole stream has hundreds of samples beyond it.
POINTS_OPS_PER_SECOND = 5000
POINT_KINDS = ("zeta", "integer", "hard", "xi", "heat", "resolvent")
# cli-cold: process launches per second of --seconds, equal shares as above
CLI_CALLS_PER_SECOND = 4
CLI_KINDS = ("zeta", "heat", "values", "poly", "dyck", "dyck-bruteforce")

TABLE_DEPTH = 80  # deliberately not a power of two
# value_polynomials(n) reads a table rounded up to a power of two, so n in
# 65..80 all read the 128-entry table that value_polynomials(80) built
ZETA_POS_NS = (65, TABLE_DEPTH)
NEG_DEPTH = 60
DEEP_DP = 150
TABLE_QS = (2, 64)
ZETA_POS_READS = 300
ZETA_INT_READS = 300
SEQUENCE_READS = 12

FE_TOL = 1e-9
INTEGER_REL_TOL = 1e-10
HEAT_REL_TOL = 1e-10
LAPLACE_TOL = 1e-10
CLI_FLOAT_REL_TOL = 1e-12
HEAT_SERIES_DEPTH = 90


@dataclass
class Op:
    """One timed call.  ``label`` names the span the traced run records."""

    label: str
    fn: Callable
    args: tuple
    kind: str = ""


@dataclass
class Workload:
    ops: list[Op]
    # results and errors by op index -> one failure message or None per op
    check: Callable[[list, dict], list[Optional[str]]]
    # False: op_p50_ms and op_tail_ms time the whole list as one operation
    per_op: bool = True


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def digest(obj: Any) -> str:
    """Stable digest of exact library output (polynomials, rationals, tuples)."""
    return hashlib.sha256(json.dumps(_canon(obj), separators=(",", ":")).encode()).hexdigest()[:16]


def _canon(obj: Any) -> Any:
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, Fraction):
        return [str(obj.numerator), str(obj.denominator)]
    if isinstance(obj, int):
        return str(obj)
    if hasattr(obj, "coeffs"):
        return [str(int(c)) for c in obj.coeffs]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def _first_error(errors: dict, i: int) -> Optional[str]:
    return f"raised {errors[i]}" if i in errors else None


# -- battery -----------------------------------------------------------------


def battery(seed: int, seconds: int) -> Workload:
    # One call, as `treezeta verify all` makes it.  The grids are fixed in
    # verify.py, so the seed has nothing to vary.
    ops = [Op("verify.run_battery", verify.run_battery, ())]

    def check(results, errors):
        if 0 in errors:
            return [_first_error(errors, 0)]
        bad = [
            f"{r.name}: {r.detail}" if not r.passed else f"{r.name}: exact defect {r.exact_defect}"
            for r in results[0]
            if not r.passed or r.exact_defect not in (None, "0")
        ]
        return ["; ".join(bad) if bad else None]

    return Workload(ops, check)


# -- tables ------------------------------------------------------------------


def table_fills() -> list[Op]:
    """The cold builds that fill the caches the warm reads then read.

    ``zeta_integer(q, -m)`` reads ``negative_value_table(m, "closed_form")``,
    a cache keyed on m, so the closed-form table is built at every depth the
    reads ask for, not only at the depth shared by the three routes.
    """
    sv = special_values
    ops = [Op("special_values.value_polynomials", sv.value_polynomials, (TABLE_DEPTH,), "cold")]
    for method in sv.NEG_VALUE_METHODS:
        ops.append(Op("special_values.negative_value_table", sv.negative_value_table, (NEG_DEPTH, method), "cold"))
    for m in range(NEG_DEPTH):
        ops.append(Op("special_values.negative_value_table", sv.negative_value_table, (m, "closed_form"), "cold"))
    return ops


def golden_ops() -> list[Op]:
    """The cold builds held to digests in golden.json.

    The cross-route checks hold every other cold build to one of these.
    """
    sv = special_values
    return [
        Op("special_values.value_polynomials", sv.value_polynomials, (TABLE_DEPTH,), "cold"),
        Op("special_values.negative_value_table", sv.negative_value_table, (NEG_DEPTH, "closed_form"), "cold"),
        Op("dyck.weight_polynomial", dyck.weight_polynomial, (DEEP_DP, "dp"), "cold"),
    ]


def cold_key(op: Op) -> str:
    return f"{op.label}{list(op.args)}"


def tables(seed: int, seconds: int) -> Workload:
    sv = special_values
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["tables"]
    rng = rng_for("tables", seed)
    fills = table_fills()
    builds = [Op("dyck.weight_polynomial", dyck.weight_polynomial, (n, "dp"), "cold") for n in range(TABLE_DEPTH)]
    builds.append(Op("dyck.weight_polynomial", dyck.weight_polynomial, (DEEP_DP, "dp"), "cold"))
    builds.append(Op("genfun.quadratic_residual_series", genfun.quadratic_residual_series, (TABLE_DEPTH,), "cold"))
    reads = []
    for _ in range(ZETA_POS_READS):
        reads.append(Op("special_values.zeta_pos", sv.zeta_pos, (rng.randint(*TABLE_QS), rng.randint(*ZETA_POS_NS)), "read"))
    for _ in range(ZETA_INT_READS):
        reads.append(Op("special_values.zeta_integer", sv.zeta_integer, (rng.randint(*TABLE_QS), -rng.randint(0, NEG_DEPTH)), "read"))
    for _ in range(SEQUENCE_READS):
        reads.append(Op("special_values.positive_value_sequence", sv.positive_value_sequence, (rng.randint(*TABLE_QS), TABLE_DEPTH), "read"))
    # The reads follow the fills, spread among the Dyck and residual builds,
    # which read no cache, so that their median samples the machine over
    # seconds, not over the last moment.
    later = builds + reads
    rng.shuffle(later)
    ops = fills + later

    def check(results, errors):
        out: list[Optional[str]] = [_first_error(errors, i) for i in range(len(ops))]
        by_label: dict[str, list[int]] = {}
        for i, op in enumerate(ops):
            by_label.setdefault(op.label, []).append(i)
        cold_at = [i for i, op in enumerate(ops) if op.kind == "cold"]

        def fail(i, msg):
            if out[i] is None:
                out[i] = msg

        for i in cold_at:
            key = cold_key(ops[i])
            if i not in errors and key in golden and golden[key] != digest(results[i]):
                fail(i, f"{key} digest {digest(results[i])} != recorded {golden[key]}")
        value_polys = results[0] if 0 not in errors else None
        tables_at = {ops[i].args: i for i in by_label["special_values.negative_value_table"]}
        routes = [tables_at[NEG_DEPTH, method] for method in sv.NEG_VALUE_METHODS]
        if all(i not in errors for i in routes):
            first = results[routes[0]]
            for i in routes[1:]:
                if results[i] != first:
                    fail(i, f"negative values by {ops[i].args[1]} differ from {ops[routes[0]].args[1]}")
        closed = tables_at[NEG_DEPTH, "closed_form"]
        for m in range(NEG_DEPTH):
            i = tables_at[m, "closed_form"]
            if i not in errors and (closed in errors or results[i] != results[closed][: m + 1]):
                fail(i, f"closed-form table at depth {m} is not a prefix of the depth-{NEG_DEPTH} table")
        series_at = tables_at[NEG_DEPTH, "series"]
        series = results[series_at] if series_at not in errors else None
        for i in by_label["dyck.weight_polynomial"]:
            if i in errors:
                continue
            n = ops[i].args[0]
            poly = results[i]
            if n < TABLE_DEPTH:
                if value_polys is None or poly != value_polys[n]:
                    fail(i, f"dp weight polynomial {n} != value polynomial {n + 1}")
            else:
                words = math.comb(2 * n, n) // (n + 1) * 2**n
                if tuple(poly.coeffs) != tuple(reversed(poly.coeffs)) or sum(poly.coeffs) != words:
                    fail(i, f"dp weight polynomial {n} is not palindromic with Q(1) = 2^n Catalan(n)")
        for i in by_label["genfun.quadratic_residual_series"]:
            if i not in errors and any(not c.is_zero() for c in results[i]):
                fail(i, "quadratic residual is not identically zero")

        sequences: dict[int, list] = {}

        def sequence(q):
            if q not in sequences:
                sequences[q] = sv.positive_value_sequence(q, TABLE_DEPTH)
            return sequences[q]

        for i, op in enumerate(ops):
            if i in errors or op.kind != "read":
                continue
            got = results[i]
            if op.label == "special_values.zeta_pos":
                q, n = op.args
                if got != sequence(q)[n]:
                    fail(i, f"zeta_pos({q}, {n}) != positive_value_sequence")
            elif op.label == "special_values.zeta_integer":
                q, k = op.args
                if series is None or got != sv.poly_eval(series[-k], q):
                    fail(i, f"zeta_integer({q}, {k}) != series-route table")
            else:
                q, depth = op.args
                if any(got[n] != sv.zeta_pos(q, n) for n in range(1, depth + 1)):
                    fail(i, f"positive_value_sequence({q}) != zeta_pos")
        return out

    # The median of these ops is a sub-millisecond read taken over the last
    # seconds of the run only, which swings with the machine far more than
    # wall_s does; the reads' latencies are the per-layer p50s instead.
    return Workload(ops, check, per_op=False)


def reads_digest(ops: list[Op], results: list) -> str:
    return digest([results[i] for i, op in enumerate(ops) if op.kind == "read"])


# -- points ------------------------------------------------------------------


def _disc_point(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2 * math.pi))


def points(seed: int, seconds: int) -> Workload:
    sp = spectral
    rng = rng_for("points", seed)
    ops = []
    for _ in range(POINTS_OPS_PER_SECOND * seconds):
        kind = rng.choice(POINT_KINDS)
        q = rng.choice(TREE_QS)
        if kind == "zeta":
            ops.append(Op("spectral.zeta_numeric", sp.zeta_numeric, (q, _disc_point(rng, 0.2, 5.0)), kind))
        elif kind == "integer":
            ops.append(Op("spectral.zeta_numeric", sp.zeta_numeric, (q, complex(rng.randint(-8, 8))), kind))
        elif kind == "hard":
            s = complex(rng.uniform(-1.0, 3.0), rng.choice((-1, 1)) * rng.uniform(20.0, 60.0))
            ops.append(Op("spectral.zeta_numeric", sp.zeta_numeric, (q, s), kind))
        elif kind == "xi":
            ops.append(Op("spectral.xi_value", sp.xi_value, (q, _disc_point(rng, 0.2, 5.0)), kind))
        elif kind == "heat":
            ops.append(Op("spectral.heat_trace", sp.heat_trace, (q, rng.uniform(0.05, 0.5)), kind))
        else:
            lo, hi = genfun.spectral_edges(q)
            z = _disc_point(rng, 0.2 * lo, 0.7 * lo) if rng.random() < 0.5 else _disc_point(rng, 1.5 * hi, 5.0 * hi)
            ops.append(Op("spectral.resolvent_transform", sp.resolvent_transform, (q, z), kind))

    def check(results, errors):
        out = []
        for i, op in enumerate(ops):
            if i in errors:
                out.append(_first_error(errors, i))
                continue
            try:
                out.append(_check_point(op, results[i]))
            except Exception as exc:  # an independent route that raises is a failed check
                out.append(f"{op.kind} check raised {exc!r}")
        return out

    return Workload(ops, check)


def _check_point(op: Op, got: Any) -> Optional[str]:
    sp = spectral
    q, x = op.args
    if op.kind in ("zeta", "integer", "hard"):
        if not got.converged:
            return f"zeta({q}, {x}) did not converge"
        if op.kind == "integer":
            exact = float(special_values.zeta_integer(q, int(x.real)))
            err = abs(got.value - exact) / abs(exact)
            return None if err <= INTEGER_REL_TOL else f"zeta({q}, {x}) off the exact value by {err:.3g}"
        # the functional equation: xi(s), assembled from the timed value, against xi(1 - s)
        s = x
        below = sp.zeta_numeric(q, s - 1).require()
        a = cmath.exp(s * math.log(q - 1)) * (2 * (q + 1) * got.value - below)
        b = sp.xi_value(q, 1 - s)
        err = abs(a - b) / max(1.0, abs(a))
        return None if err <= FE_TOL else f"zeta({q}, {s}) breaks the functional equation by {err:.3g}"
    if op.kind == "xi":
        err = abs(got - sp.xi_value(q, 1 - x)) / max(1.0, abs(got))
        return None if err <= FE_TOL else f"xi({q}, {x}) asymmetric by {err:.3g}"
    if op.kind == "heat":
        exact = heat_series(q, x)
        err = abs(got - exact) / abs(exact)
        return None if err <= HEAT_REL_TOL else f"heat({q}, {x}) off the moment series by {err:.3g}"
    lo, hi = genfun.spectral_edges(q)
    if abs(x) < lo:
        err = abs(x * got - genfun.pos_value_genfun(q, x))
    else:
        err = abs(got + genfun.neg_value_genfun(q, 1 / x) / x)
    return None if err <= LAPLACE_TOL else f"resolvent({q}, {x}) breaks the Laplace identity by {err:.3g}"


def heat_series(q: int, t: float) -> float:
    """The heat trace from the exact negative values: sum zeta(-m) (-t)^m / m!.

    Summed in integers over the common denominator b^M M! (t = a/b exactly),
    so no cancellation is lost; M is chosen so that the remainder, bounded by
    (t hi)^(M+1) / (M+1)! with hi the top of the spectrum, sits far below
    1e-16 of the smallest possible value exp(-t hi).
    """
    hi = genfun.spectral_edges(q)[1]
    th = t * hi
    m_top = 1
    while m_top < 2 * th or (m_top + 1) * math.log(th) - math.lgamma(m_top + 2) > -th - 40:
        m_top += 1
    values = _negative_values_at(q)
    if m_top >= len(values):
        raise ValueError(f"heat series at t={t} needs {m_top} terms")
    a, b = t.as_integer_ratio()
    num = 0
    falling = 1  # m_top! / m!
    for m in range(m_top, -1, -1):
        num += values[m] * (-a) ** m * b ** (m_top - m) * falling
        falling *= m
    return num / (b**m_top * math.factorial(m_top))


@lru_cache(maxsize=None)
def _negative_values_at(q: int) -> tuple[int, ...]:
    table = special_values.negative_value_table(HEAT_SERIES_DEPTH)
    return tuple(int(special_values.poly_eval(p, q)) for p in table)


# -- cli-cold ----------------------------------------------------------------


def _cli_argv(rng: random.Random) -> list[str]:
    kind = rng.choice(CLI_KINDS)
    if kind == "zeta":
        re_, im_ = (f"{rng.uniform(-4.0, 4.0):.4f}" for _ in range(2))
        return ["zeta", "--q", str(rng.choice(TREE_QS)), f"--s={re_},{im_}", "--format", "json"]
    if kind == "heat":
        return ["heat", "--q", str(rng.choice(TREE_QS)), "--t", f"{rng.uniform(0.05, 2.0):.4f}", "--format", "json"]
    if kind == "values":
        return ["values", "--q", str(rng.randint(2, 12)), "--neg", str(rng.randint(0, 8)), "--pos", str(rng.randint(1, 8)), "--format", "json"]
    if kind == "poly":
        return ["poly", "--n", str(rng.randint(1, 16)), "--format", "json"]
    if kind == "dyck":
        return ["dyck", "--n", str(rng.randint(0, 12)), "--format", "json"]
    return ["dyck", "--n", str(rng.randint(0, 4)), "--method", "bruteforce", "--format", "json"]


def cli_argvs(seed: int, seconds: int) -> list[list[str]]:
    rng = rng_for("cli-cold", seed)
    return [_cli_argv(rng) for _ in range(CLI_CALLS_PER_SECOND * seconds)]


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "treezeta", *argv], capture_output=True, text=True, timeout=60
    )


def run_cli_in_process(argv: list[str]) -> subprocess.CompletedProcess:
    """``cli.main(argv)`` in this process, its output captured like a process's."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on a bad argv
            code = exc.code if isinstance(exc.code, int) else 1
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def cli_cold(seed: int, seconds: int, in_process: bool = False) -> Workload:
    """Fresh ``python -m treezeta`` processes, or with ``in_process`` the same
    argv mix through ``cli.main`` in this process (for the traced run)."""
    argvs = cli_argvs(seed, seconds)
    label, fn = ("inprocess.cli_main", run_cli_in_process) if in_process else ("process.treezeta", run_cli)
    ops = [Op(label, fn, (argv,), argv[0]) for argv in argvs]

    def check(results, errors):
        out = []
        for i, op in enumerate(ops):
            if i in errors:
                out.append(_first_error(errors, i))
                continue
            try:
                out.append(_check_cli(op.args[0], results[i]))
            except Exception as exc:
                out.append(f"{op.args[0]} check raised {exc!r}")
        return out

    return Workload(ops, check)


def _options(tokens: list[str]) -> dict[str, str]:
    out = {}
    it = iter(tokens)
    for tok in it:
        key, eq, val = tok.partition("=")
        out[key] = val if eq else next(it)
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CLI_FLOAT_REL_TOL * max(abs(a), abs(b))


def _check_cli(argv: list[str], proc: subprocess.CompletedProcess) -> Optional[str]:
    if proc.returncode != 0:
        return f"{argv} exited {proc.returncode}: {proc.stderr.strip()[-200:]}"
    res = json.loads(proc.stdout)["results"]
    opt = _options(argv[1:])
    cmd = argv[0]
    if cmd == "zeta":
        re_, im_ = opt["--s"].split(",")
        want = spectral.zeta_numeric(int(opt["--q"]), complex(float(re_), float(im_))).require()
        ok = _close(res["value"]["re"], want.real) and _close(res["value"]["im"], want.imag)
    elif cmd == "heat":
        ok = _close(res["value"], spectral.heat_trace(int(opt["--q"]), float(opt["--t"])))
    elif cmd == "values":
        q = int(opt["--q"])
        neg = [str(special_values.zeta_integer(q, -m).numerator) for m in range(int(opt["--neg"]) + 1)]
        pos = [special_values.zeta_pos(q, n) for n in range(1, int(opt["--pos"]) + 1)]
        ok = [e["value"] for e in res["negative"]] == neg and [
            Fraction(int(e["value"]["num"]), int(e["value"]["den"])) for e in res["positive"]
        ] == pos
    elif cmd == "poly":
        n = int(opt["--n"])
        ok = res["coefficients"] == [str(c) for c in special_values.value_polynomials(n)[n - 1].coeffs]
    else:
        poly = dyck.weight_polynomial(int(opt["--n"]), opt.get("--method", "dp"))
        ok = res["coefficients"] == [str(c) for c in poly.coeffs]
    return None if ok else f"{argv} disagrees with the in-process library result"


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "battery": battery,
    "tables": tables,
    "points": points,
    "cli-cold": cli_cold,
}
