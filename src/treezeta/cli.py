"""Command-line front end.

Subcommands map onto the library one-to-one: poly and values print exact
tables, zeta and heat run the quadrature engine, dyck exposes the lattice-word
side, verify runs the identity battery.  Output formats are json, csv, latex
and text, and a run builds only the one it prints.  json is canonical (sorted
keys, two-space indent, big integers and rationals as decimal strings, no NaN
or Infinity) so that parsing and re-serializing reproduces the bytes.  Exit
codes: 0 success, 1 a verification check failed, 2 bad usage or invalid input,
3 quadrature budget exhausted, 4 an internal consistency guard fired outside
verify (inside verify the guard fails its check's row).

poly and values refuse a depth past their cap before building any table, as
run_battery does for verify --n-max, and values refuses a value too long to
print before rendering any.
Each subcommand imports the modules it runs when it runs, so a quadrature
call never loads the exact tables, the Dyck code or the battery.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Optional

from .errors import ConsistencyError, DomainError, NonConvergedError
from .spectral import (
    DEFAULT_ABS_TOL,
    DEFAULT_MAX_NODES,
    DEFAULT_REL_TOL,
    QuadratureSpec,
    heat_eval,
    xi_sato_tate,
    xi_value,
    zeta_line,
    zeta_numeric,
    zeta_sato_tate,
)
from .validate import DEPTH_CAP

if TYPE_CHECKING:
    from .exact import IntPoly

FORMATS = ("json", "csv", "latex", "text")
# Literal, so that building the parser imports neither module; a test pins
# them to verify.CHECKS and dyck.WEIGHT_POLY_METHODS.
VERIFY_SUITES = (
    "all",
    "value_polys",
    "negvals",
    "moments",
    "dyck",
    "symmetry",
    "entire",
    "twostep",
    "fe",
    "integers",
    "laplace",
    "boundary",
    "residual",
)
DYCK_METHODS = ("dp", "bruteforce")
# verify's override flags and the run_battery override each one sets
_VERIFY_FLAGS = {
    "--q": "q",
    "--tol": "tol",
    "--n-max": "n_max",
    "--abs-tol": "quad",
    "--rel-tol": "quad",
    "--max-nodes": "quad",
}

_GREEN = "\x1b[32m"
_RED = "\x1b[31m"
_RESET = "\x1b[0m"


@dataclass
class Report:
    """One invocation's outcome: a JSON payload plus how to draw the other formats.

    Only command, inputs, results, status, tolerances and (optionally)
    timings serialize.  rows, latex and text are zero-argument functions over
    the computed data, and render calls only the one its format needs.
    """

    command: str
    inputs: dict[str, Any]
    results: dict[str, Any]
    status: str = "pass"
    tolerances: dict[str, Any] = field(default_factory=dict)
    timings: Optional[dict[str, float]] = None
    rows: Callable[[], list[tuple[Any, Any]]] = list
    latex: Callable[[], str] = str
    text: Callable[[], str] = str

    def payload(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "status": self.status,
            "tolerances": self.tolerances,
        }
        if self.timings is not None:
            out["timings"] = self.timings
        return out


def _json_default(obj: Any) -> Any:
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, Fraction):
        return {"den": str(obj.denominator), "num": str(obj.numerator)}
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def render_json(report: Report) -> str:
    text = json.dumps(
        report.payload(), indent=2, sort_keys=True, allow_nan=False, default=_json_default
    )
    return text + "\n"


def _fmt_complex(z: complex) -> str:
    re = f"{z.real:.12g}"
    im = f"{abs(z.imag):.12g}"
    sign = "-" if z.imag < 0 else "+"
    return f"{re}{sign}{im}i"


def _fmt_value(v: Any) -> str:
    if isinstance(v, complex):
        return _fmt_complex(v)
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def latex_poly(coeffs: tuple[int, ...], var: str) -> str:
    """High-to-low rendering; exponents below ten stay brace-free."""
    if not coeffs:
        return "0"
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = var if k == 1 else (f"{var}^{k}" if k < 10 else f"{var}^{{{k}}}")
            body = power if mag == 1 else f"{mag}{power}"
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += sign + body
    return out


def _latex_fraction(v: Fraction | int) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    sign = "-" if v.numerator < 0 else ""
    return f"{sign}\\frac{{{abs(v.numerator)}}}{{{v.denominator}}}"


def render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        lines = ["index,value"]
        lines += [f"{idx},{_fmt_value(val)}" for idx, val in report.rows()]
        return "\n".join(lines) + "\n"
    if fmt == "latex":
        return report.latex() + "\n"
    return report.text() + "\n"


def _parse_complex(raw: str) -> complex:
    parts = raw.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {raw!r}")


def _int_arg(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="text", help="output format")
    common.add_argument("--output", metavar="PATH", help="write the report to a file")
    common.add_argument(
        "--timings", action="store_true", help="include wall-clock timings in the report"
    )

    quad = argparse.ArgumentParser(add_help=False)
    quad.add_argument("--abs-tol", type=float, help="quadrature absolute tolerance")
    quad.add_argument("--rel-tol", type=float, help="quadrature relative tolerance")
    quad.add_argument(
        "--max-nodes", type=_int_arg, help="quadrature budget: most intervals, a power of two >= 16"
    )

    parser = argparse.ArgumentParser(
        prog="treezeta",
        description="Exact and numeric spectral zeta values for regular trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", parents=[common], help="value polynomial table")
    p.add_argument(
        "--n", type=_int_arg, required=True, help=f"polynomial index, 1 to {DEPTH_CAP}"
    )

    p = sub.add_parser("values", parents=[common], help="exact special values")
    p.add_argument("--q", type=_int_arg, required=True, help="branching number, at least 2")
    p.add_argument(
        "--neg", type=_int_arg, default=5, metavar="M",
        help=f"depth at and below zero, at most {DEPTH_CAP}",
    )
    p.add_argument(
        "--pos", type=_int_arg, default=5, metavar="N",
        help=f"depth above zero, at most {DEPTH_CAP}",
    )

    p = sub.add_parser("zeta", parents=[common, quad], help="zeta at a point")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--q", type=_int_arg, help="branching number, at least 2")
    which.add_argument("--line", action="store_true", help="integer-line limit function")
    which.add_argument("--sato-tate", action="store_true", help="large-q limit function")
    p.add_argument(
        "--s", type=_parse_complex, required=True, metavar="RE,IM", help="evaluation point"
    )
    p.add_argument("--xi", action="store_true", help="completed, symmetric combination")

    p = sub.add_parser("heat", parents=[common, quad], help="heat trace at a time")
    p.add_argument("--q", type=_int_arg, required=True, help="branching number, at least 2")
    p.add_argument("--t", type=float, required=True, help="time, nonnegative and finite")

    p = sub.add_parser("dyck", parents=[common], help="two-coloured lattice words")
    p.add_argument("--n", type=_int_arg, required=True, help="half-length")
    p.add_argument("--list", action="store_true", help="list the words instead of the polynomial")
    p.add_argument(
        "--method",
        choices=DYCK_METHODS,
        default="dp",
        help="which weight-polynomial route to use",
    )

    p = sub.add_parser("verify", parents=[common, quad], help="run identity checks")
    p.add_argument("suite", choices=VERIFY_SUITES, help="which checks to run")
    p.add_argument("--q", type=_int_arg, help="restrict tree checks to one branching number")
    p.add_argument("--tol", type=float, help="tolerance override for the selected checks")
    p.add_argument(
        "--n-max", type=_int_arg,
        help=f"exact check depth, at most {DEPTH_CAP} ({2 * DEPTH_CAP} twostep, 200 dyck and all)",
    )

    return parser


def _quad_spec(args: argparse.Namespace) -> QuadratureSpec:
    return QuadratureSpec(
        abs_tol=DEFAULT_ABS_TOL if args.abs_tol is None else args.abs_tol,
        rel_tol=DEFAULT_REL_TOL if args.rel_tol is None else args.rel_tol,
        max_nodes=DEFAULT_MAX_NODES if args.max_nodes is None else args.max_nodes,
    )


def _quad_tolerances(spec: QuadratureSpec) -> dict[str, Any]:
    return {"abs_tol": spec.abs_tol, "rel_tol": spec.rel_tol, "max_nodes": spec.max_nodes}


def _poly_report(
    command: str, inputs: dict[str, Any], poly: IntPoly, var: str, name: str
) -> Report:
    coefficients = [str(c) for c in poly.coeffs]
    return Report(
        command=command,
        inputs=inputs,
        results={"coefficients": coefficients, "degree": poly.degree, "variable": var},
        rows=lambda: list(enumerate(coefficients)),
        latex=lambda: latex_poly(poly.coeffs, var),
        text=lambda: f"{name}({var}) = {latex_poly(poly.coeffs, var)}",
    )


def _cmd_poly(args: argparse.Namespace) -> Report:
    if args.n < 1:
        raise DomainError("--n must be at least 1")
    if args.n > DEPTH_CAP:
        raise DomainError(f"--n is capped at {DEPTH_CAP}")
    from .special_values import value_polynomials

    poly = value_polynomials(args.n)[args.n - 1]
    return _poly_report("poly", {"n": args.n}, poly, "q", f"P_{args.n}")


def _cmd_values(args: argparse.Namespace) -> Report:
    if args.neg < 0 or args.pos < 0:
        raise DomainError("--neg and --pos must be nonnegative")
    if max(args.neg, args.pos) > DEPTH_CAP:
        raise DomainError(f"--neg and --pos are capped at {DEPTH_CAP}")
    from .special_values import zeta_integer, zeta_pos

    neg = [zeta_integer(args.q, -m).numerator for m in range(args.neg + 1)]
    pos = [zeta_pos(args.q, n) for n in range(1, args.pos + 1)]
    rows = [(-m, v) for m, v in enumerate(neg)] + [(n, v) for n, v in enumerate(pos, 1)]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # str()'s digit limit; 0: none
    if limit and max(max(abs(v.numerator), v.denominator) for _, v in rows) >= 10**limit:
        raise DomainError(f"a value has over {limit} digits, Python's limit on printing an int")
    return Report(
        command="values",
        inputs={"q": args.q, "neg": args.neg, "pos": args.pos},
        results={
            "negative": [{"s": -m, "value": str(neg[m])} for m in range(args.neg + 1)],
            "positive": [{"s": n, "value": pos[n - 1]} for n in range(1, args.pos + 1)],
        },
        rows=lambda: rows,
        latex=lambda: "\\begin{aligned}\n"
        + " \\\\\n".join(f"\\zeta_{{{args.q}}}({idx}) &= {_latex_fraction(v)}" for idx, v in rows)
        + "\n\\end{aligned}",
        text=lambda: "\n".join(f"zeta_{args.q}({idx}) = {_fmt_value(v)}" for idx, v in rows),
    )


def _cmd_zeta(args: argparse.Namespace) -> Report:
    spec = _quad_spec(args)
    inputs: dict[str, Any] = {"s": args.s, "xi": args.xi}
    results: dict[str, Any] = {}
    tolerances: dict[str, Any] = {}
    if args.line:
        if args.xi:
            raise DomainError("--xi is not defined for --line")
        inputs["line"] = True
        value = zeta_line(args.s)
    elif args.sato_tate:
        inputs["sato_tate"] = True
        value = xi_sato_tate(args.s) if args.xi else zeta_sato_tate(args.s)
    else:
        inputs["q"] = args.q
        tolerances = _quad_tolerances(spec)
        if args.xi:
            value = xi_value(args.q, args.s, spec)
        else:
            ev = zeta_numeric(args.q, args.s, spec)
            ev.require("zeta({}, {})", args.q, args.s)
            value = ev.value
            results = {"nodes": ev.nodes, "levels": ev.levels, "est_error": ev.est_error}
    results["value"] = value
    name = "xi" if args.xi else "zeta"
    return Report(
        command="zeta",
        inputs=inputs,
        results=results,
        tolerances=tolerances,
        rows=lambda: [(0, value)],
        latex=lambda: _fmt_complex(value),
        text=lambda: f"{name} = {_fmt_complex(value)}",
    )


def _cmd_heat(args: argparse.Namespace) -> Report:
    if math.isinf(args.t):  # JSON has no infinity; the library's heat_trace(q, inf) is 0
        raise DomainError(f"--t must be finite, got {args.t}")
    spec = _quad_spec(args)
    ev = heat_eval(args.q, args.t, spec)
    value = ev.require("heat trace at t={}", args.t)
    return Report(
        command="heat",
        inputs={"q": args.q, "t": args.t},
        results={"value": value, "nodes": ev.nodes, "levels": ev.levels, "est_error": ev.est_error},
        tolerances=_quad_tolerances(spec),
        rows=lambda: [(0, value)],
        latex=lambda: _fmt_value(value),
        text=lambda: f"heat trace = {_fmt_value(value)}",
    )


def _cmd_dyck(args: argparse.Namespace) -> Report:
    from .dyck import enumerate_dyck, weight_polynomial

    if args.list:
        words = list(enumerate_dyck(args.n))
        return Report(
            command="dyck",
            inputs={"n": args.n, "list": True},
            results={"count": len(words), "words": words},
            rows=lambda: list(enumerate(words)),
            latex=lambda: "\\begin{tabular}{l}\n"
            + " \\\\\n".join(f"\\texttt{{{w}}}" for w in words)
            + "\n\\end{tabular}",
            text=lambda: "\n".join(w or "(empty word)" for w in words),
        )
    poly = weight_polynomial(args.n, method=args.method)
    inputs = {"n": args.n, "list": False, "method": args.method}
    return _poly_report("dyck", inputs, poly, "t", f"Q_{args.n}")


def _status_word(ok: bool, color: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if color:
        word = (_GREEN if ok else _RED) + word + _RESET
    return word


def _cmd_verify(args: argparse.Namespace) -> Report:
    from .special_values import moment_polynomials, negative_value_table
    from .verify import CHECKS, run_battery

    # a named suite refuses a flag that it does not take
    takes = set(_VERIFY_FLAGS.values()) if args.suite == "all" else CHECKS[args.suite][1]
    for flag, override in _VERIFY_FLAGS.items():
        if getattr(args, flag[2:].replace("-", "_")) is not None and override not in takes:
            raise DomainError(f"verify {args.suite} does not take {flag}")
    spec = _quad_spec(args)
    given = {"q": args.q, "tol": args.tol, "n_max": args.n_max, "quad": spec}
    names = None if args.suite == "all" else [args.suite]
    # a table builder that a tracer has wrapped has no cache_info; only --timings reads it
    builders = (negative_value_table, moment_polynomials) if args.timings else ()
    before = [b.cache_info() for b in builders]
    results = run_battery(names, **{k: v for k, v in given.items() if k in takes})
    checks = []
    for r in results:
        row: dict[str, Any] = {
            "name": r.name,
            "passed": r.passed,
            "points": r.points,
            "defect": r.defect_repr,
            "tolerance": r.tolerance,
            "detail": r.detail,
            "worst_at": r.worst_at,
        }
        if args.timings:
            row["elapsed_s"] = r.elapsed
        checks.append(row)
    all_passed = all(r.passed for r in results)
    color = (
        args.format == "text"
        and args.output is None
        and sys.stdout.isatty()
        and "NO_COLOR" not in os.environ
    )

    def text() -> str:
        lines = [
            f"{_status_word(r.passed, color)} {r.name}: defect {r.defect_repr} within "
            f"{r.tolerance:g} over {r.points} points; {r.detail}"
            + ("" if r.worst_at is None
               else f"; worst at ({', '.join(map(_fmt_value, r.worst_at))})")
            for r in results
        ]
        lines.append(
            f"{_status_word(all_passed, color)} overall:"
            f" {sum(r.passed for r in results)}/{len(results)} checks"
        )
        return "\n".join(lines)

    inputs: dict[str, Any] = {"suite": args.suite}
    if args.q is not None:
        inputs["q"] = args.q
    if args.n_max is not None:
        inputs["n_max"] = args.n_max
    tolerances: dict[str, Any] = _quad_tolerances(spec)
    if args.tol is not None:
        tolerances["tol"] = args.tol
    report = Report(
        command="verify",
        inputs=inputs,
        results={"checks": checks},
        status="pass" if all_passed else "fail",
        tolerances=tolerances,
        rows=lambda: [(r.name, "pass" if r.passed else "fail") for r in results],
        latex=lambda: "\\begin{tabular}{lll}\n"
        + " \\\\\n".join(
            f"{r.name} & {'pass' if r.passed else 'fail'} & {r.defect_repr}" for r in results
        )
        + "\n\\end{tabular}",
        text=text,
    )
    if args.timings:
        report.timings = {"total_s": sum(r.elapsed for r in results)}
        # the exact table builders' cache traffic during this battery run
        for builder, old in zip(builders, before):
            info = builder.cache_info()
            report.timings[f"{builder.__name__}.hits"] = info.hits - old.hits
            report.timings[f"{builder.__name__}.misses"] = info.misses - old.misses
    return report


_COMMANDS: dict[str, Callable[[argparse.Namespace], Report]] = {
    "poly": _cmd_poly,
    "values": _cmd_values,
    "zeta": _cmd_zeta,
    "heat": _cmd_heat,
    "dyck": _cmd_dyck,
    "verify": _cmd_verify,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        report = _COMMANDS[args.command](args)
    except NonConvergedError as exc:
        message = f"non-converged: {exc}"  # exc is unbound once this block ends
        results: dict[str, Any] = {"error": str(exc)}
        if exc.best is not None:
            results["best"] = exc.best
        if exc.est_error is not None:  # a budget spent at the first level has no estimate
            results["est_error"] = exc.est_error if math.isfinite(exc.est_error) else None
        report = Report(
            command=args.command,
            inputs={},
            results=results,
            status="non-converged",
            latex=lambda: message,
            text=lambda: message,
        )
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"error: internal consistency check failed: {exc}", file=sys.stderr)
        return 4
    else:
        if args.timings and report.timings is None:
            report.timings = {"total_s": time.perf_counter() - start}
        code = 0 if report.status == "pass" else 1
    try:
        _emit(render(report, args.format), args.output)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {output}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
