"""Command-line surface: solving, sequences, grid scans, figures, and verification.

Exit codes: 0 success, 1 bad flags or unwritable output, 2 solver failure,
3 verification property violation.  All floating-point output is serialized
with 17 significant digits so that documents round-trip to the exact double.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from widomlab.bounds import (
    PropertyViolation,
    _jacobi_sups,
    _m_bounds,
    verify_coeff_lemma,
    verify_m_monotone,
)
from widomlab.circle import _erdos_lax_checks, verify_cn_relation
from widomlab.minimax import ConvergenceError, DegeneracyError, ExchangeError, solve
from widomlab.special import WeightParams, weight_to_param
from widomlab.widom import _DISC_CENTER, _INNER_R2, widom_sequence
from widomlab.widom import scan as grid_scan

__all__ = ["main", "build_parser"]

_SOLVER_ERRORS = (ConvergenceError, DegeneracyError, ExchangeError)

_CN_VERIFY_PARAMS = ((0.5, 0.5), (0.75, 0.75), (1.0, 1.0), (0.75, 1.25))


def _fmt(x: float) -> str:
    """17-significant-digit decimal form, exact on round trip."""
    return format(float(x), ".17g")


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_to_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        return "[" + ", ".join(_to_json(v, indent) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):  # must precede the integer branch
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _emit(text: str, out: str | None) -> int:
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        sys.stderr.write(f"cannot write {out}: {exc}\n")
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """Parser whose flag errors exit with code 1 instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _weight_from_args(args) -> WeightParams:
    return WeightParams(args.rho_a, args.rho_b)


def cmd_solve(args) -> int:
    w = _weight_from_args(args)
    sol = solve(w, args.degree, tolerance=args.tol, max_iter=args.max_iter)
    doc = {
        "rho_a": w.rho_a,
        "rho_b": w.rho_b,
        "degree": args.degree,
        "coefficients": [float(c) for c in sol.poly.power_coeffs()],
        "roots": list(sol.roots()),
        "reference": [float(x) for x in sol.reference],
        "norm": sol.norm,
        "widom": sol.widom,
        "iterations": sol.iterations,
        "levelling_defect": sol.levelling_defect,
    }
    return _emit(_to_json(doc) + "\n", args.out)


def cmd_widom(args) -> int:
    w = _weight_from_args(args)
    seq = widom_sequence(w, args.n_max)
    doc = {
        "rho_a": w.rho_a,
        "rho_b": w.rho_b,
        "n_start": seq.n_start,
        "n_max": args.n_max,
        "values": list(seq.values),
        "asymptote": seq.asymptote,
        "classification": seq.classification,
    }
    return _emit(_to_json(doc) + "\n", args.out)


def _parse_range(text: str) -> tuple[float, float]:
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise ValueError(f"range must look like lo:hi, got {text!r}")
    return float(lo_text), float(hi_text)


def _scan_csv(result) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["rho_a", "rho_b", "classification"]
        + [f"w{n}" for n in range(1, result.n_max + 1)]
    )
    for cell in result.cells:
        values = [_fmt(v) for v in cell.values]
        values += [""] * (result.n_max - len(values))
        writer.writerow(
            [_fmt(cell.weight.rho_a), _fmt(cell.weight.rho_b), cell.classification]
            + values
        )
    return buffer.getvalue()


def _svg_document(result) -> str:
    """Hand-written SVG 1.1 heatmap of a scan with the conjecture circles."""
    (lo, hi), res = result.grid_spec
    margin, plot = 40.0, 480.0
    size = plot + 2.0 * margin
    scale = plot / (hi - lo)
    step = plot / (res - 1)
    fills = {"Increasing": "#404040", "Decreasing": "#c8c8c8"}
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size:g}" height="{size:g}" viewBox="0 0 {size:g} {size:g}">',
        f'<rect x="0" y="0" width="{size:g}" height="{size:g}" fill="white"/>',
        '<defs><clipPath id="plot-area">'
        f'<rect x="{margin:g}" y="{margin:g}" width="{plot:g}" height="{plot:g}"/>'
        "</clipPath></defs>",
        '<g clip-path="url(#plot-area)">',
    ]
    # cells are centred on grid points; edge cells overhang and get clipped
    for ib in range(res):
        for ia in range(res):
            cell = result.cells[ib * res + ia]
            x = margin + ia * step - 0.5 * step
            y = margin + plot - ib * step - 0.5 * step
            fill = fills.get(cell.classification, "#ffffff")
            failed = ' stroke="red" stroke-width="1"' if cell.classification == "Failed" else ""
            parts.append(
                f'<rect x="{x:.3f}" y="{y:.3f}" width="{step:.3f}" '
                f'height="{step:.3f}" fill="{fill}"{failed}/>'
            )
    cx = margin + (_DISC_CENTER - lo) * scale
    cy = margin + plot - (_DISC_CENTER - lo) * scale
    r_inner = math.sqrt(_INNER_R2) * scale
    r_outer = math.sqrt(1.1836088889 / 8.0) * scale
    parts.append(
        f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{r_inner:.3f}" '
        'fill="none" stroke="red" stroke-width="2"/>'
    )
    parts.append(
        f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{r_outer:.3f}" '
        'fill="none" stroke="red" stroke-width="1.5" stroke-dasharray="3 4"/>'
    )
    parts.append("</g>")
    parts.append(
        f'<rect x="{margin:g}" y="{margin:g}" width="{plot:g}" height="{plot:g}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    label = 'font-family="sans-serif" font-size="13"'
    parts.append(f'<text x="{margin:g}" y="{size - 12:g}" {label}>{lo:g}</text>')
    parts.append(
        f'<text x="{margin + plot:g}" y="{size - 12:g}" text-anchor="end" {label}>{hi:g}</text>'
    )
    parts.append(
        f'<text x="12" y="{margin + plot:g}" {label}>{lo:g}</text>'
    )
    parts.append(f'<text x="12" y="{margin + 10:g}" {label}>{hi:g}</text>')
    parts.append(
        f'<text x="{margin + 0.5 * plot:g}" y="{size - 12:g}" text-anchor="middle" {label}>'
        "rho_a</text>"
    )
    parts.append(
        f'<text x="12" y="{margin + 0.5 * plot:g}" {label}>rho_b</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_scan(args) -> int:
    lo, hi = _parse_range(args.range)
    result = grid_scan(
        rho_range=(lo, hi),
        resolution=args.resolution,
        n_max=args.n_max,
        workers=args.workers,
    )
    code = _emit(_scan_csv(result), args.out)
    if code != 0:
        return code
    if args.svg is not None:
        code = _emit(_svg_document(result), args.svg)
        if code != 0:
            return code
    failed = sum(1 for cell in result.cells if cell.classification == "Failed")
    sys.stderr.write(
        f"scanned {len(result.cells)} cells in {result.runtime:.1f}s"
        f" ({failed} failed)\n"
    )
    return 0


def _check(name: str, value: float, threshold: float) -> dict:
    return {
        "name": name,
        "value": float(value),
        "threshold": float(threshold),
        "passed": bool(value <= threshold),
    }


def _verify_bounds(args) -> list[dict]:
    report = verify_m_monotone(args.n_max, args.samples, args.limit_tol)
    return [
        _check("m_bound monotone nondecreasing (worst drop)", report.max_violation, 1e-11),
        _check("m_bound final deviation from limit", report.limit, args.limit_tol),
    ]


def _verify_coeffs(args) -> list[dict]:
    report = verify_coeff_lemma(args.samples, args.tol)
    return [
        _check("coefficient maximum over triangle", max(report.values), args.tol),
    ]


def _verify_circle(args) -> list[dict]:
    if args.n_max < 0:
        raise ValueError("--n-max must be at least 0")
    pairs = [(WeightParams(ra, rb), n) for ra, rb in _CN_VERIFY_PARAMS for n in range(args.n_max + 1)]
    relations = verify_cn_relation(*zip(*pairs))
    worst = max([0.0] + [defect for _, _, defect in relations])
    checks = [_check("circle-interval norm relation defect", worst, 1e-6)]
    rng = np.random.default_rng(5)
    configs = []
    for _ in range(10):
        m = int(rng.integers(2, 5))
        angles = rng.uniform(0.0, 2.0 * np.pi, m)
        configs.append((angles, rng.uniform(1.0, 2.5, m)))
    worst_el = max([0.0] + [abs(lhs - rhs) / rhs for lhs, rhs in _erdos_lax_checks(configs)])
    checks.append(_check("Erdos-Lax relative defect", worst_el, 1e-6))
    return checks


def _verify_jacobi(args) -> list[dict]:
    if args.n_max < 1 or args.samples < 1:
        raise ValueError("--n-max and --samples must be at least 1")
    rhos = np.linspace(0.0, 0.5, args.samples)
    ns = np.arange(1, args.n_max + 1)
    weights = [WeightParams(float(ra), float(rb)) for rb in rhos for ra in rhos]
    # scaling by 2^n is exact
    lhs = np.ldexp(_jacobi_sups(weights, ns), ns)
    excess = lhs / _m_bounds([weight_to_param(w) for w in weights], ns) - 1.0
    return [_check("chain inequality relative excess", max(0.0, float(np.max(excess))), 1e-9)]


def cmd_verify(args) -> int:
    runners = {
        "bounds": _verify_bounds,
        "coeffs": _verify_coeffs,
        "circle": _verify_circle,
        "jacobi": _verify_jacobi,
    }
    try:
        checks = runners[args.check](args)
    except PropertyViolation as exc:
        if args.format == "json":
            doc = {"check": args.check, "passed": False, "detail": str(exc)}
            sys.stdout.write(_to_json(doc) + "\n")
        else:
            sys.stdout.write(f"{args.check}: FAIL\n  {exc}\n")
        return 3
    passed = all(c["passed"] for c in checks)
    if args.format == "json":
        doc = {"check": args.check, "passed": passed, "checks": checks}
        sys.stdout.write(_to_json(doc) + "\n")
    else:
        for c in checks:
            verdict = "PASS" if c["passed"] else "FAIL"
            sys.stdout.write(
                f"{c['name']}: {c['value']:.6g} (threshold {c['threshold']:g})"
                f" -> {verdict}\n"
            )
        sys.stdout.write(f"{args.check}: {'PASS' if passed else 'FAIL'}\n")
    return 0 if passed else 3


def build_parser() -> _Parser:
    parser = _Parser(
        prog="widomlab",
        description="Weighted Chebyshev polynomials and Widom factors for Jacobi weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one weighted minimax problem")
    p_solve.add_argument("--rho-a", type=float, required=True)
    p_solve.add_argument("--rho-b", type=float, required=True)
    p_solve.add_argument("--degree", type=int, required=True)
    p_solve.add_argument("--tol", type=float, default=1e-12)
    p_solve.add_argument("--max-iter", type=int, default=60)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--format", choices=("json",), default="json")
    p_solve.set_defaults(func=cmd_solve)

    p_widom = sub.add_parser("widom", help="compute and classify a Widom factor sequence")
    p_widom.add_argument("--rho-a", type=float, required=True)
    p_widom.add_argument("--rho-b", type=float, required=True)
    p_widom.add_argument("--n-max", type=int, default=10)
    p_widom.add_argument("--out", default=None)
    p_widom.add_argument("--format", choices=("json",), default="json")
    p_widom.set_defaults(func=cmd_widom)

    p_scan = sub.add_parser("scan", help="classify a square grid of weight parameters")
    p_scan.add_argument("--resolution", type=int, default=40)
    p_scan.add_argument("--n-max", type=int, default=10)
    p_scan.add_argument("--range", default="0:0.8")
    p_scan.add_argument("--out", required=True)
    p_scan.add_argument("--svg", default=None)
    p_scan.add_argument("--workers", type=int, default=1)
    p_scan.set_defaults(func=cmd_scan)

    p_verify = sub.add_parser("verify", help="run property verification sweeps")
    v_sub = p_verify.add_subparsers(dest="check", required=True)

    v_bounds = v_sub.add_parser("bounds", help="M_n monotonicity and limit")
    v_bounds.add_argument("--n-max", type=int, default=1000)
    v_bounds.add_argument("--samples", type=int, default=9)
    v_bounds.add_argument("--limit-tol", type=float, default=1e-3)

    v_coeffs = v_sub.add_parser("coeffs", help="coefficient sign lemma on the triangle")
    v_coeffs.add_argument("--samples", type=int, default=200)
    v_coeffs.add_argument("--tol", type=float, default=1e-12)

    v_circle = v_sub.add_parser("circle", help="circle-interval norm relation")
    v_circle.add_argument("--n-max", type=int, default=3)

    v_jacobi = v_sub.add_parser("jacobi", help="weighted sup against the closed-form bound")
    v_jacobi.add_argument("--n-max", type=int, default=20)
    v_jacobi.add_argument("--samples", type=int, default=5)

    for v in (v_bounds, v_coeffs, v_circle, v_jacobi):
        v.add_argument("--format", choices=("text", "json"), default="text")
        v.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"invalid arguments: {exc}\n")
        return 1
    except _SOLVER_ERRORS as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
