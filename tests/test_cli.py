"""Tests for the command-line interface: documents, CSV/SVG emission, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from widomlab import minimax
from widomlab.cli import main
from widomlab.minimax import ExchangeError, solve
from widomlab.special import WeightParams


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_solve_document_fields(capsys):
    code, doc = run_json(capsys, ["solve", "--rho-a", "0", "--rho-b", "0", "--degree", "2"])
    assert code == 0
    assert doc["degree"] == 2
    assert abs(doc["norm"] - 0.5) < 1e-12
    assert abs(doc["widom"] - 2.0) < 1e-12
    assert np.allclose(doc["coefficients"], [-0.5, 0.0, 1.0], atol=1e-12)
    assert doc["coefficients"][-1] == 1.0
    assert len(doc["reference"]) == 3
    assert np.allclose(doc["roots"], [-math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)
    assert doc["levelling_defect"] <= 1e-12


def test_solve_known_widom_values(capsys):
    code, doc = run_json(capsys, ["solve", "--rho-a", "0.5", "--rho-b", "0.5", "--degree", "2"])
    assert code == 0 and abs(doc["widom"] - 1.0) < 1e-10
    code, doc = run_json(capsys, ["solve", "--rho-a", "1", "--rho-b", "1", "--degree", "1"])
    assert code == 0 and abs(doc["widom"] - 0.769800) < 1e-6


def test_solve_writes_file_and_round_trips(tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = main(
        ["solve", "--rho-a", "0.7", "--rho-b", "0.3", "--degree", "6", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    # serialized floats reproduce the in-memory doubles exactly
    sol = solve(WeightParams(0.7, 0.3), 6)
    assert doc["norm"] == sol.norm
    assert doc["widom"] == sol.widom
    assert tuple(doc["reference"]) == sol.reference
    # re-evaluating the document reproduces the norm
    theta = np.linspace(0.0, np.pi, 20001)
    x = np.cos(theta)
    p = np.polynomial.polynomial.polyval(x, np.asarray(doc["coefficients"]))
    weighted = (1.0 - x) ** 0.7 * (1.0 + x) ** 0.3 * np.abs(p)
    grid_max = float(np.max(weighted))
    assert grid_max <= doc["norm"] * (1.0 + 1e-10)
    assert grid_max >= doc["norm"] * (1.0 - 1e-6)


def test_solve_exit_codes(capsys):
    assert main(["solve", "--rho-a", "0", "--rho-b", "0"]) == 1  # missing --degree
    assert main(["solve", "--rho-a", "-1", "--rho-b", "0", "--degree", "2"]) == 1
    assert main(["solve", "--rho-a", "0", "--rho-b", "0", "--degree", "-3"]) == 1
    code = main(
        ["solve", "--rho-a", "0.9", "--rho-b", "0.2", "--degree", "12", "--max-iter", "1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "solver failure" in err



def test_non_finite_tolerances_exit_1(capsys):
    # a NaN --tol once stalled the solver and exited 2, as a solver failure
    assert main(["solve", "--rho-a", "0.3", "--rho-b", "0.6", "--degree", "8", "--tol", "nan"]) == 1
    assert main(["verify", "bounds", "--n-max", "200", "--samples", "3", "--limit-tol", "nan"]) == 1
    assert main(["verify", "coeffs", "--samples", "25", "--tol", "nan"]) == 1
    assert "finite" in capsys.readouterr().err


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_widom_documents(capsys):
    code, doc = run_json(capsys, ["widom", "--rho-a", "1", "--rho-b", "1", "--n-max", "10"])
    assert code == 0
    assert doc["classification"] == "Decreasing"
    assert len(doc["values"]) == 10 and doc["asymptote"] == 0.5
    code, doc = run_json(capsys, ["widom", "--rho-a", "0.5", "--rho-b", "0.5", "--n-max", "10"])
    assert code == 0 and doc["classification"] == "Constant"
    code, doc = run_json(
        capsys, ["widom", "--rho-a", "0.25", "--rho-b", "0.25", "--n-max", "10"]
    )
    assert code == 0 and doc["classification"] == "Increasing"
    assert main(["widom", "--rho-a", "0.5", "--rho-b", "0.5", "--n-max", "1"]) == 1


def test_scan_csv_layout(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(
        ["scan", "--resolution", "2", "--n-max", "3", "--range", "0:0.5", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["rho_a", "rho_b", "classification", "w1", "w2", "w3"]
    assert len(rows) == 1 + 4
    # row-major with rho_a fastest
    coords = [(float(r[0]), float(r[1])) for r in rows[1:]]
    assert coords == [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)]
    assert rows[1][2] == "Constant"
    assert rows[4][2] == "Constant"
    for row in rows[1:]:
        assert all(math.isfinite(float(v)) for v in row[3:])


def test_scan_svg_emission(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    svg = tmp_path / "scan.svg"
    code = main(
        [
            "scan", "--resolution", "4", "--n-max", "3", "--range", "0:0.8",
            "--out", str(out), "--svg", str(svg),
        ]
    )
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")
    assert text.count("<circle ") == 2
    assert "#404040" in text and "#c8c8c8" in text
    assert "clipPath" in text and "stroke-dasharray" in text
    assert text.count("<rect ") >= 4 * 4


def test_scan_bad_arguments(tmp_path, capsys):
    assert main(["scan", "--resolution", "1", "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["scan", "--range", "nonsense", "--out", str(tmp_path / "x.csv")]) == 1
    # as `widom --n-max 1` does, instead of writing a CSV of failed cells
    out = tmp_path / "y.csv"
    assert main(["scan", "--resolution", "2", "--n-max", "1", "--out", str(out)]) == 1
    assert "n_max must be at least 2" in capsys.readouterr().err
    assert not out.exists()
    code = main(
        ["scan", "--resolution", "2", "--n-max", "2", "--range", "0:0.4",
         "--out", "/no-such-dir/deep/x.csv"]
    )
    assert code == 1


def test_verify_commands_pass(capsys):
    assert main(["verify", "coeffs", "--samples", "25"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["verify", "bounds", "--n-max", "200", "--samples", "3"]) == 0
    assert main(["verify", "circle", "--n-max", "1"]) == 0
    assert main(["verify", "jacobi", "--n-max", "4", "--samples", "2"]) == 0


def test_verify_jacobi_builds_each_grid_once(monkeypatch, capsys):
    # the default sweep: 25 weights at n = 1..20, degree after degree in 8
    # batches of at most 64 problems, on 20 degrees times 4 tail kinds (each
    # exponent 0 or not) of grids; a batch builds each of its grids once, and
    # the 7 degrees that two batches split take 11 grids twice
    built, tail_grid = [], minimax._tail_grid
    monkeypatch.setattr(minimax, "_tail_grid", lambda *args: built.append(args) or tail_grid(*args))
    assert main(["verify", "jacobi"]) == 0
    assert len(built) == 91


def test_verify_circle_samples_each_sup_at_its_bandwidth(monkeypatch, capsys):
    # the default sweep: 16 lifts of degree 2n + 1 <= 7 at 20 b + 100 angles
    # each (b = 2n + 1 + e_plus + e_minus), and 10 Erdos-Lax checks whose |F'|
    # and |F| share 20 ceil(S) + 100; once 4096 a lift and 16384 a check, 393,216 in all
    from widomlab import circle

    sampled, peaks = [], circle._circle_peaks
    monkeypatch.setattr(circle, "_circle_peaks", lambda y: sampled.append(y.size) or peaks(y))
    assert main(["verify", "circle"]) == 0
    assert len(sampled) == 16 + 2 * 10
    assert sum(sampled) < 20000


# the json documents of each sweep, byte for byte: batching a sweep over
# degrees or weights must not move any digit of them
GOLDEN = Path(__file__).with_name("golden")
REDUCED = {
    "bounds": ["--n-max", "200", "--samples", "3"],
    "coeffs": ["--samples", "25"],
    "circle": ["--n-max", "1"],
    "jacobi": ["--n-max", "4", "--samples", "2"],
}


@pytest.mark.parametrize("sizes", ["reduced", "default"])
@pytest.mark.parametrize("check", sorted(REDUCED))
def test_verify_documents_match_golden(check, sizes, capsys):
    flags, suffix = (REDUCED[check], "") if sizes == "reduced" else ([], "_default")
    assert main(["verify", check, *flags, "--format", "json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / f"verify_{check}{suffix}.json").read_bytes()


def test_verify_json_report(capsys):
    code, doc = run_json(capsys, ["verify", "circle", "--n-max", "1", "--format", "json"])
    assert code == 0
    assert doc["check"] == "circle" and doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])
    assert all(c["value"] <= c["threshold"] for c in doc["checks"])


def test_verify_violation_exit_code(capsys):
    code = main(
        ["verify", "bounds", "--n-max", "100", "--samples", "3", "--limit-tol", "1e-9"]
    )
    assert code == 3
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_solver_failure_exit_code(monkeypatch, capsys):
    def stalled(w, n):
        raise ExchangeError("found 3 alternations, need 4")

    monkeypatch.setattr("widomlab.cli.verify_cn_relation", stalled)
    assert main(["verify", "circle"]) == 2
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "circle", "--n-max", "-1"],
        ["verify", "jacobi", "--n-max", "0"],
        ["verify", "jacobi", "--samples", "0"],
    ],
)
def test_verify_rejects_empty_sweeps(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "invalid arguments" in captured.err
    assert "PASS" not in captured.out


def test_import_loads_no_scipy():
    # scipy.optimize would dominate a cold `import widomlab`, and nothing in the package imports it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = "import sys, widomlab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point_runs():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "widomlab.cli", "solve", "--rho-a", "0", "--rho-b", "0",
         "--degree", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert abs(doc["widom"] - 2.0) < 1e-10
