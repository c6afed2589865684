"""Tests of the benchmark itself: seeded inputs, span arithmetic, tracing, checks."""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

import widomlab  # noqa: E402
from widomlab import WeightParams, solve  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)


def test_seed_moves_the_solve_and_oracle_points():
    for workload, key in (("high_degree", "solves"), ("verify", "oracle")):
        one = workloads.make_inputs(workload, 1)[key]
        two = workloads.make_inputs(workload, 2)[key]
        assert one != two
        assert [n for *_, n in one] == [n for *_, n in two]
    for ra, rb, _ in workloads.make_inputs("high_degree", 3)["solves"]:
        assert 0.0 <= ra <= 0.8 and 0.0 <= rb <= 0.8


def test_every_seed_draws_the_same_mix_of_pool_points():
    for seed in range(40):
        solves = workloads.make_inputs("high_degree", seed)["solves"]
        for n, (n_certified, n_failed) in workloads.HIGH_DEGREE_DRAWS.items():
            points = [(ra, rb) for ra, rb, m in solves if m == n]
            assert sum(p in workloads.CERTIFIED[n] for p in points) == n_certified
            assert sum(p in workloads.FAILED[n] for p in points) == n_failed
        assert solves[-1] == list(workloads.SLOW_SOLVE)


def test_units_are_counted_once_per_pass():
    outcomes = iter([0, 1, 0])
    tasks = [
        workloads.Task("a", lambda: next(outcomes), lambda out: workloads.Tally(2, out)),
        workloads.Task("b", lambda: None, lambda out: workloads.Tally(3, 0)),
    ]
    series = run.Series()
    for _ in range(3):
        series.run_pass(tasks)
    assert series.passes == 3
    assert (series.attempted, series.failed) == (5, 1)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("root", 0.0, -1, 10.0),
        Span("a", 1.0, 0, 4.0),
        Span("leaf", 2.0, 1, 3.0),
        Span("b", 5.0, 0, 9.0),
        Span("leaf", 6.0, 3, 6.5),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.5, 0.5])
    summary = tracing.summarise(spans)
    assert summary["leaf"]["calls"] == 2
    assert summary["leaf"]["self_s"] == pytest.approx(1.5)
    assert summary["root"]["total_s"] == pytest.approx(10.0)
    assert summary["leaf"]["p50_ms"] == pytest.approx(750.0)


def test_tracer_patches_every_namespace_and_restores_it():
    original = widomlab.minimax.solve
    tracer = tracing.Tracer(("minimax", "widom"))
    with tracer:
        assert widomlab.widom.solve is not original
        assert widomlab.solve is widomlab.minimax.solve is widomlab.widom.solve
        widomlab.widom.widom_factor(WeightParams(0.5, 0.5), 2)
    assert widomlab.minimax.solve is original and widomlab.widom.solve is original
    assert [s.name for s in tracer.spans] == ["widom.widom_factor", "minimax.solve"]
    assert tracer.spans[1].parent == 0
    assert tracing.self_times(tracer.spans)[0] >= 0.0


def test_recertify_rejects_a_nudged_coefficient():
    sol = solve(WeightParams(0.5, 0.25), 5)
    assert checks.recertify(sol).certified
    coeffs = list(sol.poly.cheb_coeffs)
    coeffs[0] += 1e-6 * sol.norm
    nudged = replace(sol, poly=replace(sol.poly, cheb_coeffs=tuple(coeffs)))
    with pytest.raises(checks.WrongAnswer):
        checks.recertify(nudged)


def test_recertify_flags_a_missed_certificate_without_aborting():
    sol = solve(WeightParams(0.5, 0.25), 5)
    loose = replace(sol, norm=sol.norm * (1.0 + 1e-10))
    assert not checks.recertify(loose).certified


def test_recertify_rejects_a_defect_above_the_ceiling():
    sol = solve(WeightParams(0.5, 0.25), 5)
    far = replace(sol, norm=sol.norm * (1.0 + 1e-6))
    with pytest.raises(checks.WrongAnswer):
        checks.recertify(far)


def test_scan_checks_catch_a_wrong_label():
    result = widomlab.widom.scan((0.0, 0.8), 2, n_max=3)
    labels = [cell.classification for cell in result.cells]
    checks.check_disc_rule(result.cells)
    checks.check_matrix(result.cells, labels)
    assert checks.check_mirror(result.cells, 2) <= checks.MIRROR_TOL
    flipped = list(result.cells)
    flipped[1] = replace(flipped[1], classification="Increasing")
    with pytest.raises(checks.WrongAnswer):
        checks.check_disc_rule(flipped)
    with pytest.raises(checks.WrongAnswer):
        checks.check_matrix(flipped, labels)


def test_scan_value_check_catches_a_nudged_factor():
    result = widomlab.widom.scan((0.0, 0.8), 2, n_max=3)
    stored = [list(cell.values) for cell in result.cells]
    checks.check_values(result.cells, stored)
    stored[3][2] *= 1.0 + 1e-10
    with pytest.raises(checks.WrongAnswer):
        checks.check_values(result.cells, stored)


def test_stored_scan_reference_is_complete():
    reference = json.loads(workloads.SCAN_REFERENCE.read_text())
    inputs = workloads.make_inputs("scan", 0)
    for lo, hi, res in inputs["grids"]:
        label = f"scan[{lo:g}:{hi:g}]x{res}"
        labels, values = reference["classification"][label], reference["values"][label]
        assert len(labels) == len(values) == res * res
        for cell_label, cell_values in zip(labels, values):
            assert (cell_values is None) == (cell_label == "Failed")
            assert cell_values is None or len(cell_values) == inputs["n_max"]
