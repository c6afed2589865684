"""Survey of ``minimax.solve`` outcomes, bit for bit, for comparing two versions of the solver.

    python tools/solve_survey.py SRC OUT [--against OTHER]

SRC is the root of a checkout; its ``src/widomlab`` is the package surveyed.
The points come from this checkout's ``bench/workloads.py`` (read, never
written) plus fixed sets of weights:

- ``scan``: both bench scan grids at n = 1..SCAN_N_MAX;
- ``pool``: the CERTIFIED and FAILED ``high_degree`` pool points and SLOW_SOLVE;
- ``weights``: the weights in WEIGHTS at n = 1..100;
- ``tiny``: the weights in TINY at n = 1..100, each with an exponent below
  0.01, where the error can peak in a boundary hump inside the first cell of
  the solver's grid;
- ``stall``: the points in STALL, where the cheap phase once plateaued above
  its hand-over gate, so that a survey covers the exit from the cheap phase;
- ``mid``: the weights in MID at n = WEIGHTS_N_MAX + 1 .. MID_N_MAX, the
  degrees below the grid FFT that no other set reaches.

The ``sups`` set is not a set of solves: it holds ``bounds._jacobi_sups``,
the weighted sups of the monic Jacobi polynomials, as ``float.hex`` strings,
on 9x9 weights of [0, 1/2]^2 at n = 0..SUPS_GRID_N_MAX (``grid``) and on
WEIGHTS and TINY at n = 0..SUPS_N_MAX (``weights``).  At the four constant
corners, rho_a and rho_b each 0 or 1/2, the sup at n >= 1 is
``2^{1-rho_a-rho_b-n}`` in closed form; per part the summary gives the worst
relative miss of those it holds (``corners``, at the (rho_a, rho_b, n) given as ``at``).

Every record holds the outcome (``solved`` or the solver error's type and
message) and, as ``float.hex`` strings, the norm, Widom factor, levelling
defect, coefficients, reference and roots.  Each returned solution (and each error's best
iterate) is re-checked in x by the bench's ``checks.recertify``: ``certified``
means a returned solution whose re-checked defect is at most 1e-12, and
``wrong`` lists the returned solutions whose re-check tripped (signs that
do not alternate, an overshoot above 1e-12 or a defect above 1e-9), and
``wrong_best`` the solver errors whose best iterate tripped it.  The summary
also gives per set the largest re-checked defect among certified records and
where it is (``margin``): how close the set's closest certificate sits to
the 1e-12 gate.  OUT gets the records and a summary as JSON.  With
``--against`` the summary also compares with a second
dump: the certificates lost and gained, the relative drift of the Widom
factors and roots where both dumps solved, and per set the number of records
that are bit-identical in every field, and per part of the ``sups`` set the
number of bit-identical sups and their worst relative drift (``drift``, at
the (rho_a, rho_b, n) given as ``at``).  Both dumps must come from the same
version of this script, since it decides which fields a record holds.

The scan and pool sets are solved a second time, each set in one
``minimax.solve_many`` call with one degree per weight, which cuts it into
lockstep batches as that SRC does: the scan set as ``widom.scan`` orders it
(the ``rho_a <= rho_b`` cells of each grid, degree after degree up to
SCAN_N_MAX), the pool set as listed.  The summary reports, per set, how many
of these batch records are bit-identical to the single solves (``batch``).  The pool set is
also solved once more through ``minimax.solve``, in reverse degree order, and
the summary reports how many of these records are bit-identical to the first
ones (``reordered``): a solver that carries state from one call to the next
shows there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the BLAS thread pin)

BENCH = Path(__file__).resolve().parent.parent / "bench"
WEIGHTS = ((1.0, 1.0), (0.5, 0.5), (0.25, 0.75), (0.0, 1.0), (0.75, 0.25), (1.5, 0.5), (0.1, 0.1), (2.0, 0.5))
TINY = ((0.0, 0.004), (0.001, 0.3), (1e-6, 1e-6))
WEIGHTS_N_MAX = 100
MID = ((0.25, 0.75), (0.1, 0.1))
MID_N_MAX = 142
SUPS_GRID_N_MAX = 60
SUPS_N_MAX = 40
# two cells of the 250x250 scan grid over [0, 0.8]^2
STALL = (
    (0.00321285140562249, 0.14779116465863454, 7),
    (0.00321285140562249, 0.6393574297188755, 6),
)


def _points(workloads) -> list[tuple[str, float, float, int]]:
    points = []
    for (lo, hi), res in workloads.SCAN_GRIDS:
        grid = [float(v) for v in np.linspace(lo, hi, res)]  # as widom.scan
        degrees = range(1, workloads.SCAN_N_MAX + 1)
        points += [("scan", ra, rb, n) for rb in grid for ra in grid for n in degrees]
    for pool in (workloads.CERTIFIED, workloads.FAILED):
        points += [("pool", ra, rb, n) for n, pts in sorted(pool.items()) for ra, rb in pts]
    points.append(("pool", *workloads.SLOW_SOLVE))
    for group, weights in (("weights", WEIGHTS), ("tiny", TINY)):
        points += [(group, ra, rb, n) for ra, rb in weights for n in range(1, WEIGHTS_N_MAX + 1)]
    points += [("stall", ra, rb, n) for ra, rb, n in STALL]
    points += [("mid", ra, rb, n) for ra, rb in MID for n in range(WEIGHTS_N_MAX + 1, MID_N_MAX + 1)]
    return points


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def _recheck(checks, sol, what: str) -> dict:
    try:
        check = checks.recertify(sol, what)
    except checks.WrongAnswer as exc:
        return {"wrong": str(exc)}
    return {"defect": check.defect, "overshoot": check.overshoot, "certified": check.certified}


def _survey_one(wl, checks, group: str, ra: float, rb: float, n: int) -> dict:
    errors = (wl.minimax.ConvergenceError, wl.minimax.ExchangeError, wl.minimax.DegeneracyError)
    try:
        sol = wl.minimax.solve(wl.special.WeightParams(ra, rb), n)
    except errors as exc:
        sol = exc
    return _record(checks, group, ra, rb, n, sol)


def _record(checks, group: str, ra: float, rb: float, n: int, sol) -> dict:
    """The record of one solve's outcome: a solution, or the solver error it raised."""
    rec = {"group": group, "rho_a": ra.hex(), "rho_b": rb.hex(), "n": n}
    what = f"solve({ra}, {rb}, {n})"
    if isinstance(sol, Exception):
        rec["outcome"] = type(sol).__name__
        rec["message"] = str(sol)
        best = getattr(sol, "best", None)
        if best is not None:
            rec["best_norm"] = best.norm.hex()
            rec["best_defect"] = best.levelling_defect.hex()
            rec["best_recheck"] = _recheck(checks, best, what)
        rec["certified"] = False
        return rec
    rec["outcome"] = "solved"
    rec["norm"] = sol.norm.hex()
    rec["widom"] = sol.widom.hex()
    rec["iterations"] = sol.iterations
    rec["defect"] = sol.levelling_defect.hex()
    rec["recheck"] = _recheck(checks, sol, what)
    rec["certified"] = bool(rec["recheck"].get("certified", False))
    rec["coef"] = _hexes(sol.poly.cheb_coeffs)
    rec["reference"] = _hexes(sol.reference)
    rec["roots"] = _hexes(sol.roots())
    return rec


def _batch_sets(wl, workloads) -> list[tuple[str, list, list[int]]]:
    """(set, weights, degrees) of each set's one solve_many call, the scan set as widom.scan orders it."""
    scan = []
    for (lo, hi), res in workloads.SCAN_GRIDS:
        grid = [float(v) for v in np.linspace(lo, hi, res)]
        triangle = [wl.special.WeightParams(grid[a], grid[b]) for b in range(res) for a in range(b + 1)]
        scan += [(w, n) for n in range(1, workloads.SCAN_N_MAX + 1) for w in triangle]
    pool = [(ra, rb, n) for group, ra, rb, n in _points(workloads) if group == "pool"]
    pool = [(wl.special.WeightParams(float(ra), float(rb)), int(n)) for ra, rb, n in pool]
    return [(group, [w for w, _ in p], [n for _, n in p]) for group, p in (("scan", scan), ("pool", pool))]


def batch_identical(wl, checks, workloads, records: list[dict]) -> dict:
    """Per set, the batch records equal in every field to the single solve's record."""
    single = {_key(r): r for r in records}
    same = {}
    for group, weights, degrees in _batch_sets(wl, workloads):
        outs = wl.minimax.solve_many(weights, degrees)
        tally = same.setdefault(group, [0, 0])
        for w, n, sol in zip(weights, degrees, outs):
            rec = _record(checks, group, w.rho_a, w.rho_b, n, sol)
            tally[0] += rec == single[_key(rec)]
            tally[1] += 1
    return {group: f"{a} of {b}" for group, (a, b) in same.items()}


def reordered_identical(wl, checks, records: list[dict]) -> str:
    """The pool records, solved again in reverse degree order, equal in every field to the first ones."""
    pool = [r for r in records if r["group"] == "pool"]
    again = sorted(pool, key=lambda r: r["n"], reverse=True)
    same = sum(
        _survey_one(wl, checks, "pool", float.fromhex(r["rho_a"]), float.fromhex(r["rho_b"]), r["n"]) == r
        for r in again
    )
    return f"{same} of {len(again)}"


def _sups(wl) -> list[dict]:
    """The records of the ``sups`` set: per weight, its sups at each degree from 0."""
    grid = [float(v) for v in np.linspace(0.0, 0.5, 9)]
    parts = (
        ("grid", [(ra, rb) for rb in grid for ra in grid], SUPS_GRID_N_MAX),
        ("weights", WEIGHTS + TINY, SUPS_N_MAX),
    )
    records = []
    for part, weights, n_max in parts:
        sups = wl.bounds._jacobi_sups([wl.special.WeightParams(ra, rb) for ra, rb in weights], np.arange(n_max + 1))
        for (ra, rb), row in zip(weights, sups):
            records.append({"part": part, "rho_a": ra.hex(), "rho_b": rb.hex(), "sups": _hexes(row)})
    return records


def corner_misses(sups: list[dict]) -> dict:
    """Per part of the ``sups`` set, the worst relative miss of the sups at the constant
    corners against their closed form ``2^{1-rho_a-rho_b-n}``, at n >= 1, with where it is."""
    worst = {}
    for rec in sups:
        ra, rb = float.fromhex(rec["rho_a"]), float.fromhex(rec["rho_b"])
        if not {ra, rb} <= {0.0, 0.5}:
            continue
        tally = worst.setdefault(rec["part"], {"miss": 0.0, "at": None})
        for n, value in enumerate(rec["sups"][1:], start=1):
            want = 2.0 ** (1.0 - ra - rb - n)
            miss = abs(float.fromhex(value) - want) / want
            if miss > tally["miss"]:
                tally.update(miss=miss, at=f"({ra:g}, {rb:g}, {n})")
    return worst


def compare_sups(sups: list[dict], other: list[dict]) -> dict:
    """Per part of the ``sups`` set, the sups equal to ``other``'s bit for bit, out of those
    both dumps hold, and the worst relative drift between the two, with where it is."""
    theirs = {(r["part"], r["rho_a"], r["rho_b"]): r["sups"] for r in other}
    same = {}
    for rec in sups:
        old = theirs.get((rec["part"], rec["rho_a"], rec["rho_b"]))
        if old is None:
            continue
        tally = same.setdefault(rec["part"], [0, 0, 0.0, None])
        tally[0] += sum(a == b for a, b in zip(rec["sups"], old))
        tally[1] += min(len(rec["sups"]), len(old))
        for n, (a, b) in enumerate(zip(rec["sups"], old)):
            drift = _max_rel([a], [b])
            if drift > tally[2]:
                tally[2:] = drift, f"({float.fromhex(rec['rho_a']):g}, {float.fromhex(rec['rho_b']):g}, {n})"
    return {part: {"identical": f"{a} of {b}", "drift": d, "at": at} for part, (a, b, d, at) in same.items()}


def _key(rec: dict) -> tuple:
    return rec["group"], rec["rho_a"], rec["rho_b"], rec["n"]


def _label(key: tuple) -> str:
    group, ra, rb, n = key
    return f"{group}({float.fromhex(ra):g}, {float.fromhex(rb):g}, {n})"


def _max_rel(one: list[str], two: list[str], scale: float = 0.0) -> float:
    worst = 0.0
    for a, b in zip(one, two):
        a, b = float.fromhex(a), float.fromhex(b)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), scale, 1e-300))
    return worst


GROUPS = ("scan", "pool", "weights", "tiny", "stall", "mid")


def _margin(records: list[dict]) -> dict | None:
    """The largest re-checked defect among the certified ``records``, and its record."""
    certified = [r for r in records if r["certified"]]
    if not certified:
        return None
    worst = max(certified, key=lambda r: r["recheck"]["defect"])
    return {"defect": worst["recheck"]["defect"], "at": _label(_key(worst))}


def summarize(records: list[dict]) -> dict:
    out = {}
    for group in GROUPS:
        recs = [r for r in records if r["group"] == group]
        out[group] = {
            "margin": _margin(recs),
            "solves": len(recs),
            "certified": sum(r["certified"] for r in recs),
            "returned": sum(r["outcome"] == "solved" for r in recs),
            "wrong": [_label(_key(r)) for r in recs if "wrong" in r.get("recheck", {})],
            "wrong_best": [_label(_key(r)) for r in recs if "wrong" in r.get("best_recheck", {})],
        }
    return out


def compare(records: list[dict], other: list[dict]) -> dict:
    """Certificates lost and gained against ``other``, drift where both solved, and
    per set the records equal to ``other``'s in every field, out of those both dumps hold."""
    theirs = {_key(r): r for r in other}
    lost, gained = [], []
    drift = {"scan": {"widom": 0.0, "roots": 0.0}, "pool": {"widom": 0.0, "roots": 0.0}}
    identical = {group: [0, 0] for group in GROUPS}
    for rec in records:
        old = theirs.get(_key(rec))
        if old is None:
            continue
        identical[rec["group"]][0] += rec == old
        identical[rec["group"]][1] += 1
        if old["certified"] and not rec["certified"]:
            lost.append(_label(_key(rec)))
        if rec["certified"] and not old["certified"]:
            gained.append(_label(_key(rec)))
        group = rec["group"]
        if group in drift and rec["outcome"] == old["outcome"] == "solved":
            if group == "pool" and not (rec["certified"] and old["certified"]):
                continue
            d = drift[group]
            d["widom"] = max(d["widom"], _max_rel([rec["widom"]], [old["widom"]]))
            d["roots"] = max(d["roots"], _max_rel(rec["roots"], old["roots"], 1.0))
    identical = {group: f"{same} of {both}" for group, (same, both) in identical.items()}
    return {"lost": lost, "gained": gained, "drift": drift, "identical": identical}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="checkout root whose src/widomlab is surveyed")
    parser.add_argument("out", type=Path, help="JSON file to write")
    parser.add_argument("--against", type=Path, help="an earlier dump to compare with")
    args = parser.parse_args(argv)
    if not (args.src / "src" / "widomlab").is_dir():
        parser.error(f"{args.src} has no src/widomlab")
    sys.path[:0] = [str(args.src.resolve() / "src"), str(BENCH)]
    import checks
    import widomlab
    import workloads

    records = []
    for group, ra, rb, n in _points(workloads):
        records.append(_survey_one(widomlab, checks, group, float(ra), float(rb), int(n)))
    result = {"src": str(args.src), "summary": summarize(records)}
    result["batch"] = batch_identical(widomlab, checks, workloads, records)
    result["reordered"] = reordered_identical(widomlab, checks, records)
    sups = _sups(widomlab)
    result["corners"] = corner_misses(sups)
    if args.against:
        other = json.loads(args.against.read_text())
        result["comparison"] = compare(records, other["records"])
        result["comparison"]["sups"] = compare_sups(sups, other["sups"])
    args.out.write_text(json.dumps({**result, "records": records, "sups": sups}, indent=1) + "\n")
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
