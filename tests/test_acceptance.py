"""Acceptance gate: end-to-end checks on the bundled examples plus the
randomized battery.  Each test prints a single pass/fail line with the
measured quantity and its tolerance; run with -s to see all of them.
"""

import csv
import json
import math
import subprocess
import sys
import time
from pathlib import Path

from _audits import max_node_discontinuity, reduce_to_y, respec, sign_change
from _battery import get_battery
from idepca import criteria as crit
from idepca.cli import load_problem
from idepca.criteria import (
    CriterionVerdict,
    advanced_pointwise_threshold,
    advanced_sum_threshold,
    delayed_liminf_threshold,
    delayed_sum_threshold,
)
from idepca.diffeq import (
    TooShort,
    Verdict,
    discrete_oscillation_check,
    solve,
)
from idepca.quad import integrate
from idepca.reduction import (
    Direction,
    ProblemSpec,
    build_discrete_system,
    compute_qn_direct,
)
from idepca.trajectory import reconstruct

REPO = Path(__file__).resolve().parent.parent
EXAMPLE1 = REPO / "problems" / "example1.json"
EXAMPLE2 = REPO / "problems" / "example2.json"

E = math.e


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "idepca.cli", *map(str, args)],
        capture_output=True, text=True,
    )


def report(num, ok, detail):
    line = f"acceptance criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def with_horizon(spec, horizon):
    return respec(spec, horizon=horizon)


def test_01_first_example_coefficient_table(tmp_path):
    out = tmp_path / "coeffs.csv"
    started = time.perf_counter()
    res = run_cli("coeffs", EXAMPLE1, "--out", out)
    elapsed = time.perf_counter() - started

    a_exact = 1.0 / (2.0 * E)
    b_exact = (1.0 - E) / (6.0 * E)
    worst = math.inf
    if res.returncode == 0:
        _, rows = read_rows(out)
        worst = max(
            max(abs(float(r[1]) - a_exact), abs(float(r[2]) - b_exact))
            for r in rows if int(r[0]) <= 50
        )
    report(1, res.returncode == 0 and worst <= 1e-9 and elapsed < 5.0,
           f"max closed-form deviation {worst:.3e} (tol 1e-9), "
           f"runtime {elapsed:.2f}s (limit 5s)")


def test_02_first_example_oscillation_verdict(tmp_path):
    out = tmp_path / "report.json"
    ok = run_cli("analyze", EXAMPLE1, "--out", out).returncode == 0
    doc = json.loads(out.read_text()) if ok else {}
    by_id = {c["criterion_id"]: c for c in doc.get("criteria", [])}
    verdict_ok = (doc.get("overall_verdict") == "Oscillatory"
                  and by_id.get("ErbeZhang", {}).get("verdict") == "Fires")

    pf = load_problem(EXAMPLE1)
    ds = build_discrete_system(pf.spec)
    q_star_exact = (8.0 / 3.0) * E ** 3 * (E - 1.0)
    q_err = max(abs(-ds.q(n) - q_star_exact) / q_star_exact
                for n in ds.q_indices())

    prefix = tmp_path / "sim"
    sim_ok = run_cli("simulate", EXAMPLE1, "--horizon", 200,
                     "--out", prefix).returncode == 0
    sim_verdict = ""
    if sim_ok:
        sim_verdict = json.loads(
            Path(f"{prefix}.verdicts.json").read_text())["discrete"]["verdict"]

    report(2, verdict_ok and q_err <= 1e-6 and sim_verdict == "Oscillatory",
           f"analyze verdict {doc.get('overall_verdict')!r} (ErbeZhang "
           f"{by_id.get('ErbeZhang', {}).get('verdict')!r}), Q* relative "
           f"error {q_err:.3e} (tol 1e-6), horizon-200 discrete verdict "
           f"{sim_verdict!r}")


def test_03_second_example_coefficients_and_positivity(tmp_path):
    out = tmp_path / "coeffs.csv"
    ok = run_cli("coeffs", EXAMPLE2, "--out", out).returncode == 0
    worst = math.inf
    if ok:
        _, rows = read_rows(out)
        worst = max(
            max(abs(float(r[1]) - (n + 1) / (2.0 * n)),
                abs(float(r[2]) - 1.0 / (2.0 * n)))
            for r in rows for n in [int(r[0])] if 1 <= n <= 100
        )

    rep = tmp_path / "report.json"
    ok_analyze = run_cli("analyze", EXAMPLE2, "--out", rep).returncode == 0
    doc = json.loads(rep.read_text()) if ok_analyze else {}
    by_id = {c["criterion_id"]: c for c in doc.get("criteria", [])}
    verdict_ok = (doc.get("overall_verdict") == "Nonoscillatory"
                  and by_id.get("OcalanAkinNonOsc", {}).get("verdict") == "Fires")

    pf = load_problem(EXAMPLE2)
    ds = build_discrete_system(with_horizon(pf.spec, 505))
    sol = solve(ds, pf.spec.initial_window)
    changes = [n for n in range(sol.n_lo, min(sol.n_hi, 500))
               if sign_change(sol.value(n), sol.value(n + 1))]

    report(3, worst <= 1e-9 and verdict_ok and not changes,
           f"max coefficient deviation {worst:.3e} for n <= 100 (tol 1e-9), "
           f"analyze verdict {doc.get('overall_verdict')!r}, sign changes "
           f"through n=500: {len(changes)}"
           + (f" (first at n={changes[0]})" if changes else "")
           + (f", solver overflow at n={sol.truncated_at}"
              if sol.truncated_at else ""))


def test_04_dual_route_q_agreement():
    worst = 0.0
    compared = 0
    for inst in get_battery():
        ds = inst.ds
        for n in ds.q_indices():
            if n > 40:
                continue
            direct = compute_qn_direct(inst.spec, n)
            ratio = ds.q(n)
            scale = max(abs(ratio), abs(direct))
            if scale > 0.0:
                worst = max(worst, abs(ratio - direct) / scale)
            compared += 1
    report(4, worst <= 1e-8,
           f"max relative route disagreement {worst:.3e} over {compared} "
           f"indices (tol 1e-8)")


def test_05_reduced_form_residual():
    worst = 0.0
    for inst in get_battery():
        ds, sol, k = inst.ds, inst.sol, inst.spec.k
        y = reduce_to_y(ds, sol)
        y_of = lambda n: y[n - ds.n0]
        scale = max(abs(v) for v in y)
        if inst.spec.direction is Direction.DELAYED:
            indices = range(ds.n0, min(ds.horizon, sol.n_hi))
            dev = lambda n: n - k
        else:
            # the rearranged sweep leaves the window free at the start index
            start = ds.n0 if k == 1 else ds.n0 + 1
            indices = range(start, min(ds.horizon - k + 1, sol.n_hi - k + 1))
            dev = lambda n: n + k
        residual = 0.0
        for n in indices:
            if n in ds.q_indices() and ds.n0 <= dev(n) <= ds.n0 + len(y) - 1:
                residual = max(residual,
                               abs((y_of(n + 1) - y_of(n)) - ds.q(n) * y_of(dev(n))))
        worst = max(worst, residual / max(1e-300, scale))
    report(5, worst <= 1e-8,
           f"max residual / max tail |y_n| = {worst:.3e} (tol 1e-8)")


def test_06_continuity_without_impulses():
    worst = 0.0
    for inst in get_battery():
        s = inst.spec
        variant = ProblemSpec(
            a=s.a, b=s.b, direction=s.direction, k=s.k,
            impulse=lambda n: 1.0, initial_window=s.initial_window,
            horizon=12, n0=0,
        )
        ds = build_discrete_system(variant)
        sol = solve(ds, variant.initial_window)
        traj = reconstruct(variant, ds, sol, 2)
        worst = max(worst, max_node_discontinuity(traj))
    report(6, worst <= 1e-8,
           f"max node discontinuity {worst:.3e} (tol 1e-8)")


def test_07_node_consistency():
    worst = 0.0
    for inst in get_battery():
        traj = reconstruct(inst.spec, inst.ds, inst.sol, 1)
        for rec in traj.nodes:
            if math.isfinite(rec.z_right):
                gap = abs(rec.jump_factor * rec.z_left - rec.z_right)
                worst = max(worst,
                            gap / max(1e-300, abs(rec.z_right), abs(rec.z_left)))
    report(7, worst <= 1e-7,
           f"max relative jump-identity gap {worst:.3e} (tol 1e-7)")


def test_08_threshold_identities():
    cases = [
        (delayed_liminf_threshold(3), 27.0 / 256.0),
        (delayed_sum_threshold(3), 81.0 / 256.0),
        (advanced_sum_threshold(5), 1024.0 / 3125.0),
        (advanced_pointwise_threshold(5), 256.0 / 3125.0),
        (delayed_liminf_threshold(1), 0.25),
        (advanced_pointwise_threshold(2), 0.25),
    ]
    worst = max(abs(got - want) for got, want in cases)
    report(8, worst <= 1e-15,
           f"max threshold deviation {worst:.3e} over {len(cases)} identities "
           f"(tol 1e-15)")


def test_09_criteria_soundness_against_simulation():
    counterexamples = []
    fired = 0
    for inst in get_battery():
        firing = [r for r in crit.evaluate_all(inst.ds, 0.5)
                  if r.verdict is CriterionVerdict.FIRES]
        if not firing:
            continue
        try:
            verdict = discrete_oscillation_check(inst.sol, 0.5).verdict
        except TooShort:
            verdict = None
        for r in firing:
            fired += 1
            if r.criterion_id in crit.OSCILLATION_IDS:
                sound = verdict is Verdict.OSCILLATORY
            else:
                sound = verdict in (Verdict.EVENTUALLY_POSITIVE,
                                    Verdict.EVENTUALLY_NEGATIVE)
            if not sound:
                counterexamples.append(
                    f"instance {inst.index} ({inst.spec.direction.value} "
                    f"k={inst.spec.k}): {r.criterion_id} fired but simulation "
                    f"says {verdict.value if verdict else 'TooShort'}")
    detail = (f"{fired} criterion firings, "
              f"{len(counterexamples)} counterexamples")
    if counterexamples:
        detail += " [" + "; ".join(counterexamples) + "]"
    report(9, not counterexamples, detail)


def test_10_quadrature_closed_forms():
    checks = [
        abs(integrate(lambda s: 1.0, 0.0, 1.0, 1e-10).value - 1.0),
        abs(integrate(math.exp, 0.0, 1.0, 1e-10).value - (E - 1.0)),
        abs(integrate(lambda s: 1.0 / s, 1.0, 2.0, 1e-10).value - math.log(2.0)),
    ]
    f = lambda s: math.exp(s) * math.sin(3.0 * s)
    antisym = integrate(f, 2.0, 0.5, 1e-10).value == -integrate(f, 0.5, 2.0, 1e-10).value
    report(10, max(checks) <= 1e-10 and antisym,
           f"max closed-form error {max(checks):.3e} (tol 1e-10), "
           f"orientation antisymmetry {'exact' if antisym else 'violated'}")
