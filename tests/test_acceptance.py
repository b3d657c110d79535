"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 3 compares the proposed selection with random K-subsets for K in
{4, 6, 8}.  The abstract claims a more power-efficient design than random
selection; it promises nothing about MSRR.  What the test checks:

* K <= 6: no subarray meets the constraint family (user beams at +/-45 deg
  with SINR floor 10 leak more than the 0.5 ceiling into the adjacent
  stopbands).  The proposed refit and every random draw must then fail with
  a Lagrangian certificate of infeasibility, and the proposed one is
  re-checked against dense matrices built in ``helpers``.  A feasible
  proposed design against no feasible draw passes; an infeasible proposed
  design against any feasible draw fails.
* K = 8: the proposed refit must use less transmit power than the random
  mean.  Its MSRR must beat the random mean MSRR, unless every random draw
  above that mean also costs more than the random mean power.  On this
  scenario the random mean MSRR (15.9) rests on draws of the three
  contiguous 8-element subarrays: refitting all 45 K=8 supports, only those
  three beat it, at 18.2 W or more against a random mean of 5.6 W, so no
  power-minimizing selection can win on both.  The test still fails if
  random selection ever gets its MSRR edge without paying for it in power.
"""

import json
import time
import warnings
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sparsebeam as sb
from sparsebeam.cli import main as cli_main

from helpers import (
    certificate_holds,
    dense_constraint,
    dense_response_matrix,
    dense_selector_matrix,
    dense_sinr_matrix,
    of_kind,
    project,
    quad_form,
    random_stack,
    slack,
    subarray,
)
from oracles import penalty_oracle, prox_oracle, response

_cache = {}


def _announce(number, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {status} {detail}")


def _pipeline(scenario):
    """solve -> select K -> refit, shared by criteria 2 and 4."""
    if "design" not in _cache:
        problem = sb.assemble(scenario)
        t0 = time.perf_counter()
        state = sb.solve(problem, scenario.admm)
        support = sb.select_support(
            state.w, scenario.num_selected, problem.M, problem.N
        )
        stack = sb.refit(problem, support, scenario.admm)
        elapsed = time.perf_counter() - t0
        _cache["design"] = (problem, state, support, stack, elapsed)
    return _cache["design"]


def test_criterion_01_scenario_fidelity(paper_scenario, paper_problem):
    sc = paper_scenario
    assert sc.N == 10 and sc.M == 2 and sc.num_selected == 8
    assert sc.mainlobe_threshold == 10.0
    assert sc.stopband_threshold == 0.5
    assert sc.sinr_target == (10.0, 10.0)
    assert sc.noise_variance == (1.0, 1.0)
    assert sc.antenna_power_limit_w == tuple([10.0] * 10)
    assert sc.admm.eta == 0.1 and sc.admm.rho == 50.0 and sc.admm.k_max == 100
    assert paper_problem.L == 38
    _announce(1, True, f"L={paper_problem.L}, all parameter values as published")


def test_criterion_02_end_to_end_design(paper_scenario):
    problem, state, support, stack, elapsed = _pipeline(paper_scenario)
    w = stack.w
    assert len(support) == 8
    sc = paper_scenario
    for c in of_kind(problem.constraints, "stopband"):
        assert response(c, w) <= sc.stopband_threshold * (1 + 1e-2)
    for c in of_kind(problem.constraints, "passband"):
        assert response(c, w) >= sc.mainlobe_threshold * (1 - 1e-2)
    for c in of_kind(problem.constraints, "antenna_power"):
        assert c.f - slack(c, w) <= c.limit * (1 + 1e-6)
    sinr = sb.design_report(w, problem).sinr
    assert np.all(sinr >= np.array(sc.sinr_target) * (1 - 1e-2))
    assert elapsed <= 10.0, f"pipeline took {elapsed:.1f}s (budget 10s)"
    _announce(
        2, True,
        f"K=8 design feasible at stated tolerances in {elapsed:.2f}s "
        f"(TxPower={sb.tx_power(w):.3f} W)",
    )


def _ordering_failure(problem, support, refit_error, tx_prop, msrr_prop, base):
    """Why criterion 3 fails at one K, or None when it holds."""
    if base.infeasible_count == base.trials:
        if refit_error is None:
            return None  # a feasible design where random selection finds none
        if refit_error.certificate is None:
            return "proposed refit infeasible without a certificate"
        if not certificate_holds(subarray(problem, support), refit_error.certificate.multipliers):
            return "proposed refit's certificate fails the dense check"
        if base.certified_count != base.trials:
            return (
                f"only {base.certified_count}/{base.trials} infeasible random "
                "draws are certified"
            )
        return None
    if refit_error is not None:
        return "proposed refit infeasible while some random draws are feasible"
    if not tx_prop < base.tx_power_mean:
        return "TxPower ordering VIOLATED"
    if msrr_prop > base.msrr_mean:
        return None
    unpaid = [
        (tx, m) for tx, m in zip(base.tx_powers, base.msrrs)
        if m > base.msrr_mean and not tx > base.tx_power_mean
    ]
    if unpaid:
        return (
            f"MSRR ordering VIOLATED: {len(unpaid)} random draws beat the mean "
            f"MSRR at no more than the mean TxPower, e.g. {unpaid[0]}"
        )
    return None


def test_criterion_03_sweep_ordering(paper_scenario):
    problem, state, _, _, _ = _pipeline(paper_scenario)
    trials = 100
    lines, failures = [], []
    for K in (4, 6, 8):
        support = sb.select_support(state.w, K, problem.M, problem.N)
        refit_error = None
        try:
            stack = sb.refit(problem, support, paper_scenario.admm)
            tx_prop = sb.tx_power(stack.w)
            msrr_prop = sb.msrr(stack.w, problem)
        except sb.InfeasibleProblemError as err:
            refit_error = err
            tx_prop = msrr_prop = float("nan")
        base = sb.random_selection_baseline(
            problem, K, trials, paper_scenario.seed, paper_scenario.admm
        )
        verdict = "feasible" if refit_error is None else (
            "certified infeasible" if refit_error.certificate is not None
            else "infeasible, uncertified"
        )
        line = (
            f"K={K}: proposed TxPower={tx_prop:.4f} MSRR={msrr_prop:.4f} ({verdict}) | "
            f"random mean TxPower={base.tx_power_mean:.4f} "
            f"MSRR={base.msrr_mean:.4f} infeasible={base.infeasible_count}/{trials} "
            f"certified={base.certified_count}"
        )
        above = [
            tx for tx, m in zip(base.tx_powers, base.msrrs) if m > base.msrr_mean
        ]
        if above:
            line += f", {len(above)} draws above mean MSRR from {min(above):.4f} W"
        lines.append(line)
        failure = _ordering_failure(problem, support, refit_error, tx_prop, msrr_prop, base)
        if failure is not None:
            failures.append(f"K={K}: {failure}")
    detail = "; ".join(lines)
    if failures:
        _announce(3, False, detail)
        pytest.fail(
            "proposed-vs-random ordering does not hold on this scenario:\n  "
            + "\n  ".join(failures)
            + "\n  measured:\n  "
            + "\n  ".join(lines)
        )
    _announce(3, True, detail)


def test_criterion_04_beampattern_shape(paper_scenario):
    problem, _, _, stack, _ = _pipeline(paper_scenario)
    angles, pattern = sb.beampattern(stack.w, problem)
    peaks = [
        angles[i]
        for i in range(1, len(angles) - 1)
        if pattern[i] > pattern[i - 1] and pattern[i] > pattern[i + 1]
    ]
    targets = {
        "mainlobe center": 0.0,
        "user at -45 deg": -45.0,
        "user at +45 deg": 45.0,
    }
    nearest = {}
    for name, target in targets.items():
        distance = min(abs(p - target) for p in peaks)
        nearest[name] = distance
        assert distance <= 3.0, f"no local maximum within 3 deg of {name}"
    for c in of_kind(problem.constraints, "stopband"):
        assert response(c, stack.w) <= paper_scenario.stopband_threshold * (1 + 1e-2)
    _announce(
        4, True,
        "peak offsets: " + ", ".join(f"{k}: {v:.1f} deg" for k, v in nearest.items()),
    )


def test_criterion_05_prox_oracle():
    rng = np.random.default_rng(55)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        M = int(rng.integers(1, 5))
        N = int(rng.integers(1, 5))
        eta = float(rng.uniform(0.0, 2.0))
        rho = float(rng.uniform(0.5, 100.0))
        L = int(rng.integers(1, 50))
        c = random_stack(rng, M, N)
        if i % 4 == 0:  # exercise the dead-zone boundary
            lam = eta / (rho * L)
            top = sb.group_norms(c, M, N).max()
            if top > 0:
                c = c * (lam / top) * rng.uniform(0.5, 1.5)
        got = sb.group_shrink(c, eta, rho, L, M, N)
        want = prox_oracle(c, eta, rho, L, M, N)
        worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst <= 1e-8
    # dead-zone inputs map to exact zeros
    c = np.full(4, 1e-4 + 1e-4j)
    out = sb.group_shrink(c, 1.0, 1.0, 1, 2, 2)  # lam = 1 >> group norms
    assert np.all(out == 0)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    _announce(5, True, f"1000 instances, max |diff| = {worst:.2e}, {elapsed:.1f}s")


def _random_infeasible_case(kind, rng):
    M = 2
    N = int(rng.integers(2, 5))  # dimension M*N in 4..8
    geom = sb.ArrayGeometry(N, 0.5)
    if kind == "antenna_power":
        c = sb.AntennaPowerConstraint(
            int(rng.integers(0, N)), float(rng.uniform(0.05, 0.6)), M, N
        )
        vbar = random_stack(rng, M, N)
    elif kind == "stopband":
        c = sb.StopbandConstraint(
            25.0, sb.steering_vector(geom, 25.0), float(rng.uniform(0.1, 1.0)), M, N
        )
        vbar = random_stack(rng, M, N)
    elif kind == "passband":
        c = sb.PassbandConstraint(
            3.0, sb.steering_vector(geom, 3.0), float(rng.uniform(2.0, 12.0)), M, N
        )
        vbar = 0.25 * random_stack(rng, M, N)
    else:
        h = random_stack(rng, 1, N)
        c = sb.SinrConstraint(
            int(rng.integers(0, M)), h, float(rng.uniform(0.5, 8.0)),
            float(rng.uniform(0.3, 2.0)), M, N,
        )
        vbar = 0.25 * random_stack(rng, M, N)
    return c, vbar


def test_criterion_06_projection_oracle():
    t0 = time.perf_counter()
    stats = {}
    for kind in ("antenna_power", "stopband", "passband", "sinr"):
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        count = 0
        worst_gap = 0.0
        worst_kkt = 0.0
        while count < 200:
            c, vbar = _random_infeasible_case(kind, rng)
            if slack(c, vbar) >= 0:
                continue
            count += 1
            res = project(c, vbar)
            F = dense_constraint(c)[0]
            # KKT at 1e-8: stationarity, feasibility, complementarity
            stat = np.linalg.norm((res.v - vbar) + res.multiplier * (F @ res.v))
            assert stat <= 1e-8 * (1 + np.linalg.norm(vbar))
            quad = quad_form(F, res.v)
            assert quad <= c.f + 1e-8
            assert res.multiplier * abs(quad - c.f) <= 1e-8
            worst_kkt = max(worst_kkt, stat)
            ref = penalty_oracle(F, c.f, vbar, seed=count)
            own = np.linalg.norm(res.v - vbar) ** 2
            other = np.linalg.norm(ref - vbar) ** 2
            assert own <= other + 1e-6, f"{kind}: structured path suboptimal"
            worst_gap = max(worst_gap, own - other)
        stats[kind] = (worst_gap, worst_kkt)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    detail = ", ".join(
        f"{k}: gap<={g:.1e} kkt<={r:.1e}" for k, (g, r) in stats.items()
    )
    _announce(6, True, f"{detail}, {elapsed:.0f}s")


def test_criterion_07_w_update():
    rng = np.random.default_rng(77)
    for _ in range(200):
        L = int(rng.integers(1, 50))
        n = int(rng.integers(1, 16))
        rho = float(rng.uniform(0.05, 100.0))
        v = rng.standard_normal((L, n)) + 1j * rng.standard_normal((L, n))
        u = rng.standard_normal((L, n)) + 1j * rng.standard_normal((L, n))
        w = sb.update_w(v, u, rho)
        residual = 2.0 * w + rho * (L * w - (v + u).sum(axis=0))
        assert np.linalg.norm(residual) <= 1e-10 * (1 + np.linalg.norm(w))
    # trivial cases are exact
    x = np.array([4.0, -2.0j])
    assert np.array_equal(sb.update_w(x[None, :], np.zeros((1, 2), complex), 2.0), x / 2)
    assert np.all(sb.update_w(np.zeros((7, 3), complex), np.zeros((7, 3), complex), 5.0) == 0)
    _announce(7, True, "normal equation satisfied to 1e-10 on 200 random states")


def test_criterion_08_parallel_determinism(tmp_path):
    with open(sb.bundled_scenario_path(), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    data["admm"]["k_max"] = 40
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(data), encoding="utf-8")
    outputs = []
    for width in ("1", "4"):
        out = tmp_path / f"p{width}"
        code = cli_main([
            "sweep-k", "--scenario", str(scenario_path), "--out", str(out),
            "--k", "6", "8", "--trials", "4", "--parallel", width,
        ])
        assert code == 0
        outputs.append((out / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]
    _announce(8, True, "sweep-k CSVs byte-identical for --parallel 1 vs 4")


def test_criterion_09_premise_guard(paper_problem):
    weak = sb.AdmmConfig(eta=0.1, rho=0.05, k_max=1)
    with pytest.warns(sb.WeakPenaltyWarning):
        sb.check_penalty_ratio(weak, L=38)  # 0.025 < 10*0.1/38
    strong = sb.AdmmConfig(eta=0.1, rho=50.0, k_max=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error", sb.WeakPenaltyWarning)
        sb.check_penalty_ratio(strong, L=38)  # 25 >> 0.0263: silent
    _announce(9, True, "warning fires for rho/2 < 10*eta/L and only then")


def test_criterion_10_dense_oracle_equivalence():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(60):
        M = int(rng.integers(1, 4))
        N = int(rng.integers(2, 7))
        geom = sb.ArrayGeometry(N, 0.5)
        theta = float(rng.uniform(-90, 90))
        a = sb.steering_vector(geom, theta)
        h = random_stack(rng, 1, N)
        gamma = float(rng.uniform(0.5, 8.0))
        structured = [
            sb.PassbandConstraint(theta, a, 1.0, M, N),
            sb.StopbandConstraint(theta, a, 1.0, M, N),
            sb.AntennaPowerConstraint(int(rng.integers(0, N)), 1.0, M, N),
            sb.SinrConstraint(int(rng.integers(0, M)), h, gamma, 1.0, M, N),
        ]
        dense = [
            -dense_response_matrix(a, M, N),
            dense_response_matrix(a, M, N),
            dense_selector_matrix(structured[2].antenna, M, N),
            -dense_sinr_matrix(h, gamma, structured[3].user, M, N),
        ]
        for _ in range(5):
            w = random_stack(rng, M, N)
            for c, F in zip(structured, dense):
                got = c.f - slack(c, w)
                want = quad_form(F, w)
                err = abs(got - want) / max(1.0, abs(want))
                worst = max(worst, err)
                assert err <= 1e-10
    _announce(10, True, f"structured vs dense quadratic forms, worst rel err {worst:.1e}")
