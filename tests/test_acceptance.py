"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime when it holds (run with -s to see them).

Statistical thresholds (criteria 9 and 10) are design defaults recorded in
the scenario configs under scenarios/ and mirrored here.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest

from swnet import presets
from swnet.arrivals import ArrivalModel, derive_rng
from swnet.cli import execute, parse_scenario
from swnet.collapse import (
    Iq2x2Workload,
    MsscConfig,
    alpha_monotonicity_probe,
    iq2x2_membership,
    iq2x2_root_exists,
    matching_structure_checks,
    mssc_experiment,
    near_optimality_audit,
)
from swnet.fluid import (
    convergence_to_invariant,
    feasibility_preservation_check,
    integrate_fluid,
    lyapunov_drift_check,
    trajectory_distance,
)
from swnet.geometry import (
    critically_loaded,
    enumerate_dual_vertices,
    solve_dual,
    solve_primal,
)
from swnet.lift import LiftProblem, invariant_state_test, is_fixed_point, lift, lift_oracle
from swnet.model import ScheduleSet, WeightFunction, validate_network
from swnet.policy import Policy
from swnet.sim import rescale, run


def _report(num: int, desc: str, t0: float) -> None:
    print(f"\nACCEPTANCE {num:>2}: PASS ({time.time() - t0:6.2f}s) - {desc}")


def test_criterion_01_worked_example_exact(ex2, ex2_vrs):
    t0 = time.time()
    assert set(ex2_vrs.vertices) == {
        (F(0), F(0)),
        (F(1, 3), F(0)),
        (F(1, 3), F(2, 3)),
        (F(0), F(1)),
    }
    assert set(ex2_vrs.maximal) == {(F(1, 3), F(2, 3)), (F(0), F(1))}
    for i in range(20):
        for j in range(20):
            lam = (F(i, 5), F(j, 10))
            value, _ = solve_primal(ex2, lam)
            assert value == max(lam[1], lam[0] / 3 + 2 * lam[1] / 3)
    assert time.time() - t0 < 1.0
    _report(1, "worked 2-queue example: exact vertices, maximal set, primal formula on a 20x20 rational grid", t0)


def test_criterion_02_switch_virtual_resources_exact():
    t0 = time.time()
    for m in (2, 3):
        sw = presets.iq_switch(m)
        vrs = enumerate_dual_vertices(sw)
        expected = set()
        for i in range(m):
            expected.add(tuple(F(1) if k // m == i else F(0) for k in range(m * m)))
            expected.add(tuple(F(1) if k % m == i else F(0) for k in range(m * m)))
        assert set(vrs.maximal) == expected, f"M={m} virtual resources differ"
    assert time.time() - t0 < 10.0
    _report(2, "input-queued switch M in {2,3}: maximal dual vertices are exactly the 2M row/column indicators", t0)


def test_criterion_03_strong_duality_random():
    t0 = time.time()
    rng = np.random.default_rng(20240809)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        ns = int(rng.integers(1, 9))
        scheds = rng.integers(0, 4, size=(ns, n))
        for q in range(n):
            if not scheds[:, q].any():
                scheds[int(rng.integers(0, ns)), q] = 1
        model = validate_network(ScheduleSet(scheds))
        lam = [F(int(v), int(rng.integers(1, 7))) for v in rng.integers(0, 5, size=n)]
        assert solve_primal(model, lam)[0] == solve_dual(model, lam)[0]
    _report(3, "strong duality exact on 100 random rational instances (N<=4, |S|<=8)", t0)


def test_criterion_04_lift_vs_oracle(ex2, ex2_clvr):
    t0 = time.time()
    rng = np.random.default_rng(4)
    qs = rng.random((200, 2)) * 5
    for alpha in (0.5, 1.0, 2.0):
        weight = WeightFunction.power(alpha)
        problem = LiftProblem(ex2, [1, 1], weight, ex2_clvr)
        if alpha == 1.0:
            hand = problem.solve_many([[3.0, 0.0], [0.0, 3.0]])[0]
            assert np.abs(hand[0] - [0.6, 1.2]).max() <= 1e-6
            assert np.abs(hand[1] - [0.0, 3.0]).max() <= 1e-6
        r_star, _, kkt, _ = problem.solve_many(qs)
        for q, solved, residual in zip(qs, r_star, kkt):
            assert residual <= 1e-8
            grid = lift_oracle(ex2, [1, 1], weight, ex2_clvr, q)
            assert np.abs(solved - grid).max() <= 5e-3
    _report(4, "lift vs independent grid oracle: 200 states x alpha in {0.5,1,2}, gap <= 5e-3, KKT <= 1e-8, hand cases to 1e-6", t0)


def test_criterion_05_fixed_point_equivalence(ex2, ex2_clvr, switch2, switch2_clvr, switch2_lam):
    t0 = time.time()
    weight = WeightFunction.power(1.0)
    rng = np.random.default_rng(5)
    for model, lam, clvr, n in (
        (ex2, [1, 1], ex2_clvr, 2),
        (switch2, switch2_lam, switch2_clvr, 4),
    ):
        problem = LiftProblem(model, lam, weight, clvr)
        qs = rng.random((500, n)) * 4  # the same draws as 500 of rng.random(n)
        qs[1::2] = problem.solve_many(qs[1::2])[0]  # every odd state is a lifted one
        disagreements = 0
        for q, r_star in zip(qs, problem.solve_many(qs)[0]):
            fp = is_fixed_point(r_star, q, tol=1e-6)
            inv = invariant_state_test(model, lam, weight, q, tol=1e-6)
            disagreements += fp != inv
        assert disagreements == 0
    _report(5, "fixed-point characterization: lift(q)==q iff the weight identity holds, 500 states per network, zero disagreements", t0)


def test_criterion_06_homogeneity(ex2, ex2_clvr, tandem2, tandem2_clvr):
    t0 = time.time()
    weight = WeightFunction.power(1.0)
    rng = np.random.default_rng(6)
    for _ in range(50):
        q = 0.1 + rng.random(2) * 4.9
        base = lift(ex2, [1, 1], weight, ex2_clvr, q).r_star
        for kappa in (0.5, 2.0, 10.0):
            scaled = lift(ex2, [1, 1], weight, ex2_clvr, kappa * q).r_star
            assert np.abs(scaled - kappa * base).max() <= 1e-6 * kappa * max(
                np.abs(base).max(), 1e-9
            )
    # multi-hop: scale invariance at fixed points
    for _ in range(50):
        q = np.sort(0.1 + rng.random(2) * 4.9)[::-1]  # q1 >= q2 is invariant
        assert is_fixed_point(lift(tandem2, [1, 0], weight, tandem2_clvr, q).r_star, q)
        for kappa in (0.5, 2.0, 10.0):
            r = lift(tandem2, [1, 0], weight, tandem2_clvr, kappa * q).r_star
            assert np.abs(r - kappa * q).max() <= 1e-6 * (1 + kappa * float(q.max()))
    _report(6, "lifting-map homogeneity: single-hop everywhere, multi-hop at fixed points, kappa in {0.5,2,10}", t0)


def _fluid_cases():
    ex2 = presets.ex2()
    sw = presets.iq_switch(2)
    cases = []
    for alpha in (0.5, 1.0, 2.0):
        cases.append((ex2, [1.0, 1.0], [F(1), F(1)], alpha, np.array([1.0, 0.0])))
        cases.append((sw, [0.5] * 4, [F(1, 2)] * 4, alpha, np.array([1.0, 0.0, 0.0, 0.0])))
    return cases


@pytest.fixture(scope="module")
def fluid_runs():
    t0 = time.time()
    runs = []
    for model, lam_f, lam_x, alpha, q0 in _fluid_cases():
        vrs = enumerate_dual_vertices(model)
        clvr, _ = critically_loaded(model, lam_x, vrs)
        traj = integrate_fluid(model, Policy.mw_alpha(alpha), lam_f, q0, h=1e-3, T=10.0)
        runs.append((model, lam_f, lam_x, alpha, clvr, traj))
    return runs, time.time() - t0


def test_criterion_07_fluid_properties(fluid_runs):
    runs, build_seconds = fluid_runs
    t0 = time.time()
    for model, lam_f, lam_x, alpha, clvr, traj in runs:
        weight = WeightFunction.power(alpha)
        L_vals = weight.antiderivative(traj.q).sum(axis=1)
        assert np.diff(L_vals).max() <= 10 * traj.h  # (a)
        assert lyapunov_drift_check(model, lam_f, weight, traj) <= 0.1  # (b)
        assert feasibility_preservation_check(model, lam_f, clvr, traj, tol=1e-6)  # (c)
        hit = convergence_to_invariant(model, lam_x, weight, clvr, traj, eps=0.05)  # (d)
        assert hit is not None, f"no sustained convergence for alpha={alpha} on {model.name}"
    assert build_seconds + (time.time() - t0) < 60.0
    _report(7, "fluid runs (2 networks x alpha in {0.5,1,2}): Lyapunov monotone, drift identity, feasibility preserved, converges to the invariant set", t0 - build_seconds)


def test_criterion_08_near_optimality(fluid_runs):
    t0 = time.time()
    sw = presets.iq_switch(2)
    for model, lam_f, lam_x, alpha, clvr, traj in fluid_runs[0]:
        complete = model.n_queues == 4  # uniform switch load is completely loaded
        rep = near_optimality_audit(model, alpha, [traj], complete_loading=complete)
        assert max(rep.upper_violation) <= 10 * traj.h
        if complete:
            assert max(rep.lower_violation) <= 10 * traj.h
    # the lower bound is policy-free: verify for MSMW-log on the switch
    traj = integrate_fluid(sw, Policy.msmw_log(), [0.5] * 4, [1.0, 0.0, 0.0, 0.0], h=1e-3, T=10.0)
    rep = near_optimality_audit(sw, 1.0, [traj], complete_loading=True)
    assert max(rep.lower_violation) <= 10 * traj.h
    _report(8, "total-work bounds along fluid runs: N^(a/(1+a)) upper bound, complete-loading lower bound incl. MSMW-log", t0)


def test_criterion_09_fluid_scale_convergence(ex2):
    t0 = time.time()
    lam = [0.9, 1.0]  # critical through the lam_B = 1 face, genuinely stochastic
    q0 = np.array([1.0, 0.5])
    T = 2.0
    reference = integrate_fluid(ex2, Policy.mw_alpha(1.0), lam, q0, h=1e-3, T=T)
    medians = {}
    for zi, z in enumerate((200, 1000)):
        dists = []
        for rep in range(20):
            path = run(
                ex2,
                Policy.mw_alpha(1.0),
                ArrivalModel.bernoulli(lam),
                z * q0,
                int(z * T),
                derive_rng(909, zi, rep),
            )
            view = rescale(path, "fluid", z, T=T, num=401)
            dists.append(trajectory_distance(view, reference))
        medians[z] = float(np.median(dists))
    assert medians[1000] < medians[200]
    assert medians[1000] <= 0.1
    assert time.time() - t0 < 120.0
    _report(9, f"fluid-scale convergence at critical load: median distances {medians} decrease and end <= 0.1", t0)


def test_criterion_10_mssc_canonical(switch2, switch2_clvr, switch2_lam):
    t0 = time.time()
    cfg = MsscConfig(
        model=switch2,
        policy=Policy.mw_alpha(1.0),
        lam=switch2_lam,
        clvr=switch2_clvr,
        weight=WeightFunction.power(1.0),
        qhat0=np.ones(4),
        r_list=[10, 20, 40, 80],
        T=1.0,
        reps=20,
        master_seed=2024,
        grid_points=200,
    )
    report = mssc_experiment(cfg)
    meds = [report.median_by_r[r] for r in (10, 20, 40, 80)]
    assert meds[0] > meds[1] > meds[2], f"medians not decreasing: {meds}"
    assert meds[2] <= 0.2
    assert meds[2] > meds[3], f"median does not keep decreasing to r = 80: {meds}"
    assert time.time() - t0 < 300.0
    _report(10, f"state-space collapse on the 2x2 switch: median ratios {[round(m, 4) for m in meds]} decrease through r = 80, <= 0.2 at r = 40", t0)


def test_criterion_11_workload_membership_suite():
    t0 = time.time()
    rng = np.random.default_rng(11)
    disagreements = 0
    for _ in range(1000):
        w1, wc1 = (float(v) for v in rng.random(2) * 2)
        tot = max(w1, wc1) + float(rng.random()) * 6
        w = Iq2x2Workload(w1, wc1, tot)
        alpha = float(rng.choice([0.2, 0.5, 1.0, 2.0]))
        disagreements += iq2x2_membership(w, alpha) != iq2x2_root_exists(w, alpha)
    assert disagreements == 0
    probe = alpha_monotonicity_probe([1.0, 0.5, 0.2])
    assert probe.nested
    assert (1.0, 0.5) in probe.strict_witnesses and (0.5, 0.2) in probe.strict_witnesses
    w115 = Iq2x2Workload(1.0, 1.0, 5.0)
    assert not iq2x2_membership(w115, 1.0) and iq2x2_membership(w115, 0.2)
    _report(11, "2x2 workload suite: closed-form membership matches the bracket check on 1000 points; alpha-nesting with strict witnesses incl. (1,1,5)", t0)


def test_criterion_12_matching_suites():
    t0 = time.time()
    for m in (2, 3):
        rep = matching_structure_checks(m, samples=1000, seed=12 + m, coverage_samples=100)
        assert rep.closure_violations == 0
        assert rep.coverage_violations == 0
    _report(12, "matching closure (1000 random matrices, M in {2,3}) and coverage of invariant states (200 samples): zero violations", t0)


def test_criterion_13_byte_determinism(tmp_path):
    t0 = time.time()
    scenarios = [
        {"preset": "ex2", "lambda": ["1", "1"], "experiment": {"kind": "analyze"}},
        {
            "preset": "iq_switch",
            "M": 2,
            "lambda": ["1/2"] * 4,
            "policy": {"kind": "mw", "alpha": 1.0},
            "experiment": {"kind": "collapse", "r_list": [4, 8], "reps": 3, "T": 0.5},
            "seed": 13,
        },
        {
            "preset": "ex2",
            "arrivals": {"kind": "bernoulli", "lambda": [0.9, 0.5]},
            "policy": {"kind": "mw", "alpha": 1.0},
            "experiment": {"kind": "simulate", "horizon": 300, "q0": [1, 0]},
            "seed": 4,
        },
    ]
    for i, scenario in enumerate(scenarios):
        out_a = tmp_path / f"a{i}"
        out_b = tmp_path / f"b{i}"
        execute(parse_scenario(dict(scenario)), out_a)
        execute(parse_scenario(dict(scenario)), out_b)
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    _report(13, "identical (config, seed) reruns produce byte-identical outputs for analyze, collapse, and simulate", t0)
