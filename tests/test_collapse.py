import json
import math
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import swnet
from swnet import presets
from swnet.arrivals import derive_rng
from swnet.collapse import (
    Iq2x2Workload,
    MsscConfig,
    NoRoot,
    alpha_monotonicity_probe,
    iq2x2_invariant_solve,
    iq2x2_membership,
    iq2x2_root_exists,
    matching_structure_checks,
    median_p90,
    mssc_experiment,
    near_optimality_audit,
)
from swnet.fluid import integrate_fluid
from swnet.geometry import critically_loaded, enumerate_dual_vertices
from swnet.lift import LiftProblem, invariant_state_test, lift
from swnet.model import WeightFunction
from swnet.policy import Policy
from swnet.sim import rescale, run_batch


def test_membership_hand_cases():
    assert iq2x2_membership(Iq2x2Workload(1.0, 1.0, 3.0), 1.0)
    assert not iq2x2_membership(Iq2x2Workload(1.0, 1.0, 5.0), 1.0)
    assert iq2x2_membership(Iq2x2Workload(1.0, 1.0, 5.0), 0.2)


def test_membership_at_extreme_alphas():
    # the power mean (w_i^a + w_j^a)^(1/a) overflowed a float at alpha = 1e-9 (2^1e9) and at alpha = 1e3 (3^1e3);
    # taken relative to the larger weight it tends to +inf as a -> 0 and to max(w_i, w_j) as a -> inf
    assert iq2x2_membership(Iq2x2Workload(1.0, 1.0, 3.0), 1e-9)
    assert iq2x2_membership(Iq2x2Workload(1.0, 1.0, 1e300), 1e-9)
    assert iq2x2_membership(Iq2x2Workload(3.0, 3.0, 9.0), 1e3)
    assert not iq2x2_membership(Iq2x2Workload(3.0, 2.0, 8.1), 1e3)  # 3 + 2 + max = 8 < 8.1
    rng = np.random.default_rng(29)
    for _ in range(300):  # where the plain power mean is finite, the answer is the same
        w1, wc1 = rng.random(2) * 2
        w = Iq2x2Workload(float(w1), float(wc1), float(max(w1, wc1) + rng.random() * 6))
        alpha = float(rng.choice([0.2, 0.5, 1.0, 2.0]))
        plain = all(
            wi + wj + (wi**alpha + wj**alpha) ** (1.0 / alpha) >= w.total - 1e-12 * (1.0 + w.total)
            for wi in (w.w1, w.w2) for wj in (w.wc1, w.wc2)
        )
        assert iq2x2_membership(w, alpha) == plain


def test_membership_is_interval_in_total():
    # at fixed (w1_, w_1) the admissible totals form an interval: the (1,1)
    # inequality caps the total from above while the other three bound it
    # from below (they tighten as the total shrinks, since w2_ = tot - w1_
    # and w_2 = tot - w_1 shrink with it)
    rng = np.random.default_rng(2)
    for _ in range(100):
        w1, wc1 = (float(v) for v in rng.random(2) * 2)
        alpha = float(rng.choice([0.3, 1.0, 2.0]))
        tots = np.linspace(max(w1, wc1), max(w1, wc1) + 6, 121)
        member = [iq2x2_membership(Iq2x2Workload(w1, wc1, float(t)), alpha) for t in tots]
        runs = sum(1 for a, b in zip(member, member[1:]) if a != b)
        assert runs <= 2  # 0*1*0* pattern: one contiguous block of members


def test_membership_scale_invariant():
    rng = np.random.default_rng(12)
    for _ in range(200):
        w1, wc1 = (float(v) for v in rng.random(2) * 2)
        tot = max(w1, wc1) + float(rng.random()) * 6
        alpha = float(rng.choice([0.3, 1.0, 2.0]))
        kappa = float(rng.choice([0.25, 4.0]))
        a = iq2x2_membership(Iq2x2Workload(w1, wc1, tot), alpha)
        b = iq2x2_membership(Iq2x2Workload(kappa * w1, kappa * wc1, kappa * tot), alpha)
        assert a == b


def test_membership_not_monotone_in_total_counterexample():
    # decreasing the total can destroy membership: the derived row-2 and
    # column-2 workloads shrink with it and tighten their inequality
    assert iq2x2_membership(Iq2x2Workload(1.0, 1.0, 2.0), 2.0)
    assert not iq2x2_membership(Iq2x2Workload(1.0, 1.0, 1.4), 2.0)


def test_invariant_solve_linear_case():
    q = iq2x2_invariant_solve(Iq2x2Workload(1.0, 1.0, 2.0), 1.0)
    assert np.allclose(q, [[0.5, 0.5], [0.5, 0.5]], atol=1e-9)


def test_invariant_solve_hand_case():
    q = iq2x2_invariant_solve(Iq2x2Workload(1.0, 1.0, 3.0), 1.0)
    assert np.allclose(q, [[0.25, 0.75], [0.75, 1.25]], atol=1e-9)
    assert q[0, 0] + q[1, 1] == pytest.approx(q[0, 1] + q[1, 0], abs=1e-9)


def test_invariant_solve_reproduces_workloads():
    rng = np.random.default_rng(3)
    for _ in range(100):
        w1, wc1 = rng.random(2) * 2
        tot = max(w1, wc1) + rng.random() * 4
        w = Iq2x2Workload(float(w1), float(wc1), float(tot))
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        if not iq2x2_membership(w, alpha):
            continue
        q = iq2x2_invariant_solve(w, alpha)
        assert q.min() >= -1e-12
        balance = abs((q[0, 0] ** alpha + q[1, 1] ** alpha) - (q[0, 1] ** alpha + q[1, 0] ** alpha))
        assert balance <= 1e-9 * (1 + q.max() ** alpha)
        back = Iq2x2Workload.of_state(q)
        assert (back.w1, back.wc1, back.total) == pytest.approx((w.w1, w.wc1, w.total), abs=1e-9)


def test_noroot_iff_membership_false():
    rng = np.random.default_rng(4)
    for _ in range(200):
        w1, wc1 = rng.random(2) * 2
        tot = max(w1, wc1) + rng.random() * 6
        w = Iq2x2Workload(float(w1), float(wc1), float(tot))
        alpha = float(rng.choice([0.2, 1.0, 2.0]))
        member = iq2x2_membership(w, alpha)
        try:
            iq2x2_invariant_solve(w, alpha)
            solved = True
        except NoRoot:
            solved = False
        assert solved == member


def test_workload_coordinates_match_virtual_resources(switch2, switch2_clvr):
    # the reduced coordinates (row-1, column-1, total) agree with dot
    # products against the enumerated row/column resources
    from swnet.lift import workload

    rng = np.random.default_rng(9)
    by_key = {tuple(float(v) for v in xi): xi for xi in switch2_clvr}
    row1 = by_key[(1.0, 1.0, 0.0, 0.0)]
    col1 = by_key[(1.0, 0.0, 1.0, 0.0)]
    for _ in range(20):
        q = rng.random(4) * 3
        w = Iq2x2Workload.of_state(q)
        assert w.w1 == pytest.approx(workload(switch2, [row1], q)[0], abs=1e-12)
        assert w.wc1 == pytest.approx(workload(switch2, [col1], q)[0], abs=1e-12)
        assert w.total == pytest.approx(float(q.sum()), abs=1e-12)


def test_invariant_solve_matches_lift_fixed_points(switch2, switch2_clvr, switch2_lam):
    # the workload inverse lands exactly on the generic solver's fixed points
    weight = WeightFunction.power(1.0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        q0 = rng.random(4) * 3
        r = lift(switch2, switch2_lam, weight, switch2_clvr, q0).r_star
        w = Iq2x2Workload.of_state(r)
        q_theta = iq2x2_invariant_solve(w, 1.0)
        assert np.abs(q_theta.reshape(-1) - r).max() <= 1e-6
        assert invariant_state_test(switch2, switch2_lam, weight, q_theta.reshape(-1))


def test_membership_matches_bracket_existence_random():
    rng = np.random.default_rng(6)
    for _ in range(500):
        w1, wc1 = rng.random(2) * 2
        tot = max(w1, wc1) + rng.random() * 6
        w = Iq2x2Workload(float(w1), float(wc1), float(tot))
        a = float(rng.choice([0.2, 0.5, 1.0, 2.0]))
        assert iq2x2_membership(w, a) == iq2x2_root_exists(w, a)


def test_bracket_existence_matches_membership_at_a_tight_lift():
    # the lift of the 8th state of test_invariant_solve_matches_lift_fixed_points:
    # r22 = 0, so the workload is on the boundary of the invariant image and
    # theta at the lower bracket end is +8.9e-16, round-off above the root
    from swnet.collapse import _theta, iq2x2_theta_bracket

    w = Iq2x2Workload.of_state(np.array([2.470403721056058, 0.20173433602757893, 2.2686693850284794, 0.0]))
    assert 0.0 < _theta(iq2x2_theta_bracket(w)[0], w, 1.0) < 1e-14
    assert iq2x2_membership(w, 1.0) and iq2x2_root_exists(w, 1.0)


def test_alpha_monotonicity_probe_nesting():
    rep = alpha_monotonicity_probe([1.0, 0.5, 0.2])
    assert rep.nested
    assert (1.0, 0.5) in rep.strict_witnesses
    assert (0.5, 0.2) in rep.strict_witnesses


def test_alpha_monotonicity_witness_1_1_5():
    # (1,1,5) flips between alpha=1 and alpha=0.2
    w = Iq2x2Workload(1.0, 1.0, 5.0)
    assert not iq2x2_membership(w, 1.0) and iq2x2_membership(w, 0.2)
    rep = alpha_monotonicity_probe([1.0, 0.2], w_grid=[w])
    assert rep.strict_witnesses[(1.0, 0.2)] == (1.0, 1.0, 5.0)


def test_alpha_monotonicity_single_alpha_vacuous():
    rep = alpha_monotonicity_probe([1.0], w_grid=[Iq2x2Workload(1.0, 1.0, 2.0)])
    assert rep.nested and not rep.strict_witnesses


def test_matching_checks_identity_matrix_trivial():
    rep = matching_structure_checks(2, samples=50, seed=0, coverage_samples=10)
    assert rep.ok


def test_matching_closure_hand_case():
    # x = [[2,1],[1,0]]: both matchings weigh 2; support is all-ones and
    # both matchings are maximal, so closure holds
    x = np.array([[2.0, 1.0], [1.0, 0.0]])
    weights = [float((pi.reshape(2, 2) * x).sum()) for pi in presets.iq_switch(2).schedules]
    assert weights == [2.0, 2.0]


def test_matching_checks_m3():
    rep = matching_structure_checks(3, samples=300, seed=1, coverage_samples=40)
    assert rep.closure_violations == 0
    assert rep.coverage_violations == 0


def test_matching_checks_refuse_m_above_3():
    with pytest.raises(ValueError, match="M <= 3"):
        matching_structure_checks(4, samples=1, seed=0, coverage_samples=1)


def test_coverage_lifts_in_one_batch_equal_one_state_lifts():
    # matching_structure_checks lifts all its coverage states in one
    # cold-started batch: each row must be the lift of its state alone, bit for bit
    sw, lam, weight = presets.iq_switch(3), [F(1, 3)] * 9, WeightFunction.power(1.0)
    clvr, _ = critically_loaded(sw, lam, enumerate_dual_vertices(sw))
    q = np.random.default_rng(8).random((12, 9)) * 3.0
    r_star = LiftProblem(sw, lam, weight, clvr).solve(q[None])[0][0]
    for row, state in zip(r_star, q):
        assert np.array_equal(row, lift(sw, lam, weight, clvr, state).r_star)


def test_near_optimality_factors(switch2):
    traj = integrate_fluid(
        switch2, Policy.mw_alpha(1.0), [0.5] * 4, [1.0, 0.0, 0.0, 0.0], h=1e-3, T=1.0
    )
    rep = near_optimality_audit(switch2, 1.0, [traj], complete_loading=True)
    assert rep.upper_factor == pytest.approx(2.0)  # 4^(1/2)
    assert max(rep.upper_violation) <= 10 * traj.h
    assert max(rep.lower_violation) <= 10 * traj.h
    rep01 = near_optimality_audit(switch2, 0.1, [traj], complete_loading=False)
    assert rep01.upper_factor == pytest.approx(4 ** (0.1 / 1.1))
    assert rep01.lower_violation is None


def test_mssc_smoke_and_flags(switch2, switch2_clvr, switch2_lam):
    cfg = MsscConfig(
        model=switch2,
        policy=Policy.mw_alpha(1.0),
        lam=switch2_lam,
        clvr=switch2_clvr,
        weight=WeightFunction.power(1.0),
        qhat0=np.ones(4),
        r_list=[1, 8],
        T=1.0,
        reps=3,
        master_seed=5,
        grid_points=50,
    )
    rep = mssc_experiment(cfg)
    assert "sub_asymptotic" in rep.flags
    assert all(ratio >= 0 for _, _, ratio in rep.rows)
    assert len(rep.rows) == 6


def test_mssc_rows_do_not_depend_on_reps(switch2, switch2_clvr, switch2_lam):
    # the replications are lifted as one batch; the batch width must not
    # change any replication's ratio
    def rows(reps):
        cfg = MsscConfig(
            model=switch2,
            policy=Policy.mw_alpha(1.0),
            lam=switch2_lam,
            clvr=switch2_clvr,
            weight=WeightFunction.power(1.0),
            qhat0=np.ones(4),
            r_list=[6, 12],
            T=1.0,
            reps=reps,
            master_seed=7,
            grid_points=50,
        )
        return mssc_experiment(cfg).rows

    assert rows(2) == [row for row in rows(5) if row[1] < 2]


def _mssc_rows_one_state_at_a_time(cfg):
    """mssc_experiment's rows with the lift written as one cold one-row
    solve per grid state of every (scale, rep) row: the reference for its
    one LiftProblem.solve over the whole grid."""
    scales, reps = sorted(cfg.r_list), cfg.reps
    scaled, sups = [], []
    for ri, r in enumerate(scales):
        horizon = int(math.ceil(r * r * cfg.T))
        rngs = [derive_rng(cfg.master_seed, ri, rep) for rep in range(reps)]
        q0, every = r * cfg.qhat0, max(1, horizon // (4 * cfg.grid_points))
        for path in run_batch(cfg.model, cfg.policy, cfg.arrival_for(r), q0, horizon, rngs, every):
            scaled.append(rescale(path, "diffusion", r, cfg.T, num=cfg.grid_points).q)
            sups.append(path.sup_q / r)
    problem = LiftProblem(cfg.model, cfg.lam, cfg.weight, cfg.clvr)
    worst = np.zeros(len(sups))
    for q in np.stack(scaled, axis=1):
        r_star = np.stack([problem.solve(state[None, None])[0][0, 0] for state in q])
        worst = np.maximum(worst, np.abs(q - r_star).max(axis=1, initial=0.0))
    ratios = (worst / np.maximum(sups, 1.0)).tolist()
    return sorted((r, rep, ratios[ri * reps + rep]) for ri, r in enumerate(scales) for rep in range(reps))


@pytest.mark.parametrize("name", ["switch2", "tandem2"])
def test_mssc_rows_equal_one_lift_per_grid_index(request, name):
    model, clvr = request.getfixturevalue(name), request.getfixturevalue(f"{name}_clvr")
    weight = WeightFunction.power(1.0)
    cfg = MsscConfig(
        model=model,
        policy=Policy.mw(weight) if model.is_single_hop else Policy.backpressure(weight),
        lam=[F(1, 2)] * 4 if name == "switch2" else [1, 0],
        clvr=clvr,
        weight=weight,
        qhat0=np.ones(4) if name == "switch2" else np.array([1.0, 0.5]),
        r_list=[9, 5],
        T=1.0,
        reps=3,
        master_seed=11,
        grid_points=40,
    )
    # each state of the grid is lifted as its own one-row solve, bit for bit
    assert mssc_experiment(cfg).rows == _mssc_rows_one_state_at_a_time(cfg)


def test_mssc_trivial_lift_flag(ex2):
    from fractions import Fraction as F

    cfg = MsscConfig(
        model=ex2,
        policy=Policy.mw_alpha(1.0),
        lam=[F(1, 2), F(1, 2)],
        clvr=[],
        weight=WeightFunction.power(1.0),
        qhat0=np.zeros(2),
        r_list=[5],
        T=1.0,
        reps=2,
        master_seed=0,
        grid_points=20,
    )
    rep = mssc_experiment(cfg)
    assert rep.trivial_lift and "trivial_lift" in rep.flags


def test_mssc_other_alpha(switch2, switch2_clvr, switch2_lam):
    # the all-ones direction is invariant for every alpha, so the same
    # experiment runs under MW-0.5
    cfg = MsscConfig(
        model=switch2,
        policy=Policy.mw_alpha(0.5),
        lam=switch2_lam,
        clvr=switch2_clvr,
        weight=WeightFunction.power(0.5),
        qhat0=np.ones(4),
        r_list=[6, 12],
        T=1.0,
        reps=4,
        master_seed=3,
        grid_points=60,
    )
    rep = mssc_experiment(cfg)
    assert rep.median_by_r[12] < rep.median_by_r[6]


def test_mssc_multihop_backpressure(tandem2, tandem2_clvr):
    cfg = MsscConfig(
        model=tandem2,
        policy=Policy.backpressure(WeightFunction.power(1.0)),
        lam=[1, 0],  # critical through the aggregated rates (1, 1)
        clvr=tandem2_clvr,
        weight=WeightFunction.power(1.0),
        qhat0=np.array([1.0, 0.5]),  # q1 >= q2 is invariant
        r_list=[8, 16],
        T=1.0,
        reps=4,
        master_seed=9,
        grid_points=60,
    )
    rep = mssc_experiment(cfg)
    assert all(np.isfinite(ratio) for _, _, ratio in rep.rows)
    assert rep.median_by_r[16] <= rep.median_by_r[8] + 0.05


def test_mssc_ratio_scale_sane(switch2, switch2_clvr, switch2_lam):
    # deterministic arrivals: doubling the diffusion scale (and with it the
    # initial contents r*qhat0) leaves the collapse ratio essentially fixed,
    # by positive homogeneity of the lifting map
    def cfg_for(r):
        return MsscConfig(
            model=switch2,
            policy=Policy.mw_alpha(1.0),
            lam=switch2_lam,
            clvr=switch2_clvr,
            weight=WeightFunction.power(1.0),
            qhat0=np.array([2.0, 1.0, 1.0, 2.0]),
            r_list=[r],
            T=0.5,
            reps=1,
            master_seed=0,
            grid_points=40,
            arrival_kind="deterministic",
        )

    r1 = mssc_experiment(cfg_for(6)).rows[0][2]
    r2 = mssc_experiment(cfg_for(12)).rows[0][2]
    assert r1 == pytest.approx(r2, rel=0.15, abs=0.02)


def _bits(x):
    return np.float64(x).tobytes()


def test_median_p90_equals_numpy_bit_for_bit():
    rng = np.random.default_rng(7)
    cases = [[0.25], [3.0, 1.0], [1.0] * 5, [0.0, 0.0, 1.0, 0.0], [0.1, 0.7, 0.7, 0.7, 0.2, 1e300, 1e-300]]
    cases += [rng.random(n).tolist() for n in range(1, 45)]
    cases += [(rng.integers(0, 3, n) / 7).tolist() for n in range(1, 45)]  # ties
    cases += [(rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)).tolist() for n in range(1, 45)]
    for vals in cases:
        med, p90 = median_p90(vals)
        assert (_bits(med), _bits(p90)) == (_bits(np.median(vals)), _bits(np.percentile(vals, 90))), vals
    assert all(np.isnan(median_p90([1.0, np.nan, 2.0])))


def test_collapse_run_does_not_import_numpy_ma(tmp_path):
    # in a fresh interpreter: this process may have imported numpy.ma already
    scenario = {
        "preset": "iq_switch",
        "M": 2,
        "lambda": ["1/2"] * 4,
        "policy": {"kind": "mw", "alpha": 1.0},
        "experiment": {"kind": "collapse", "r_list": [5, 8], "reps": 2, "T": 1.0, "qhat0": [1, 1, 1, 1],
                       "grid_points": 20, "median_max_at_largest_r": 1.0, "require_decreasing": False},
        "seed": 3,
    }
    code = (
        "import json, sys; from swnet.cli import execute, parse_scenario; "
        f"execute(parse_scenario(json.loads(sys.argv[1])), sys.argv[2]); print('numpy.ma' in sys.modules)"
    )
    src = str(Path(swnet.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(scenario), str(tmp_path / "out")],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
    )
    assert done.stdout.split() == ["False"]
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["median_by_r"]


LIFTING_RUNS = {  # kind -> (scenario, the output it writes)
    "fluid": ({
        "preset": "iq_switch",
        "M": 2,
        "lambda": ["1/2"] * 4,
        "policy": {"kind": "mw", "alpha": 1.0},
        "experiment": {"kind": "fluid", "q0": [2, 0, 0, 1], "h": 0.01, "T": 1.0},
        "seed": 0,
    }, "fluid.csv"),
    "lift": ({
        "preset": "ex2",
        "lambda": ["1", "1"],
        "policy": {"kind": "mw", "alpha": 1.0},
        "experiment": {"kind": "lift", "q": [3, 0]},
    }, "lift.json"),
}


@pytest.mark.parametrize("kind", sorted(LIFTING_RUNS))
def test_fluid_and_lift_runs_do_not_import_numpy_ma(tmp_path, kind):
    # both lift through LiftProblem.solve, as the collapse run above does
    code = (
        "import json, sys; from swnet.cli import execute, parse_scenario; "
        f"execute(parse_scenario(json.loads(sys.argv[1])), sys.argv[2]); print('numpy.ma' in sys.modules)"
    )
    scenario, output = LIFTING_RUNS[kind]
    src = str(Path(swnet.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(scenario), str(tmp_path / "out")],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
    )
    assert done.stdout.split() == ["False"]
    assert (tmp_path / "out" / output).stat().st_size > 0
