from fractions import Fraction as F

import numpy as np
import pytest

from swnet import presets
from swnet.collapse import (
    Iq2x2Workload,
    MsscConfig,
    NoRoot,
    alpha_monotonicity_probe,
    iq2x2_invariant_solve,
    iq2x2_membership,
    iq2x2_root_exists,
    matching_structure_checks,
    mssc_experiment,
    near_optimality_audit,
)
from swnet.fluid import integrate_fluid
from swnet.geometry import critically_loaded, enumerate_dual_vertices
from swnet.lift import LiftProblem, invariant_state_test, lift
from swnet.model import WeightFunction
from swnet.policy import Policy


def test_membership_hand_cases():
    assert iq2x2_membership(Iq2x2Workload(1.0, 1.0, 3.0), 1.0)
    assert not iq2x2_membership(Iq2x2Workload(1.0, 1.0, 5.0), 1.0)
    assert iq2x2_membership(Iq2x2Workload(1.0, 1.0, 5.0), 0.2)


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


def test_coverage_lifts_in_one_batch_equal_one_state_lifts():
    # matching_structure_checks lifts all its coverage states in one
    # cold-started batch: each row must be the lift of its state alone, bit for bit
    sw, lam, weight = presets.iq_switch(3), [F(1, 3)] * 9, WeightFunction.power(1.0)
    clvr, _ = critically_loaded(sw, lam, enumerate_dual_vertices(sw))
    q = np.random.default_rng(8).random((12, 9)) * 3.0
    r_star = LiftProblem(sw, lam, weight, clvr).solve_many(q)[0]
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
