import re
from fractions import Fraction as F

import numpy as np
import pytest

from swnet.geometry import critically_loaded
from swnet.lift import (
    LiftProblem,
    invariant_state_test,
    is_fixed_point,
    lift,
    lift_oracle,
    representation_check,
    workload,
)
from swnet.model import WeightFunction


def test_lyapunov_values():
    assert WeightFunction.power(1.0).lyapunov([3.0, 4.0]) == 12.5
    assert WeightFunction.power(1.0).lyapunov([0.0, 0.0]) == 0.0
    assert WeightFunction.power(0.5).lyapunov([1.0, 1.0]) == pytest.approx(4 / 3)


def test_workload_examples(ex2, ex2_clvr, tandem2, tandem2_clvr):
    w = workload(ex2, sorted(ex2_clvr), [3.0, 0.0])
    # canonical vertex order: (0,1) then (1/3,2/3)
    assert np.allclose(w, [0.0, 1.0])
    assert np.allclose(workload(ex2, sorted(ex2_clvr), [0.0, 0.0]), [0.0, 0.0])
    # tandem aggregates upstream: q=(1,2) -> q~=(1,3)
    wt = workload(tandem2, [(F(1), F(0)), (F(0), F(1))], [1.0, 2.0])
    assert np.allclose(wt, [1.0, 3.0])


def test_lift_hand_cases(ex2, ex2_clvr):
    weight = WeightFunction.power(1.0)
    res = lift(ex2, [1, 1], weight, ex2_clvr, [3.0, 0.0])
    assert np.allclose(res.r_star, [0.6, 1.2], atol=1e-6)
    assert res.kkt_residual <= 1e-8
    res = lift(ex2, [1, 1], weight, ex2_clvr, [0.0, 3.0])
    assert np.allclose(res.r_star, [0.0, 3.0], atol=1e-6)
    assert is_fixed_point(res.r_star, [0.0, 3.0])
    res = lift(ex2, [1, 1], weight, ex2_clvr, [0.0, 0.0])
    assert np.array_equal(res.r_star, [0.0, 0.0])


def test_lift_empty_clvr_collapses_to_zero(ex2, ex2_vrs):
    clvr, _ = critically_loaded(ex2, [F(1, 2), F(1, 2)], ex2_vrs)
    res = lift(ex2, [F(1, 2), F(1, 2)], WeightFunction.power(1.0), clvr, [2.0, 3.0])
    assert np.array_equal(res.r_star, [0.0, 0.0])


def test_lift_zero_rate_caps(ex2, ex2_vrs):
    clvr, _ = critically_loaded(ex2, [3, 0], ex2_vrs)
    weight = WeightFunction.power(1.0)
    res = lift(ex2, [3, 0], weight, clvr, [1.0, 2.0])
    # workload must be preserved while queue B may only shrink: q itself
    assert np.allclose(res.r_star, [1.0, 2.0], atol=1e-8)
    # oracle agrees
    assert np.allclose(lift_oracle(ex2, [3, 0], weight, clvr, [1.0, 2.0]), [1.0, 2.0], atol=1e-3)


def test_lift_oracle_agreement_small_sweep(ex2, ex2_clvr):
    rng = np.random.default_rng(17)
    for alpha in (0.5, 1.0, 2.0):
        weight = WeightFunction.power(alpha)
        for _ in range(25):
            q = rng.random(2) * 5
            solved = lift(ex2, [1, 1], weight, ex2_clvr, q)
            grid = lift_oracle(ex2, [1, 1], weight, ex2_clvr, q)
            assert np.abs(solved.r_star - grid).max() <= 5e-3
            assert solved.kkt_residual <= 1e-8


def test_clvr_plus_factorization(ex2, ex2_vrs):
    weight = WeightFunction.power(1.0)
    clvr, clvr_plus = critically_loaded(ex2, [1, 1], ex2_vrs)
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = rng.random(2) * 4
        a = lift(ex2, [1, 1], weight, clvr, q).r_star
        b = lift(ex2, [1, 1], weight, clvr_plus, q, include_caps=False).r_star
        assert np.abs(a - b).max() <= 1e-7


def test_single_hop_homogeneity(ex2, ex2_clvr):
    weight = WeightFunction.power(1.0)
    rng = np.random.default_rng(8)
    for _ in range(15):
        q = rng.random(2) * 5
        base = lift(ex2, [1, 1], weight, ex2_clvr, q).r_star
        for kappa in (0.5, 2.0, 10.0):
            scaled = lift(ex2, [1, 1], weight, ex2_clvr, kappa * q).r_star
            bound = 1e-6 * kappa * max(np.abs(base).max(), 1e-9)
            assert np.abs(scaled - kappa * base).max() <= bound


def test_invariant_state_examples(ex2, ex2_clvr):
    weight = WeightFunction.power(1.0)
    assert invariant_state_test(ex2, [1, 1], weight, [0.6, 1.2])
    assert invariant_state_test(ex2, [1, 1], weight, [0.0, 0.0])
    assert not invariant_state_test(ex2, [1, 1], weight, [3.0, 0.0])


def test_fixed_point_equivalence_sampled(ex2, ex2_clvr, switch2, switch2_clvr, switch2_lam):
    weight = WeightFunction.power(1.0)
    cases = [
        (ex2, [1, 1], ex2_clvr, 2),
        (switch2, switch2_lam, switch2_clvr, 4),
    ]
    rng = np.random.default_rng(15)
    for model, lam, clvr, n in cases:
        for i in range(60):
            q = rng.random(n) * 4
            if i % 2 == 0:
                q = lift(model, lam, weight, clvr, q).r_star  # land on the invariant set
            fp = is_fixed_point(lift(model, lam, weight, clvr, q).r_star, q, tol=1e-6)
            inv = invariant_state_test(model, lam, weight, q, tol=1e-6)
            assert fp == inv


def test_workload_monotone_under_lift(ex2, ex2_clvr):
    weight = WeightFunction.power(1.0)
    rng = np.random.default_rng(23)
    for _ in range(30):
        q = rng.random(2) * 5
        r = lift(ex2, [1, 1], weight, ex2_clvr, q).r_star
        assert np.all(workload(ex2, ex2_clvr, r) >= workload(ex2, ex2_clvr, q) - 1e-8)
        assert weight.lyapunov(r) <= weight.lyapunov(q) + 1e-12


def test_continuity_probe(ex2, ex2_clvr):
    weight = WeightFunction.power(1.0)
    q = np.array([2.0, 1.0])
    base = lift(ex2, [1, 1], weight, ex2_clvr, q).r_star
    gaps = []
    for h in (1e-1, 1e-2, 1e-3, 1e-4):
        moved = lift(ex2, [1, 1], weight, ex2_clvr, q + np.array([h, 0.0])).r_star
        gaps.append(np.abs(moved - base).max())
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-3


def test_representation_check_single_hop(ex2, ex2_clvr):
    weight = WeightFunction.power(1.0)
    rng = np.random.default_rng(31)
    for _ in range(20):
        q = rng.random(2) * 5
        r = lift(ex2, [1, 1], weight, ex2_clvr, q).r_star
        assert representation_check(ex2, [1, 1], r, q)
    # fixed point: t = 0 works
    assert representation_check(ex2, [1, 1], np.array([0.0, 3.0]), [0.0, 3.0])
    # a state that is not a lift optimizer generally fails
    assert not representation_check(ex2, [1, 1], np.array([5.0, 5.0]), [0.1, 0.1])


def test_multi_hop_lift_and_representation(tandem2, tandem2_clvr):
    weight = WeightFunction.power(1.0)
    lam = [1, 0]
    # fixed points of the tandem are exactly {q1 >= q2}
    r = lift(tandem2, lam, weight, tandem2_clvr, [2.0, 1.0])
    assert is_fixed_point(r.r_star, [2.0, 1.0])
    r = lift(tandem2, lam, weight, tandem2_clvr, [1.0, 2.0])
    assert np.allclose(r.r_star, [1.5, 1.5], atol=1e-7)
    assert representation_check(tandem2, lam, r.r_star, [1.0, 2.0])
    assert invariant_state_test(tandem2, lam, weight, r.r_star)


def test_multi_hop_homogeneity_at_fixed_points(tandem2, tandem2_clvr):
    weight = WeightFunction.power(1.0)
    lam = [1, 0]
    rng = np.random.default_rng(41)
    for _ in range(20):
        q = np.sort(rng.random(2) * 4)[::-1]  # q1 >= q2: a fixed point
        assert is_fixed_point(lift(tandem2, lam, weight, tandem2_clvr, q).r_star, q)
        for kappa in (0.5, 2.0, 10.0):
            r = lift(tandem2, lam, weight, tandem2_clvr, kappa * q).r_star
            assert np.abs(r - kappa * q).max() <= 1e-6 * (1 + kappa * q.max())


def test_lift_rejects_negative_state(ex2, ex2_clvr):
    with pytest.raises(ValueError):
        lift(ex2, [1, 1], WeightFunction.power(1.0), ex2_clvr, [-1.0, 0.0])


def test_lift_divergence_reported(ex2, ex2_clvr):
    from swnet.lift import SolverDivergence

    with pytest.raises(SolverDivergence):
        lift(ex2, [1, 1], WeightFunction.power(1.0), ex2_clvr, [3.0, 0.0], max_iter=1)


def test_lift_with_custom_weight(ex2, ex2_clvr):
    # f(x) = 2x carries its own inverse; the optimizer matches the
    # linear-weight solution because scaling f leaves the program's
    # minimizer unchanged
    custom = WeightFunction.custom(
        f=lambda x: 2.0 * x,
        F=lambda x: x**2,
        fprime=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
        f_inv=lambda y: y / 2.0,
    )
    res = lift(ex2, [1, 1], custom, ex2_clvr, [3.0, 0.0])
    assert res.kkt_residual <= 1e-8
    assert np.allclose(res.r_star, [0.6, 1.2], atol=1e-6)


def _reference_lift(problem, q, mu0, tol=1e-8):
    """The dual ascent written out point by point, re-evaluating r(mu), the
    dual value and the KKT residual wherever they are used: the reference
    for LiftProblem.solve_many, which evaluates each dual point once."""
    from swnet.lift import _finv_deriv

    weight, G = problem.weight, problem.G
    h = G @ q
    r_of = lambda mu: weight.inverse(np.maximum(G.T @ mu, 0.0))

    def dual_value(mu):
        t = np.maximum(G.T @ mu, 0.0)
        r = weight.inverse(t)
        return float(np.sum(weight.antiderivative(r) - t * r) + mu @ h)

    def kkt(mu, r, grad):
        t = G.T @ mu
        st_pos = np.abs(weight.value(r) - t)[r > 0].max(initial=0.0)
        st_zero = np.maximum(t, 0.0)[r == 0].max(initial=0.0)
        pf = float(np.maximum(grad, 0.0).max(initial=0.0))
        return max(pf, float(np.abs(mu * grad).max(initial=0.0)), float(st_pos), float(st_zero))

    mu = np.zeros(G.shape[0]) if mu0 is None else np.maximum(mu0, 0.0)
    step, d_cur = 1.0, dual_value(mu)
    for iterations in range(1, 50_001):
        r = r_of(mu)
        grad = h - G @ r
        res = kkt(mu, r, grad)
        if res <= tol:
            return r, mu, res, iterations
        moved = False
        scale = 1.0 + float(np.abs(mu).max(initial=0.0)) + float(np.abs(grad).max(initial=0.0))
        act = (mu > 1e-12 * scale) | (grad > 1e-12 * scale)
        if act.any():
            Ga = G[act]
            hess = (Ga * _finv_deriv(weight, G.T @ mu)) @ Ga.T
            delta = None
            if np.linalg.norm(hess) > 1e-12:
                delta = np.linalg.lstsq(hess, grad[act], rcond=1e-12)[0]
            if delta is not None and np.all(np.isfinite(delta)) and np.abs(delta).max() <= 1e8 * scale:
                cand = mu.copy()
                cand[act] = np.maximum(mu[act] + delta, 0.0)
                r_new = r_of(cand)
                d_new = dual_value(cand)
                if kkt(cand, r_new, h - G @ r_new) <= 0.9 * res and d_new >= d_cur - 1e-12 * (1.0 + abs(d_cur)):
                    mu, d_cur, moved = cand, d_new, True
        if not moved:
            accepted = False
            for _ in range(60):
                cand = np.maximum(mu + step * grad, 0.0)
                d_new = dual_value(cand)
                gain = grad @ (cand - mu)
                if gain <= 0 and np.array_equal(cand, mu):
                    accepted = True
                    break
                if d_new >= d_cur + 1e-4 * gain:
                    mu, d_cur, accepted = cand, d_new, True
                    step *= 1.8
                    break
                step *= 0.5
            if not accepted:
                step = max(step, 1e-18)
    raise AssertionError("reference iteration did not converge")


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("name", ["ex2", "switch2", "tandem2"])
def test_lift_problem_chain_equals_lift(request, name, alpha):
    model = request.getfixturevalue(name)
    clvr = request.getfixturevalue(f"{name}_clvr")
    lam = {"ex2": [1, 1], "switch2": [F(1, 2)] * 4, "tandem2": [1, 0]}[name]
    weight = WeightFunction.power(alpha)
    problem = LiftProblem(model, lam, weight, clvr)
    rng = np.random.default_rng(11)
    q = rng.random(model.n_queues) * 3.0
    mu_p = mu_l = None
    for k in range(50):
        q = np.abs(q + rng.normal(size=model.n_queues) * 0.3)
        if k % 7 == 0:
            q[k % model.n_queues] = 0.0
        r_p, mu, kkt, iterations = problem.solve_many(q[None], mu0=mu_p)
        b = lift(model, lam, weight, clvr, q, mu0=mu_l)
        for x, y in ((r_p[0], b.r_star), (mu[0], b.multipliers)):
            assert np.array_equal(x, y)
        assert (kkt[0], iterations[0]) == (b.kkt_residual, b.iterations)
        assert problem.kinds == b.constraint_kinds
        assert kkt[0] <= 1e-8
        # the batched Newton step solves with a pseudo-inverse where the
        # reference calls lstsq: the same path, rounded differently
        r, _, _, ref_iterations = _reference_lift(problem, q, None if mu_p is None else mu_p[0])
        assert iterations[0] == ref_iterations
        assert np.abs(r_p[0] - r).max() <= 1e-9 * (1.0 + np.abs(q).max())
        mu_p, mu_l = mu, b.multipliers


LAMS = {"ex2": [1, 1], "switch2": [F(1, 2)] * 4, "tandem2": [1, 0]}


@pytest.mark.parametrize("name", ["ex2", "switch2", "tandem2"])
def test_solve_many_rows_equal_their_own_solve_chains(request, name):
    # batch width never changes a result: each row of a batched chain equals
    # the chain of one-state solves on that row, bit for bit
    model = request.getfixturevalue(name)
    problem = LiftProblem(model, LAMS[name], WeightFunction.power(1.5), request.getfixturevalue(f"{name}_clvr"))
    rng = np.random.default_rng(23)
    B, N = 6, model.n_queues
    Q = rng.random((B, N)) * 3.0
    Q[0] = 0.0  # optimal at the cold start
    MU, mus, seen = None, [None] * B, set()
    for step in range(8):
        Q[2:] = np.abs(Q[2:] + rng.normal(size=(B - 2, N)) * 0.5)  # row 1 is held: optimal after one solve
        if step == 4:
            MU[3], mus[3] = 0.0, np.zeros((1, MU.shape[1]))  # one row restarts cold
        r, MU, kkt, iterations = problem.solve_many(Q, mu0=MU)
        for b in range(B):
            r_1, mus[b], kkt_1, iterations_1 = problem.solve_many(Q[b : b + 1], mu0=mus[b])
            assert np.array_equal(r_1[0], r[b]) and np.array_equal(mus[b][0], MU[b])
            assert (kkt_1[0], iterations_1[0]) == (kkt[b], iterations[b])
        assert kkt.max() <= 1e-8 and iterations[0] == 1
        seen.update(iterations.tolist())
    assert 1 in seen and len(seen) >= 3  # rows stop at different iterations


def test_solve_many_trivial_lift(ex2):
    problem = LiftProblem(ex2, [F(1, 2), F(1, 2)], WeightFunction.power(1.0), [])
    r, mu, kkt, iterations = problem.solve_many(np.ones((3, 2)))
    assert np.array_equal(r, np.zeros((3, 2))) and mu.shape == (3, 0)
    assert not kkt.any() and not iterations.any()


def test_solve_many_rejects_bad_input(ex2, ex2_clvr):
    problem = LiftProblem(ex2, [1, 1], WeightFunction.power(1.0), ex2_clvr)
    Q = np.ones((3, 2))
    Q[2, 1] = -1e-9
    with pytest.raises(ValueError, match=">= 0"):
        problem.solve_many(Q)
    with pytest.raises(ValueError, match="mu0"):
        problem.solve_many(np.ones((3, 2)), mu0=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="mu0"):
        lift(ex2, [1, 1], WeightFunction.power(1.0), ex2_clvr, [1.0, 2.0], mu0=np.zeros(3))  # no silent cold start
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [1.0, 2.0, 3.0], 1.0):  # a NaN state used to pass as converged
        with pytest.raises(ValueError, match="finite"):
            lift(ex2, [1, 1], WeightFunction.power(1.0), ex2_clvr, bad)
    for bad in (np.ones(3), np.ones((3, 3)), np.ones((3, 2, 1))):
        with pytest.raises(ValueError, match="finite"):
            problem.solve_many(bad)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="mu0 must be finite"):
            problem.solve_many(np.ones((3, 2)), mu0=np.full((3, 2), bad))


def test_solve_many_divergence_names_worst_residual(ex2, ex2_clvr):
    from swnet.lift import SolverDivergence

    problem = LiftProblem(ex2, [1, 1], WeightFunction.power(1.0), ex2_clvr)
    Q = np.array([[3.0, 0.0], [0.0, 0.0], [1.0, 5.0]])
    residual = lambda err: float(re.search(r"residual (\S+)", str(err.value)).group(1))
    single = []
    for q in Q[[0, 2]]:
        with pytest.raises(SolverDivergence) as err:
            problem.solve_many(q[None], max_iter=1)
        single.append(residual(err))
    with pytest.raises(SolverDivergence, match="2 of 3 states") as err:
        problem.solve_many(Q, max_iter=1)
    assert residual(err) == max(single)
