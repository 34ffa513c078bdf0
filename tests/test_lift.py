import re
from fractions import Fraction as F

import numpy as np
import pytest

import swnet.lift as lift_module
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


def test_lift_divergence_reported(ex2, ex2_clvr, monkeypatch):
    from swnet.lift import SolverDivergence

    monkeypatch.setattr(lift_module, "MAX_ITER", 1)
    with pytest.raises(SolverDivergence):
        lift(ex2, [1, 1], WeightFunction.power(1.0), ex2_clvr, [3.0, 0.0])


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


def _reference_lift(problem, q, tol=1e-8):
    """The dual ascent written out point by point, re-evaluating r(mu), the
    dual value and the KKT residual wherever they are used: the reference
    for LiftProblem's ascent, which evaluates each dual point once."""
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

    mu = np.zeros(G.shape[0])
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
    Q = np.zeros((50, model.n_queues))
    q = rng.random(model.n_queues) * 3.0
    for k in range(50):
        q = np.abs(q + rng.normal(size=model.n_queues) * 0.3)
        if k % 7 == 0:
            q[k % model.n_queues] = 0.0
        Q[k] = q
    r_p, mu, kkt, iterations = (a[:, 0] for a in problem.solve(Q[:, None]))
    assert kkt.max() <= 1e-8
    for k, q in enumerate(Q):
        # lift is solve's one-state case, and each row of the path is its own
        # one-row solve: the ascent from zero multipliers, and under MW-1 the
        # closed form of the code that the ascent ends in
        b = lift(model, lam, weight, clvr, q)
        cold = problem._ascend(q[None], 1e-8)
        assert np.array_equal(b.r_star, r_p[k]) and np.array_equal(b.multipliers, mu[k]) and b.kkt_residual == kkt[k]
        if alpha == 1.0:
            assert np.abs(b.r_star - cold[0][0]).max() <= 1e-12 and b.kkt_residual <= 1e-8
            assert b.iterations == cold[3][0]
        else:
            for x, y in zip((b.r_star, b.multipliers, b.kkt_residual, b.iterations), cold):
                assert np.array_equal(x, y[0])
            assert iterations[k] == b.iterations
        assert problem.kinds == b.constraint_kinds
        # the batched Newton step solves in the basis cached per code (active
        # mask, t > 0) where the reference calls lstsq: the same path,
        # rounded differently
        r, _, _, ref_iterations = _reference_lift(problem, q)
        assert alpha == 1.0 or iterations[k] == ref_iterations
        assert np.abs(r_p[k] - r).max() <= 1e-9 * (1.0 + np.abs(q).max())


LAMS = {"ex2": [1, 1], "switch2": [F(1, 2)] * 4, "tandem2": [1, 0]}


@pytest.mark.parametrize("name", ["ex2", "switch2", "tandem2"])
def test_solve_many_rows_equal_their_own_solve_chains(request, name):
    # batch width never changes a result: each row of a batched ascent equals
    # the ascent of that row alone, bit for bit, along a chain of states
    model = request.getfixturevalue(name)
    problem = LiftProblem(model, LAMS[name], WeightFunction.power(1.5), request.getfixturevalue(f"{name}_clvr"))
    rng = np.random.default_rng(23)
    B, N = 6, model.n_queues
    Q = rng.random((B, N)) * 3.0
    Q[0] = 0.0  # optimal at the cold start
    seen = set()
    for step in range(8):
        Q[2:] = np.abs(Q[2:] + rng.normal(size=(B - 2, N)) * 0.5)  # row 1 is held
        r, mu, kkt, iterations = problem._ascend(Q, 1e-8)
        for b in range(B):
            r_1, mu_1, kkt_1, iterations_1 = problem._ascend(Q[b : b + 1], 1e-8)
            assert np.array_equal(r_1[0], r[b]) and np.array_equal(mu_1[0], mu[b])
            assert (kkt_1[0], iterations_1[0]) == (kkt[b], iterations[b])
        assert kkt.max() <= 1e-8 and iterations[0] == 1
        seen.update(iterations.tolist())
    assert 1 in seen and len(seen) >= 3  # rows stop at different iterations


def test_solve_many_trivial_lift(ex2):
    problem = LiftProblem(ex2, [F(1, 2), F(1, 2)], WeightFunction.power(1.0), [])
    r, mu, kkt, iterations = problem.solve(np.ones((1, 3, 2)))
    assert np.array_equal(r, np.zeros((1, 3, 2))) and mu.shape == (1, 3, 0)
    assert not kkt.any() and not iterations.any()


def test_solve_many_rejects_bad_input(ex2, ex2_clvr):
    problem = LiftProblem(ex2, [1, 1], WeightFunction.power(1.0), ex2_clvr)
    Q = np.ones((1, 3, 2))
    Q[0, 2, 1] = -1e-9
    with pytest.raises(ValueError, match=">= 0"):
        problem.solve(Q)
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [1.0, 2.0, 3.0], 1.0):  # a NaN state used to pass as converged
        with pytest.raises(ValueError, match="finite"):
            lift(ex2, [1, 1], WeightFunction.power(1.0), ex2_clvr, bad)
    for bad in (np.ones(3), np.ones((3, 2)), np.ones((1, 3, 3)), np.ones((3, 2, 1)), np.ones((1, 3, 2, 1))):
        with pytest.raises(ValueError, match=r"finite \(J, B, 2\) array"):
            problem.solve(bad)


def test_solve_many_divergence_names_worst_residual(ex2, ex2_clvr, monkeypatch):
    from swnet.lift import SolverDivergence

    monkeypatch.setattr(lift_module, "MAX_ITER", 1)
    Q = np.array([[3.0, 0.0], [0.0, 0.0], [1.0, 5.0]])
    residual = lambda err: float(re.search(r"residual (\S+)", str(err.value)).group(1))
    for alpha in (1.0, 2.0):  # MW-1 names the stall over every open row, as the one batched ascent does
        problem = LiftProblem(ex2, [1, 1], WeightFunction.power(alpha), ex2_clvr)
        single = []
        for q in Q[[0, 2]]:
            with pytest.raises(SolverDivergence) as err:
                problem.solve(q[None, None])
            single.append(residual(err))
        with pytest.raises(SolverDivergence, match="after 1 iterations \\(2 of 3 states\\)") as err:
            problem.solve(Q[None])
        assert residual(err) == max(single)


def _reference_newton(problem, mu, t, grad):
    """LiftProblem._newton with the batched pseudo-inverse of the whole
    masked K x K Hessian: the reference for the step in a per-code basis."""
    from swnet.lift import _finv_deriv

    scale = 1.0 + mu.max(axis=1) + np.abs(grad).max(axis=1)
    act = np.maximum(mu, grad) > 1e-12 * scale[:, None]
    Ga = act[:, :, None] * problem.G
    hess = (Ga * _finv_deriv(problem.weight, t)[:, None, :]) @ Ga.transpose(0, 2, 1)
    norm2 = (hess * hess).sum(axis=(1, 2))
    ok = (norm2 > 1e-24) & (norm2 < np.inf)
    hess[~ok] = 0.0
    delta = (np.linalg.pinv(hess, rcond=1e-12) @ (grad * act)[:, :, None])[:, :, 0]
    ok &= np.abs(delta).max(axis=1) <= 1e8 * scale
    return np.where(act, np.maximum(mu + delta, 0.0), mu), ok


def _newton_counting_pinv(problem, mu, t, grad, monkeypatch):
    """problem._newton(mu, t, grad) and the number of pinv calls it made."""
    calls, pinv = [], np.linalg.pinv
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "pinv", lambda *a, **k: calls.append(1) or pinv(*a, **k))
        return problem._newton(mu, t, grad), len(calls)


def _assert_same_step(new, ref):
    (cand, ok), (cand_ref, ok_ref) = new, ref
    assert np.array_equal(ok, ok_ref)
    assert np.abs(cand - cand_ref).max() <= 1e-12 * (1.0 + np.abs(cand_ref).max())


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("name", ["ex2", "switch2", "tandem2"])
def test_newton_step_equals_pinv_reference(request, name, alpha, monkeypatch):
    model = request.getfixturevalue(name)
    problem = LiftProblem(model, LAMS[name], WeightFunction.power(alpha), request.getfixturevalue(f"{name}_clvr"))
    K, N = problem.G.shape
    rng = np.random.default_rng(31)
    mu = rng.random((60, K)) + 0.1
    grad = rng.normal(size=(60, K))
    t = (mu[:, None, :] @ problem.G)[:, 0]  # rows 0-19: every resource active
    mu[20:40] *= rng.random((20, K)) < 0.5  # rows 20-39: partly active masks
    grad[20:40] = np.where(mu[20:40] > 0, grad[20:40], -np.abs(grad[20:40]))
    grad[25] = np.abs(grad[25])  # active through the gradient alone
    t[40:] = rng.normal(size=(20, N))  # rows 40-59: some t <= 0
    t[41] = -1.0  # active, but with no t > 0: a code of rank 0
    mu[42], grad[42] = 0.0, -1.0  # nothing active
    (cand, ok), pinv_calls = _newton_counting_pinv(problem, mu, t, grad, monkeypatch)
    _assert_same_step((cand, ok), _reference_newton(problem, mu, t, grad))
    assert not ok[41] and not ok[42] and ok[:20].all()  # on switch2, rows 0-19 have rank 3 of 4
    if alpha == 1.0:
        assert pinv_calls == 0  # d = 1 wherever t > 0: every row takes the reduced solve


def test_newton_falls_back_to_pinv_on_a_singular_reduced_system(switch2, switch2_clvr, switch2_lam, monkeypatch):
    # f(x) = x**0.5: d = (f^-1)'(t) = 2t, so d spreads over 150 orders of
    # magnitude in the first row and its rank-3 reduced system is singular
    # at rcond 1e-12; the second row is regular
    problem = LiftProblem(switch2, switch2_lam, WeightFunction.power(0.5), switch2_clvr)
    mu = np.array([[0.3, 0.7, 0.5, 0.5], [0.3, 0.7, 0.5, 0.5]])
    grad = np.array([[0.2, -0.1, 0.4, 0.3], [0.2, -0.1, 0.4, 0.3]])
    t = np.array([[1e-200, 1e-200, 1.0, 1.0], [1.0, 2.0, 1.0, 3.0]])
    (cand, ok), pinv_calls = _newton_counting_pinv(problem, mu, t, grad, monkeypatch)
    assert pinv_calls == 1 and ok.all()
    _assert_same_step((cand, ok), _reference_newton(problem, mu, t, grad))
    for b in range(2):  # the fallback is per row: each row alone gives its batch row
        alone, _ = _newton_counting_pinv(problem, mu[b : b + 1], t[b : b + 1], grad[b : b + 1], monkeypatch)
        assert np.array_equal(alone[0][0], cand[b]) and alone[1][0] == ok[b]


@pytest.mark.parametrize("name", ["ex2", "switch2", "tandem2"])
def test_basis_cache_never_changes_a_result(request, name):
    # a problem that has already solved unrelated states returns, bit for
    # bit, the lifts of a fresh problem; every basis it cached is the one a
    # fresh problem builds from the code alone
    model, clvr = request.getfixturevalue(name), request.getfixturevalue(f"{name}_clvr")
    weight = WeightFunction.power(1.5)
    warm, fresh = (LiftProblem(model, LAMS[name], weight, clvr) for _ in range(2))
    rng = np.random.default_rng(37)
    N = model.n_queues
    unrelated = rng.random((30, N)) * 5.0 * (rng.random((30, N)) < 0.7)
    warm.solve(unrelated[None])
    assert len(warm._bases) >= 2
    Q = np.abs(np.cumsum(rng.normal(size=(6, 5, N)) * 0.5, axis=0) + rng.random((5, N)) * 3.0)  # 5 paths
    for a, b in zip(warm.solve(Q), fresh.solve(Q)):
        assert np.array_equal(a, b)
    K = len(warm.G)
    for code, basis in warm._bases.items():
        bits = np.unpackbits(np.frombuffer(code, dtype=np.uint8), count=K + N).astype(bool)
        for a, b in zip(basis, fresh._basis(bits[:K], bits[K:])):
            assert np.array_equal(a, b)


def _one_row_solves(problem, Q):
    """solve's four arrays at the states Q (..., N), each state lifted alone
    in a one-row solve: the reference for every batched lift."""
    (K, N), lead = problem.G.shape, np.shape(Q)[:-1]
    out = np.zeros((*lead, N)), np.zeros((*lead, K)), np.zeros(lead), np.zeros(lead, dtype=np.int64)
    for idx in np.ndindex(*lead):
        for a, b in zip(out, problem.solve(np.asarray(Q)[idx][None, None])):
            a[idx] = b[0, 0]
    return out


def _chain(problem, Q):
    """solve's four arrays for the one chain Q (J, N)."""
    return tuple(a[:, 0] for a in problem.solve(Q[:, None]))


def _assert_bitwise(got, ref):
    assert len(got) == len(ref) == 4
    for a, b in zip(got, ref):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _assert_as_reference(got, ref, alpha):
    """solve's arrays against the one-row solves of their rows: bit for bit.
    Under MW-1 a row lifted by a code found in its batch counts 1 iteration
    instead of its ascent's."""
    if alpha != 1.0:
        return _assert_bitwise(got, ref)
    _assert_bitwise(got[:3] + (ref[3],), ref)
    assert ((got[3] == 1) | (got[3] == ref[3])).all() and got[2].max(initial=0.0) <= 1e-8


def _count_ascents(problem, monkeypatch):
    """A list that gets one entry per problem._ascend call from now on: the
    number of rows it ascends."""
    calls, ascend = [], problem._ascend
    monkeypatch.setattr(problem, "_ascend", lambda Q, *a, **k: calls.append(len(Q)) or ascend(Q, *a, **k))
    return calls


def _chain_problem(request, name, alpha):
    model = request.getfixturevalue(name)
    return model, LiftProblem(model, LAMS[name], WeightFunction.power(alpha), request.getfixturevalue(f"{name}_clvr"))


FLUID_PATHS = {  # (lambda, q0) of a critically loaded fluid path on each model
    "ex2": ([1.0, 1.0], [3.0, 0.0]),
    "switch2": ([0.5] * 4, [2.0, 0.0, 0.0, 1.0]),
    "tandem2": ([1.0, 0.0], [1.0, 0.5]),
}


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("name", ["ex2", "switch2", "tandem2"])
def test_solve_chain_equals_one_row_solves_on_a_fluid_path(request, name, alpha, monkeypatch):
    from swnet.fluid import integrate_fluid
    from swnet.policy import Policy

    model, problem = _chain_problem(request, name, alpha)
    weight = WeightFunction.power(alpha)
    policy = Policy.mw(weight) if model.is_single_hop else Policy.backpressure(weight)
    traj = integrate_fluid(model, policy, *FLUID_PATHS[name], h=1e-3, T=3.0)
    Q = traj.q[::7]  # distance_to_lift's default subgrid of a 3 000-step path
    ref = _one_row_solves(problem, Q)
    calls = _count_ascents(problem, monkeypatch)
    _assert_as_reference(_chain(problem, Q), ref, alpha)
    assert ref[2].max() <= 1e-8
    # outside MW-1 the rows take one cold ascent together; under MW-1 the
    # path keeps its critical workloads, and the code found by the ascent of
    # the first row lifts every other row
    assert calls == [len(Q)] if alpha != 1.0 else calls == [1]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("name", ["ex2", "switch2", "tandem2"])
def test_solve_chain_equals_one_row_solves_on_a_random_walk(request, name, alpha, monkeypatch):
    # rows jump, and every row iterates; each is its own one-row solve, in
    # the path's order and in reverse
    model, problem = _chain_problem(request, name, alpha)
    rng = np.random.default_rng(41)
    Q = np.abs(np.cumsum(rng.normal(size=(120, model.n_queues)), axis=0)) + 0.1
    Q[::9, 0] = 0.0
    ref = _one_row_solves(problem, Q)
    assert (ref[3] > 1).all()
    calls = _count_ascents(problem, monkeypatch)
    _assert_as_reference(_chain(problem, Q), ref, alpha)
    _assert_as_reference(tuple(a[::-1] for a in _chain(problem, Q[::-1])), ref, alpha)
    # under MW-1 the rows are one batch: one ascent per code found, not per row
    assert calls == [len(Q)] * 2 if alpha != 1.0 else len(calls) < 0.1 * len(Q)


@pytest.mark.parametrize("path", ["random_walk", "held_then_moved"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("name", ["ex2", "switch2", "tandem2"])
def test_solve_chains_equal_independent_chains(request, name, alpha, path):
    # B chains lifted together equal each chain lifted alone, bit for bit,
    # and each row its one-row solve: on random walks, and on held states
    # that move at different steps of different chains
    model, problem = _chain_problem(request, name, alpha)
    rng = np.random.default_rng(47)
    J, B, N = 120, 4, model.n_queues
    if path == "random_walk":
        Q = np.abs(np.cumsum(rng.normal(size=(J, B, N)), axis=0)) + 0.1
    else:
        Q = np.stack([np.repeat(rng.random((4, N)) * 3.0, np.diff([0, 10 + 7 * b, 40 + 11 * b, 100 - 5 * b, J]), axis=0)
                      for b in range(B)], axis=1)
    ref = _one_row_solves(problem, Q)
    _assert_as_reference(problem.solve(Q), ref, alpha)
    for b in range(B):
        _assert_as_reference(_chain(problem, Q[:, b]), tuple(a[:, b] for a in ref), alpha)
    assert (ref[3] > 1).all()  # no state is optimal at zero multipliers


@pytest.mark.parametrize("J", [0, 1, 2])
def test_solve_chain_short_and_empty_chains(switch2, switch2_clvr, switch2_lam, J):
    problem = LiftProblem(switch2, switch2_lam, WeightFunction.power(1.0), switch2_clvr)
    Q = np.random.default_rng(53).random((J, 4)) * 2.0
    got = _chain(problem, Q)
    _assert_as_reference(got, _one_row_solves(problem, Q), 1.0)
    assert [a.shape[0] for a in got] == [J] * 4


def test_solve_chain_without_constraints(ex2):
    # empty clvr (K = 0) and no zero-rate caps: r* = 0 on every row, no iteration
    problem = LiftProblem(ex2, [F(1, 2), F(1, 2)], WeightFunction.power(1.0), [])
    for J in (0, 1, 5):
        Q = np.ones((J, 3, 2)) * np.arange(1, J + 1)[:, None, None]
        zero = np.zeros((J, 3, 2)), np.zeros((J, 3, 0)), np.zeros((J, 3)), np.zeros((J, 3), dtype=np.int64)
        _assert_bitwise(problem.solve(Q), zero)


def test_solve_chain_rejects_bad_input_as_solve_many_does(ex2, ex2_clvr):
    # a bad state is refused before any solve, as one chain of steps and as one step of chains alike
    problem = LiftProblem(ex2, [1, 1], WeightFunction.power(1.0), ex2_clvr)
    negative = np.ones((3, 2))
    negative[2, 1] = -1e-9
    nan = np.ones((3, 2))
    nan[1, 0] = np.nan
    for bad, match in ((negative, ">= 0"), (nan, "finite"), (np.ones((3, 3)), "finite"), ([[1.0, np.inf]], "finite")):
        for layout in (np.asarray(bad)[:, None], np.asarray(bad)[None]):
            with pytest.raises(ValueError, match=match):
                problem.solve(layout)


def test_distance_to_lift_solves_the_sliding_path_in_one_chain(monkeypatch):
    # fluid_iq2_sliding runs MW-1: the code that the cold first row's ascent
    # ends in lifts the other 429 rows, so its 430 rows take one ascent, and
    # each distance is that of the row's one-row solve
    from pathlib import Path

    from swnet import cli, fluid
    from swnet.geometry import float_vector

    cfg = cli.parse_scenario(Path(__file__).parent.parent / "scenarios" / "fluid_iq2_sliding.json")
    weight, clvr = cli._lyapunov_view(cfg)
    exp = cfg.params
    traj = fluid.integrate_fluid(cfg.model, cfg.policy, float_vector(cfg.lam), exp["q0"], h=exp["h"], T=exp["T"])
    calls, ascend = [], LiftProblem._ascend
    monkeypatch.setattr(LiftProblem, "_ascend", lambda *a, **k: calls.append(1) or ascend(*a, **k))
    times, dists = fluid.distance_to_lift(cfg.model, cfg.lam, weight, clvr, traj)
    assert len(times) == 430 and len(calls) == 1
    problem = LiftProblem(cfg.model, cfg.lam, weight, clvr)
    Q = traj.q[np.searchsorted(traj.t, times)]
    assert np.array_equal(dists, np.abs(Q - _one_row_solves(problem, Q)[0]).max(axis=1))


WEIGHTS = {  # the weights outside MW-1, where every row takes a cold ascent
    "alpha=0.5": WeightFunction.power(0.5),
    "alpha=2": WeightFunction.power(2.0),
    "custom": WeightFunction.custom(f=np.sinh, F=lambda x: np.cosh(x) - 1.0, fprime=np.cosh, f_inv=np.arcsinh),
}


@pytest.mark.parametrize("name", ["switch2", "iq3", "tandem2", "collapse_grid"])
@pytest.mark.parametrize("weight", list(WEIGHTS))
def test_every_row_equals_its_one_row_solve(request, weight, name, tmp_path, monkeypatch):
    # outside MW-1 all rows take one cold ascent, so each row's r*,
    # multipliers, KKT residual and iterations are those of its one-row
    # solve, bit for bit, whatever batch or order it comes in
    if name == "collapse_grid":  # the 12 000 states of the shipped collapse run, 60 of them checked alone
        (model, lam, _, clvr), Q = _collapse_grid(2024, tmp_path, monkeypatch)
        check = np.random.default_rng(61).choice(Q.shape[0] * Q.shape[1], 60, replace=False)
    else:
        model, lam, clvr = _mw1_problem(request, name)
        Q = _random_states(model.n_queues, 67)[None]
        check = np.arange(Q.shape[1])
    problem = LiftProblem(model, lam, WEIGHTS[weight], clvr)
    calls = _count_ascents(problem, monkeypatch)
    rows = Q.reshape(-1, model.n_queues)
    got = tuple(a.reshape(len(rows), *a.shape[2:]) for a in problem.solve(Q))
    assert calls == [len(rows)] and got[2].max() <= 1e-8
    _assert_bitwise(tuple(a[check] for a in got), _one_row_solves(problem, rows[check]))
    _assert_bitwise(tuple(a[::-1] for a in _chain(problem, rows[::-1])), got)


# ---------------------------------------------------------------------------
# MW-1: every row is the closed form of its own canonical code
# ---------------------------------------------------------------------------


def _canonical_reference(problem, Q, tol=1e-8):
    """r* at the rows of Q (R, N), the MW-1 rule written out: each row's
    tight rows T and support P are read from its own cold ascent (an ascent
    row does not depend on its batch), and A runs over T and then its
    subsets, largest first and in index order, at most lift.SUBSETS of
    them (a cap in A adds the queues it bounds to P), until the closed form
    mu = [(G_AP G_AP^T)^+ h_A]^+ passes the KKT test. This is what a one-row
    solve of each row returns."""
    from itertools import chain, combinations, islice

    R, (K, N) = len(Q), problem.G.shape
    h = (problem.G @ Q[:, :, None])[:, :, 0]
    r = problem._ascend(Q, tol)[0]
    eps = tol * (1.0 + np.abs(h).max(axis=1))[:, None]
    tight, pos = (problem.G @ r[:, :, None])[:, :, 0] - h <= eps, r > eps
    out = r.copy()
    for mask in {tuple(row) for row in np.concatenate([tight, pos], axis=1).tolist()}:
        rows = np.flatnonzero((np.concatenate([tight, pos], axis=1) == mask).all(axis=1))
        T, P = np.flatnonzero(mask[:K]), np.array(mask[K:], dtype=bool)
        for A in islice(chain.from_iterable(combinations(T, k) for k in range(len(T), -1, -1)), lift_module.SUBSETS):
            act = np.isin(np.arange(K), A)
            M = problem._basis(act, P | (problem.G[act] < 0).any(axis=0))[3]
            point = problem._point(np.maximum((M @ h[rows, :, None])[:, :, 0], 0.0), h[rows])
            ok = point[4] <= tol
            out[rows[ok]] = point[2][ok]
            rows = rows[~ok]
    return out


def _collapse_grid(seed, tmp_path, monkeypatch):
    """The (grid_points, scales x reps, 4) states that the collapse run of
    scenarios/collapse_iq2_canonical.json lifts at the seed, and the
    (model, lam, weight, clvr) of its lifting problem."""
    import json
    from pathlib import Path

    from swnet import cli

    raw = json.loads((Path(__file__).parent.parent / "scenarios" / "collapse_iq2_canonical.json").read_text())
    cfg = cli.parse_scenario(dict(raw, seed=seed))
    grids, solve = [], LiftProblem.solve
    with monkeypatch.context() as patch:
        patch.setattr(LiftProblem, "solve", lambda self, Q, tol=1e-8: grids.append(Q) or solve(self, Q, tol))
        cli.execute(cfg, tmp_path / "out")
    return (cfg.model, cfg.lam, *cli._lyapunov_view(cfg)), grids[0]


@pytest.mark.parametrize("seed", [2024, 5, 7])
def test_mw1_grid_rows_equal_their_one_row_solves(seed, tmp_path, monkeypatch):
    # on iq2 the row and column indicators are dependent, so a row passes
    # under several codes whose closed forms differ in the last bits; the
    # canonical code keeps every row's result independent of its batch
    args, grid = _collapse_grid(seed, tmp_path, monkeypatch)
    fresh = lambda: LiftProblem(*args)
    problem = fresh()
    calls = _count_ascents(problem, monkeypatch)
    r, mu, kkt, iterations = problem.solve(grid)
    assert grid.shape == (200, 60, 4) and kkt.max() <= 1e-8
    assert sum(calls) == (iterations > 1).sum() <= 16  # cold ascents of 1, 2, 4, ... rows, not of 12 000
    assert len(calls) <= 10
    rows, (r, mu, kkt) = grid.reshape(-1, 4), (a.reshape(12_000, -1) for a in (r, mu, kkt))
    assert np.array_equal(r, _canonical_reference(fresh(), rows))
    assert np.array_equal(r, problem.solve(rows[::-1, None])[0][::-1, 0])  # another batch order, a second call
    for k in np.random.default_rng(seed).choice(len(rows), 40, replace=False):
        alone = fresh().solve(rows[k][None, None])
        assert all(np.array_equal(a.reshape(-1), b[k].reshape(-1)) for a, b in zip(alone, (r, mu, kkt)))


def _mw1_problem(request, name):
    """(model, lam, clvr) of switch2, iq3 (at lambda = 1/3), tandem2, ex2,
    or ex2 at lambda = (3, 0), which adds the zero-rate cap r_1 <= q_1."""
    if name.startswith("ex2"):
        model, lam = request.getfixturevalue("ex2"), [3, 0] if name == "ex2_caps" else LAMS["ex2"]
        return model, lam, critically_loaded(model, lam, request.getfixturevalue("ex2_vrs"))[0]
    if name == "iq3":
        from swnet import presets
        from swnet.geometry import enumerate_dual_vertices

        model, lam = presets.iq_switch(3), [F(1, 3)] * 9
        return model, lam, critically_loaded(model, lam, enumerate_dual_vertices(model))[0]
    return request.getfixturevalue(name), LAMS[name], request.getfixturevalue(f"{name}_clvr")


def _random_states(n_queues, seed, count=60):
    """Random states with zero coordinates, all-zero rows and repeats."""
    rng = np.random.default_rng(seed)
    Q = rng.random((count, n_queues)) * 4.0 * (rng.random((count, n_queues)) < 0.75)
    Q[::13] = 0.0
    Q[5::11] = Q[4::11][: len(Q[5::11])]
    return Q


@pytest.mark.parametrize("name", ["switch2", "iq3", "tandem2", "ex2_caps"])
def test_mw1_random_states_equal_their_one_row_solves(request, name):
    model, lam, clvr = _mw1_problem(request, name)
    weight = WeightFunction.power(1.0)
    Q = _random_states(model.n_queues, 59)
    r, mu, kkt, _ = (a[0] for a in LiftProblem(model, lam, weight, clvr).solve(Q[None]))
    assert kkt.max() <= 1e-8
    for k, q in enumerate(Q):
        b = lift(model, lam, weight, clvr, q)
        assert np.array_equal(b.r_star, r[k]) and np.array_equal(b.multipliers, mu[k]) and b.kkt_residual == kkt[k]


@pytest.mark.parametrize("name", ["switch2", "iq3", "tandem2"])  # ex2's rows all take their first candidate
def test_mw1_a_row_no_canonical_candidate_lifts_gets_its_one_row_solve(request, name, monkeypatch):
    # the codes that one-row solves take are found first, as earlier blocks of
    # one solve find them; then the canonical walk is cut to its first
    # candidate, A = T. A row that a found code passes but whose first
    # candidate fails must get its one-row solve, not keep that code's point
    model, lam, clvr = _mw1_problem(request, name)
    problem = LiftProblem(model, lam, WeightFunction.power(1.0), clvr)
    Q, (K, N) = _random_states(model.n_queues, 59), problem.G.shape
    new = lambda R: [np.zeros((R, N)), np.zeros((R, K)), np.zeros(R), np.ones(R, dtype=np.int64)]
    codes = []
    for k in range(len(Q)):
        problem._by_codes(Q[k : k + 1], 1e-8, new(1), codes)
    monkeypatch.setattr(lift_module, "SUBSETS", 1)
    alone, by_codes = [], problem._by_codes
    monkeypatch.setattr(problem, "_by_codes", lambda Q, *a: alone.append(len(Q) == 1) or by_codes(Q, *a))
    out = new(len(Q))
    problem._by_codes(Q, 1e-8, out, codes)
    assert sum(alone) >= 1  # some row was solved alone
    for k, q in enumerate(Q):  # iterations too where the row was ascended, alone or in the batch
        ref = LiftProblem(model, lam, WeightFunction.power(1.0), clvr).solve(q[None, None])
        assert all(np.array_equal(a[k], b[0, 0]) for a, b in zip(out[:3], ref))
        assert out[3][k] in (1, ref[3][0, 0])


def _exact_certificate(model, lam, clvr, q, r_float, tol=1e-8):
    """The exact lift at q, certified in Fractions, or None. T (slack <=
    eps) and P (r > eps, and the queues that a cap in A bounds) are read
    from the float lift. For A = T and then its subsets, largest first, the
    code's equality system r_P = G_AP^T mu_A, G_AP r_P = G_A q is solved by
    geometry.solve_square, and the first solution with mu >= 0, r_P > 0 (>=
    0 on a pinned queue), (G^T mu)_n <= 0 off P and G r >= G q is returned:
    it satisfies the KKT conditions exactly, which suffice for this convex
    program."""
    from itertools import combinations

    from swnet.geometry import solve_square, to_fraction
    from swnet.lift import _zero_rate_mask

    N = model.n_queues
    up = [[int(v) for v in row] for row in model.upstream]
    G = [[sum(to_fraction(x) * up[m][n] for m, x in enumerate(xi)) for n in range(N)] for xi in clvr]
    G += [[-F(v) for v in up[n]] for n in np.flatnonzero(_zero_rate_mask(model, lam))]
    qx = [to_fraction(float(v)) for v in q]
    h = [sum(g * v for g, v in zip(row, qx)) for row in G]
    eps = tol * (1.0 + max(abs(float(v)) for v in h))
    slack = np.array(G, dtype=float) @ r_float - np.array(h, dtype=float)
    T = [k for k, s in enumerate(slack) if s <= eps]
    zero = F(0)
    for size in range(len(T), -1, -1):
        for A in combinations(T, size):  # a cap in A pins the queues it bounds, as in LiftProblem._canonical
            P = [n for n in range(N) if r_float[n] > eps or any(G[k][n] < 0 for k in A)]
            # unknowns (r_P, mu_A): r_P - G_AP^T mu_A = 0, then G_AP r_P = h_A
            a = [[F(int(i == j)) for j in range(len(P))] + [-G[k][p] for k in A] for i, p in enumerate(P)]
            a += [[G[k][p] for p in P] + [zero] * len(A) for k in A]
            x = solve_square(a, [zero] * len(P) + [h[k] for k in A]) if a else []
            if x is None:
                continue
            r, mu = [zero] * N, [zero] * len(G)
            for p, v in zip(P, x):
                r[p] = v
            for k, v in zip(A, x[len(P):]):
                mu[k] = v
            t = [sum(mu[k] * G[k][n] for k in range(len(G))) for n in range(N)]
            pinned_ok = all(r[p] > 0 if r_float[p] > eps else r[p] >= 0 for p in P)  # a pinned queue may sit at 0
            if (all(v >= 0 for v in mu) and pinned_ok and all(t[n] <= 0 for n in range(N) if n not in P)
                    and all(sum(g * v for g, v in zip(row, r)) >= hk for row, hk in zip(G, h))):
                return r
    return None


@pytest.mark.parametrize("name", ["ex2", "ex2_caps", "switch2", "iq3", "tandem2"])
def test_mw1_lifts_carry_an_exact_certificate(request, name):
    model, lam, clvr = _mw1_problem(request, name)
    Q = _random_states(model.n_queues, 61, count=30)
    r = LiftProblem(model, lam, WeightFunction.power(1.0), clvr).solve(Q[None])[0][0]
    for q, r_float in zip(Q, r):
        exact = _exact_certificate(model, lam, clvr, q, r_float)
        assert exact is not None
        assert max(abs(float(v) - x) for v, x in zip(exact, r_float)) <= 1e-12


def test_mw1_collapse_grid_lifts_carry_an_exact_certificate(tmp_path, monkeypatch):
    (model, lam, weight, clvr), grid = _collapse_grid(2024, tmp_path, monkeypatch)
    rows = grid.reshape(-1, 4)
    r = LiftProblem(model, lam, weight, clvr).solve(grid)[0].reshape(-1, 4)
    for k in np.random.default_rng(3).choice(len(rows), 60, replace=False):
        exact = _exact_certificate(model, lam, clvr, rows[k], r[k])
        assert exact is not None
        assert max(abs(float(v) - x) for v, x in zip(exact, r[k])) <= 1e-12
