"""Workload map, the critical-workload polyhedron, and the lifting map as
the solution of the convex program over it.

The program minimized is: L(r) = sum_n F(r_n) over r >= 0 subject to
xi . (R~ r) >= xi . (R~ q) for every critically loaded virtual resource xi,
plus [R~ r]_n <= [R~ q]_n wherever the aggregated arrival rate is zero
(single-hop: R~ = I, so the caps are r_n <= q_n where lambda_n = 0).

Solver: dual ascent on the multipliers; r(mu) = f^{-1}([G^T mu]^+) is closed
form (F' = f is invertible) and the concave dual is maximized by projected
gradient with backtracking, polished by active-set Newton steps in bases
cached per code (active, t > 0). LiftProblem.solve is the one entry point: it
lifts every row of a (J, B, N) batch of states in one batched ascent, each as
its own one-row solve, so no lift depends on the batch or on the state lifted
before it. Under MW-1 (F(r) = r^2 / 2) the program is a strictly convex QP,
and r* is linear in q once its code (A, P) is known (Goldfarb & Idnani 1983):
there each row's ascent starts at the closed form of the code where every
constraint is active and every queue positive; under any other weight it
starts at zero multipliers. The KKT certificate is path-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import float_vector, fraction_vector, solve_lp, to_fraction
from .model import NetworkModel, WeightFunction
from .policy import drift_formula


MAX_ITER = 50_000  # dual-ascent iterations before a row counts as stalled


class SolverDivergence(RuntimeError):
    """Dual ascent failed to reach the KKT tolerance within MAX_ITER iterations."""


def _zero_rate_mask(model: NetworkModel, lam) -> np.ndarray:
    """Exact mask of queues whose aggregated rate [R~ lambda]_n is zero."""
    return np.array([v == 0 for v in model.transform_exact(fraction_vector(lam))], dtype=bool)


def workload(model: NetworkModel, xi_set, q) -> np.ndarray:
    """Workload coordinates [xi . R~ q] in the order of xi_set.

    The dot products are accumulated exactly (rational xi against the exact
    binary values of q) before conversion to float.
    """
    q_tilde = model.transform_exact(fraction_vector(np.asarray(q, dtype=float)))
    return np.array([float(sum(to_fraction(x) * qt for x, qt in zip(xi, q_tilde))) for xi in xi_set])


def constraint_rows(model: NetworkModel, lam, clvr, include_caps: bool) -> tuple[np.ndarray, tuple[str, ...]]:
    """Rows G of the critical-workload polyhedron {r : G r >= G q}: one
    workload row xi . R~ per resource in clvr, then (with ``include_caps``)
    a cap row -R~_n per queue whose aggregated rate [R~ lambda]_n is zero.
    Returns (G, kinds)."""
    rt = model.upstream.astype(float)
    rows: list[np.ndarray] = []
    kinds: list[str] = []
    for i, xi in enumerate(clvr):
        rows.append(float_vector(xi) @ rt)
        kinds.append(f"workload_{i}")
    if include_caps:
        for n in np.flatnonzero(_zero_rate_mask(model, lam)):
            rows.append(-rt[n])
            kinds.append(f"cap_{n}")
    G = np.vstack(rows) if rows else np.zeros((0, model.n_queues))
    return G, tuple(kinds)


@dataclass
class LiftResult:
    """Optimizer of the lifting program with its dual certificate."""

    r_star: np.ndarray
    multipliers: np.ndarray
    constraint_kinds: tuple[str, ...]
    kkt_residual: float
    iterations: int

    def multiplier_map(self) -> dict:
        return {k: float(m) for k, m in zip(self.constraint_kinds, self.multipliers)}


def _groups(codes: np.ndarray) -> dict:
    """Row indices by code: the bytes of each row of the packed codes (B, n) -> its rows."""
    groups: dict = {}
    for i, code in enumerate(codes.view(f"V{codes.shape[1]}")[:, 0].tolist()):
        groups.setdefault(code, []).append(i)
    return groups


def _finv_deriv(weight: WeightFunction, t: np.ndarray) -> np.ndarray:
    """(f^{-1})'(t) for t > 0, and 0 where the inner minimum sits at r = 0."""
    fp = weight.derivative(np.maximum(weight.inverse(np.maximum(t, 0.0)), 1e-300))
    return np.where(t > 0, 1.0 / np.maximum(fp, 1e-300), 0.0)


class LiftProblem:
    """The lifting program of one (model, lam, weight, clvr), compiled once.

    The float constraint matrix G and the constraint kinds (constraint_rows)
    are built here, and under MW-1 the map S = (G G^T)^+ of the ascent's
    start; ``solve`` lifts a (J, B) batch of states, each as its own one-row
    solve, and ``lift`` is its one-state case. ``clvr`` is
    the set of critically loaded virtual resources (maximal vertices; passing
    the full critically loaded vertex set with ``include_caps=False`` yields
    the same minimizer).

    Every contraction is a stacked per-row matmul and every reduction runs
    along a row, so a row's result does not depend on the batch it is in.
    """

    def __init__(self, model: NetworkModel, lam, weight: WeightFunction, clvr, include_caps: bool = True) -> None:
        self.weight = weight
        self.G, self.kinds = constraint_rows(model, lam, clvr, include_caps)
        self._bases: dict = {}  # code -> _basis(act, pos) of that code, built on its first visit
        # MW-1: the ascent starts at the closed form of the code where every constraint is active and every
        # queue positive, mu0 = [S G q]^+ with S = (G G^T)^+; under any other weight it starts at mu = 0
        self._start = np.linalg.pinv(self.G @ self.G.T) if weight.kind == "power" and weight.alpha == 1.0 else None

    def _point(self, mu: np.ndarray, h: np.ndarray) -> list[np.ndarray]:
        """[mu, t, r, grad, kkt, dual] at each row of mu (B, K): t = G^T mu,
        the inner minimizer r = f^{-1}([t]^+), the dual gradient h - G r, the
        KKT residual and the concave dual value."""
        weight, G = self.weight, self.G
        t = (mu[:, None, :] @ G)[:, 0]
        tp = np.maximum(t, 0.0)
        r = weight.inverse(tp)
        grad = h - (G @ r[:, :, None])[:, :, 0]
        # primal feasibility, complementarity, stationarity (f(r) = t where
        # r > 0, t <= 0 where r = 0)
        errors = (np.maximum(grad, 0.0), np.abs(mu * grad), np.where(r > 0, np.abs(weight.value(r) - t), tp))
        kkt = np.concatenate(errors, axis=1).max(axis=1)
        dual = (weight.antiderivative(r) - tp * r).sum(axis=1) + (mu * h).sum(axis=1)
        return [mu, t, r, grad, kkt, dual]

    def _basis(self, act: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """(U, Gu, lim) of the code (act, pos): U (K, r) an orthonormal basis of the range
        of diag(act) G diag(pos), Gu = U^T G and lim = 1e10 / cond(Gu diag(pos))^2."""
        w, s, _ = np.linalg.svd(self.G[np.ix_(act, pos)])
        r = int((s > s.max(initial=0.0) * max(self.G.shape) * np.finfo(float).eps).sum())
        U = np.eye(len(act))[:, act] @ w[:, :r]  # w's rows put back at the active positions
        return U, U.T @ self.G, 1e10 * (s[r - 1] / s[0]) ** 2 if r else 1.0

    def _newton(self, mu: np.ndarray, t: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Active-set Newton candidates, treating near-active constraints as
        equalities, and the mask of rows whose step is usable. Dependent
        resources (switch rows vs columns) leave the Hessian singular; its
        minimum-norm step is U y with (Gu diag(d) Gu^T) y = U^T grad, d =
        (f^{-1})'(t), in the basis of the row's code (act, t > 0). Where max d >
        lim min d over t > 0, the system's condition number may exceed 1e10,
        and y comes from its pseudo-inverse at rcond 1e-12."""
        scale = 1.0 + mu.max(axis=1) + np.abs(grad).max(axis=1)  # mu >= 0
        act = np.maximum(mu, grad) > 1e-12 * scale[:, None]
        d, pos = _finv_deriv(self.weight, t), t > 0
        delta, ok = np.zeros_like(mu), np.zeros(len(mu), dtype=bool)
        for code, rows in _groups(np.packbits(np.concatenate([act, pos], axis=1), axis=1)).items():
            U, Gu, lim = self._bases.get(code) or self._bases.setdefault(code, self._basis(act[rows[0]], pos[rows[0]]))
            rows, dr = np.array(rows), d[rows]
            hess, rhs = (Gu * dr[:, None, :]) @ Gu.T, U.T @ grad[rows, :, None]  # r x r and r x 1, r = 0 at rank 0
            norm2 = (hess * hess).sum(axis=(1, 2))
            ok[rows] = good = (norm2 > 1e-24) & (norm2 < np.inf)
            fast = good & (dr.max(axis=1) <= lim * np.where(pos[rows], dr, np.inf).min(axis=1))
            delta[rows[fast]] = (U @ np.linalg.solve(hess[fast], rhs[fast]))[:, :, 0]
            if (slow := good & ~fast).any():
                delta[rows[slow]] = (U @ (np.linalg.pinv(hess[slow], rcond=1e-12) @ rhs[slow]))[:, :, 0]
        ok &= np.abs(delta).max(axis=1) <= 1e8 * scale  # false where delta is not finite
        return np.where(act, np.maximum(mu + delta, 0.0), mu), ok

    def _ascend(self, Q: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
        """Dual ascent at the rows of Q (B, N): solve's four arrays, each with
        leading axis B. Each row has its own step size and stopping test and is
        frozen once its KKT residual is <= tol; the first test is at the start
        (see __init__)."""
        B = len(Q)
        h = (self.G @ Q[:, :, None])[:, :, 0]
        S = self._start
        cur = self._point(np.zeros((B, len(self.G))) if S is None else np.maximum((S @ h[:, :, None])[:, :, 0], 0.0), h)
        step, iterations = np.ones(B), np.ones(B, dtype=np.int64)
        live = np.arange(B)  # rows still iterating
        res = cur[4]  # KKT residuals of the rows that failed the last test
        for it in range(1, MAX_ITER + 1):
            live = live[cur[4][live] > tol]
            if live.size == 0:
                break
            iterations[live] = it + 1  # the iteration of a row's next test
            # Newton: accept the full step when it shrinks the KKT residual
            # (near the optimum the dual value is too flat to discriminate,
            # the residual is not)
            mu, t, _, grad, res, dual = (a[live] for a in cur)
            cand, ok = self._newton(mu, t, grad)
            new = self._point(cand, h[live])
            good = ok & (new[4] <= 0.9 * res) & (new[5] >= dual - 1e-12 * (1.0 + np.abs(dual)))
            rows = live[good]
            for a, b in zip(cur, new):
                a[rows] = b[good]
            # projected gradient with Armijo backtracking on the other rows
            search = live[~good]
            for _ in range(60):
                if search.size == 0:
                    break
                mu_s, grad_s, dual_s = cur[0][search], cur[3][search], cur[5][search]
                cand = np.maximum(mu_s + step[search, None] * grad_s, 0.0)
                new = self._point(cand, h[search])
                gain = (grad_s * (cand - mu_s)).sum(axis=1)
                still = (gain <= 0) & (cand == mu_s).all(axis=1)  # stationary against the bound
                up = ~still & (new[5] >= dual_s + 1e-4 * gain)
                for a, b in zip(cur, new):
                    a[search[up]] = b[up]
                step[search[up]] *= 1.8
                search = search[~(still | up)]
                step[search] *= 0.5
            step[search] = np.maximum(step[search], 1e-18)
        else:
            raise SolverDivergence(
                f"lift solver stalled: kkt residual {res.max():.3e} > tol {tol:.1e} "
                f"after {MAX_ITER} iterations ({live.size} of {B} states)"
            )
        return cur[2], cur[0], cur[4], iterations

    def solve(self, Q, tol: float = 1e-8) -> tuple[np.ndarray, ...]:
        """Unique minimizers of L over the critical-workload polyhedron at
        the rows of Q (J, B, N). Returns (r_star, multipliers, kkt_residual,
        iterations), each with leading axes (J, B). All J x B rows take one
        batched ascent (from the start of __init__), and each row gets, bit
        for bit, all four results of its own one-row solve, in any batch and
        order. Empty ``clvr`` and no zero-rate cap: r* = 0, no iteration."""
        Q, (K, N) = np.asarray(Q, dtype=float), self.G.shape
        if Q.ndim != 3 or Q.shape[2] != N or not np.isfinite(Q).all():
            raise ValueError(f"queue states must be a finite (J, B, {N}) array, got shape {Q.shape}")
        if np.any(Q < 0):
            raise ValueError("queue state must be >= 0")
        (J, B), rows = Q.shape[:2], Q.reshape(-1, N)
        out = np.zeros((J * B, N)), np.zeros((J * B, K)), np.zeros(J * B), np.zeros(J * B, dtype=np.int64)
        if K > 0:
            out = self._ascend(rows, tol)
        return tuple(a.reshape(J, B, *a.shape[1:]) for a in out)


def lift(
    model: NetworkModel,
    lam,
    weight: WeightFunction,
    clvr,
    q,
    tol: float = 1e-8,
    include_caps: bool = True,
) -> LiftResult:
    """Unique minimizer of L over the critical-workload polyhedron at q: the
    one-state case of ``LiftProblem(model, lam, weight, clvr,
    include_caps).solve``. Deterministic given inputs."""
    problem = LiftProblem(model, lam, weight, clvr, include_caps)
    r, mu, kkt, iterations = problem.solve(np.asarray(q, dtype=float)[None, None], tol)
    return LiftResult(r[0, 0], mu[0, 0], problem.kinds, float(kkt[0, 0]), int(iterations[0, 0]))


def is_fixed_point(r_star: np.ndarray, q, tol: float = 1e-6) -> bool:
    """Relative fixed-point test |r* - q| <= tol * (1 + |q|), sup norm."""
    q = np.asarray(q, dtype=float)
    gap = float(np.abs(np.asarray(r_star) - q).max(initial=0.0))
    return gap <= tol * (1.0 + float(np.abs(q).max(initial=0.0)))


def lift_oracle(
    model: NetworkModel,
    lam,
    weight: WeightFunction,
    clvr,
    q,
) -> np.ndarray:
    """Brute-force minimizer by multilevel grid refinement (tests only).

    Independent of the dual-ascent path: every mesh point is repaired to an
    exactly feasible candidate (zero-rate caps clipped, then pushed up along
    the positive-rate direction until every workload constraint holds) and
    the plain objective is minimized over the repaired grid, shrinking the
    box around the best candidate. Accuracy is on the order of the final
    grid spacing. Single-hop networks with N <= 4 only.
    """
    n = model.n_queues
    if n > 4:
        raise ValueError("grid oracle supports N <= 4")
    if not model.is_single_hop:
        raise ValueError("grid oracle supports single-hop networks only")
    q = np.asarray(q, dtype=float)
    G, kinds = constraint_rows(model, lam, clvr, include_caps=True)
    if G.shape[0] == 0:
        return np.zeros(n)
    h = G @ q
    grid = {1: 65, 2: 41, 3: 17, 4: 11}[n]
    shrink = max((grid - 1) / 5.0, 1.5)
    span = max(1.0, 3.0 * float(q.max(initial=0.0)))
    levels = 1
    while span / (grid - 1) / (shrink ** (levels - 1)) > 5e-5 and levels < 30:
        levels += 1

    work = np.array([k.startswith("workload") for k in kinds])
    capped = _zero_rate_mask(model, lam)
    cap_vals = np.where(capped, q, np.inf)
    d = (~capped).astype(float)  # push direction: positive-rate queues
    Gw, hw = G[work], h[work]
    resp = Gw @ d  # > 0: every workload resource charges some positive-rate queue

    def repair(pts: np.ndarray) -> np.ndarray:
        pts = np.minimum(pts, cap_vals[None, :])
        viol = np.maximum(hw[None, :] - pts @ Gw.T, 0.0)
        delta = (viol / resp[None, :]).max(axis=1)
        return pts + delta[:, None] * d[None, :]

    best = q.copy()
    best_val = float(weight.lyapunov(best))
    lo_box = np.zeros(n)
    hi_box = np.full(n, span)
    for _ in range(levels):
        axes = [np.linspace(lo_box[d_], hi_box[d_], grid) for d_ in range(n)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        pts = repair(np.vstack([mesh, best[None, :]]))
        vals = weight.lyapunov(pts)
        k = int(np.argmin(vals))
        if vals[k] <= best_val:
            best, best_val = pts[k].copy(), float(vals[k])
        spacing = float(max((hi_box - lo_box) / (grid - 1)))
        half = 2.5 * spacing
        lo_box = np.maximum(best - half, 0.0)
        hi_box = best + half
    return best


def invariant_state_test(
    model: NetworkModel,
    lam,
    weight: WeightFunction,
    q,
    tol: float = 1e-6,
) -> bool:
    """Fixed-point criterion without solving the program: the drift formula
    lambda . f(q) - max_pi (policy weight at q) is zero, to within tol
    relative to the maximal weight; see policy.drift_formula."""
    formula, weights = drift_formula(model, float_vector(lam), weight, q)
    return abs(float(formula)) <= tol * (1.0 + abs(float(weights.max())))


def representation_check(
    model: NetworkModel,
    lam,
    r_star,
    q,
) -> bool:
    """Feasibility of the drift representation of the optimizer.

    Single-hop: r* = [q + t(lambda - sigma)]^+ for some t >= 0 and sigma in
    the schedule hull. Multi-hop: r* = q + t(lambda - (I - R^T) sigma),
    without the positive part. Solved as an exact feasibility LP in the
    variables (t, t*hull weights), with equalities relaxed by 1e-6; a
    component r*_k <= 1e-7 counts as clipped to zero.
    """
    r_star = np.asarray(r_star, dtype=float)
    q = np.asarray(q, dtype=float)
    lam_f = [to_fraction(v) for v in float_vector(lam)]
    tol_f = to_fraction(1e-6)
    n = model.n_queues
    pis = [[to_fraction(float(v)) for v in pi] for pi in model.schedules]
    ns = len(pis)
    # variables: x = (t, b_1..b_ns) with b = t * hull weights
    one = Fraction(1)

    a_ub: list[list[Fraction]] = []
    b_ub: list[Fraction] = []
    a_eq: list[list[Fraction]] = [[one] + [-one] * ns]  # t - sum b = 0
    b_eq: list[Fraction] = [Fraction(0)]

    if model.is_single_hop:
        for k in range(n):
            row = [lam_f[k]] + [-pis[s][k] for s in range(ns)]
            rhs = to_fraction(float(r_star[k])) - to_fraction(float(q[k]))
            if r_star[k] > 1e-7:
                a_ub.append(row)
                b_ub.append(rhs + tol_f)
                a_ub.append([-v for v in row])
                b_ub.append(-rhs + tol_f)
            else:
                # q_k + t lambda_k - sum b pi_k <= 0 (positive part clips)
                a_ub.append(row)
                b_ub.append(-to_fraction(float(q[k])) + tol_f)
    else:
        rt = model.routing
        for k in range(n):
            # (I - R^T) sigma at k: sigma_k - sum_m R_mk sigma_m
            row = [lam_f[k]]
            for s in range(ns):
                val = -pis[s][k]
                for m in range(n):
                    if rt[m, k]:
                        val += pis[s][m]
                row.append(val)
            rhs = to_fraction(float(r_star[k])) - to_fraction(float(q[k]))
            a_ub.append(row)
            b_ub.append(rhs + tol_f)
            a_ub.append([-v for v in row])
            b_ub.append(-rhs + tol_f)

    res = solve_lp([Fraction(0)] * (1 + ns), a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    return res.status == "optimal"
