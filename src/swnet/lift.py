"""Workload map, the critical-workload polyhedron, and the lifting map as
the solution of the convex program over it.

The program minimized is: L(r) = sum_n F(r_n) over r >= 0 subject to
xi . (R~ r) >= xi . (R~ q) for every critically loaded virtual resource xi,
plus [R~ r]_n <= [R~ q]_n wherever the aggregated arrival rate is zero
(single-hop: R~ = I, so the caps are r_n <= q_n where lambda_n = 0).

Solver: dual ascent on the constraint multipliers. The inner minimization
is closed-form because F' = f is invertible, so r(mu) = f^{-1}([G^T mu]^+);
the concave dual is maximized by projected gradient with backtracking, with
an active-set Newton polish to push the KKT residual to tolerance. The KKT
certificate is checkable independently of the iteration path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .geometry import fraction_vector, solve_lp, to_fraction
from .model import NetworkModel, WeightFunction
from .policy import weight_vectors


class SolverDivergence(RuntimeError):
    """Dual ascent failed to reach the KKT tolerance."""


def _lam_floats(lam) -> np.ndarray:
    return np.array([float(to_fraction(v)) for v in lam])


def _zero_rate_mask(model: NetworkModel, lam) -> np.ndarray:
    """Exact mask of queues whose aggregated rate [R~ lambda]_n is zero."""
    return np.array([v == 0 for v in model.upstream.transform_exact(fraction_vector(lam))], dtype=bool)


def workload(model: NetworkModel, xi_set, q) -> np.ndarray:
    """Workload coordinates [xi . R~ q] in the order of xi_set.

    The dot products are accumulated exactly (rational xi against the exact
    binary values of q) before conversion to float.
    """
    q_tilde = model.upstream.transform_exact(fraction_vector(np.asarray(q, dtype=float)))
    return np.array([float(sum(to_fraction(x) * qt for x, qt in zip(xi, q_tilde))) for xi in xi_set])


def constraint_rows(model: NetworkModel, lam, clvr, include_caps: bool) -> tuple[np.ndarray, tuple[str, ...]]:
    """Rows G of the critical-workload polyhedron {r : G r >= G q}: one
    workload row xi . R~ per resource in clvr, then (with ``include_caps``)
    a cap row -R~_n per queue whose aggregated rate [R~ lambda]_n is zero.
    Returns (G, kinds)."""
    rt = model.upstream.entries.astype(float)
    rows: list[np.ndarray] = []
    kinds: list[str] = []
    for i, xi in enumerate(clvr):
        xi_arr = np.array([float(to_fraction(v)) for v in xi])
        rows.append(xi_arr @ rt)
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


def _finv_deriv(weight: WeightFunction, t: np.ndarray) -> np.ndarray:
    """(f^{-1})'(t) for t > 0, and 0 where the inner minimum sits at r = 0."""
    fp = weight.derivative(np.maximum(weight.inverse(np.maximum(t, 0.0)), 1e-300))
    return np.where(t > 0, 1.0 / np.maximum(fp, 1e-300), 0.0)


class LiftProblem:
    """The lifting program of one (model, lam, weight, clvr), compiled once.

    The float constraint matrix G and the constraint kinds (constraint_rows)
    are built here; ``solve_many`` runs the dual ascent for a batch of
    states, and ``lift`` is its one-state case. ``clvr`` is the set of
    critically loaded virtual resources (maximal vertices; passing the full
    critically loaded vertex set with ``include_caps=False`` yields the same
    minimizer).

    Every contraction is a stacked per-row matmul and every reduction runs
    along a row, so a row's result does not depend on the batch it is in.
    """

    def __init__(self, model: NetworkModel, lam, weight: WeightFunction, clvr, include_caps: bool = True) -> None:
        self.weight = weight
        self.G, self.kinds = constraint_rows(model, lam, clvr, include_caps)

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

    def _newton(self, mu: np.ndarray, t: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Active-set Newton candidates, treating near-active constraints as
        equalities: the Hessian is masked to them. Returns the candidate
        multipliers and the mask of rows whose step is usable."""
        scale = 1.0 + mu.max(axis=1) + np.abs(grad).max(axis=1)  # mu >= 0
        act = np.maximum(mu, grad) > 1e-12 * scale[:, None]
        Ga = act[:, :, None] * self.G
        hess = (Ga * _finv_deriv(self.weight, t)[:, None, :]) @ Ga.transpose(0, 2, 1)  # = -d2 D / d mu_act^2, PSD
        norm2 = (hess * hess).sum(axis=(1, 2))
        ok = (norm2 > 1e-24) & (norm2 < np.inf)  # a row with nothing active has hess = 0
        hess[~ok] = 0.0  # keeps the batched SVD finite
        # pseudo-inverse: resources can be linearly dependent (e.g. switch rows
        # vs columns), leaving the Hessian singular
        delta = (np.linalg.pinv(hess, rcond=1e-12) @ (grad * act)[:, :, None])[:, :, 0]
        ok &= np.abs(delta).max(axis=1) <= 1e8 * scale  # false where delta is not finite
        return np.where(act, np.maximum(mu + delta, 0.0), mu), ok

    def solve_many(
        self,
        Q,
        tol: float = 1e-8,
        max_iter: int = 50_000,
        mu0: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Unique minimizers of L over the critical-workload polyhedron at
        the rows of Q (B, N), warm-started from ``mu0`` (B, K). Returns
        (r_star, multipliers, kkt_residual, iterations), each with leading
        axis B. Each row has its own step size and stopping test and is
        frozen once its KKT residual is <= tol. Empty ``clvr`` with no
        zero-rate caps gives r* = 0."""
        K, N = self.G.shape
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[1] != N or not np.isfinite(Q).all():
            raise ValueError(f"queue states must be a finite (B, {N}) array, got shape {Q.shape}")
        if np.any(Q < 0):
            raise ValueError("queue state must be >= 0")
        B = Q.shape[0]
        mu = np.zeros((B, K)) if mu0 is None else np.maximum(np.asarray(mu0, dtype=float), 0.0)
        if mu.shape != (B, K):
            raise ValueError(f"mu0 must have shape {(B, K)}, got {mu.shape}")
        if not np.isfinite(mu).all():
            raise ValueError("mu0 must be finite")
        if K == 0:
            return np.zeros((B, N)), mu, np.zeros(B), np.zeros(B, dtype=np.int64)
        h = (self.G @ Q[:, :, None])[:, :, 0]
        cur = self._point(mu, h)
        step, iterations = np.ones(B), np.ones(B, dtype=np.int64)
        live = np.arange(B)  # rows still iterating
        res = cur[4]  # KKT residuals of the rows that failed the last test
        for it in range(1, max_iter + 1):
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
                f"after {max_iter} iterations ({live.size} of {B} states)"
            )
        return cur[2], cur[0], cur[4], iterations


def lift(
    model: NetworkModel,
    lam,
    weight: WeightFunction,
    clvr,
    q,
    tol: float = 1e-8,
    max_iter: int = 50_000,
    mu0: Optional[np.ndarray] = None,
    include_caps: bool = True,
) -> LiftResult:
    """Unique minimizer of L over the critical-workload polyhedron at q: the
    one-state case of ``LiftProblem(model, lam, weight, clvr,
    include_caps).solve_many``. Deterministic given inputs; ``mu0`` (K,)
    warm-starts the multipliers."""
    problem = LiftProblem(model, lam, weight, clvr, include_caps)
    mu0 = None if mu0 is None else np.asarray(mu0, dtype=float)[None]
    r, mu, kkt, iterations = problem.solve_many(np.asarray(q, dtype=float)[None], tol, max_iter, mu0)
    return LiftResult(r[0], mu[0], problem.kinds, float(kkt[0]), int(iterations[0]))


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
    """Fixed-point criterion without solving the program:
    lambda . f(q) equals the maximal schedule weight at q (single-hop
    weights pi . f(q); multi-hop pi . (I-R) f(q))."""
    q = np.asarray(q, dtype=float)
    weights = weight_vectors(model, weight, q, pressure=not model.is_single_hop)
    max_w = float(weights.max())
    lam_fq = float(_lam_floats(lam) @ weight.value(q))
    return abs(lam_fq - max_w) <= tol * (1.0 + abs(max_w))


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
    lam_f = [to_fraction(float(v)) for v in _lam_floats(lam)]
    tol_f = to_fraction(1e-6)
    n = model.n_queues
    pis = [[to_fraction(float(v)) for v in pi] for pi in model.schedules.as_array]
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
        rt = model.routing.entries
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
