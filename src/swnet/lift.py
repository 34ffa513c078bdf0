"""Lyapunov function, workload map, and the lifting map as the solution of
the critical-workload convex program.

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

from .geometry import solve_lp, to_fraction
from .model import NetworkModel, WeightFunction
from .policy import weight_vectors


class SolverDivergence(RuntimeError):
    """Dual ascent failed to reach the KKT tolerance."""


@dataclass(frozen=True)
class LyapunovSpec:
    """L(q) = sum_n F(q_n) for the policy's weight function."""

    weight: WeightFunction

    def L(self, q) -> float:
        q = np.asarray(q, dtype=float)
        return float(np.sum(self.weight.antiderivative(q)))

    @staticmethod
    def power(alpha: float) -> "LyapunovSpec":
        return LyapunovSpec(weight=WeightFunction.power(alpha))


def lyapunov(spec: LyapunovSpec, q) -> float:
    """sum_n F(q_n)."""
    if np.any(np.asarray(q, dtype=float) < 0):
        raise ValueError("queue state must be >= 0")
    return spec.L(q)


def _lam_floats(lam) -> np.ndarray:
    return np.array([float(to_fraction(v)) for v in lam])


def _zero_rate_mask(model: NetworkModel, lam) -> np.ndarray:
    """Exact mask of queues whose aggregated (upstream-summed) rate is zero."""
    fr = [to_fraction(v) for v in lam]
    rt = model.upstream.entries
    n = model.n_queues
    return np.array(
        [all(fr[m] == 0 for m in range(n) if rt[k, m]) for k in range(n)], dtype=bool
    )


def workload(model: NetworkModel, xi_set, q) -> np.ndarray:
    """Workload coordinates [xi . R~ q] in the order of xi_set.

    The dot products are accumulated exactly (rational xi against the exact
    binary values of q) before conversion to float.
    """
    q_fr = [to_fraction(float(v)) for v in np.asarray(q, dtype=float)]
    rt = model.upstream.entries
    n = model.n_queues
    q_tilde = [sum(q_fr[m] for m in range(n) if rt[k, m]) for k in range(n)]
    out = []
    for xi in xi_set:
        out.append(float(sum(to_fraction(x) * qt for x, qt in zip(xi, q_tilde))))
    return np.array(out)


def _assemble(model: NetworkModel, lam, clvr, include_caps: bool):
    """Constraint matrix G with rows a_k so that the program reads
    a_k . r >= a_k . q; returns (G, kinds)."""
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
    if rows:
        return np.vstack(rows), kinds
    return np.zeros((0, model.n_queues)), kinds


@dataclass
class LiftResult:
    """Optimizer of the lifting program with its dual certificate."""

    r_star: np.ndarray
    multipliers: np.ndarray
    constraint_kinds: list[str]
    kkt_residual: float
    iterations: int
    objective: float
    lam_label: list[str]
    weight_label: str

    def multiplier_map(self) -> dict:
        return {k: float(m) for k, m in zip(self.constraint_kinds, self.multipliers)}


def _kkt_residual(weight: WeightFunction, G, mu, r, grad) -> float:
    """max of primal feasibility, complementarity, and stationarity errors."""
    if G.shape[0] == 0:
        return 0.0
    pf = float(np.maximum(grad, 0.0).max(initial=0.0))
    cs = float(np.abs(mu * grad).max(initial=0.0))
    t = G.T @ mu
    fr = weight.value(r)
    st_pos = np.abs(fr - t)[r > 0].max(initial=0.0)
    st_zero = np.maximum(t, 0.0)[r == 0].max(initial=0.0)
    return max(pf, cs, float(st_pos), float(st_zero))


def _finv_deriv(weight: WeightFunction, t: np.ndarray) -> np.ndarray:
    """(f^{-1})'(t) for t > 0, and 0 where the inner minimum sits at r = 0."""
    out = np.zeros_like(t)
    pos = t > 0
    if pos.any():
        r = weight.inverse(t[pos])
        fp = weight.derivative(np.maximum(r, 1e-300))
        out[pos] = 1.0 / np.maximum(fp, 1e-300)
    return out


def lift(
    model: NetworkModel,
    lam,
    spec: LyapunovSpec,
    clvr,
    q,
    tol: float = 1e-8,
    max_iter: int = 50_000,
    mu0: Optional[np.ndarray] = None,
    include_caps: bool = True,
) -> LiftResult:
    """Unique minimizer of L over the critical-workload polyhedron at q.

    ``clvr`` is the set of critically loaded virtual resources (maximal
    vertices; passing the full critically loaded vertex set with
    ``include_caps=False`` yields the same minimizer). Empty ``clvr`` with
    no zero-rate caps gives r* = 0. Deterministic given inputs; ``mu0``
    warm-starts the multipliers.
    """
    weight = spec.weight
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValueError("queue state must be >= 0")
    G, kinds = _assemble(model, lam, clvr, include_caps)
    K = G.shape[0]
    lam_label = [str(to_fraction(v)) for v in lam]
    if K == 0:
        r = np.zeros(model.n_queues)
        return LiftResult(
            r_star=r,
            multipliers=np.zeros(0),
            constraint_kinds=[],
            kkt_residual=0.0,
            iterations=0,
            objective=spec.L(r),
            lam_label=lam_label,
            weight_label=weight.label(),
        )
    h = G @ q

    def r_of(mu: np.ndarray) -> np.ndarray:
        return weight.inverse(np.maximum(G.T @ mu, 0.0))

    def dual_value(mu: np.ndarray) -> float:
        t = np.maximum(G.T @ mu, 0.0)
        r = weight.inverse(t)
        return float(np.sum(weight.antiderivative(r) - t * r) + mu @ h)

    mu = np.zeros(K) if mu0 is None else np.maximum(np.asarray(mu0, dtype=float), 0.0)
    if mu.shape != (K,):
        mu = np.zeros(K)
    step = 1.0
    d_cur = dual_value(mu)
    best_res = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        r = r_of(mu)
        grad = h - G @ r
        res = _kkt_residual(weight, G, mu, r, grad)
        best_res = min(best_res, res)
        if res <= tol:
            break

        moved = False
        # active-set Newton: treat near-active constraints as equalities and
        # accept the full step when it shrinks the KKT residual (near the
        # optimum the dual value is too flat to discriminate, the residual
        # is not)
        scale = 1.0 + float(np.abs(mu).max(initial=0.0)) + float(np.abs(grad).max(initial=0.0))
        act = (mu > 1e-12 * scale) | (grad > 1e-12 * scale)
        if act.any():
            t = G.T @ mu
            w = _finv_deriv(weight, t)
            Ga = G[act]
            hess = (Ga * w) @ Ga.T  # = -d2 D / d mu_act^2, PSD
            delta = None
            if np.linalg.norm(hess) > 1e-12:
                try:
                    # lstsq: resources can be linearly dependent (e.g. switch
                    # rows vs columns), leaving the Hessian singular
                    delta, *_ = np.linalg.lstsq(hess, grad[act], rcond=1e-12)
                except np.linalg.LinAlgError:
                    delta = None
            if (
                delta is not None
                and np.all(np.isfinite(delta))
                and np.abs(delta).max() <= 1e8 * scale
            ):
                cand = mu.copy()
                cand[act] = np.maximum(mu[act] + delta, 0.0)
                r_new = r_of(cand)
                grad_new = h - G @ r_new
                res_new = _kkt_residual(weight, G, cand, r_new, grad_new)
                d_new = dual_value(cand)
                if res_new <= 0.9 * res and d_new >= d_cur - 1e-12 * (1.0 + abs(d_cur)):
                    mu, d_cur, moved = cand, d_new, True
        if not moved:
            # projected gradient with Armijo backtracking
            accepted = False
            for _ in range(60):
                cand = np.maximum(mu + step * grad, 0.0)
                d_new = dual_value(cand)
                gain = grad @ (cand - mu)
                if gain <= 0 and np.array_equal(cand, mu):
                    accepted = True  # stationary against the bound
                    break
                if d_new >= d_cur + 1e-4 * gain:
                    mu, d_cur = cand, d_new
                    step *= 1.8
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                step = max(step, 1e-18)
    else:
        raise SolverDivergence(
            f"lift solver stalled: kkt residual {best_res:.3e} > tol {tol:.1e} "
            f"after {max_iter} iterations"
        )

    r = r_of(mu)
    grad = h - G @ r
    return LiftResult(
        r_star=r,
        multipliers=mu,
        constraint_kinds=kinds,
        kkt_residual=_kkt_residual(weight, G, mu, r, grad),
        iterations=iterations,
        objective=spec.L(r),
        lam_label=lam_label,
        weight_label=weight.label(),
    )


def is_fixed_point(r_star: np.ndarray, q, tol: float = 1e-6) -> bool:
    """Relative fixed-point test |r* - q| <= tol * (1 + |q|), sup norm."""
    q = np.asarray(q, dtype=float)
    gap = float(np.abs(np.asarray(r_star) - q).max(initial=0.0))
    return gap <= tol * (1.0 + float(np.abs(q).max(initial=0.0)))


def lift_oracle(
    model: NetworkModel,
    lam,
    spec: LyapunovSpec,
    clvr,
    q,
    grid: Optional[int] = None,
    levels: Optional[int] = None,
    include_caps: bool = True,
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
    G, kinds = _assemble(model, lam, clvr, include_caps)
    if G.shape[0] == 0:
        return np.zeros(n)
    h = G @ q
    if grid is None:
        grid = {1: 65, 2: 41, 3: 17, 4: 11}[n]
    shrink = max((grid - 1) / 5.0, 1.5)
    span = max(1.0, 3.0 * float(q.max(initial=0.0)))
    if levels is None:
        levels = 1
        while span / (grid - 1) / (shrink ** (levels - 1)) > 5e-5 and levels < 30:
            levels += 1

    work = np.array([k.startswith("workload") for k in kinds])
    capped = _zero_rate_mask(model, lam) if include_caps else np.zeros(n, dtype=bool)
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
    best_val = float(np.sum(spec.weight.antiderivative(best)))
    lo_box = np.zeros(n)
    hi_box = np.full(n, span)
    for _ in range(levels):
        axes = [np.linspace(lo_box[d_], hi_box[d_], grid) for d_ in range(n)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        pts = repair(np.vstack([mesh, best[None, :]]))
        vals = spec.weight.antiderivative(pts).sum(axis=1)
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
    spec: LyapunovSpec,
    q,
    tol: float = 1e-6,
) -> bool:
    """Fixed-point criterion without solving the program:
    lambda . f(q) equals the maximal schedule weight at q (single-hop
    weights pi . f(q); multi-hop pi . (I-R) f(q))."""
    q = np.asarray(q, dtype=float)
    weights = weight_vectors(model, spec.weight, q, pressure=not model.is_single_hop)
    max_w = float(weights.max())
    lam_fq = float(_lam_floats(lam) @ spec.weight.value(q))
    return abs(lam_fq - max_w) <= tol * (1.0 + abs(max_w))


def representation_check(
    model: NetworkModel,
    lam,
    r_star,
    q,
    tol: float = 1e-6,
    zero_cutoff: float = 1e-7,
) -> bool:
    """Feasibility of the drift representation of the optimizer.

    Single-hop: r* = [q + t(lambda - sigma)]^+ for some t >= 0 and sigma in
    the schedule hull. Multi-hop: r* = q + t(lambda - (I - R^T) sigma),
    without the positive part. Solved as an exact feasibility LP in the
    variables (t, t*hull weights), with equalities relaxed by ``tol``.
    """
    r_star = np.asarray(r_star, dtype=float)
    q = np.asarray(q, dtype=float)
    lam_f = [to_fraction(float(v)) for v in _lam_floats(lam)]
    tol_f = to_fraction(float(tol))
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
            if r_star[k] > zero_cutoff:
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
