"""Fluid model trajectories and their structural checks: Lyapunov drift,
feasibility preservation, convergence to invariant states.

The integrator realizes the particular fluid solution induced by the
discrete policy dynamics: deterministic increments lambda*h, service h*pi
with pi chosen by the policy at the current state, idling [h*pi - q]^+.
Properties checked here are ones asserted for all fluid solutions, so this
selection is sound; chattering near weight ties is accepted at O(h) and the
drift check skips stencils where the argmax set changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .lift import LyapunovSpec, lift
from .model import NetworkModel
from .policy import Policy, TieState, select_batch, weight_vectors
from .policy import select_schedule  # unused here, but perfbench/tracer.py wraps fluid.select_schedule
from .sim import _interp_rows, advance


class GridMismatch(ValueError):
    """Trajectories cover different horizons and cannot be compared."""


@dataclass
class FluidTrajectory:
    """Integrated fluid path on the uniform grid t_k = k*h.

    q has shape (K+1, N); a(t) = lambda*t exactly; s counts h per step on
    the chosen schedule, so sum_pi s_pi(t) = t; y accumulates the clipped
    idling. All cumulative components are nondecreasing by construction.
    """

    t: np.ndarray
    q: np.ndarray
    a: np.ndarray
    y: np.ndarray
    s: np.ndarray
    h: float
    lam: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_queues(self) -> int:
        return self.q.shape[1]

    def components(self) -> dict:
        return {"q": self.q, "a": self.a, "y": self.y, "s": self.s}


def integrate_fluid(
    model: NetworkModel,
    policy: Policy,
    lam,
    q0,
    h: float = 1e-3,
    T: float = 10.0,
    tie_state: Optional[TieState] = None,
) -> FluidTrajectory:
    """Deterministic fluid integration over [0, T] with step h in (0, 0.1]."""
    if not 0 < h <= 0.1:
        raise ValueError("step h must lie in (0, 0.1]")
    policy.validate_for(model)
    lam = np.asarray(lam, dtype=float)
    q = np.asarray(q0, dtype=float).copy()
    if np.any(q < 0) or np.any(lam < 0):
        raise ValueError("q0 and lam must be >= 0")
    steps = int(round(T / h))
    n, ns = model.n_queues, len(model.schedules)
    qs = np.zeros((steps + 1, n))
    ys = np.zeros((steps + 1, n))
    counts = np.zeros((steps + 1, ns), dtype=np.int64)
    qs[0] = q
    y = np.zeros(n)
    count = np.zeros(ns, dtype=np.int64)
    s_mat = model.schedules.as_array
    dA = lam * h
    tie_states = [TieState() if tie_state is None else tie_state]
    for k in range(steps):
        if q.min() < 0:  # multi-hop rounding can leave a queue an ulp below 0
            raise ValueError("queue state must be >= 0")
        chosen = int(select_batch(model, policy, q[None], tie_states)[0])
        q, dY = advance(model, q, h * s_mat[chosen], dA)
        y = y + dY
        count[chosen] += 1
        qs[k + 1] = q
        ys[k + 1] = y
        counts[k + 1] = count
    t = np.arange(steps + 1) * h
    return FluidTrajectory(
        t=t,
        q=qs,
        a=np.outer(t, lam),
        y=ys,
        s=counts * h,
        h=h,
        lam=lam,
        meta={"model": model.name, "policy": policy.label()},
    )


def lyapunov_drift(model: NetworkModel, lam, spec: LyapunovSpec, traj: FluidTrajectory):
    """Per grid row of a fluid path: (L(q), drift formula, central difference
    of L, argmax mask of the weights).

    The formula is lambda . f(q) - max_pi (policy weight at q); it is <= 0
    for admissible rates, and the fluid solution satisfies it with equality.
    The central difference is NaN at the first and the last row.
    """
    w = spec.weight
    L_vals = w.antiderivative(traj.q).sum(axis=1)
    weights = weight_vectors(model, w, traj.q, pressure=not model.is_single_hop)
    top = weights.max(axis=1)
    formula = (w.value(traj.q) @ np.asarray(lam, dtype=float)) - top
    fd = np.full(L_vals.shape, np.nan)
    fd[1:-1] = (L_vals[2:] - L_vals[:-2]) / (2.0 * traj.h)
    # argmax sets as boolean masks; exact comparison mirrors the policies
    return L_vals, formula, fd, weights >= top[:, None]


def lyapunov_drift_check(
    model: NetworkModel,
    lam,
    spec: LyapunovSpec,
    traj: FluidTrajectory,
) -> float:
    """Max |finite-difference dL/dt - drift formula| over interior grid
    points where the argmax set is locally constant; see lyapunov_drift."""
    _, formula, fd, masks = lyapunov_drift(model, lam, spec, traj)
    same = np.all(masks[:-2] == masks[1:-1], axis=1) & np.all(masks[1:-1] == masks[2:], axis=1)
    if not same.any():
        return 0.0
    resid = np.abs(fd[1:-1][same] - formula[1:-1][same])
    return float(resid.max(initial=0.0))


def feasibility_preservation_check(
    model: NetworkModel,
    lam,
    clvr,
    traj: FluidTrajectory,
    tol: float = 1e-6,
) -> bool:
    """Workloads xi . q~(t) never drop below their initial values, and
    zero-rate queues never grow: q~_n(t) <= q~_n(0) + t*lam~_n + tol there.

    Holds for any scheduling policy, not just max-weight.
    """
    lam = np.asarray(lam, dtype=float)
    rt = model.upstream.entries.astype(float)
    q_tilde = traj.q @ rt.T
    lam_tilde = rt @ lam
    for xi in clvr:
        xi_arr = np.array([float(v) for v in np.asarray(xi, dtype=object)], dtype=float)
        w = q_tilde @ xi_arr
        if (w - w[0]).min() < -tol:
            return False
    for n in np.flatnonzero(lam_tilde == 0.0):
        if (q_tilde[:, n] - q_tilde[0, n] - traj.t * lam_tilde[n]).max() > tol:
            return False
    return True


def distance_to_lift(
    model: NetworkModel,
    lam,
    spec: LyapunovSpec,
    clvr,
    traj: FluidTrajectory,
    stride: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """|q(t) - lift(q(t))| (sup norm) on a strided subgrid; returns
    (times, distances). Lift solves are warm-started along the path."""
    K = traj.q.shape[0] - 1
    if stride is None:
        stride = max(1, K // 400)
    idx = np.arange(0, K + 1, stride)
    if idx[-1] != K:
        idx = np.append(idx, K)
    dists = np.empty(idx.shape[0])
    mu = None
    for j, k in enumerate(idx):
        res = lift(model, lam, spec, clvr, traj.q[k], mu0=mu)
        mu = res.multipliers
        dists[j] = float(np.abs(traj.q[k] - res.r_star).max(initial=0.0))
    return traj.t[idx], dists


def convergence_to_invariant(
    model: NetworkModel,
    lam,
    spec: LyapunovSpec,
    clvr,
    traj: FluidTrajectory,
    eps: float,
) -> Optional[float]:
    """Earliest time on the default subgrid of distance_to_lift from which
    |q(t) - lift(q(t))| stays below eps through the end of the trajectory;
    None if never sustained.

    Input paths should start with |q(0)| <= 1 (rescale first; positive
    homogeneity of the lifting map justifies it for power weights).
    """
    times, dists = distance_to_lift(model, lam, spec, clvr, traj)
    below = dists < eps
    if not below[-1]:
        return None
    # last index where the distance was >= eps; sustained from the next one
    above = np.flatnonzero(~below)
    first = 0 if above.size == 0 else int(above[-1]) + 1
    if first >= below.size:
        return None
    return float(times[first])


def trajectory_distance(x, y) -> float:
    """sup_t max-component |x(t) - y(t)| over the shared component families.

    Accepts FluidTrajectory or ScaledPath; both expose a time grid ``t`` and
    a ``components()`` map. Trajectories are resampled onto the union grid
    by linear interpolation. Raises GridMismatch when horizons differ.
    """
    tx, ty = np.asarray(x.t, dtype=float), np.asarray(y.t, dtype=float)
    if abs(tx[-1] - ty[-1]) > 1e-9 * max(1.0, tx[-1], ty[-1]):
        raise GridMismatch(f"horizons differ: {tx[-1]} vs {ty[-1]}")
    cx, cy = x.components(), y.components()
    shared = sorted(set(cx) & set(cy))
    if not shared:
        raise GridMismatch("no shared components to compare")
    grid = np.union1d(tx, ty)
    worst = 0.0
    for name in shared:
        vx = _interp_rows(tx, np.asarray(cx[name], dtype=float), grid)
        vy = _interp_rows(ty, np.asarray(cy[name], dtype=float), grid)
        if vx.shape[1] != vy.shape[1]:
            raise GridMismatch(f"component {name!r} dimensions differ")
        worst = max(worst, float(np.abs(vx - vy).max(initial=0.0)))
    return worst
