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

from typing import Optional

import numpy as np

from .lift import LiftProblem, constraint_rows, lift  # lift is unused here, but perfbench/tracer.py wraps fluid.lift
from .model import NetworkModel, WeightFunction
from .policy import Policy, TieState, argmax_mask, batch_weights, maximizers, resolve, weight_vectors
from .policy import select_schedule  # unused here, but perfbench/tracer.py wraps fluid.select_schedule
from .sim import FluidTrajectory, _interp_rows, advance, count_schedules


class GridMismatch(ValueError):
    """Trajectories cover different horizons and cannot be compared."""


class HorizonNotMultiple(ValueError):
    """The fluid horizon T is not a whole number of steps h."""


def integrate_fluid(
    model: NetworkModel,
    policy: Policy,
    lam,
    q0,
    h: float = 1e-3,
    T: float = 10.0,
    tie_state: Optional[TieState] = None,
) -> FluidTrajectory:
    """Deterministic fluid integration over [0, T] with step h in (0, 0.1];
    T must be a whole number of steps (to 1e-9 relative).

    a(t) = lambda*t exactly; s counts h per step on the chosen schedule, so
    sum_pi s_pi(t) = t; y accumulates the clipped idling.
    """
    if not 0 < h <= 0.1:
        raise ValueError("step h must lie in (0, 0.1]")
    if not 0 <= T < np.inf:
        raise ValueError("horizon T must be finite and >= 0")
    ratio = T / h
    if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
        raise HorizonNotMultiple(f"T={T!r} is not a whole number of steps h={h!r}")
    steps = round(ratio)
    policy.validate_for(model)
    n, ns = model.n_queues, len(model.schedules)
    lam = np.asarray(lam, dtype=float)
    q = np.asarray(q0, dtype=float).copy()
    if lam.shape != (n,) or q.shape != (n,) or not (np.isfinite(q).all() and np.isfinite(lam).all()):
        raise ValueError(f"q0 and lam must be finite vectors of length {n}")
    if np.any(q < 0) or np.any(lam < 0):
        raise ValueError("q0 and lam must be >= 0")
    qs = np.zeros((steps + 1, n))
    dY = np.zeros((steps + 1, n))  # row k + 1: the idling of step k
    chosen = np.empty(steps, dtype=np.int64)
    qs[0] = q
    service = h * model.schedules.as_array
    dA = lam * h
    tie_state = TieState() if tie_state is None else tie_state
    if policy.tie_break == "random" and tie_state.rng is None:  # refused before any step, tie or not
        raise ValueError("random tie-break needs a seeded TieState")
    lexi = policy.kind == "msmw_log"
    may_tie = policy.tie_break != "highest_index"
    last = ns - 1
    for k in range(steps):
        if np.minimum.reduce(q) < 0:  # multi-hop rounding can leave a queue an ulp below 0
            raise ValueError("queue state must be >= 0")
        mask = argmax_mask(batch_weights(model, policy, q), policy.rel_tol, lexi)
        pick = last - mask[::-1].argmax()  # the highest-index maximizer
        if may_tie and mask.sum() > 1:
            pick = resolve(policy, maximizers(policy, mask[None]), [tie_state], ns)[0]
        q, dY[k + 1] = advance(model, q, service[pick], dA)
        qs[k + 1] = q
        chosen[k] = pick
    counts = np.zeros((steps + 1, ns), dtype=np.int64)
    count_schedules(chosen, np.arange(steps), counts[1:])
    t = np.arange(steps + 1) * h
    return FluidTrajectory(
        t=t,
        q=qs,
        a=np.outer(t, lam),
        y=np.cumsum(dY, axis=0),  # cumsum adds in sequence: each row is the step-by-step sum, bit for bit
        s=counts * h,
        h=h,
    )


def lyapunov_drift(model: NetworkModel, lam, weight: WeightFunction, traj: FluidTrajectory):
    """Per grid row of a fluid path: (L(q), drift formula, central difference
    of L, argmax mask of the weights).

    The formula is lambda . f(q) - max_pi (policy weight at q); it is <= 0
    for admissible rates, and the fluid solution satisfies it with equality.
    The central difference is NaN at the first and the last row.
    """
    L_vals = weight.lyapunov(traj.q)
    weights = weight_vectors(model, weight, traj.q, pressure=not model.is_single_hop)
    top = weights.max(axis=1)
    formula = (weight.value(traj.q) @ np.asarray(lam, dtype=float)) - top
    fd = np.full(L_vals.shape, np.nan)
    fd[1:-1] = (L_vals[2:] - L_vals[:-2]) / (2.0 * traj.h)
    # argmax sets as boolean masks; exact comparison mirrors the policies
    return L_vals, formula, fd, weights >= top[:, None]


def lyapunov_drift_check(
    model: NetworkModel,
    lam,
    weight: WeightFunction,
    traj: FluidTrajectory,
) -> float:
    """Max |finite-difference dL/dt - drift formula| over interior grid
    points where the argmax set is locally constant; see lyapunov_drift."""
    _, formula, fd, masks = lyapunov_drift(model, lam, weight, traj)
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
    """The path stays in the critical-workload polyhedron of its start,
    (q(t) - q(0)) . G^T >= -tol with G from constraint_rows: workloads
    xi . q~(t) never drop and zero-rate aggregated contents q~_n(t) never
    grow.

    Holds for any scheduling policy, not just max-weight.
    """
    G, _ = constraint_rows(model, lam, clvr, include_caps=True)
    return bool((((traj.q - traj.q[0]) @ G.T) >= -tol).all())


def distance_to_lift(
    model: NetworkModel,
    lam,
    weight: WeightFunction,
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
    problem = LiftProblem(model, lam, weight, clvr)
    Q = traj.q[idx]
    R = np.empty_like(Q)
    mu = None
    for j in range(Q.shape[0]):
        R[j : j + 1], mu, _, _ = problem.solve_many(Q[j : j + 1], mu0=mu)
    return traj.t[idx], np.abs(Q - R).max(axis=1, initial=0.0)


def convergence_to_invariant(
    model: NetworkModel,
    lam,
    weight: WeightFunction,
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
    times, dists = distance_to_lift(model, lam, weight, clvr, traj)
    below = dists < eps
    if not below[-1]:
        return None
    # last index where the distance was >= eps; sustained from the next one
    above = np.flatnonzero(~below)
    first = 0 if above.size == 0 else int(above[-1]) + 1
    return float(times[first])


def trajectory_distance(x, y) -> float:
    """sup_t max-component |x(t) - y(t)| over the components q, a, y, s.

    Trajectories are resampled onto the union grid by linear interpolation.
    Raises GridMismatch when horizons differ.
    """
    tx, ty = np.asarray(x.t, dtype=float), np.asarray(y.t, dtype=float)
    if abs(tx[-1] - ty[-1]) > 1e-9 * max(1.0, tx[-1], ty[-1]):
        raise GridMismatch(f"horizons differ: {tx[-1]} vs {ty[-1]}")
    cy = y.components()
    grid = np.union1d(tx, ty)
    worst = 0.0
    for name, vals in x.components().items():
        vx = _interp_rows(tx, np.asarray(vals, dtype=float), grid)
        vy = _interp_rows(ty, np.asarray(cy[name], dtype=float), grid)
        if vx.shape[1] != vy.shape[1]:
            raise GridMismatch(f"component {name!r} dimensions differ")
        worst = max(worst, float(np.abs(vx - vy).max(initial=0.0)))
    return worst
