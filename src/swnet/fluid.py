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
from .policy import Policy, TieState, argmax_mask, batch_weights, drift_formula, maximizers, resolve
from .policy import select_schedule  # unused here, but perfbench/tracer.py wraps fluid.select_schedule
from .sim import BLOCK_ROWS, FluidTrajectory, _interp_rows, advance, count_schedules


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
    sum_pi s_pi(t) = t; y sums the idling [h*pi - q]^+ of each step, derived
    from the states and picks after the loop.

    The path is, bit for bit, that of one weighed and advanced state per
    step. Where the picks repeat, a chunk of predicted rows is weighed and
    advanced in one batch and kept up to its first miss; once a state
    repeats (no tie ever broken), the rest of the path tiles the cycle.
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
    qs[0] = q
    service = h * model.schedules
    dA = lam * h
    # each schedule's step increments in advance's order when no queue idles: -h pi, (multi-hop) routed h pi, +lambda h
    routed = [] if model.is_single_hop else [(model.into @ service[..., None])[..., 0]]
    incs = np.stack([-service, *routed, np.broadcast_to(dA, service.shape)], axis=1)
    tie_state = TieState() if tie_state is None else tie_state
    if policy.tie_break == "random" and tie_state.rng is None:  # refused before any step, tie or not
        raise ValueError("random tie-break needs a seeded TieState")
    lexi = policy.kind == "msmw_log"
    may_tie = policy.tie_break != "highest_index"
    last = ns - 1
    picks: list = []
    tied = False  # a tie was resolved, so the choice no longer hangs on q alone
    # verified steps; rows of the next chunk; plain steps before the next search; misses less full chunks
    k, m, wait, misses = 0, 2, 0, 0
    while k < steps:  # q is qs[k]
        if np.minimum.reduce(q) < 0:  # multi-hop rounding can leave a queue an ulp below 0
            raise ValueError("queue state must be >= 0")
        if wait > 0:
            p = 0
        elif not (p := _period(picks)):  # nothing to repeat: a miss too
            _, wait, misses = _next_chunk(m, misses, False)  # the chunk keeps its size
        if p and not tied and qs[k - p].tobytes() == q.tobytes():  # q_k = q_{k-p}: the rest tiles the cycle
            src = np.arange(steps - k) % p
            qs[k + 1 :] = qs[k + 1 - p : k + 1][src]
            picks += np.array(picks[-p:])[src].tolist()
            break
        if not p:  # a plain step
            mask = argmax_mask(batch_weights(model, policy, q), policy.rel_tol, lexi)
            pick = last - mask[::-1].argmax()  # the highest-index maximizer
            if may_tie and mask.sum() > 1:
                pick = resolve(policy, maximizers(policy, mask[None]), [tie_state], ns)[0]
                tied = True
            q = qs[k + 1] = advance(model, q, service[pick], dA)
            picks.append(pick)
            k, wait = k + 1, wait - 1
            continue
        # predict: repeat the last p picks; the rows q_k, C_1.. are one cumulative sum of their increments
        m = min(m, steps - k)
        rows = np.cumsum(np.concatenate((q[None], incs[(picks[-p:] * (m // p + 1))[: m - 1]].reshape(-1, n))), axis=0)
        rows = rows[:: incs.shape[1]]
        neg = np.minimum.reduce(rows, axis=1) < 0  # a row is weighed only if it is >= 0
        rows = rows[: neg.argmax() if neg.any() else m]
        mask = argmax_mask(batch_weights(model, policy, rows), policy.rel_tol, lexi)
        chosen = last - mask[:, ::-1].argmax(axis=1)
        if may_tie and (several := mask.sum(axis=1) > 1).any():  # ties are broken in plain steps: cut before one
            rows, chosen = rows[: several.argmax()], chosen[: several.argmax()]
        # verify: row j + 1 was right if advance of row j gives its bits; the first miss is itself an advanced row
        nxt = advance(model, rows, service[chosen], dA)
        same = (nxt[:-1].view(np.int64) == rows[1:].view(np.int64)).all(axis=1)
        acc = len(rows) if same.all() else int(same.argmin()) + 1
        qs[k + 1 : k + 1 + acc] = nxt[:acc]
        picks += chosen[:acc].tolist()
        k += acc
        q = qs[k]
        m, wait, misses = _next_chunk(m, misses, acc == m)  # on a miss, up to 2**misses plain steps
    chosen = np.array(picks, dtype=np.int64)
    del picks
    y = np.zeros((steps + 1, n))
    np.maximum(service[chosen] - qs[:-1], 0.0, out=y[1:])
    np.cumsum(y, axis=0, out=y)  # cumsum adds in sequence: each row is the step-by-step sum, bit for bit
    s = np.zeros((steps + 1, ns))
    count_schedules(chosen, np.arange(steps), s[1:])  # whole counts, exact in floats, then scaled in place
    s *= h
    t = np.arange(steps + 1) * h
    return FluidTrajectory(t=t, q=qs, a=np.outer(t, lam), y=y, s=s, h=h)


def _next_chunk(m: int, misses: int, full: bool) -> tuple[int, int, int]:
    """Backoff of integrate_fluid's chunked steps: (next chunk's rows, plain steps to take first, misses) after a
    chunk of m rows was accepted in full (2m, 0, misses - 1) or missed (m / 2, 2**misses, +1)."""
    if full:
        return min(2 * m, BLOCK_ROWS), 0, max(misses - 1, 0)
    return max(2, m // 2), min(2**misses, BLOCK_ROWS), misses + 1


def _period(picks: list) -> int:
    """The smallest period p <= 16 of the last 32 picks, else 0."""
    return next((p for p in range(1, 17) if picks[p - 32 :] == picks[-32:-p]), 0) if len(picks) >= 32 else 0


def lyapunov_drift(model: NetworkModel, lam, weight: WeightFunction, traj: FluidTrajectory):
    """Per grid row of a fluid path: (L(q), drift formula, central difference
    of L, argmax mask of the weights).

    The formula is policy.drift_formula; the fluid solution satisfies it
    with equality. The central difference is NaN at the first and the last
    row. The masks compare exactly, as the policies do by default.
    """
    L_vals = weight.lyapunov(traj.q)
    formula, weights = drift_formula(model, np.asarray(lam, dtype=float), weight, traj.q)
    fd = np.full(L_vals.shape, np.nan)
    fd[1:-1] = (L_vals[2:] - L_vals[:-2]) / (2.0 * traj.h)
    return L_vals, formula, fd, argmax_mask(weights, 0.0, False)


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
    (times, distances), the rows lifted in one LiftProblem.solve."""
    K = traj.q.shape[0] - 1
    idx = np.append(np.arange(0, K, max(1, K // 400) if stride is None else stride), K)  # and the last row
    Q = traj.q[idx]
    R = LiftProblem(model, lam, weight, clvr).solve(Q[:, None])[0][:, 0]
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
