"""Empirical laboratory: multiplicative state-space-collapse experiments,
near-optimality audits, and the input-queued-switch structural suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import presets
from .arrivals import ArrivalModel, derive_rng
from .geometry import VirtualResourceSet, critically_loaded, enumerate_dual_vertices, float_vector
from .lift import LiftProblem
from .lift import lift  # unused here, but perfbench/tracer.py wraps collapse.lift
from .model import NetworkModel, WeightFunction
from .policy import Policy, weight_vectors
from .sim import FluidTrajectory, rescale, run_batch
from .sim import run  # unused here, but perfbench/tracer.py wraps collapse.run


class NoRoot(ValueError):
    """The scalar balance equation has no root in its bracket (the workload
    vector is not in the invariant image)."""


# ---------------------------------------------------------------------------
# multiplicative state-space collapse
# ---------------------------------------------------------------------------


@dataclass
class MsscConfig:
    """One collapse experiment: diffusion scales, replications, thresholds.

    ``qhat0`` must pass the invariant-state test for (lam, weight); initial
    queue contents for scale r are r * qhat0. ``gamma`` (optional) probes
    the heavy-traffic sequence lam^r = lam - gamma / r; results under it are
    labeled probes, since the proven statement only needs lam^r -> lam.
    """

    model: NetworkModel
    policy: Policy
    lam: Sequence
    clvr: list
    weight: WeightFunction
    qhat0: np.ndarray
    r_list: list[int]
    T: float = 1.0
    reps: int = 20
    master_seed: int = 0
    grid_points: int = 200
    gamma: Optional[np.ndarray] = None
    arrival_kind: str = "bernoulli"  # or "deterministic"

    def arrival_for(self, r: int) -> ArrivalModel:
        lam_f = float_vector(self.lam)
        if self.gamma is not None:
            lam_f = np.maximum(lam_f - np.asarray(self.gamma, dtype=float) / r, 0.0)
        if self.arrival_kind == "deterministic":
            return ArrivalModel.deterministic(lam_f)
        return ArrivalModel.bernoulli(lam_f)


@dataclass
class CollapseReport:
    """Per-(r, replication) collapse ratios with per-r aggregates.

    ratio = sup_t |qhat(t) - lift(qhat(t))| / (sup_t |qhat(t)| or 1), the
    numerator taken over a subsampled grid (a lower bound on the true sup,
    reported as such) and the denominator over every simulated slot.
    """

    rows: list[tuple[int, int, float]]
    median_by_r: dict[int, float]
    p90_by_r: dict[int, float]
    trivial_lift: bool
    flags: dict = field(default_factory=dict)

    def medians_decreasing(self) -> bool:
        meds = [self.median_by_r[r] for r in sorted(self.median_by_r)]
        return all(b < a for a, b in zip(meds, meds[1:]))


def median_p90(vals: list[float]) -> tuple[float, float]:
    """np.median(vals) and np.percentile(vals, 90), bit for bit, on a sorted list.

    The 90th percentile is numpy's linear rule written out. The first call
    of either numpy function imports numpy.ma, which nothing else in a
    collapse run needs. A mix of 0.0 and -0.0 may pick either zero, as
    numpy's own partition may; the collapse ratios are never -0.0."""
    if any(math.isnan(v) for v in vals):
        return math.nan, math.nan
    s, n = sorted(vals), len(vals)
    median = s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2
    x = (n - 1) * 0.9
    lo = math.floor(x)
    g = x - lo
    a, b = s[lo], s[min(lo + 1, n - 1)]
    return median, a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


def mssc_experiment(cfg: MsscConfig) -> CollapseReport:
    """Simulate r^2 T slots per scale from Q(0) = r*qhat0, diffusion-rescale,
    and measure the relative sup distance to the lifting map. The report
    lists rows in sorted (r, rep) order.

    Every scale is simulated first, replication rep of the ri-th sorted
    scale from the stream (master_seed, ri, rep), so scales are
    order-independent. Then one LiftProblem.solve lifts the whole grid, each
    state as its own one-row solve."""
    trivial = len(cfg.clvr) == 0
    scales, reps = sorted(cfg.r_list), cfg.reps
    scaled = np.empty((cfg.grid_points, len(scales) * reps, cfg.model.n_queues))
    sups = np.empty(len(scales) * reps)  # sup_t |qhat(t)| over every slot
    for ri, r in enumerate(scales):
        horizon = int(math.ceil(r * r * cfg.T))
        record_every = max(1, horizon // (4 * cfg.grid_points))
        rngs = [derive_rng(cfg.master_seed, ri, rep) for rep in range(reps)]
        paths = run_batch(cfg.model, cfg.policy, cfg.arrival_for(r), r * cfg.qhat0, horizon, rngs, record_every)
        for rep in range(reps):
            scaled[:, ri * reps + rep] = rescale(paths[rep], "diffusion", r, cfg.T, num=cfg.grid_points).q
            sups[ri * reps + rep] = paths[rep].sup_q / r
        del paths  # each path holds views of its whole batch's arrays; free them before the next simulation
    r_star = LiftProblem(cfg.model, cfg.lam, cfg.weight, cfg.clvr).solve(scaled)[0]
    ratios = (np.abs(scaled - r_star).max(axis=(0, 2)) / np.maximum(sups, 1.0)).tolist()
    rows = sorted((r, rep, ratios[ri * reps + rep]) for ri, r in enumerate(scales) for rep in range(reps))
    med = {}
    p90 = {}
    for r in sorted(set(cfg.r_list)):
        med[r], p90[r] = median_p90([ratio for rr, _, ratio in rows if rr == r])
    flags = {}
    if trivial:
        flags["trivial_lift"] = "no critically loaded resources; ratios measure sup|qhat| only"
    small = [r for r in cfg.r_list if r <= 4]
    if small:
        flags["sub_asymptotic"] = f"scales {sorted(small)} are too small to be meaningful"
    if cfg.gamma is not None:
        flags["heavy_traffic_probe"] = "lam^r = lam - gamma/r is a probe beyond the proven regime"
    return CollapseReport(rows=rows, median_by_r=med, p90_by_r=p90, trivial_lift=trivial, flags=flags)


# ---------------------------------------------------------------------------
# near-optimality of fluid trajectories
# ---------------------------------------------------------------------------


@dataclass
class NearOptimalityReport:
    upper_factor: float
    upper_violation: list[float]  # per trajectory, max of 1.q(t) - factor*1.q(0)
    lower_violation: Optional[list[float]]  # None when complete loading fails
    complete_loading: bool


def near_optimality_audit(
    model: NetworkModel,
    alpha: float,
    trajectories: Sequence[FluidTrajectory],
    complete_loading: bool,
) -> NearOptimalityReport:
    """Audit total-work bounds along fluid trajectories.

    Upper bound (max-weight runs): 1.q(t) <= N^(alpha/(1+alpha)) * 1.q(0).
    Lower bound (any policy, only under complete loading):
    1.q(t) >= 1.q(0). Violations should be O(h).
    """
    n = model.n_queues
    factor = float(n) ** (alpha / (1.0 + alpha))
    upper = []
    lower = [] if complete_loading else None
    for traj in trajectories:
        tot = traj.q.sum(axis=1)
        upper.append(float((tot - factor * tot[0]).max(initial=0.0)))
        if complete_loading:
            lower.append(float((tot[0] - tot).max(initial=0.0)))
    return NearOptimalityReport(
        upper_factor=factor,
        upper_violation=upper,
        lower_violation=lower,
        complete_loading=complete_loading,
    )


# ---------------------------------------------------------------------------
# 2x2 input-queued switch workload geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Iq2x2Workload:
    """Reduced workload coordinates (w1_, w_1, w__) of a 2x2 switch state:
    row-1 workload, column-1 workload, total. Row 2 and column 2 follow as
    w__ - w1_ and w__ - w_1."""

    w1: float  # row 1
    wc1: float  # column 1
    total: float

    def __post_init__(self) -> None:
        if not (0 <= self.w1 <= self.total and 0 <= self.wc1 <= self.total):
            raise ValueError("need 0 <= w1_, w_1 <= total workload")

    @property
    def w2(self) -> float:
        return self.total - self.w1

    @property
    def wc2(self) -> float:
        return self.total - self.wc1

    @staticmethod
    def of_state(q) -> "Iq2x2Workload":
        q = np.asarray(q, dtype=float).reshape(2, 2)
        return Iq2x2Workload(w1=float(q[0].sum()), wc1=float(q[:, 0].sum()), total=float(q.sum()))


def iq2x2_membership(w: Iq2x2Workload, alpha: float) -> bool:
    """Closed-form membership of w in the invariant workload image:
    w_i. + w_.j + (w_i.^a + w_.j^a)^(1/a) >= w_.. for all i, j in {1,2}.

    The power mean degenerates to max() when a coordinate is zero; that
    case is evaluated exactly. Otherwise it is taken relative to the larger
    weight, so that no power overflows at a small or a large alpha. The
    comparison carries a relative 1e-12 guard so exactly-tight boundary
    points do not flip on float round-off.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    for wi in (w.w1, w.w2):
        for wj in (w.wc1, w.wc2):
            hi = max(wi, wj)
            if wi == 0.0 or wj == 0.0:
                mean = hi
            else:  # scaled by the larger weight; past the float range the mean is inf
                base = 1.0 + (min(wi, wj) / hi) ** alpha  # in (1, 2]
                mean = hi * base ** (1.0 / alpha) if math.log(base) < 709.0 * alpha else math.inf
            if wi + wj + mean < w.total - 1e-12 * (1.0 + w.total):
                return False
    return True


def _unit(top: float, alpha: float) -> float:
    """1.0, or top where top ** alpha would overflow: the base that theta's powers are taken relative to."""
    return top if top > 1.0 and alpha * math.log(top) >= 709.0 else 1.0


def _theta(x: float, w: Iq2x2Workload, alpha: float, unit: Optional[float] = None) -> float:
    """theta(x) / unit ** alpha, each base divided by unit before its power; unit defaults to _unit of the largest
    base at x, so that the largest power is at most 1 and the sign is theta's."""
    # bases are >= 0 for x in the bracket; clamp float round-off
    bases = [max(v, 0.0) for v in (x, w.total - w.w1 - w.wc1 + x, w.w1 - x, w.wc1 - x)]
    unit = _unit(max(bases), alpha) if unit is None else unit
    a, b, c, d = ((v / unit) ** alpha for v in bases)
    return a + b - c - d


def iq2x2_theta_bracket(w: Iq2x2Workload) -> tuple[float, float]:
    """Feasible x interval for the balance equation."""
    return max(0.0, w.w1 + w.wc1 - w.total), min(w.w1, w.wc1)


def iq2x2_root_exists(w: Iq2x2Workload, alpha: float) -> bool:
    """Brute existence check: theta is increasing, so a root exists iff theta <= 0 at the lower bracket
    end and >= 0 at the upper, up to iq2x2_membership's relative 1e-12 guard carried into theta's units,
    1e-12 (1 + w__)^alpha; where that power would overflow, theta and the guard are taken relative to it."""
    lo, hi = iq2x2_theta_bracket(w)
    if lo > hi:
        return False
    unit = _unit(1.0 + w.total, alpha)
    guard = 1e-12 * ((1.0 + w.total) / unit) ** alpha
    return _theta(lo, w, alpha, unit) <= guard and _theta(hi, w, alpha, unit) >= -guard


def iq2x2_invariant_solve(w: Iq2x2Workload, alpha: float) -> np.ndarray:
    """Invert the workload map on the invariant set by bisection, to a
    relative bracket width of 1e-12.

    Returns q = [[x, w1_-x], [w_1-x, w__-w1_-w_1+x]] with
    q11^a + q22^a = q12^a + q21^a. Raises NoRoot iff membership fails.
    """
    lo, hi = iq2x2_theta_bracket(w)
    if lo > hi or not iq2x2_membership(w, alpha):
        raise NoRoot(f"workload {w} is not in the invariant image at alpha={alpha}")
    f_lo = _theta(lo, w, alpha)
    f_hi = _theta(hi, w, alpha)
    if f_lo == 0.0:
        x = lo
    elif f_hi == 0.0:
        x = hi
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            f_mid = _theta(mid, w, alpha)
            if f_mid <= 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * max(1.0, hi):
                break
        x = 0.5 * (lo + hi)
    q = np.array([[x, w.w1 - x], [w.wc1 - x, w.total - w.w1 - w.wc1 + x]])
    return np.maximum(q, 0.0)


@dataclass
class AlphaMonotonicityReport:
    alphas: list[float]
    nested: bool
    strict_witnesses: dict  # (alpha_hi, alpha_lo) -> workload triple
    grid_size: int


def alpha_monotonicity_probe(
    alphas: Sequence[float],
    w_grid: Optional[Sequence[Iq2x2Workload]] = None,
) -> AlphaMonotonicityReport:
    """Verify the invariant workload image grows as alpha decreases.

    For each consecutive pair alpha_hi > alpha_lo, checks membership nesting
    on the grid and records a witness workload that is a member at alpha_lo
    but not at alpha_hi.
    """
    alphas = [float(a) for a in alphas]
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly decreasing")
    if w_grid is None:
        w_grid = default_workload_grid()
    nested = True
    witnesses: dict = {}
    for a_hi, a_lo in zip(alphas, alphas[1:]):
        for w in w_grid:
            m_hi = iq2x2_membership(w, a_hi)
            m_lo = iq2x2_membership(w, a_lo)
            if m_hi and not m_lo:
                nested = False
            if m_lo and not m_hi and (a_hi, a_lo) not in witnesses:
                witnesses[(a_hi, a_lo)] = (w.w1, w.wc1, w.total)
    return AlphaMonotonicityReport(
        alphas=alphas,
        nested=nested,
        strict_witnesses=witnesses,
        grid_size=len(w_grid),
    )


def default_workload_grid():
    """Grid of step 0.1 over (w1_, w_1) in [0, 2]^2 and totals in [0, 6]."""
    vals = np.arange(0.0, 2.05, 0.1)
    tots = np.arange(0.0, 6.05, 0.1)
    out = []
    for w1 in vals:
        for wc1 in vals:
            for tot in tots:
                if tot >= max(w1, wc1):
                    out.append(Iq2x2Workload(float(w1), float(wc1), float(tot)))
    return out


# ---------------------------------------------------------------------------
# matching structure checks (input-queued switches)
# ---------------------------------------------------------------------------


@dataclass
class MatchingChecksReport:
    m: int
    resources: VirtualResourceSet  # the switch's dual vertices, enumerated once per run
    closure_samples: int
    closure_violations: int
    coverage_samples: int
    coverage_violations: int

    @property
    def ok(self) -> bool:
        return self.closure_violations == 0 and self.coverage_violations == 0


def matching_structure_checks(
    m: int,
    samples: int,
    seed: int,
    coverage_samples: int = 100,
) -> MatchingChecksReport:
    """Two structural facts about max-weight matchings, brute-forced over
    all M! matchings of iq_switch(M), M <= 3, at once: each matching's
    weight is its schedule weight (policy.weight_vectors) and a union of
    matchings is a boolean matrix product with their cells.

    Closure: for random integer weight matrices, every matching supported
    inside the union of max-weight matchings is itself max-weight (exact
    integer arithmetic). Coverage: for invariant states of MW-1 under a
    strictly positive doubly stochastic rate matrix, every queue lies in
    some max-weight matching of q (within a relative 1e-7, since invariant
    states are produced numerically by the lift solver). Coverage is
    checked for alpha = 1 only, whatever alphas an iqcheck scenario lists.
    """
    if m > 3:
        raise ValueError("brute force over matchings supports M <= 3")
    sw = presets.iq_switch(m)
    cells = sw.schedules > 0  # (matchings, queues)
    weight = WeightFunction.power(1.0)  # alpha = 1
    rng = derive_rng(seed)
    x = rng.integers(0, 7, size=(samples, m * m)).astype(float)  # the same draws as one matrix at a time
    weights = weight_vectors(sw, weight, x, pressure=False)
    top = weights == weights.max(axis=1, keepdims=True)
    outside = ~(top @ cells) @ cells.T  # a matching with a cell outside the union of the max-weight ones
    closure_bad = int((~outside & ~top).any(axis=1).sum())

    # invariant states via the lifting map under uniform rates
    vrs = enumerate_dual_vertices(sw)
    lam = [Fraction(1, m)] * (m * m)
    clvr, _ = critically_loaded(sw, lam, vrs)
    q0 = rng.random((coverage_samples, m * m)) * 3.0  # the same draws as one state at a time
    inv_states = LiftProblem(sw, lam, weight, clvr).solve(q0[None])[0][0]  # one cold step of every state
    weights = weight_vectors(sw, weight, inv_states, pressure=False)
    top = weights.max(axis=1, keepdims=True)
    covered = (weights >= top - 1e-7 * (1.0 + np.abs(top))) @ cells
    return MatchingChecksReport(
        m=m,
        resources=vrs,
        closure_samples=samples,
        closure_violations=closure_bad,
        coverage_samples=coverage_samples,
        coverage_violations=int((~covered.all(axis=1)).sum()),
    )
