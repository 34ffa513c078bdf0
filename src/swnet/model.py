"""Static network data: queues, schedule set, routing, weight functions.

Everything here is immutable after construction (the model's arrays are
read-only) and safe to share across concurrent tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class NetworkError(ValueError):
    """Invalid static network description."""


class CyclicRouting(NetworkError):
    """The routing graph contains a directed cycle."""


class MultipleDownstream(NetworkError):
    """Some queue routes to more than one downstream queue."""


class EmptyScheduleSet(NetworkError):
    """The schedule set has no schedules."""


def monotone_closure(schedules) -> np.ndarray:
    """Smallest superset closed under zeroing any subset of components.

    Original schedules keep their indices as a prefix of the result; the
    added variants follow in first-seen order. Idempotent.
    """
    rows = np.asarray(schedules, dtype=float)
    seen: dict[tuple, None] = {}
    for row in rows:
        seen.setdefault(tuple(row.tolist()))
    for row in rows:
        support = np.flatnonzero(row)
        # all subsets of the support, zeroed out; masks ordered by bit pattern
        for mask in range(1, 1 << len(support)):
            variant = row.copy()
            for b, n in enumerate(support):
                if mask >> b & 1:
                    variant[n] = 0.0
            seen.setdefault(tuple(variant.tolist()))
    return np.array(list(seen), dtype=float)


def is_monotone_closed(schedules: np.ndarray) -> bool:
    """Check the schedule-set closure needed for multi-hop backpressure.

    Closure under zeroing single components implies closure under zeroing
    arbitrary subsets, so only single zeroings are tested.
    """
    keys = {tuple(row.tolist()) for row in schedules}
    for row in schedules:
        for n in np.flatnonzero(row):
            variant = row.copy()
            variant[n] = 0.0
            if tuple(variant.tolist()) not in keys:
                return False
    return True


@dataclass(frozen=True)
class WeightFunction:
    """Weight function f for MW-f policies, with antiderivative F and
    Lyapunov function L(q) = sum_n F(q_n).

    ``power(alpha)`` gives f(x) = x**alpha, F(x) = x**(1+alpha)/(1+alpha),
    which satisfies the argmax scale-invariance the policies assume. Custom
    functions carry their own derivative (and inverse, when available); they
    are accepted but flagged as unverified for scale invariance.
    """

    kind: str
    alpha: float = 1.0
    f: Optional[Callable[[np.ndarray], np.ndarray]] = None
    F: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fprime: Optional[Callable[[np.ndarray], np.ndarray]] = None
    f_inv: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @staticmethod
    def power(alpha: float) -> "WeightFunction":
        if not (alpha > 0 and np.isfinite(alpha)):
            raise ValueError("power weight needs alpha > 0")
        return WeightFunction(kind="power", alpha=float(alpha))

    @staticmethod
    def custom(f, F, fprime, f_inv=None) -> "WeightFunction":
        return WeightFunction(kind="custom", f=f, F=F, fprime=fprime, f_inv=f_inv)

    @property
    def scale_invariant_certified(self) -> bool:
        """True when the argmax scale-invariance assumption is known to hold."""
        return self.kind == "power"

    def value(self, x) -> np.ndarray:
        """f(x). Under power(1) this is x itself as a float array, not a copy
        (x ** 1 is x bit for bit), so a caller must not write into it."""
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return x if self.alpha == 1.0 else np.power(x, self.alpha)
        return np.asarray(self.f(x), dtype=float)

    def antiderivative(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return np.power(x, 1.0 + self.alpha) / (1.0 + self.alpha)
        return np.asarray(self.F(x), dtype=float)

    def lyapunov(self, q) -> np.ndarray:
        """L(q) = sum_n F(q_n), over the last axis of q."""
        return self.antiderivative(q).sum(axis=-1)

    def derivative(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return self.alpha * np.power(x, self.alpha - 1.0)
        return np.asarray(self.fprime(x), dtype=float)

    def inverse(self, y) -> np.ndarray:
        """f^{-1}(y) for y >= 0; needed by the lifting-map solver."""
        y = np.asarray(y, dtype=float)
        if self.kind == "power":
            return np.power(y, 1.0 / self.alpha)
        if self.f_inv is None:
            raise ValueError("custom weight function without f_inv cannot be lifted")
        return np.asarray(self.f_inv(y), dtype=float)

    def label(self) -> str:
        return f"power({self.alpha:g})" if self.kind == "power" else "custom"


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Validated static network, built by ``validate_network``; every array
    is read-only.

    ``schedules``: float (num_schedules, N), one service vector per row; the
    row indices are stable, and tie-breaking depends on them. ``routing``:
    int64 0/1 (N, N), entry (m, n) = 1 sends work served at m to n.
    ``into``: R^T as C-ordered floats, so (R^T x)_n is the work x routes into
    n. ``upstream``: R~ = (I - R^T)^-1 = I + R^T + (R^T)^2 + ... in int64;
    entry (m, n) = 1 iff work injected at n passes through m.
    """

    schedules: np.ndarray
    routing: np.ndarray
    into: np.ndarray
    upstream: np.ndarray
    n_queues: int
    is_single_hop: bool
    schedules_monotone_closed: bool
    name: str = "network"

    def transform_exact(self, x) -> list:
        """R~ x in exact arithmetic: Fractions x in, Fractions out."""
        return [sum(x[m] for m in np.flatnonzero(row)) for row in self.upstream]


def validate_network(schedules, edges=(), name: str = "network") -> NetworkModel:
    """Validate and assemble the static model, deriving R^T and R~.

    ``schedules`` is copied, one row per schedule; ``edges`` lists the
    routing pairs (m, n), 0-based, meaning work served at m goes to n (a
    repeated pair counts once); no edges gives a single-hop network.
    Multi-hop models record whether the schedule set is monotone-closed;
    backpressure refuses models where it is not.
    """
    sched = np.array(schedules, dtype=float)
    if sched.ndim != 2 or sched.shape[0] == 0 or sched.shape[1] == 0:
        raise EmptyScheduleSet("schedule set must be a nonempty list of vectors over at least one queue")
    if not np.all(np.isfinite(sched)) or np.any(sched < 0):
        raise NetworkError("schedule components must be finite and >= 0")
    n = sched.shape[1]
    routing = np.zeros((n, n), dtype=np.int64)
    for m, k in edges:
        if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < n for i in (m, k)):
            raise NetworkError(f"routing edge ({m}, {k}) is not a pair of queue indices in 0..{n - 1}")
        routing[m, k] = 1
    downstream = routing.sum(axis=1)
    if np.any(downstream > 1):
        raise MultipleDownstream(f"queue {int(np.argmax(downstream > 1))} routes to more than one queue")
    # With at most one successor per queue, any walk either ends or closes a
    # cycle within N steps.
    succ = [int(np.argmax(row)) if row.any() else -1 for row in routing]
    for start in range(n):
        node, hops = start, 0
        while node != -1 and hops <= n:
            node = succ[node]
            hops += 1
        if hops > n:
            raise CyclicRouting(f"routing cycle reachable from queue {start}")
    rt = routing.T
    upstream = np.eye(n, dtype=np.int64)
    power = np.eye(n, dtype=np.int64)
    for _ in range(n):
        power = power @ rt
        if not power.any():
            break
        upstream = upstream + power
    if not np.isin(upstream, (0, 1)).all():
        raise CyclicRouting("upstream series did not converge to a 0/1 matrix")
    if not np.array_equal((np.eye(n, dtype=np.int64) - rt) @ upstream, np.eye(n, dtype=np.int64)):
        raise NetworkError("(I - R^T) R~ != I; routing matrix is inconsistent")
    # C order, as the cast numpy makes for the int matrix, so that the
    # matrix-vector products keep their summation order and bits
    into = np.ascontiguousarray(rt, dtype=float)
    for arr in (sched, routing, into, upstream):
        arr.setflags(write=False)
    return NetworkModel(
        schedules=sched,
        routing=routing,
        into=into,
        upstream=upstream,
        n_queues=n,
        is_single_hop=not routing.any(),
        schedules_monotone_closed=is_monotone_closed(sched),
        name=name,
    )
