"""Static network data: queues, schedule set, routing, weight functions.

Everything here is immutable after construction and safe to share across
concurrent tasks.
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


class ScheduleSet:
    """Finite ordered set of service vectors, one row per schedule.

    Indices 0..len-1 are stable for the lifetime of the object; tie-breaking
    in the scheduling policies depends on them.
    """

    def __init__(self, schedules) -> None:
        arr = np.asarray(schedules, dtype=float)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise EmptyScheduleSet("schedule set must be a nonempty list of vectors")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise NetworkError("schedule components must be finite and >= 0")
        arr.setflags(write=False)
        self._arr = arr

    @property
    def as_array(self) -> np.ndarray:
        """Matrix of shape (num_schedules, num_queues), read-only."""
        return self._arr

    @property
    def n_queues(self) -> int:
        return self._arr.shape[1]

    def __len__(self) -> int:
        return self._arr.shape[0]

    def __getitem__(self, index: int) -> np.ndarray:
        return self._arr[index]

    def __iter__(self):
        return iter(self._arr)

    def __eq__(self, other) -> bool:
        return isinstance(other, ScheduleSet) and np.array_equal(self._arr, other._arr)

    def __repr__(self) -> str:
        return f"ScheduleSet({self._arr.tolist()!r})"


def monotone_closure(schedules: ScheduleSet) -> ScheduleSet:
    """Smallest superset closed under zeroing any subset of components.

    Original schedules keep their indices as a prefix of the result; the
    added variants follow in first-seen order. Idempotent.
    """
    seen: dict[tuple, None] = {}
    out: list[tuple] = []
    for row in schedules.as_array:
        key = tuple(row.tolist())
        if key not in seen:
            seen[key] = None
            out.append(key)
    for row in schedules.as_array:
        support = np.flatnonzero(row)
        # all subsets of the support, zeroed out; masks ordered by bit pattern
        for mask in range(1, 1 << len(support)):
            variant = row.copy()
            for b, n in enumerate(support):
                if mask >> b & 1:
                    variant[n] = 0.0
            key = tuple(variant.tolist())
            if key not in seen:
                seen[key] = None
                out.append(key)
    return ScheduleSet(out)


def is_monotone_closed(schedules: ScheduleSet) -> bool:
    """Check the schedule-set closure needed for multi-hop backpressure.

    Closure under zeroing single components implies closure under zeroing
    arbitrary subsets, so only single zeroings are tested.
    """
    keys = {tuple(row.tolist()) for row in schedules.as_array}
    for row in schedules.as_array:
        for n in np.flatnonzero(row):
            variant = row.copy()
            variant[n] = 0.0
            if tuple(variant.tolist()) not in keys:
                return False
    return True


class RoutingMatrix:
    """Fixed acyclic routing: entry (m, n) = 1 sends work served at m to n."""

    def __init__(self, entries) -> None:
        arr = np.asarray(entries, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise NetworkError("routing matrix must be square")
        if not np.isin(arr, (0, 1)).all():
            raise NetworkError("routing entries must be 0 or 1")
        rows = arr.sum(axis=1)
        if np.any(rows > 1):
            m = int(np.argmax(rows > 1))
            raise MultipleDownstream(f"queue {m} routes to more than one queue")
        self._check_acyclic(arr)
        arr.setflags(write=False)
        self._arr = arr

    @staticmethod
    def _check_acyclic(arr: np.ndarray) -> None:
        # With at most one successor per node, any walk either terminates or
        # closes a cycle within N steps.
        n = arr.shape[0]
        succ = [int(np.argmax(arr[m])) if arr[m].any() else -1 for m in range(n)]
        for start in range(n):
            node, hops = start, 0
            while node != -1 and hops <= n:
                node = succ[node]
                hops += 1
            if hops > n:
                raise CyclicRouting(f"routing cycle reachable from queue {start}")

    @classmethod
    def from_edges(cls, n_queues: int, edges) -> "RoutingMatrix":
        """Build from a list of (m, n) pairs, 0-based."""
        arr = np.zeros((n_queues, n_queues), dtype=np.int64)
        for m, n in edges:
            arr[m, n] = 1
        return cls(arr)

    @property
    def entries(self) -> np.ndarray:
        return self._arr

    @property
    def n_queues(self) -> int:
        return self._arr.shape[0]

    def is_zero(self) -> bool:
        return not self._arr.any()


class UpstreamMatrix:
    """I + R^T + (R^T)^2 + ...; entry (m, n) = 1 iff work injected at n passes
    through m. Exact inverse of (I - R^T) in integer arithmetic."""

    def __init__(self, routing: RoutingMatrix) -> None:
        rt = routing.entries.T
        n = rt.shape[0]
        acc = np.eye(n, dtype=np.int64)
        power = np.eye(n, dtype=np.int64)
        for _ in range(n):
            power = power @ rt
            if not power.any():
                break
            acc = acc + power
        if not np.isin(acc, (0, 1)).all():
            raise CyclicRouting("upstream series did not converge to a 0/1 matrix")
        ident = (np.eye(n, dtype=np.int64) - rt) @ acc
        if not np.array_equal(ident, np.eye(n, dtype=np.int64)):
            raise NetworkError("(I - R^T) R~ != I; routing matrix is inconsistent")
        acc.setflags(write=False)
        self._arr = acc

    @property
    def entries(self) -> np.ndarray:
        return self._arr

    def transform(self, x) -> np.ndarray:
        """R~ x: aggregate each queue's value with everything upstream of it."""
        return self._arr @ np.asarray(x, dtype=float)

    def transform_exact(self, x) -> list:
        """R~ x in exact arithmetic: Fractions x in, Fractions out."""
        return [sum(x[m] for m in np.flatnonzero(row)) for row in self._arr]


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
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return np.power(x, self.alpha)
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


@dataclass(frozen=True)
class NetworkModel:
    """Validated static network: queues, schedules, routing, upstream matrix."""

    n_queues: int
    schedules: ScheduleSet
    routing: RoutingMatrix
    upstream: UpstreamMatrix
    hop_kind: str  # "single" | "multi"
    schedules_monotone_closed: bool
    name: str = "network"

    @property
    def is_single_hop(self) -> bool:
        return self.hop_kind == "single"


def validate_network(
    schedules: ScheduleSet,
    routing: Optional[RoutingMatrix] = None,
    name: str = "network",
) -> NetworkModel:
    """Validate and assemble the static model, deriving the upstream matrix.

    ``routing=None`` (or the all-zero matrix) gives a single-hop network.
    Multi-hop models record whether the schedule set is monotone-closed;
    backpressure refuses models where it is not.
    """
    n = schedules.n_queues
    if routing is None:
        routing = RoutingMatrix(np.zeros((n, n), dtype=np.int64))
    if routing.n_queues != n:
        raise NetworkError(
            f"routing is {routing.n_queues}x{routing.n_queues} but schedules have {n} queues"
        )
    upstream = UpstreamMatrix(routing)
    hop_kind = "single" if routing.is_zero() else "multi"
    closed = is_monotone_closed(schedules)
    return NetworkModel(
        n_queues=n,
        schedules=schedules,
        routing=routing,
        upstream=upstream,
        hop_kind=hop_kind,
        schedules_monotone_closed=closed,
        name=name,
    )
