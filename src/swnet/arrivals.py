"""Exogenous arrival processes with stationary increments, plus deviation
diagnostics for the fluid and collapse assumptions.

RNG policy: streams are numpy PCG64 generators keyed by
``SeedSequence(master_seed, spawn_key=(index, ...))``, so replications are
bit-reproducible and order-independent.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# Slots per block of the modulated chain's successor lists (k * CHAIN_SLOTS ints for k states).
CHAIN_SLOTS = 4096


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Independent stream for (master seed, replication path)."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class ArrivalModel:
    """One of: deterministic, bernoulli, iid_batch, markov_modulated.

    ``rate`` is always the exact long-run mean of one increment (the
    stationary mean for the modulated chain).
    """

    kind: str
    lam: np.ndarray = None  # deterministic / bernoulli rate vector
    amax: np.ndarray = None  # iid_batch per-queue increment bound
    transition: np.ndarray = None  # markov_modulated row-stochastic matrix
    state_rates: np.ndarray = None  # markov_modulated per-state rate vectors

    @staticmethod
    def deterministic(lam) -> "ArrivalModel":
        lam = np.asarray(lam, dtype=float)
        if np.any(lam < 0):
            raise ValueError("arrival rates must be >= 0")
        return ArrivalModel(kind="deterministic", lam=lam)

    @staticmethod
    def bernoulli(lam) -> "ArrivalModel":
        lam = np.asarray(lam, dtype=float)
        if np.any(lam < 0) or np.any(lam > 1):
            raise ValueError("bernoulli rates must lie in [0, 1]")
        return ArrivalModel(kind="bernoulli", lam=lam)

    @staticmethod
    def iid_batch(amax) -> "ArrivalModel":
        """Per-queue increments uniform on the integers {0, ..., amax}."""
        amax = np.asarray(amax, dtype=np.int64)
        if np.any(amax < 0):
            raise ValueError("iid_batch bound must be >= 0")
        return ArrivalModel(kind="iid_batch", amax=amax)

    @staticmethod
    def markov_modulated(transition, state_rates) -> "ArrivalModel":
        """Finite irreducible chain; the increment in a slot is the rate
        vector of the state occupied during that slot."""
        p = np.asarray(transition, dtype=float)
        rates = np.asarray(state_rates, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("transition matrix must be square")
        if rates.shape[0] != p.shape[0]:
            raise ValueError("one rate vector per chain state is required")
        if np.any(p < 0) or not np.allclose(p.sum(axis=1), 1.0, atol=1e-12):
            raise ValueError("transition matrix rows must be distributions")
        if np.any(rates < 0):
            raise ValueError("state rate vectors must be >= 0")
        return ArrivalModel(kind="markov_modulated", transition=p, state_rates=rates)

    @property
    def n_queues(self) -> int:
        if self.kind in ("deterministic", "bernoulli"):
            return self.lam.shape[0]
        if self.kind == "iid_batch":
            return self.amax.shape[0]
        return self.state_rates.shape[1]

    @property
    def rate(self) -> np.ndarray:
        if self.kind in ("deterministic", "bernoulli"):
            return self.lam.copy()
        if self.kind == "iid_batch":
            return self.amax / 2.0
        return self.stationary_distribution() @ self.state_rates

    def stationary_distribution(self) -> np.ndarray:
        """Solve pi P = pi, sum(pi) = 1 for the modulated chain."""
        if self.kind != "markov_modulated":
            raise ValueError("stationary distribution is defined for markov_modulated only")
        k = self.transition.shape[0]
        a = np.vstack([self.transition.T - np.eye(k), np.ones((1, k))])
        b = np.zeros(k + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        if np.any(pi < -1e-10):
            raise ValueError("chain has no valid stationary distribution (not irreducible?)")
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()


def sample_increments(model: ArrivalModel, horizon: int, seed) -> np.ndarray:
    """Cumulative arrival path A(0..horizon), shape (horizon+1, n_queues).

    A(0) = 0, componentwise nondecreasing, bit-reproducible per seed.
    ``seed`` may be an int or an rng produced by :func:`derive_rng`. The modulated
    chain steps by lookup: every state's successors are found per CHAIN_SLOTS draws.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    n = model.n_queues
    if model.kind == "deterministic":
        # exact lam * tau, no accumulation error
        return np.outer(np.arange(horizon + 1, dtype=float), model.lam)
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(int(seed))
    if model.kind == "bernoulli":
        inc = (rng.random((horizon, n)) < model.lam).astype(float)
    elif model.kind == "iid_batch":
        inc = rng.integers(0, model.amax + 1, size=(horizon, n)).astype(float)
    elif model.kind == "markov_modulated":
        pi = model.stationary_distribution()
        k = pi.shape[0]
        cum = np.cumsum(model.transition, axis=1)
        # bisect_right is searchsorted(side="right") on these sorted rows
        state = min(bisect_right(np.cumsum(pi).tolist(), rng.random()), k - 1)
        states, u = [], rng.random(horizon)
        for lo in range(0, horizon, CHAIN_SLOTS):  # nxt[s][t]: the successor of s in slot lo + t
            nxt = [np.minimum(np.searchsorted(row, u[lo : lo + CHAIN_SLOTS], side="right"), k - 1).tolist() for row in cum]
            for t in range(len(nxt[0])):
                states.append(state)
                state = nxt[state][t]
        inc = model.state_rates[states]
    else:
        raise ValueError(f"unknown arrival kind {model.kind!r}")
    out = np.zeros((horizon + 1, n))
    np.cumsum(inc, axis=0, out=out[1:])
    return out


@dataclass
class DeviationReport:
    """Empirical sup-deviation of A(tau) from lam*tau per horizon."""

    horizons: list[int]
    sup_dev: list[float]  # max over reps of sup_{tau<=z} |A(tau)-lam*tau| / z
    delta: list[float]  # comparison sequence delta_z
    pass_fluid: list[bool]


def default_delta(z: int) -> float:
    """Default comparison sequence for the deviation diagnostic."""
    return float(z) ** (-1.0 / 3.0)


def deviation_diagnostic(
    model: ArrivalModel,
    horizons: Sequence[int],
    reps: int,
    seed: int,
    delta: Optional[Sequence[float]] = None,
) -> DeviationReport:
    """Estimate sup_{tau<=z} |A(tau) - lam*tau| / z for each horizon z.

    Reports the max over ``reps`` independent replications (streams derived
    from the master seed), compared against delta_z (default z^(-1/3)). This
    is a diagnostic, not a certificate: the underlying assumptions are
    asymptotic and only sufficient conditions are known.
    """
    horizons = [int(z) for z in horizons]
    if not horizons:
        raise ValueError("at least one horizon is required")
    lam = model.rate
    sup_dev = []
    for zi, z in enumerate(horizons):
        worst = 0.0
        for rep in range(reps):
            a = sample_increments(model, z, derive_rng(seed, zi, rep))
            drift = np.outer(np.arange(z + 1, dtype=float), lam)
            dev = np.abs(a - drift).max() if z > 0 else 0.0
            worst = max(worst, dev / max(z, 1))
        sup_dev.append(worst)
    if delta is None:
        delta_list = [default_delta(z) for z in horizons]
    else:
        delta_list = [float(d) for d in delta]
        if len(delta_list) != len(horizons):
            raise ValueError("delta sequence must match the horizons")
        if any(b > a for a, b in zip(delta_list, delta_list[1:])):
            raise ValueError("delta sequence must be nonincreasing")
    passed = [s <= d for s, d in zip(sup_dev, delta_list)]
    return DeviationReport(horizons=horizons, sup_dev=sup_dev, delta=delta_list, pass_fluid=passed)
