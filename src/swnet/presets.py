"""Canonical example networks used throughout tests and scenarios."""

from __future__ import annotations

import itertools

import numpy as np

from .model import NetworkModel, validate_network


def ex2() -> NetworkModel:
    """Two queues, schedules (3,0) and (1,1); the worked 2-queue example."""
    return validate_network([[3.0, 0.0], [1.0, 1.0]], name="ex2")


def iq_switch(m: int) -> NetworkModel:
    """M x M input-queued switch: N = M^2 queues, schedules are the M!
    permutation matrices (flattened row-major; queue (i, j) -> i*M + j).

    Schedule order follows sorted permutations of (0..M-1), so indices are
    stable: index 0 is the identity matching.
    """
    if not 1 <= m <= 4:
        raise ValueError("iq_switch preset supports 1 <= M <= 4")
    scheds = []
    for perm in sorted(itertools.permutations(range(m))):
        mat = np.zeros((m, m))
        for i, j in enumerate(perm):
            mat[i, j] = 1.0
        scheds.append(mat.reshape(-1))
    return validate_network(scheds, name=f"iq_switch({m})")


def tandem(n: int) -> NetworkModel:
    """N queues in a chain 0 -> 1 -> ... -> N-1; schedules are all 0/1
    service vectors (the unit hypercube), which is monotone-closed."""
    if not 1 <= n <= 10:
        raise ValueError("tandem preset supports 1 <= N <= 10")
    scheds = [list(bits) for bits in itertools.product((0.0, 1.0), repeat=n)]
    return validate_network(scheds, [(k, k + 1) for k in range(n - 1)], name=f"tandem({n})")


def single_queue() -> NetworkModel:
    """One queue with one schedule serving one unit per slot."""
    return validate_network([[1.0]], name="single_queue")
