import numpy as np
import pytest

from swnet.arrivals import (
    ArrivalModel,
    derive_rng,
    deviation_diagnostic,
    sample_increments,
)


def test_deterministic_path_is_exact():
    model = ArrivalModel.deterministic([1.0, 1.0])
    a = sample_increments(model, 3, seed=0)
    assert np.array_equal(a, [[0, 0], [1, 1], [2, 2], [3, 3]])


def test_paths_start_at_zero_and_are_nondecreasing():
    for model in (
        ArrivalModel.bernoulli([0.5, 0.9]),
        ArrivalModel.iid_batch([4, 2]),
        ArrivalModel.markov_modulated(
            [[0.9, 0.1], [0.5, 0.5]], [[1.0, 0.0], [0.0, 2.0]]
        ),
    ):
        a = sample_increments(model, 200, seed=3)
        assert np.array_equal(a[0], np.zeros(model.n_queues))
        assert (np.diff(a, axis=0) >= 0).all()


def test_seed_determinism():
    model = ArrivalModel.bernoulli([0.5])
    a = sample_increments(model, 1000, seed=42)
    b = sample_increments(model, 1000, seed=42)
    c = sample_increments(model, 1000, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bernoulli_golden_value_and_concentration():
    model = ArrivalModel.bernoulli([0.5])
    a = sample_increments(model, 10_000, seed=42)
    total = int(a[-1, 0])
    assert total == 5015  # frozen from the pinned stream
    assert abs(total / 10_000 - 0.5) < 0.05


def test_markov_modulated_stationary_rate():
    # two-state on/off: on-probability 0.3 in steady state
    model = ArrivalModel.markov_modulated(
        [[0.86, 0.14], [0.06, 0.94]], [[1.0], [0.0]]
    )
    pi = model.stationary_distribution()
    assert np.isclose(pi[0], 0.3)
    assert np.isclose(model.rate[0], 0.3)
    a = sample_increments(model, 100_000, seed=9)
    assert abs(a[-1, 0] / 100_000 - 0.3) < 0.02


def test_iid_batch_rate_and_bound():
    model = ArrivalModel.iid_batch([4])
    assert model.rate[0] == 2.0
    rep = deviation_diagnostic(model, horizons=[1], reps=20, seed=1)
    assert rep.sup_dev[0] <= 4.0


def test_deviation_deterministic_is_zero():
    model = ArrivalModel.deterministic([0.7, 0.1])
    rep = deviation_diagnostic(model, horizons=[10, 100, 1000], reps=3, seed=0)
    assert rep.sup_dev == [0.0, 0.0, 0.0]
    assert all(rep.pass_fluid)


def test_deviation_bernoulli_decreases_with_horizon():
    model = ArrivalModel.bernoulli([0.5])
    rep = deviation_diagnostic(model, horizons=[100, 10_000], reps=20, seed=5)
    assert rep.sup_dev[1] < rep.sup_dev[0]
    # qualitative sqrt(log z / z) shape: larger horizon well below delta_z
    assert rep.sup_dev[1] <= rep.delta[1]


def test_deviation_custom_delta_validated():
    model = ArrivalModel.deterministic([1.0])
    with pytest.raises(ValueError):
        deviation_diagnostic(model, horizons=[10, 100], reps=1, seed=0, delta=[0.1])


def test_derived_streams_are_independent_of_order():
    a1 = sample_increments(ArrivalModel.bernoulli([0.5]), 100, derive_rng(7, 0))
    b1 = sample_increments(ArrivalModel.bernoulli([0.5]), 100, derive_rng(7, 1))
    b2 = sample_increments(ArrivalModel.bernoulli([0.5]), 100, derive_rng(7, 1))
    assert np.array_equal(b1, b2)
    assert not np.array_equal(a1, b1)


def test_invalid_rates_rejected():
    with pytest.raises(ValueError):
        ArrivalModel.bernoulli([1.5])
    with pytest.raises(ValueError):
        ArrivalModel.deterministic([-0.1])


def _markov_reference(model, horizon, rng):
    """Reference: the modulated chain with one searchsorted per slot."""
    pi = model.stationary_distribution()
    k = pi.shape[0]
    cum = np.cumsum(model.transition, axis=1)
    state = min(int(np.searchsorted(np.cumsum(pi), rng.random(), side="right")), k - 1)
    u = rng.random(horizon)
    inc = np.empty((horizon, model.n_queues))
    for t in range(horizon):
        inc[t] = model.state_rates[state]
        state = min(int(np.searchsorted(cum[state], u[t], side="right")), k - 1)
    out = np.zeros((horizon + 1, model.n_queues))
    np.cumsum(inc, axis=0, out=out[1:])
    return out


class _TopHeavy(np.random.Generator):
    """A Generator whose vector draws hold the largest float below 1 in every 97th slot."""

    def random(self, size=None):
        u = super().random(size)
        if size is not None:
            u[::97] = np.nextafter(1.0, 0.0)
        return u


@pytest.mark.parametrize(
    "transition, rates",
    [
        ([[0.6, 0.4], [0.3, 0.7]], [[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        # a zero entry repeats a cumulative value: that move never happens
        ([[0.5, 0.0, 0.5], [0.2, 0.3, 0.5], [0.0, 0.9, 0.1]], [[1.0, 0.25], [0.0, 3.0], [1 / 3, 0.5]]),
        # the float cumsum of [0.7, 0.2, 0.1] ends at 0.9999999999999999, so a draw at or above it
        # finds no cumulative value above it and the chain is clamped to its last state
        ([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7], [0.3, 0.3, 0.4]], [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]),
    ],
)
def test_markov_modulated_equals_searchsorted_reference(transition, rates):
    model = ArrivalModel.markov_modulated(transition, rates)
    # 4095 to 4097 and 9000 cross the edges of the sampler's blocks of successor lists
    for seed in range(6):
        for horizon in (0, 1, 2000, 4095, 4096, 4097, 9000):
            got = sample_increments(model, horizon, derive_rng(seed, horizon))
            want = _markov_reference(model, horizon, derive_rng(seed, horizon))
            assert np.array_equal(got, want)
    for horizon in (4097, 9000):  # the top-heavy draws reach the clamp
        got = sample_increments(model, horizon, _TopHeavy(np.random.PCG64(horizon)))
        want = _markov_reference(model, horizon, _TopHeavy(np.random.PCG64(horizon)))
        assert np.array_equal(got, want)
