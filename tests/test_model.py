import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swnet.model import (
    CyclicRouting,
    EmptyScheduleSet,
    MultipleDownstream,
    NetworkError,
    WeightFunction,
    is_monotone_closed,
    monotone_closure,
    validate_network,
)


def test_single_hop_upstream_is_identity():
    model = validate_network([[3, 0], [1, 1]])
    assert model.is_single_hop
    assert np.array_equal(model.upstream, np.eye(2, dtype=np.int64))
    assert not model.routing.any() and not model.into.any()


def test_tandem_upstream_matrix():
    model = validate_network([[0, 0], [1, 0], [0, 1], [1, 1]], [(0, 1)])
    assert not model.is_single_hop
    assert np.array_equal(model.upstream, np.array([[1, 0], [1, 1]]))
    assert model.schedules_monotone_closed


def test_model_arrays_have_their_dtypes_and_are_read_only():
    model = validate_network([[1, 0, 1], [0, 1, 0]], [(0, 2), (1, 2)])
    assert model.schedules.dtype == np.float64 and model.schedules.shape == (2, 3)
    assert model.routing.dtype == np.int64 and model.upstream.dtype == np.int64
    assert model.into.dtype == np.float64 and model.into.flags.c_contiguous
    assert np.array_equal(model.into, model.routing.T)
    assert model.n_queues == 3
    for arr in (model.schedules, model.routing, model.into, model.upstream):
        assert not arr.flags.writeable


def test_callers_schedule_array_stays_writable():
    scheds = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = validate_network(scheds)
    assert scheds.flags.writeable
    scheds[0, 0] = 5.0
    assert model.schedules[0, 0] == 1.0


def test_cyclic_routing_rejected():
    with pytest.raises(CyclicRouting):
        validate_network([[1, 1]], [(0, 1), (1, 0)])


@pytest.mark.parametrize("m", [0, 2])
def test_self_loop_is_cyclic_routing(m):
    with pytest.raises(CyclicRouting):
        validate_network([[1, 1, 1]], [(m, m)])


def test_multiple_downstream_rejected():
    with pytest.raises(MultipleDownstream, match="queue 1"):
        validate_network([[1, 1, 1]], [(1, 0), (1, 2)])


def test_repeated_edge_counts_once():
    once = validate_network([[1, 1]], [(0, 1)])
    twice = validate_network([[1, 1]], [(0, 1), (0, 1)])
    assert np.array_equal(twice.routing, once.routing)
    assert np.array_equal(twice.upstream, once.upstream)


def test_empty_schedule_set_rejected():
    # no schedule, no queue column, or not one vector per schedule
    for schedules in ([], [[]], [[], []], [1.0, 0.0]):
        with pytest.raises(EmptyScheduleSet):
            validate_network(schedules)


@pytest.mark.parametrize("schedules", [[[1.0, -1.0]], [[1.0, np.nan]], [[np.inf, 0.0]]])
def test_negative_or_non_finite_schedules_rejected(schedules):
    with pytest.raises(NetworkError, match="finite and >= 0"):
        validate_network(schedules)


def test_dimension_mismatch_rejected():
    # an edge naming a queue the schedules do not have
    for edge in ((0, 2), (3, 0), (-1, 0)):
        with pytest.raises(NetworkError, match=re.escape(f"edge {edge}")):
            validate_network([[1, 1]], [(0, 1), edge])


def test_non_integer_edge_rejected():
    for edge in ((0.0, 1), (0, 1.5), (True, 0), ("0", 1)):
        with pytest.raises(NetworkError, match="not a pair of queue indices"):
            validate_network([[1, 1]], [edge])
    assert validate_network([[1, 1]], [(np.int64(0), np.int64(1))]).routing[0, 1] == 1


def test_upstream_inverse_identity_holds_exactly():
    model = validate_network([np.zeros(4), np.ones(4)], [(0, 1), (1, 3), (2, 3)])
    ident = (np.eye(4, dtype=np.int64) - model.routing.T) @ model.upstream
    assert np.array_equal(ident, np.eye(4, dtype=np.int64))


def test_upstream_transform_three_chain():
    model = validate_network([np.zeros(3), np.ones(3)], [(0, 1), (1, 2)])
    assert np.array_equal(model.upstream @ np.ones(3), [1, 2, 3])


def test_upstream_transform_tandem_rates():
    model = validate_network([[0, 0], [1, 1]], [(0, 1)])
    assert np.allclose(model.upstream @ np.array([0.3, 0.2]), [0.3, 0.5])


def test_upstream_transform_exact_is_rational():
    model = validate_network([np.zeros(3), np.ones(3)], [(0, 1), (1, 2)])
    got = model.transform_exact([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    assert got == [Fraction(1, 2), Fraction(5, 6), Fraction(1)]
    assert all(type(v) is Fraction for v in got)


def test_monotone_closure_single_schedule():
    closed = monotone_closure([[1, 1]])
    rows = {tuple(r) for r in closed}
    assert rows == {(1, 1), (1, 0), (0, 1), (0, 0)}


def test_monotone_closure_ex2():
    closed = monotone_closure([[3, 0], [1, 1]])
    rows = {tuple(r) for r in closed}
    assert rows == {(3, 0), (1, 1), (0, 0), (1, 0), (0, 1)}
    # original indices preserved as a prefix
    assert tuple(closed[0]) == (3, 0) and tuple(closed[1]) == (1, 1)


def test_monotone_closure_idempotent_on_closed_set():
    closed = monotone_closure([[3, 0], [1, 1]])
    again = monotone_closure(closed)
    assert np.array_equal(again, closed)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_monotone_closure_idempotent_and_closed(schedules):
    closed = monotone_closure(schedules)
    assert is_monotone_closed(closed)
    assert np.array_equal(monotone_closure(closed), closed)


def test_multi_hop_closure_flag():
    open_model = validate_network([[1, 1]], [(0, 1)])
    assert not open_model.schedules_monotone_closed


def test_power_weight_values():
    w = WeightFunction.power(0.5)
    assert w.value(4.0) == 2.0
    assert np.isclose(w.antiderivative(1.0), 1 / 1.5)
    assert np.isclose(w.inverse(2.0), 4.0)
    assert w.scale_invariant_certified


def test_custom_weight_flagged_not_certified():
    w = WeightFunction.custom(
        f=lambda x: np.log1p(x),
        F=lambda x: (1 + x) * np.log1p(x) - x,
        fprime=lambda x: 1.0 / (1.0 + x),
    )
    assert not w.scale_invariant_certified
    assert np.isclose(w.value(np.e - 1), 1.0)
    with pytest.raises(ValueError):
        w.inverse(1.0)
