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
    RoutingMatrix,
    ScheduleSet,
    WeightFunction,
    is_monotone_closed,
    monotone_closure,
    validate_network,
)


def test_single_hop_upstream_is_identity():
    model = validate_network(ScheduleSet([[3, 0], [1, 1]]))
    assert model.hop_kind == "single"
    assert np.array_equal(model.upstream.entries, np.eye(2, dtype=np.int64))


def test_tandem_upstream_matrix():
    routing = RoutingMatrix.from_edges(2, [(0, 1)])
    model = validate_network(ScheduleSet([[0, 0], [1, 0], [0, 1], [1, 1]]), routing)
    assert model.hop_kind == "multi"
    assert np.array_equal(model.upstream.entries, np.array([[1, 0], [1, 1]]))
    assert model.schedules_monotone_closed


def test_cyclic_routing_rejected():
    with pytest.raises(CyclicRouting):
        RoutingMatrix([[0, 1], [1, 0]])


def test_multiple_downstream_rejected():
    with pytest.raises(MultipleDownstream):
        RoutingMatrix([[0, 0, 0], [1, 0, 1], [0, 0, 0]])


def test_empty_schedule_set_rejected():
    with pytest.raises(EmptyScheduleSet):
        ScheduleSet([])


def test_dimension_mismatch_rejected():
    with pytest.raises(NetworkError):
        validate_network(ScheduleSet([[1, 1]]), RoutingMatrix(np.zeros((3, 3))))


def test_upstream_inverse_identity_holds_exactly():
    routing = RoutingMatrix.from_edges(4, [(0, 1), (1, 3), (2, 3)])
    model = validate_network(ScheduleSet([np.zeros(4), np.ones(4)]), routing)
    rt = routing.entries.T
    ident = (np.eye(4, dtype=np.int64) - rt) @ model.upstream.entries
    assert np.array_equal(ident, np.eye(4, dtype=np.int64))


def test_upstream_transform_three_chain():
    routing = RoutingMatrix.from_edges(3, [(0, 1), (1, 2)])
    model = validate_network(ScheduleSet([np.zeros(3), np.ones(3)]), routing)
    assert np.array_equal(model.upstream.transform([1, 1, 1]), [1, 2, 3])


def test_upstream_transform_tandem_rates():
    routing = RoutingMatrix.from_edges(2, [(0, 1)])
    model = validate_network(ScheduleSet([[0, 0], [1, 1]]), routing)
    assert np.allclose(model.upstream.transform([0.3, 0.2]), [0.3, 0.5])


def test_upstream_transform_exact_is_rational():
    routing = RoutingMatrix.from_edges(3, [(0, 1), (1, 2)])
    model = validate_network(ScheduleSet([np.zeros(3), np.ones(3)]), routing)
    got = model.upstream.transform_exact([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    assert got == [Fraction(1, 2), Fraction(5, 6), Fraction(1)]
    assert all(type(v) is Fraction for v in got)


def test_monotone_closure_single_schedule():
    closed = monotone_closure(ScheduleSet([[1, 1]]))
    rows = {tuple(r) for r in closed.as_array}
    assert rows == {(1, 1), (1, 0), (0, 1), (0, 0)}


def test_monotone_closure_ex2():
    closed = monotone_closure(ScheduleSet([[3, 0], [1, 1]]))
    rows = {tuple(r) for r in closed.as_array}
    assert rows == {(3, 0), (1, 1), (0, 0), (1, 0), (0, 1)}
    # original indices preserved as a prefix
    assert tuple(closed[0]) == (3, 0) and tuple(closed[1]) == (1, 1)


def test_monotone_closure_idempotent_on_closed_set():
    closed = monotone_closure(ScheduleSet([[3, 0], [1, 1]]))
    again = monotone_closure(closed)
    assert again == closed


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_monotone_closure_idempotent_and_closed(schedules):
    closed = monotone_closure(ScheduleSet(schedules))
    assert is_monotone_closed(closed)
    assert monotone_closure(closed) == closed


def test_multi_hop_closure_flag():
    routing = RoutingMatrix.from_edges(2, [(0, 1)])
    open_model = validate_network(ScheduleSet([[1, 1]]), routing)
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
