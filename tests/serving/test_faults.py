"""The fault timeline: plans, lookups, seeded draws, the Markov bridge."""

from __future__ import annotations

import pytest

from repro.endpoint import MarkovAvailability
from repro.endpoint.clock import MS_PER_DAY
from repro.serving import FaultPlan, FaultState, chaos_profile


# -- plan construction --------------------------------------------------------


def test_plan_validates_windows():
    with pytest.raises(ValueError):
        FaultPlan(outages=[(5.0, 5.0)])  # empty
    with pytest.raises(ValueError):
        FaultPlan(outages=[(10.0, 5.0)])  # inverted
    with pytest.raises(ValueError):
        FaultPlan(bursts=[(0.0, 10.0)])  # missing p_fail field
    with pytest.raises(ValueError):
        FaultPlan(horizon_ms=0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("slowdowns", float("nan")),
        ("slowdowns", float("inf")),
        ("slowdowns", -1.0),
        ("slowdowns", True),
        ("timeout_spikes", float("nan")),
        ("timeout_spikes", float("inf")),
        ("timeout_spikes", -1.0),
        ("timeout_spikes", 0.0),
        ("timeout_spikes", True),
    ],
)
def test_plan_refuses_a_scale_the_endpoint_would_refuse(field, value):
    """A window's scale reaches ``SparqlEndpoint.query`` as
    ``latency_scale`` / ``timeout_scale``: the plan refuses what the
    endpoint would, naming that parameter."""
    name = "latency_scale" if field == "slowdowns" else "timeout_scale"
    with pytest.raises(ValueError, match=name):
        FaultPlan(**{field: [(0.0, 10.0, value)]})


def test_plan_accepts_the_edges_of_the_scales():
    plan = FaultPlan(slowdowns=[(0.0, 10.0, 0)], timeout_spikes=[(0.0, 10.0, 1e-9)])
    state = plan.injector().state_at(5.0)
    assert (state.slowdown, state.timeout_scale) == (0.0, 1e-9)


def test_plan_sorts_windows():
    plan = FaultPlan(outages=[(50.0, 60.0), (0.0, 10.0)])
    assert plan.outages == ((0.0, 10.0), (50.0, 60.0))


def test_outage_ratio():
    plan = FaultPlan(horizon_ms=100.0, outages=[(0.0, 10.0), (50.0, 70.0)])
    assert plan.outage_ratio() == pytest.approx(0.3)


# -- timeline lookups ---------------------------------------------------------


def test_state_at_each_window_kind():
    plan = FaultPlan(
        horizon_ms=1000.0,
        outages=[(100.0, 200.0)],
        bursts=[(300.0, 400.0, 0.5)],
        slowdowns=[(500.0, 600.0, 4.0)],
        timeout_spikes=[(700.0, 800.0, 0.01)],
    )
    injector = plan.injector()
    assert injector.state_at(0.0).calm
    assert injector.state_at(150.0).outage
    assert injector.state_at(350.0).burst_p == 0.5
    assert injector.state_at(550.0).slowdown == 4.0
    assert injector.state_at(750.0).timeout_scale == 0.01
    # window ends are exclusive, starts inclusive
    assert injector.state_at(100.0).outage
    assert not injector.state_at(200.0).outage
    assert injector.active_kinds(150.0) == ("outage",)
    assert injector.active_kinds(550.0) == ("slowdown",)


def test_overlapping_windows_resolve_to_covering_one():
    plan = FaultPlan(
        horizon_ms=1000.0,
        slowdowns=[(0.0, 900.0, 2.0), (100.0, 200.0, 5.0)],
    )
    injector = plan.injector()
    # inside the nested window the latest-starting one wins
    assert injector.state_at(150.0).slowdown == 5.0
    # past its end the long window still covers
    assert injector.state_at(500.0).slowdown == 2.0


def test_fault_state_kinds():
    assert FaultState().kinds() == ()
    assert FaultState(outage=True, slowdown=3.0).kinds() == (
        "outage", "slowdown",
    )


# -- seeded draws -------------------------------------------------------------


def test_draws_are_pure_functions_of_arguments():
    injector = FaultPlan(seed=3).injector()
    again = FaultPlan(seed=3).injector()
    values = [injector.draw("burst", (7, k), 0) for k in range(32)]
    assert values == [again.draw("burst", (7, k), 0) for k in range(32)]
    assert all(0.0 <= value < 1.0 for value in values)
    # distinct keys and attempts decorrelate
    assert len(set(values)) == len(values)
    assert injector.draw("burst", (7, 0), 0) != injector.draw("burst", (7, 0), 1)
    assert (
        FaultPlan(seed=3).injector().draw("burst", (0, 0), 0)
        != FaultPlan(seed=4).injector().draw("burst", (0, 0), 0)
    )


def test_burst_fails_respects_window_and_probability():
    plan = FaultPlan(seed=0, horizon_ms=1000.0, bursts=[(0.0, 500.0, 1.0)])
    injector = plan.injector()
    assert injector.burst_fails(100.0, (0, 0), 0)
    assert not injector.burst_fails(600.0, (0, 0), 0)  # outside the window
    # a p=0 burst window is legal and simply never fires
    calm = FaultPlan(seed=0, horizon_ms=1000.0, bursts=[(0.0, 500.0, 0.0)])
    assert not calm.injector().burst_fails(100.0, (0, 0), 0)


# -- the Markov bridge --------------------------------------------------------


def test_outage_windows_match_day_trace():
    model = MarkovAvailability("http://x", p_fail=0.4, p_recover=0.5, seed=9)
    horizon = 40
    windows = MarkovAvailability(
        "http://x", p_fail=0.4, p_recover=0.5, seed=9
    ).outage_windows_ms(horizon)
    # windows reproduce the day trace exactly: a day is inside a window
    # iff the model says it is down
    down_days = set(model.outage_days(horizon))
    assert down_days  # the trace actually has outages at these parameters
    for day in range(horizon):
        inside = any(
            start <= day * MS_PER_DAY < end for start, end in windows
        )
        assert inside == (day in down_days)
    # windows are disjoint, sorted and day-aligned
    for (start_a, end_a), (start_b, end_b) in zip(windows, windows[1:]):
        assert end_a < start_b
    assert all(
        start % MS_PER_DAY == 0 and end % MS_PER_DAY == 0
        for start, end in windows
    )


def test_from_markov_plan_is_reproducible():
    one = FaultPlan.from_markov(url="chaos", seed=5, horizon_days=20)
    two = FaultPlan.from_markov(url="chaos", seed=5, horizon_days=20)
    assert one.outages == two.outages
    assert FaultPlan.from_markov(url="chaos", seed=6, horizon_days=20).outages != one.outages


def test_chaos_profile_is_a_pure_value():
    one = chaos_profile(seed=11)
    two = chaos_profile(seed=11)
    assert one.outages == two.outages
    assert one.bursts == two.bursts
    assert one.slowdowns == two.slowdowns
    assert one.timeout_spikes == two.timeout_spikes
    description = one.describe()
    assert description["burst_windows"] == 14
    assert 0.0 < description["outage_ratio"] < 1.0
