"""The Markov availability chain: the serving tier's only weather.

What a serving run's failures rest on: the chain is a pure function of
``(seed, url)`` and its parameters, sampled lazily but the same whatever
order its days are asked in, and its doors refuse a probability that is
not one.
"""

from __future__ import annotations

import math

import pytest

from repro.endpoint import AlwaysAvailable, MarkovAvailability, availability_ratio

URL = "http://chain.example.org/sparql"


def _trace(model, horizon):
    return [model.is_available(day) for day in range(horizon)]


@pytest.mark.parametrize("seed", (0, 1, 2, 3))
def test_outage_days_are_the_down_days_of_the_trace(seed):
    model = MarkovAvailability(URL, p_fail=0.3, p_recover=0.5, seed=seed)
    trace = _trace(model, 120)
    assert model.outage_days(120) == [day for day, up in enumerate(trace) if not up]
    assert availability_ratio(model, 120) == trace.count(True) / 120


@pytest.mark.parametrize("first", (0, 17, 99))
def test_the_trace_does_not_depend_on_the_order_days_are_asked(first):
    """Lazy sampling is memoised: asking a late day first fills every day
    before it exactly as a day-by-day walk would."""
    walked = _trace(MarkovAvailability(URL, p_fail=0.3, seed=5), 100)
    jumped = MarkovAvailability(URL, p_fail=0.3, seed=5)
    jumped.is_available(first)
    assert [jumped.is_available(day) for day in reversed(range(100))] == walked[::-1]


def test_the_seed_moves_the_trace():
    traces = {tuple(_trace(MarkovAvailability(URL, p_fail=0.3, seed=seed), 80))
              for seed in range(4)}
    assert len(traces) == 4


def test_a_chain_that_never_fails_is_always_up():
    model = MarkovAvailability(URL, p_fail=0.0, seed=3)
    assert model.outage_days(500) == []
    assert availability_ratio(model, 500) == 1.0


def test_a_chain_that_always_recovers_has_one_day_outages():
    model = MarkovAvailability(URL, p_fail=0.5, p_recover=1.0, seed=3)
    down = model.outage_days(400)
    assert down, "p_fail=0.5 must take some day down"
    assert all(day + 1 not in down for day in down)


def test_a_chain_that_always_fails_alternates_once_it_recovers_every_day():
    model = MarkovAvailability(URL, p_fail=1.0, p_recover=1.0, seed=3)
    assert _trace(model, 6) == [True, False, True, False, True, False]


def test_a_chain_started_down_is_down_on_day_zero():
    assert not MarkovAvailability(URL, start_up=False, seed=3).is_available(0)
    assert MarkovAvailability(URL, seed=3).is_available(0)


def test_mean_outage_length_follows_p_recover():
    """Outage runs are geometric: mean length 1 / p_recover days."""
    model = MarkovAvailability(URL, p_fail=0.2, p_recover=0.25, seed=11)
    trace = _trace(model, 20_000)
    runs, length = [], 0
    for up in trace:
        if not up:
            length += 1
        elif length:
            runs.append(length)
            length = 0
    assert len(runs) > 500
    assert sum(runs) / len(runs) == pytest.approx(1 / 0.25, rel=0.1)


@pytest.mark.parametrize(
    "keyword, value",
    [
        ("p_fail", -0.1), ("p_fail", 1.1), ("p_fail", math.nan),
        ("p_recover", 0.0), ("p_recover", -0.5), ("p_recover", 1.5),
        ("p_recover", math.nan),
    ],
    ids=lambda value: str(value),
)
def test_a_probability_out_of_range_is_refused(keyword, value):
    with pytest.raises(ValueError):
        MarkovAvailability(URL, **{keyword: value})


@pytest.mark.parametrize("horizon", (0, -3))
def test_an_empty_horizon_is_fully_available(horizon):
    model = MarkovAvailability(URL, p_fail=1.0, seed=3)
    assert availability_ratio(model, horizon) == 1.0
    assert model.outage_days(horizon) == []


def test_always_available_has_no_outage_in_any_horizon():
    assert availability_ratio(AlwaysAvailable(), 365) == 1.0
