"""Seeded workload generation: determinism and structural properties."""

from __future__ import annotations

import math
import random

import pytest

from repro.serving import (
    QueryTemplate,
    cache_friendly_mix,
    default_query_mix,
    generate_workload,
)


def _as_tuples(workload):
    return [
        (r.session_id, r.tenant, r.seq, r.arrival_ms, r.template, r.query)
        for r in workload
    ]


def test_same_seed_same_workload():
    a = generate_workload(sessions=50, seed=11)
    b = generate_workload(sessions=50, seed=11)
    assert _as_tuples(a) == _as_tuples(b)


def test_different_seeds_differ():
    a = generate_workload(sessions=50, seed=11)
    b = generate_workload(sessions=50, seed=12)
    assert _as_tuples(a) != _as_tuples(b)


def test_arrivals_sorted_and_positive():
    workload = generate_workload(sessions=40, seed=3, start_ms=1000.0)
    arrivals = [r.arrival_ms for r in workload]
    assert arrivals == sorted(arrivals)
    assert arrivals[0] >= 1000.0


def test_session_structure():
    workload = generate_workload(
        sessions=30, seed=7, queries_per_session=(2, 6)
    )
    by_session = {}
    for request in workload:
        by_session.setdefault(request.session_id, []).append(request)
    assert len(by_session) == 30
    for session_id, requests in by_session.items():
        assert 2 <= len(requests) <= 6
        # one tenant per session, sequential seq, monotone arrivals
        assert len({r.tenant for r in requests}) == 1
        ordered = sorted(requests, key=lambda r: r.seq)
        assert [r.seq for r in ordered] == list(range(len(requests)))
        arrivals = [r.arrival_ms for r in ordered]
        assert arrivals == sorted(arrivals)


def test_tenants_drawn_from_given_pool():
    workload = generate_workload(sessions=25, seed=1, tenants=("x", "y"))
    assert set(workload.tenants()) <= {"x", "y"}


def test_queries_drawn_from_mix():
    mix = cache_friendly_mix()
    workload = generate_workload(sessions=20, seed=5, mix=mix)
    allowed = {template.text for template in mix}
    assert {request.query for request in workload} <= allowed
    assert len(allowed) == 3


def test_default_mix_weights_positive_and_named():
    mix = default_query_mix()
    assert len(mix) == 7
    assert all(t.weight > 0 for t in mix)
    assert len({t.name for t in mix}) == len(mix)


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        generate_workload(sessions=0)
    with pytest.raises(ValueError):
        generate_workload(sessions=1, queries_per_session=(0, 3))
    with pytest.raises(ValueError):
        generate_workload(sessions=1, mix=[])
    with pytest.raises(ValueError):
        QueryTemplate("zero", "ASK { ?s ?p ?o }", weight=0.0)


#: (keyword, refused value): a NaN gap or start left every arrival NaN, a
#: zero or infinite mean raised ZeroDivisionError, a negative think time
#: made later queries of a session arrive before earlier ones
REFUSED = [
    (name, value)
    for name in ("mean_session_gap_ms", "mean_think_ms")
    for value in (math.nan, math.inf, 0.0, -50.0)
] + [("start_ms", math.nan), ("start_ms", math.inf), ("start_ms", -math.inf)]


@pytest.mark.parametrize("keyword, value", REFUSED,
                         ids=[f"{k}={v!r}" for k, v in REFUSED])
def test_a_workload_parameter_that_makes_arrivals_non_finite_or_unordered_is_refused(
        keyword, value):
    with pytest.raises(ValueError, match=keyword):
        generate_workload(sessions=3, seed=1, **{keyword: value})


def test_a_finite_start_and_positive_means_are_accepted():
    workload = generate_workload(sessions=3, seed=1, start_ms=-5.0,
                                 mean_session_gap_ms=1e-3, mean_think_ms=1e-3)
    assert all(math.isfinite(request.arrival_ms) for request in workload)


#: (keyword, refused value, the name the error gives).  Before the count
#: rule: ``sessions=True`` built one session and kept ``True`` as
#: ``Workload.sessions``, a fractional or NaN count raised TypeError from
#: ``range``, an empty tenant pool "empty range for randrange()" and a
#: fractional bound "non-integer arg 1 for randrange()".
NOT_COUNTS = [
    ("sessions", True, "sessions"),
    ("sessions", 2.5, "sessions"),
    ("sessions", math.nan, "sessions"),
    ("sessions", "3", "sessions"),
    ("queries_per_session", (1.5, 3), "queries_per_session"),
    ("queries_per_session", (1, 3.0), "queries_per_session"),
    ("queries_per_session", (True, 2), "queries_per_session"),
    ("queries_per_session", (1, math.inf), "queries_per_session"),
    ("queries_per_session", (3, 2), "queries_per_session"),
    ("tenants", (), "tenants"),
    ("tenants", [], "tenants"),
    # a string was a pool of one-letter tenants: "ab" drew "a" and "b"
    ("tenants", "ab", "tenants"),
    ("tenants", b"ab", "tenants"),
]


@pytest.mark.parametrize("keyword, value, name", NOT_COUNTS,
                         ids=[f"{k}={v!r}" for k, v, _ in NOT_COUNTS])
def test_a_count_or_tenant_pool_that_is_not_one_is_refused_before_any_draw(
        keyword, value, name, monkeypatch):
    drawn = []
    monkeypatch.setattr(random, "Random", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match=name):
        generate_workload(**{"sessions": 3, keyword: value})
    assert drawn == []


#: weights a template refuses: ``True`` was taken as 1, and a NaN or
#: infinite weight failed only inside ``generate_workload``'s draw
NOT_WEIGHTS = [True, False, "1.0", None, math.nan, math.inf, -math.inf, 0, -1.0]


@pytest.mark.parametrize("weight", NOT_WEIGHTS, ids=[repr(w) for w in NOT_WEIGHTS])
def test_a_template_weight_that_is_not_a_finite_positive_number_is_refused(weight):
    with pytest.raises(ValueError, match="weight"):
        QueryTemplate("t", "ASK { ?s ?p ?o }", weight=weight)


def test_finite_positive_weights_are_accepted():
    for weight in (1, 0.5, 1e-300, 1e300):
        assert QueryTemplate("t", "ASK { ?s ?p ?o }", weight=weight).weight == weight


def test_the_edges_of_the_counts_are_accepted():
    workload = generate_workload(sessions=1, seed=2, tenants=("solo",),
                                 queries_per_session=(1, 1))
    assert workload.sessions == 1 and len(workload) == 1
    assert workload.tenants() == ["solo"]
