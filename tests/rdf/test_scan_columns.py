"""``Graph.scan_columns`` against its oracle, ``triples_ids``.

The column scan is the primitive under the SPARQL columnar executor: the
same rows in the same order as ``triples_ids``, cut into exact batches,
with the positions nobody wants left as ``None`` cells and the index
levels below the last wanted position counted instead of walked.  The
differential runs every bound mask x every ``want`` mask x the batch
sizes and limits below over graphs built by interleaved ``add`` /
``remove`` -- an emptied inner dict or set left behind by ``remove``
would show as phantom rows in a counted level.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import Graph, IRI, Literal, Triple

EX = "http://example.org/"

_SUBJECTS = [IRI(f"{EX}s{i}") for i in range(4)]
_PREDICATES = [IRI(f"{EX}p{i}") for i in range(3)]
_OBJECTS = _SUBJECTS[:2] + [Literal(i) for i in range(3)]

_writes = st.lists(
    st.tuples(
        st.booleans(),  # add (True) or remove
        st.sampled_from(_SUBJECTS),
        st.sampled_from(_PREDICATES),
        st.sampled_from(_OBJECTS),
    ),
    max_size=60,
)

MASKS = list(itertools.product((False, True), repeat=3))
BATCH_SIZES = (1, 2, 7, 1024)
LIMITS = (None, 0, 1, 5)


def _build(writes, shards=None) -> Graph:
    graph = Graph(shards=shards)
    for add, s, p, o in writes:
        if add:
            graph.add(Triple(s, p, o))
        else:
            graph.remove(Triple(s, p, o))
    return graph


def _probes(graph: Graph, pick: int):
    """Two ID triples to bind positions from: one stored triple, and a
    mix of two stored triples' positions (which may match nothing)."""
    stored = sorted(graph.triples_ids())
    if not stored:
        return [(0, 1, 2)]
    first = stored[pick % len(stored)]
    second = stored[(pick * 7 + 3) % len(stored)]
    return [first, (first[0], second[1], second[2])]


def _assert_scan_equals_triples_ids(graph: Graph, pick: int) -> None:
    for probe in _probes(graph, pick):
        for bound in MASKS:
            pattern = tuple(v if b else None for v, b in zip(probe, bound))
            rows = list(graph.triples_ids(*pattern))
            for want, batch_size, limit in itertools.product(MASKS, BATCH_SIZES, LIMITS):
                expected = rows[:limit]
                batches = list(graph.scan_columns(*pattern, want, batch_size, limit))
                context = (pattern, want, batch_size, limit)
                lengths = [len(batch[0]) for batch in batches]
                assert all(len(batch) == 3 for batch in batches), context
                assert all(
                    len(column) == n for batch, n in zip(batches, lengths) for column in batch
                ), context
                # exact batches, the last one shorter and never empty
                assert lengths[:-1] == [batch_size] * (len(lengths) - 1), context
                assert sum(lengths) == len(expected), context
                assert all(0 < n <= batch_size for n in lengths), context
                for position, wanted in enumerate(want):
                    cells = [cell for batch in batches for cell in batch[position]]
                    if wanted:
                        assert cells == [row[position] for row in expected], context
                    else:
                        assert cells == [None] * len(expected), context


@settings(max_examples=25, deadline=None)
@given(writes=_writes, pick=st.integers(min_value=0, max_value=50))
def test_scan_columns_equals_triples_ids(writes, pick):
    _assert_scan_equals_triples_ids(_build(writes), pick)


@settings(max_examples=15, deadline=None)
@given(writes=_writes, pick=st.integers(min_value=0, max_value=50))
def test_scan_columns_equals_triples_ids_on_two_shards(writes, pick):
    _assert_scan_equals_triples_ids(_build(writes, shards=2), pick)


def test_removes_leave_nothing_for_a_counted_level_to_count():
    """The deterministic row of the property above: a subject whose every
    triple was removed, and a predicate emptied under a subject that
    keeps another one, contribute no rows to a scan that only counts."""
    s0, s1 = _SUBJECTS[:2]
    p0, p1 = _PREDICATES[:2]
    graph = _build(
        [
            (True, s0, p0, Literal(1)),
            (True, s0, p1, Literal(2)),
            (True, s1, p0, Literal(3)),
            (False, s0, p1, Literal(2)),
            (False, s1, p0, Literal(3)),
        ]
    )
    (batch,) = graph.scan_columns(None, None, None, (True, False, False), 1024)
    assert batch == [[graph.lookup_id(s0)], [None], [None]]
    (batch,) = graph.scan_columns(None, None, None, (False, False, False), 1024)
    assert batch == [[None], [None], [None]]


class _CountedOnly(set):
    """An object set a scan may measure but not read."""

    def __iter__(self):
        raise AssertionError("the scan iterated an object set it only had to count")


def test_subject_only_scan_counts_the_object_sets():
    """``?s ?p ?o`` wanting ``?s``: a subject's rows are the sum of its
    object sets' lengths -- no object set is iterated."""
    graph = Graph()
    for i in range(40):
        graph.add(Triple(_SUBJECTS[i % 4], _PREDICATES[i % 3], Literal(i)))
    expected = [s for s, _p, _o in graph.triples_ids()]
    for by_predicate in graph.spo_ids().values():
        for predicate, objects in by_predicate.items():
            by_predicate[predicate] = _CountedOnly(objects)
    batches = list(graph.scan_columns(None, None, None, (True, False, False), 7))
    assert [s for batch in batches for s in batch[0]] == expected
    assert all(batch[1] == batch[2] == [None] * len(batch[0]) for batch in batches)
    # the spy works: wanting the objects has to read them
    with pytest.raises(AssertionError, match="only had to count"):
        list(graph.scan_columns(None, None, None, (True, False, True), 7))
