"""The run path: COUNT GROUP BY and DISTINCT over an index level's runs.

``Graph.scan_runs`` hands a single-pattern scan's first unbound index level
as ``(position, keys, sizes)``.  The engine feeds those runs to a pure-COUNT
GROUP BY on that level's variable (groups are keys, counts are run lengths)
and to a DISTINCT without ORDER BY (keys are the distinct rows), and to
nothing else.  This fence holds the path to the expanded scan it replaces:

* ``scan_runs`` equals its oracle over ``triples_ids`` for every bound mask,
  declines the masks without a leading unbound level and a sharded store,
  and reads no leaf for a whole-graph run's keys or sizes;
* every eligible shape x bound mask x page equals the
  ``scan`` oracle as a multiset and the first-seen order of the level's
  values as a list -- on a written-and-removed graph, its ``copy()``, a
  recovered store, and ``Graph(shards=2)``, which takes today's path;
* the ineligible neighbours take today's path, shown by their counts --
  the expanded scan, or the general path for the SELECT clauses no sink
  takes;
* the ID-space tail's bound over distinct cells and multiplicities equals
  the per-row ``nlargest`` / ``nsmallest`` it replaced, ties included.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import Graph, IRI, Literal, Triple, attach_journal
from repro.rdf.terms import XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER
from repro.sparql import QueryEngine
from repro.sparql.evaluator import _first_in_order

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
    max_size=50,
)

#: bound mask -> triple position of the first unbound level of the index
#: the scan walks (SPO, POS, OSP); the other four masks have none
LEADING = {
    (False, False, False): 0,
    (True, False, False): 1,
    (False, True, False): 2,
    (False, False, True): 0,
}
NAMES = ("s", "p", "o")

#: (id, SELECT clause and GROUP BY tail); ``{lead}`` / ``{other}`` are
#: the leading variable and another unbound one
SHAPES = [
    ("count-var", "SELECT ?{lead} (COUNT(?{other}) AS ?n) WHERE {{ {pattern} }} GROUP BY ?{lead}"),
    ("count-star", "SELECT ?{lead} (COUNT(*) AS ?n) WHERE {{ {pattern} }} GROUP BY ?{lead}"),
    ("distinct", "SELECT DISTINCT ?{lead} WHERE {{ {pattern} }}"),
]
#: (OFFSET, LIMIT)
PAGES = [(0, None), (0, 0), (0, 2), (1, None), (1, 2)]


def _build(writes, shards=None) -> Graph:
    graph = Graph(shards=shards)
    for add, s, p, o in writes:
        if add:
            graph.add(Triple(s, p, o))
        else:
            graph.remove(Triple(s, p, o))
    return graph


def _recovered(writes, root) -> Graph:
    """A store that went through save, journaled adds and removes, and a
    load that replays them."""
    half = len(writes) // 2
    graph = _build(writes[:half])
    graph.save(str(root))
    attach_journal(graph, str(root))
    for add, s, p, o in writes[half:]:
        if add:
            graph.add(Triple(s, p, o))
        else:
            graph.remove(Triple(s, p, o))
    return Graph.load(str(root), lazy=False, verify=True)


def _probe(graph: Graph, pick: int):
    stored = sorted(graph.triples_ids())
    return stored[pick % len(stored)] if stored else None


def _run(graph, query, strategy="hash"):
    execution = QueryEngine(graph, strategy=strategy).execute(query)
    return execution.result, execution.stats


def _multiset(result):
    return sorted(tuple(sorted((n, str(t)) for n, t in row.items())) for row in result.rows)


def _runs_oracle(graph, ids, position):
    rows = list(graph.triples_ids(*ids))
    counts = Counter(t[position] for t in rows)
    return rows, list(counts), counts


def _check_runs(graph: Graph, probe, runs_taken: bool) -> None:
    """Every eligible shape on every mask with a leading unbound level."""
    for mask, lead in LEADING.items():
        ids = tuple(v if bound else None for v, bound in zip(probe, mask))
        rows, first_seen, counts = _runs_oracle(graph, ids, lead)
        pattern = " ".join(
            graph.decode_id(v).n3() if v is not None else f"?{name}"
            for v, name in zip(ids, NAMES)
        )
        unbound = [name for v, name in zip(ids, NAMES) if v is None]
        other = next((name for name in unbound if name != NAMES[lead]), NAMES[lead])
        for (shape, template), (offset, limit) in itertools.product(SHAPES, PAGES):
            query = template.format(lead=NAMES[lead], other=other, pattern=pattern)
            if offset:
                query += f" OFFSET {offset}"
            if limit is not None:
                query += f" LIMIT {limit}"
            end = None if limit is None else offset + limit
            page = first_seen[offset:end]
            oracle = _multiset(QueryEngine(graph, strategy="scan").run(query))
            result, stats = _run(graph, query)
            context = (query, runs_taken)
            assert _multiset(result) == oracle, context
            assert [row[NAMES[lead]] for row in result.rows] == [
                graph.decode_id(key) for key in page
            ], context
            if shape != "distinct":
                assert [int(row["n"].lexical) for row in result.rows] == [
                    counts[key] for key in page
                ], context
            if not runs_taken:
                if (offset, limit) == (0, None):
                    assert stats["input_rows"] == len(rows), context
                continue
            # a run is a whole group, or one distinct row: either sink
            # reads the page's runs and no more
            pulled = len(first_seen) if limit is None else min(len(first_seen), offset + limit)
            if limit == 0:
                pulled = 0  # a LIMIT 0 page reads nothing
            assert stats["input_rows"] == stats.get("scan_cells", 0) == pulled, context


# -- scan_runs against its oracle ------------------------------------------------


def _assert_scan_runs(graph: Graph, probe) -> None:
    for mask in itertools.product((False, True), repeat=3):
        ids = tuple(v if bound else None for v, bound in zip(probe, mask))
        runs = graph.scan_runs(*ids)
        if mask not in LEADING:
            assert runs is None, ids
            continue
        position, keys, sizes = runs
        _rows, first_seen, counts = _runs_oracle(graph, ids, LEADING[mask])
        assert position == LEADING[mask], ids
        assert list(keys) == first_seen, ids
        assert list(sizes) == [counts[key] for key in first_seen], ids


@settings(max_examples=40, deadline=None)
@given(writes=_writes, pick=st.integers(min_value=0, max_value=50))
def test_scan_runs_equals_its_oracle(writes, pick):
    graph = _build(writes)
    probe = _probe(graph, pick) or (0, 1, 2)
    _assert_scan_runs(graph, probe)
    _assert_scan_runs(graph.copy(), probe)


@settings(max_examples=10, deadline=None)
@given(writes=_writes, pick=st.integers(min_value=0, max_value=50))
def test_a_sharded_store_declines_runs(writes, pick):
    store = _build(writes, shards=2)
    probe = _probe(store, pick) or (0, 1, 2)
    for mask in itertools.product((False, True), repeat=3):
        assert store.scan_runs(*(v if b else None for v, b in zip(probe, mask))) is None


class _Unread(tuple):
    """A leaf that may be neither measured nor iterated."""

    def __len__(self):
        raise AssertionError("a leaf was read")

    def __iter__(self):
        raise AssertionError("a leaf was read")


def test_keys_alone_read_no_leaf():
    """A whole-graph run's keys and its sizes: a subject's triple count is
    kept beside SPO, so neither reads an object leaf."""
    graph = Graph()
    for i in range(12):
        graph.add(Triple(_SUBJECTS[i % 4], _PREDICATES[i % 3], Literal(i)))
    graph.add(Triple(_SUBJECTS[0], _PREDICATES[0], Literal(99)))  # a set leaf
    expected = Counter(s for s, _p, _o in graph.triples_ids())
    for by_predicate in graph.spo_ids().values():
        for predicate, objects in by_predicate.items():
            by_predicate[predicate] = _Unread(objects)
    position, keys, sizes = graph.scan_runs(None, None, None)
    assert (position, list(keys), list(sizes)) == (0, list(expected), list(expected.values()))


# -- the engine on the runs ----------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(writes=_writes, pick=st.integers(min_value=0, max_value=50))
def test_run_fed_sinks_equal_the_expanded_scan(writes, pick):
    graph = _build(writes)
    probe = _probe(graph, pick)
    if probe is None:
        return
    _check_runs(graph, probe, runs_taken=True)
    _check_runs(graph.copy(), probe, runs_taken=True)


#: adds and removes that empty a subject, a predicate under a subject and
#: an object's run -- what a phantom run of size 0 would show on
FIXED_WRITES = [
    (True, _SUBJECTS[0], _PREDICATES[0], _OBJECTS[2]),
    (True, _SUBJECTS[0], _PREDICATES[0], _OBJECTS[3]),
    (True, _SUBJECTS[0], _PREDICATES[1], _OBJECTS[0]),
    (True, _SUBJECTS[1], _PREDICATES[0], _OBJECTS[2]),
    (True, _SUBJECTS[2], _PREDICATES[2], _OBJECTS[1]),
    (True, _SUBJECTS[3], _PREDICATES[0], _OBJECTS[4]),
    (True, _SUBJECTS[1], _PREDICATES[1], _OBJECTS[0]),
    (False, _SUBJECTS[2], _PREDICATES[2], _OBJECTS[1]),
    (False, _SUBJECTS[0], _PREDICATES[1], _OBJECTS[0]),
    (True, _SUBJECTS[2], _PREDICATES[0], _OBJECTS[3]),
    (True, _SUBJECTS[3], _PREDICATES[2], _OBJECTS[2]),
    (False, _SUBJECTS[3], _PREDICATES[0], _OBJECTS[4]),
]


@pytest.mark.parametrize("pick", range(0, 8, 3))
def test_runs_on_a_recovered_store(tmp_path, pick):
    recovered = _recovered(FIXED_WRITES, tmp_path / "store")
    assert set(recovered.triples()) == set(_build(FIXED_WRITES).triples())
    probe = _probe(recovered, pick)
    _assert_scan_runs(recovered, probe)
    _check_runs(recovered, probe, runs_taken=True)


@pytest.mark.parametrize("pick", range(0, 8, 3))
def test_a_sharded_store_takes_todays_path(pick):
    store = _build(FIXED_WRITES, shards=2)
    _check_runs(store, _probe(store, pick), runs_taken=False)


# -- ineligible neighbours keep the expanded scan ----------------------------------


NEIGHBOURS = [
    ("filter", "SELECT DISTINCT ?s WHERE { ?s ?p ?o FILTER(isIRI(?s)) }"),
    ("filter-count", "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o FILTER(isIRI(?s)) } GROUP BY ?s"),
    ("non-leading-key", "SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p"),
    ("distinct-two", "SELECT DISTINCT ?s ?p WHERE { ?s ?p ?o }"),
    ("repeated", "SELECT DISTINCT ?s WHERE { ?s ?p ?s }"),
    ("repeated-count", "SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?s } GROUP BY ?s"),
]


@pytest.mark.parametrize("query", [q for _id, q in NEIGHBOURS], ids=[i for i, _q in NEIGHBOURS])
def test_ineligible_neighbours_expand_rows(query):
    graph = _build(FIXED_WRITES)
    graph.add(Triple(_SUBJECTS[0], _PREDICATES[2], _SUBJECTS[0]))  # a self-loop
    graph.add(Triple(_SUBJECTS[0], _PREDICATES[1], _SUBJECTS[0]))
    rows = list(graph.triples_ids())
    matched = [t for t in rows if t[0] == t[2]] if "?s ?p ?s" in query else rows
    result, stats = _run(graph, query)
    oracle = QueryEngine(graph, strategy="scan").run(query)
    assert _multiset(result) == _multiset(oracle)
    assert stats["input_rows"] == len(matched)


#: neighbours no sink takes: a HAVING, a fold other than a plain COUNT, an
#: ORDER BY over solutions
GENERAL_NEIGHBOURS = [
    ("having", "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s HAVING (COUNT(?o) > 1)"),
    ("sum", "SELECT ?s (SUM(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s"),
    ("count-distinct", "SELECT ?s (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s"),
    ("distinct-ordered", "SELECT DISTINCT ?s WHERE { ?s ?p ?o } ORDER BY ?s"),
]


@pytest.mark.parametrize(
    "query", [q for _id, q in GENERAL_NEIGHBOURS], ids=[i for i, _q in GENERAL_NEIGHBOURS]
)
def test_a_general_neighbour_builds_every_row(query):
    """Such a neighbour builds every row of the pattern on the general
    path and folds, gates or sorts them there."""
    graph = _build(FIXED_WRITES)
    result, stats = _run(graph, query)
    oracle = QueryEngine(graph, strategy="scan").run(query)
    assert _multiset(result) == _multiset(oracle)
    assert stats["operator"] == "general"
    assert stats["join_rows"] == len(graph)


# -- the tail: bound over distinct cells against the per-row heap -------------------


def _parent_sort_key_column(values, memo, term_of):
    for value in set(values).difference(memo):
        term = None if value is None else term_of(value)
        memo[value] = () if term is None else term.sort_key()
    return list(map(memo.__getitem__, values))


def _parent_first_in_order(columns, indices, room, conditions, memos, level=0):
    """The ID-space tail's cut before it found its bound over distinct
    cells: one key per row, ``nlargest`` / ``nsmallest`` over them."""
    if len(indices) <= room:
        return indices
    if level == len(conditions) or not room:
        return indices[:room]
    column, descending, term_of = conditions[level]
    cells = columns[column]
    keys = _parent_sort_key_column([cells[i] for i in indices], memos[level], term_of)
    if descending:
        bound = heapq.nlargest(room, keys)[-1]
        better = [i for i, key in zip(indices, keys) if key > bound]
    else:
        bound = heapq.nsmallest(room, keys)[-1]
        better = [i for i, key in zip(indices, keys) if key < bound]
    ties = [i for i, key in zip(indices, keys) if key == bound]
    return better + _parent_first_in_order(
        columns, ties, room - len(better), conditions, memos, level + 1
    )


def _cell_term(cell):
    """Cells 0-7: pairs of distinct cells share a sort key ("1"^^integer
    and "1"^^decimal), and 7 is a NaN."""
    if cell == 7:
        return Literal("NaN", datatype=XSD_DOUBLE)
    return Literal(str(cell // 2), datatype=XSD_INTEGER if cell % 2 else XSD_DECIMAL)


def _cell_key(cell):
    """What ``_first_in_order`` takes for a condition: the key of one cell,
    ``()`` for an unbound one -- the parent's ``_cell_term`` keyed."""
    return () if cell is None else _cell_term(cell).sort_key()


_cells = st.one_of(st.none(), st.integers(min_value=0, max_value=7))


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(_cells, _cells), max_size=40),
    room_share=st.floats(min_value=0, max_value=1.1),
    descending=st.tuples(st.booleans(), st.booleans()),
    width=st.sampled_from((1, 2)),
    sparse=st.booleans(),
)
def test_tail_bound_equals_the_per_row_heap(rows, room_share, descending, width, sparse):
    columns = [list(column) for column in zip(*rows)] or [[], []]
    indices = list(range(0, len(rows), 2 if sparse else 1))
    room = min(int(room_share * (len(indices) + 1)), len(indices) + 1)
    conditions = [(c, descending[c], _cell_term) for c in range(width)]
    keyed = [(c, descending[c], _cell_key) for c in range(width)]
    expected_memos = [{} for _ in conditions]
    memos = [{} for _ in conditions]
    expected = _parent_first_in_order(columns, indices, room, conditions, expected_memos)
    assert _first_in_order(columns, indices, room, keyed, memos) == expected
    # keys are built for the same distinct cells: ``sort_keys`` is unchanged
    assert [memo.keys() for memo in memos] == [memo.keys() for memo in expected_memos]


def test_tail_room_reaches_every_boundary():
    """Deterministic rows of the property: every room from 0 to n + 1,
    both directions, ties on equal keys of distinct cells."""
    cells = [3, None, 2, 3, 1, 0, 7, 2, None, 7, 6, 1]
    columns = [cells, list(range(len(cells)))]
    for room, descending in itertools.product(range(len(cells) + 2), (False, True)):
        conditions = [(0, descending, _cell_term), (1, not descending, _cell_term)]
        keyed = [(0, descending, _cell_key), (1, not descending, _cell_key)]
        indices = list(range(len(cells)))
        expected = _parent_first_in_order(columns, indices, room, conditions, [{}, {}])
        assert _first_in_order(columns, indices, room, keyed, [{}, {}]) == expected
