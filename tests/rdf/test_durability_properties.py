"""Hypothesis properties for crash recovery.

Random mutation batches (adds and removes over a small term space, no-ops
included) x random crash points: recovery always lands on the durable
prefix -- the base snapshot plus exactly the mutations whose WAL records
were fully flushed.  The oracle is writer-side (a shadow counter of
successful public-API mutations), never read back from disk.

``tmp_path`` does not compose with ``@given`` (one fixture instance per
test, many examples), so each example builds its own TemporaryDirectory.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rdf import Graph, IRI, Literal, Triple, attach_journal, content_digest, load_graph, save_graph
from repro.rdf.durability import CrashInjector, CrashPoint, replay_wal

EX = "http://ex.org/"


def _triple(s: int, p: int, o: int) -> Triple:
    obj = IRI(f"{EX}n{o}") if o % 2 else Literal(o)
    return Triple(IRI(f"{EX}n{s}"), IRI(f"{EX}p{p}"), obj)


base_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=0,
    max_size=16,
)

# (is_add, s, p, o) -- removes of absent triples and adds of present ones
# are deliberately reachable: no-op mutations must emit no WAL record
muts_strategy = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=14,
)


def _run_scenario(root, injector, base, muts, shards, shadow):
    """Returns the *effective* mutation list (the ops that changed content,
    in order); ``shadow['ops']`` counts how many completed before a crash."""
    graph = Graph(identifier="prop-world", shards=shards)
    graph.add_many_terms(
        (t.subject, t.predicate, t.object) for t in (_triple(*b) for b in base)
    )
    save_graph(graph, root)
    journal = attach_journal(graph, root, injector=injector)
    effective = []
    half = len(muts) // 2
    for i, (is_add, s, p, o) in enumerate(muts):
        if i == half:
            journal.checkpoint()
        triple = _triple(s, p, o)
        changed = graph.add(triple) if is_add else graph.remove(triple)
        if changed:
            effective.append((is_add, triple))
            shadow["ops"] += 1
    journal.close()
    return effective


def _prefix_digest(base, effective, n_ops):
    content = {_triple(*b) for b in base}
    for is_add, triple in effective[:n_ops]:
        if is_add:
            content.add(triple)
        else:
            content.discard(triple)
    model = Graph()
    model.add_many_terms((t.subject, t.predicate, t.object) for t in content)
    return content_digest(model)


@settings(max_examples=25, deadline=None)
@given(
    base=base_strategy,
    muts=muts_strategy,
    shards=st.sampled_from((None, 1, 2, 4)),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
# an add and its remove both in the WAL tail: replaying the tail a second
# time re-adds and re-removes (same content, generation moves on), so the
# generation to compare is the one recovery itself produced
@example(
    base=[],
    muts=[(False, 0, 0, 0), (True, 0, 0, 0), (False, 0, 0, 0)],
    shards=None,
    frac=1.0,
)
def test_random_crash_recovers_the_durable_prefix(base, muts, shards, frac):
    with tempfile.TemporaryDirectory() as td:
        probe = CrashInjector()
        effective = _run_scenario(
            os.path.join(td, "dry"), probe, base, muts, shards, {"ops": 0}
        )
        total = probe.sequence
        crash_at = min(int(frac * total), total - 1)

        root = os.path.join(td, "crash")
        shadow = {"ops": 0}
        crashed_op = None
        try:
            _run_scenario(
                root, CrashInjector(crash_at=crash_at), base, muts, shards, shadow
            )
        except CrashPoint as cp:
            crashed_op = cp.op
        durable = shadow["ops"] + (1 if crashed_op == "wal-append:after" else 0)

        recovered = load_graph(root, lazy=False, verify=True)
        assert content_digest(recovered) == _prefix_digest(base, effective, durable)

        # double replay never changes recovered content
        digest = content_digest(recovered)
        generation = recovered.generation
        replay_wal(recovered, root)
        assert content_digest(recovered) == digest

        # recovery is deterministic: an independent load fully agrees
        again = load_graph(root, lazy=False, verify=True)
        assert content_digest(again) == digest
        assert again.generation == generation


@settings(max_examples=25, deadline=None)
@given(
    base=base_strategy,
    muts=muts_strategy,
    shards=st.sampled_from((None, 2)),
    cut=st.integers(min_value=0, max_value=10_000),
)
def test_arbitrary_wal_truncation_recovers_a_valid_prefix(base, muts, shards, cut):
    """Chopping the WAL at *any* byte offset (a crash the injector cannot
    express mid-syscall) still recovers to some valid mutation prefix."""
    from repro.rdf.durability import read_manifest

    with tempfile.TemporaryDirectory() as td:
        root = os.path.join(td, "store")
        effective = _run_scenario(root, None, base, muts, shards, {"ops": 0})
        valid = {
            _prefix_digest(base, effective, n) for n in range(len(effective) + 1)
        }

        manifest = read_manifest(root)
        wal_path = os.path.join(root, manifest["wal"]["file"])
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as handle:
            handle.truncate(min(cut, size))

        recovered = load_graph(root, lazy=False, verify=True)
        assert content_digest(recovered) in valid
        again = load_graph(root, lazy=False, verify=True)
        assert content_digest(again) == content_digest(recovered)
