"""``store_cycle``: the only workload that writes.

Op: one full cycle in a fresh temp dir -- bulk-load the Scholarly dataset
(``scholarly_graph(scale=1.0, seed=42)``, 29,038 triples) into
``Graph(shards=4)``, ``save_graph``, attach the journal and log 2,000 adds,
checkpoint (the *full* checkpoint), 200 adds on **one subject** (one dirty
shard), checkpoint again (the *delta* checkpoint), leave 256 adds in the
WAL, close, ``load_graph(lazy=False)`` (the restart; its content digest must
equal the live store's), ``load_graph(lazy=True)`` + 200 subject-bound
lookups, then the docstore leg: save the artifacts of 20 indexed endpoints
through ``HboldStorage(DocumentStore(dir))``, ``flush()``, reopen, and load
every summary and cluster schema back equal.

Why it exists: ``rdf``, ``rdf.durability`` and ``docstore`` do all of its
work, ``sparql`` and ``serving`` none.  An incremental checkpoint must move
``checkpoint_ms`` here and nothing elsewhere; a read-path gain paid for in
ingest time, snapshot size or restart time shows here.  Flush policy: the
code's own (fsync on snapshot, manifest, WAL close).
"""

from __future__ import annotations

import os
import shutil
import statistics
from time import perf_counter
from typing import Dict, List

import spans
from harness import Round, Workload, noted

SHARDS = 4
FULL_ADDS = 2000
DELTA_ADDS = 200
WAL_TAIL = 256
LOOKUPS = 200
DOCSTORE_ENDPOINTS = 20
CHECK_DOCSTORE_ENDPOINTS = 4


def _dir_state(root: str) -> Dict[str, tuple]:
    """name -> (inode, size, mtime) of the files under *root*."""
    state = {}
    for name in os.listdir(root):
        info = os.stat(os.path.join(root, name))
        state[name] = (info.st_ino, info.st_size, info.st_mtime_ns)
    return state


def _tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _, names in os.walk(root)
        for name in names
    )


class StoreCycle(Workload):
    name = "store_cycle"
    rounds = 5  # about 1.7 s each

    def build(self) -> None:
        from repro.core import HBold
        from repro.datagen import build_world, scholarly_graph
        from repro.rdf import IRI, Literal, Triple

        source = self.timed(
            lambda: scholarly_graph(scale=0.2 if self.check else 1.0, seed=42))
        self.tuples = [(t.subject, t.predicate, t.object) for t in source.triples()]
        self.subjects = sorted({s for s, _, _ in self.tuples}, key=str)[:LOOKUPS]

        predicate = IRI("http://bench.example.org/tag")
        hot = IRI("http://bench.example.org/hot")
        self.full_adds = [
            Triple(IRI(f"http://bench.example.org/extra{i}"), predicate, Literal(i))
            for i in range(FULL_ADDS)
        ]
        self.delta_adds = [Triple(hot, predicate, Literal(i)) for i in range(DELTA_ADDS)]
        self.tail_adds = [
            Triple(IRI(f"http://bench.example.org/tail{i}"), predicate, Literal(i))
            for i in range(WAL_TAIL)
        ]

        endpoints = CHECK_DOCSTORE_ENDPOINTS if self.check else DOCSTORE_ENDPOINTS
        world = self.timed(lambda: build_world(
            indexable=endpoints, broken=0, portal_new_indexable=0,
            flaky=False, seed=self.seed))
        app = HBold(world.network)
        app.bootstrap_registry(world.indexable_urls)
        if not all(app.update_all(world.indexable_urls).values()):
            raise RuntimeError("docstore leg: indexing incomplete")
        self.artifacts = [
            (app.storage.load_indexes(url), app.summary(url), app.cluster_schema(url))
            for url in world.indexable_urls
        ]
        self.counts: Dict[str, float] = {}
        self.cycles = 0

    def run_round(self, index: int, tracer) -> Round:
        result = Round()
        self.cycles += 1
        root = os.path.join(self.tmp, f"store_cycle-{self.cycles}")
        os.makedirs(root)
        tracer.op = f"r{index}/cycle"
        result.calibrate()
        self.calib_ms = 0.0  # of the samples taken between the cycle's stages
        start = perf_counter()
        try:
            with tracer.span("cycle", "bench"):
                problems = self._cycle(root, tracer, result)
            result.op_ms.append((perf_counter() - start) * 1000.0 - self.calib_ms)
            for problem in problems:
                result.fail(problem)
        except Exception as exc:  # an op that raises is a failed op
            result.op_ms.append((perf_counter() - start) * 1000.0 - self.calib_ms)
            result.fail(f"cycle raised {type(exc).__name__}: {exc}")
        finally:
            result.calibrate()
            shutil.rmtree(root, ignore_errors=True)
        return result

    def _cycle(self, root: str, tracer, result: Round) -> List[str]:
        from repro.core.persistence import HboldStorage
        from repro.docstore.database import DocumentStore
        from repro.rdf import Graph
        from repro.rdf.durability import (
            attach_journal, content_digest, load_graph, save_graph,
        )

        problems: List[str] = []
        store_dir = os.path.join(root, "store")
        docs_dir = os.path.join(root, "docs")

        def stage(name: str, layer: str, fn):
            """Run *fn* in a span, noting its wall under *name*; the box's
            speed is sampled before every stage, for it may change within a
            cycle of 1.5 s (not in a traced cycle: the samples would sit in
            its root span)."""
            if not tracer.enabled:
                self.calib_ms += result.calibrate()
            start = perf_counter()
            with tracer.span(name, layer):
                value = fn()
            result.note(name, (perf_counter() - start) * 1000.0)
            return value

        graph = Graph(identifier="bench", shards=SHARDS)
        stage("rdf.ingest", "rdf", lambda: graph.add_many_terms(iter(self.tuples)))
        stage("durability.save", "rdf.durability", lambda: save_graph(graph, store_dir))
        journal = attach_journal(graph, store_dir)
        add = graph.add
        stage("durability.wal_adds", "rdf.durability",
              lambda: [add(t) for t in self.full_adds])
        stage("durability.checkpoint_full", "rdf.durability", journal.checkpoint)
        stage("durability.wal_adds", "rdf.durability",
              lambda: [add(t) for t in self.delta_adds])
        before = _dir_state(store_dir)
        stage("durability.checkpoint_delta", "rdf.durability", journal.checkpoint)
        after = _dir_state(store_dir)
        stage("durability.wal_adds", "rdf.durability",
              lambda: [add(t) for t in self.tail_adds])
        stage("durability.close", "rdf.durability", journal.close)

        restarted = stage("durability.load_eager", "rdf.durability",
                          lambda: load_graph(store_dir, lazy=False))
        digests = stage("durability.digest", "rdf.durability",
                        lambda: (content_digest(restarted), content_digest(graph)))
        if digests[0] != digests[1]:
            problems.append("restarted store's content digest differs from the live one")
        lazy = stage("durability.load_lazy", "rdf.durability",
                     lambda: load_graph(store_dir, lazy=True))
        found = stage("rdf.lookup", "rdf", lambda: sum(
            len(list(lazy.triples(subject=s))) for s in self.subjects))
        if found < len(self.subjects):
            problems.append(f"lazy store found {found} triples for "
                            f"{len(self.subjects)} subjects")

        def save_artifacts():
            storage = HboldStorage(DocumentStore(docs_dir))
            for indexes, summary, schema in self.artifacts:
                storage.save_indexes(indexes)
                storage.save_summary(summary)
                storage.save_cluster_schema(schema)
            return storage

        storage = stage("docstore.save", "docstore", save_artifacts)
        stage("docstore.flush", "docstore", storage.flush)
        reopened = stage("docstore.reopen", "docstore",
                         lambda: HboldStorage(DocumentStore(docs_dir)))

        def reload_artifacts():
            return [
                (reopened.load_summary(summary.endpoint_url).to_doc(),
                 reopened.load_cluster_schema(summary.endpoint_url).to_doc())
                for _, summary, _ in self.artifacts
            ]

        reloaded = stage("docstore.load", "docstore", reload_artifacts)
        expected = [(summary.to_doc(), schema.to_doc())
                    for _, summary, schema in self.artifacts]
        if reloaded != expected:
            problems.append("reopened docstore's summaries / cluster schemas differ")

        # deterministic by construction; kept from the latest cycle
        written = [name for name, state in after.items() if before.get(name) != state]
        wal = next(name for name in os.listdir(store_dir) if name.startswith("wal-"))
        self.counts = {
            "triples": len(graph),
            "rdf.terms": graph.term_count(),
            "rdf.durability.snapshot_bytes": _tree_bytes(store_dir),
            "rdf.durability.wal_bytes_per_add":
                os.path.getsize(os.path.join(store_dir, wal)) / WAL_TAIL,
            "rdf.durability.files_written_delta": len(written),
            "rdf.durability.bytes_written_delta": sum(after[name][1] for name in written),
            "docstore.bytes_on_disk": _tree_bytes(docs_dir),
        }
        return problems

    def end_to_end(self, rounds: List[Round]) -> Dict[str, float]:
        metrics = {
            "stored_bytes_per_triple":
                self.counts["rdf.durability.snapshot_bytes"] / self.counts["triples"],
        }
        for name, stage in (("restart_ms", "durability.load_eager"),
                            ("checkpoint_ms", "durability.checkpoint_delta")):
            walls = noted(rounds, stage)  # none, if every cycle raised before it
            if walls:
                metrics[name] = statistics.median(walls)
        return metrics

    # -- the traced run -----------------------------------------------------------

    def stop_trace(self, tracer, untraced, traced) -> Dict[str, float]:
        def median_ms(name: str) -> float:
            return statistics.median(tracer.durations_ms(name))

        adds = len(traced) * (FULL_ADDS + DELTA_ADDS + WAL_TAIL)
        counts = dict(self.counts)
        counts.pop("triples")
        return {
            "_table": spans.layer_table(tracer),
            "rdf.ingest_ktriples_per_s":
                len(self.tuples) / median_ms("rdf.ingest"),  # triples/ms = k/s
            "rdf.lookup_us": median_ms("rdf.lookup") * 1000.0 / len(self.subjects),
            "rdf.durability.save_ms": median_ms("durability.save"),
            "rdf.durability.wal_append_us":
                tracer.busy_s("durability.wal_adds") * 1e6 / adds,
            "rdf.durability.checkpoint_full_ms": median_ms("durability.checkpoint_full"),
            "rdf.durability.checkpoint_delta_ms": median_ms("durability.checkpoint_delta"),
            "rdf.durability.load_eager_ms": median_ms("durability.load_eager"),
            "rdf.durability.load_lazy_ms": median_ms("durability.load_lazy"),
            "rdf.durability.digest_ms": median_ms("durability.digest"),
            "docstore.save_busy_s": tracer.busy_s("docstore.save"),
            "docstore.load_ms": median_ms("docstore.load"),
            "docstore.flush_ms": median_ms("docstore.flush"),
            "docstore.reopen_ms": median_ms("docstore.reopen"),
            **counts,
        }
