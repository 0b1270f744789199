"""Save / load / recovery orchestration for durable graphs.

The durable state of a store is ``(manifest, WAL prefix)``:

* :func:`save_graph` writes a full snapshot -- term dictionary plus one
  columnar file per shard (a plain :class:`Graph` is one pseudo-shard) --
  under a fresh *epoch*, creates the epoch's empty WAL segment, then
  atomically swaps the manifest and prunes files of older epochs.  Until
  the swap, every new file is invisible garbage and the previous
  (manifest, WAL) pair stays fully intact, which is the whole
  crash-consistency argument: a crash anywhere leaves exactly one valid
  commit pointer on disk.
* :class:`Journal` (via :func:`attach_journal`) hooks the graph's mutation
  paths so every *content-changing* term-level mutation appends a WAL
  record **before** it applies in memory; no-op writes (duplicate adds,
  absent removes) log nothing, mirroring the ``Graph.generation`` rule.
* :func:`load_graph` reads the manifest, restores the dictionary, loads
  shards eagerly or lazily (:class:`LazyShard` defers building a shard's
  indexes until first touch), optionally verifies the snapshot digest,
  then replays the WAL tail -- truncating a torn final record, failing
  loudly on mid-stream corruption.

Replay applies term-level records through the public mutation API, so a
second replay of the same records is a sequence of no-ops: recovery is
idempotent by construction, and recovered ID assignment (free list, next
ID) matches the pre-crash process exactly because the dictionary snapshot
round-trips its allocation state.
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable, Dict, List, Optional, Tuple

from ..graph import Graph
from ..sharding import Shard, ShardedTripleStore
from ..terms import _unchecked_triple
from .crash import CrashInjector, boundary
from .manifest import MANIFEST_VERSION, read_manifest, write_manifest
from .paths import orphan_files, shard_file, termdict_file, wal_file
from .snapshot import (
    read_shard_columns,
    read_termdict_snapshot,
    write_shard_snapshot,
    write_termdict_snapshot,
)
from .wal import WalReplayError, WriteAheadLog, read_wal_records

__all__ = [
    "DurabilityError",
    "Journal",
    "LazyShard",
    "attach_journal",
    "content_digest",
    "load_graph",
    "replay_wal",
    "save_graph",
]


class DurabilityError(RuntimeError):
    """Recovery found durable state that violates its own manifest."""


# -- canonical content digest ------------------------------------------------


def content_digest(graph: Graph) -> str:
    """SHA-256 over the sorted N3 lines of the store's (s, p, o) triples.

    Canonical with respect to everything incidental: dictionary ID
    assignment, shard count, insertion order, and free-list history all
    wash out, so two stores digest equal iff they hold the same triples.
    """
    lines = sorted(
        f"{t.subject.n3()} {t.predicate.n3()} {t.object.n3()}"
        for t in graph.triples()
    )
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return "sha256:" + digest.hexdigest()


# -- save --------------------------------------------------------------------


def _shard_rows(graph: Graph) -> List:
    """Per-shard ID-row iterables; a plain Graph is one pseudo-shard."""
    if graph.is_sharded:
        return [shard.triples_ids() for shard in graph.shards]
    return [graph.triples_ids()]


def save_graph(
    graph: Graph, root: str, injector: Optional[CrashInjector] = None, obs=None
) -> Dict:
    """Write a full snapshot of *graph* under *root* and commit it.

    Write order is the durability contract: (1) term-dictionary and shard
    snapshot files under a fresh epoch, (2) the epoch's empty WAL segment,
    (3) the manifest swap (the commit point), (4) prune of older-epoch
    files.  A crash anywhere before (3) leaves the previous commit fully
    intact; a crash after (3) leaves the new one plus harmless orphans.

    *obs* is an optional ``repro.obs`` tracer: the checkpoint records a
    ``durability.checkpoint`` span (epoch, shard count, triples) -- an
    injected crash surfaces as the span's error annotation.
    """
    if obs is not None and obs.enabled:
        with obs.span("durability.checkpoint", root=root):
            manifest = _save_graph(graph, root, injector)
            obs.note(
                epoch=manifest["epoch"],
                shards=len(manifest["shard_files"]),
                triples=manifest["size"],
            )
            return manifest
    return _save_graph(graph, root, injector)


def _save_graph(
    graph: Graph, root: str, injector: Optional[CrashInjector] = None
) -> Dict:
    os.makedirs(root, exist_ok=True)
    try:
        previous = read_manifest(root)
        epoch = previous["epoch"] + 1
    except Exception:
        epoch = 1

    term_dict = graph.dictionary
    term_dict.epoch = epoch
    td_name = termdict_file(epoch)
    terms, td_checksum = write_termdict_snapshot(
        os.path.join(root, td_name), term_dict, injector
    )

    shard_entries = []
    for index, rows in enumerate(_shard_rows(graph)):
        name = shard_file(index, epoch)
        triples, checksum = write_shard_snapshot(
            os.path.join(root, name), rows, epoch, injector
        )
        shard_entries.append({"file": name, "triples": triples, "checksum": checksum})

    wal_name = wal_file(epoch)
    boundary(injector, "wal-create:before")
    with open(os.path.join(root, wal_name), "wb"):
        pass
    boundary(injector, "wal-create:after")

    manifest = {
        "version": MANIFEST_VERSION,
        "identifier": graph.identifier,
        "sharded": bool(graph.is_sharded),
        "shards": graph.num_shards if graph.is_sharded else 1,
        "epoch": epoch,
        "generation": graph.generation,
        "size": len(graph),
        "digest": content_digest(graph),
        "termdict": {
            "file": td_name,
            "terms": terms,
            "next_id": term_dict._next_id,
            "checksum": td_checksum,
        },
        "shard_files": shard_entries,
        "wal": {"file": wal_name, "offset": 0},
    }
    write_manifest(root, manifest, injector)

    for name in orphan_files(root, manifest):
        boundary(injector, "prune:file")
        try:
            os.unlink(os.path.join(root, name))
        except OSError:  # pragma: no cover - prune is best-effort
            pass
    # stray temp files from crashed earlier attempts are garbage too
    for name in os.listdir(root):
        if name.startswith(".") and name.endswith(".tmp"):
            try:
                os.unlink(os.path.join(root, name))
            except OSError:  # pragma: no cover
                pass
    return manifest


# -- the journal (live WAL session) ------------------------------------------


class Journal:
    """The WAL session binding a live graph to its store directory.

    While attached (``graph._wal is self``) every content-changing
    mutation logs a record *before* applying -- see the hooks in
    ``Graph.add/remove/clear/add_many_terms`` and their sharded overrides.
    """

    __slots__ = ("graph", "root", "injector", "wal", "obs")

    def __init__(
        self, graph: Graph, root: str, injector: Optional[CrashInjector] = None,
        obs=None,
    ):
        manifest = read_manifest(root)
        self.graph = graph
        self.root = root
        self.injector = injector
        self.obs = obs
        self.wal = WriteAheadLog(
            os.path.join(root, manifest["wal"]["file"]), injector=injector
        )
        graph._wal = self

    @property
    def records_appended(self) -> int:
        return self.wal.records_appended

    def log_add(self, s, p, o) -> None:
        self.wal.append("add", s, p, o)

    def log_remove(self, s, p, o) -> None:
        self.wal.append("remove", s, p, o)

    def log_clear(self) -> None:
        self.wal.append("clear")

    def checkpoint(self) -> Dict:
        """Fold the WAL into a fresh full snapshot and rotate the segment."""
        manifest = save_graph(
            self.graph, self.root, injector=self.injector, obs=self.obs
        )
        self.wal.close()
        self.wal = WriteAheadLog(
            os.path.join(self.root, manifest["wal"]["file"]),
            injector=self.injector,
        )
        return manifest

    def close(self) -> None:
        if self.graph._wal is self:
            self.graph._wal = None
        self.wal.close()


def attach_journal(
    graph: Graph, root: str, injector: Optional[CrashInjector] = None, obs=None
) -> Journal:
    """Attach a WAL session for *graph* to the store at *root*.

    The store must have been saved (the manifest names the active WAL
    segment).  Typical lifecycle::

        graph.save(root)
        journal = attach_journal(graph, root)
        ... mutations are now logged ahead of applying ...
        journal.checkpoint()   # fold the log into a new snapshot
        journal.close()
    """
    if graph._wal is not None:
        raise DurabilityError("graph already has an attached journal")
    return Journal(graph, root, injector, obs=obs)


# -- lazy shards -------------------------------------------------------------


class LazyShard(Shard):
    """A shard whose indexes build from its snapshot file on first touch.

    The ``spo``/``pos``/``osp`` slots are shadowed by properties that
    hydrate before first access, so every existing read/write path works
    unchanged; ``size`` stays a plain slot (set from the manifest), so
    counting and shard-balance accounting never force a load.

    Snapshot columns are already the ``(s, p, o)``-sorted run the batch
    scan pipeline consumes, so :meth:`columns` on a cold shard reads them
    straight off disk into the shard's run cache **without** building the
    dict indexes -- snapshot load -> columnar scan copies nothing beyond
    the file read itself.  Hydration (first index touch) then fills the
    indexes from the cached columns instead of re-reading the file.
    """

    __slots__ = ("_loader",)

    def __init__(self, loader: Callable[[], Tuple], size: int):
        self._loader = None
        super().__init__()
        self.size = size
        self._loader = loader

    @property
    def hydrated(self) -> bool:
        return self._loader is None

    def _load_columns(self) -> Tuple:
        """The snapshot's sorted columns, cached on the shard."""
        cols = self._columns
        if cols is None:
            cols = self._loader()
            if len(cols[0]) != self.size:
                raise DurabilityError(
                    f"shard snapshot holds {len(cols[0])} rows, "
                    f"manifest says {self.size}"
                )
            self._columns = cols
        return cols

    def columns(self) -> Tuple:
        if self._loader is not None:
            return self._load_columns()
        return super().columns()

    def _hydrate(self) -> None:
        columns = self._load_columns()
        self._loader = None
        _fill_indexes(
            Shard.spo.__get__(self),
            Shard.pos.__get__(self),
            Shard.osp.__get__(self),
            columns,
        )

    # slot shadows: hydrate-on-read, plain writes (Shard.__init__ and
    # hydration itself store through the base descriptors)

    @property
    def spo(self):
        if self._loader is not None:
            self._hydrate()
        return Shard.spo.__get__(self)

    @spo.setter
    def spo(self, value):
        Shard.spo.__set__(self, value)

    @property
    def pos(self):
        if self._loader is not None:
            self._hydrate()
        return Shard.pos.__get__(self)

    @pos.setter
    def pos(self, value):
        Shard.pos.__set__(self, value)

    @property
    def osp(self):
        if self._loader is not None:
            self._hydrate()
        return Shard.osp.__get__(self)

    @osp.setter
    def osp(self, value):
        Shard.osp.__set__(self, value)

    def __repr__(self) -> str:
        state = "hydrated" if self.hydrated else "cold"
        return f"<LazyShard {self.size} triples, {state}>"


# -- load / recovery ---------------------------------------------------------


def _fill_indexes(spo, pos, osp, columns) -> None:
    # Snapshot rows are sorted by (s, p, o), so the SPO index fills in
    # runs: reuse the (s) and (s, p) containers across consecutive rows
    # instead of paying two dict probes per row.  POS/OSP rows arrive in
    # scattered order and keep the setdefault probes.
    s_col, p_col, o_col = columns
    prev_s = prev_p = None
    by_p = objects = None
    pos_setdefault = pos.setdefault
    osp_setdefault = osp.setdefault
    for s, p, o in zip(s_col, p_col, o_col):
        if s != prev_s:
            by_p = spo[s] = {}
            prev_s, prev_p = s, None
        if p != prev_p:
            objects = by_p[p] = set()
            prev_p = p
        objects.add(o)
        pos_setdefault(p, {}).setdefault(o, set()).add(s)
        osp_setdefault(o, {}).setdefault(s, set()).add(p)


def _apply_wal_ops(graph: Graph, ops: List[List]) -> int:
    """Apply decoded WAL ops through the public mutation API; count changes."""
    applied = 0
    for op in ops:
        kind = op[0]
        if kind == "add":
            applied += bool(graph.add(_unchecked_triple(op[1], op[2], op[3])))
        elif kind == "remove":
            applied += bool(graph.remove(_unchecked_triple(op[1], op[2], op[3])))
        elif kind == "clear":
            graph.clear()
            applied += 1
        else:
            raise WalReplayError(f"unknown WAL op {kind!r}")
    return applied


def replay_wal(graph: Graph, root: str, manifest: Optional[Dict] = None) -> Tuple[int, Optional[str]]:
    """Replay the store's WAL tail onto *graph*; returns (changes, reason).

    Safe to call repeatedly: records are term-level and replay through the
    normal mutation paths, so re-applying the tail leaves the *content*
    where it was (this is what the double-replay tests pin).  It is not
    a no-op for ``generation``: a tail holding an add and its remove
    re-adds and re-removes, two real transient changes.  ``reason`` reports
    a detected torn tail (``torn-*``) or ``None``; mid-stream corruption
    raises :class:`WalReplayError`.
    """
    if manifest is None:
        manifest = read_manifest(root)
    path = os.path.join(root, manifest["wal"]["file"])
    ops, valid_end, reason = read_wal_records(path, manifest["wal"]["offset"])
    if reason == "bad-checksum":
        raise WalReplayError(
            f"WAL record checksum mismatch in {path} at offset {valid_end}"
        )
    applied = _apply_wal_ops(graph, ops)
    return applied, reason


def load_graph(
    root: str,
    lazy: Optional[bool] = None,
    verify: Optional[bool] = None,
    clock=None,
    obs=None,
) -> Graph:
    """Recover a graph from the durable store at *root*.

    * ``lazy`` (default: sharded stores yes, plain graphs no) loads shard
      indexes on first touch instead of up front.
    * ``verify`` (default: the opposite of ``lazy``) recomputes the
      canonical content digest of the *snapshot* state and compares it to
      the manifest's recorded digest before replaying the WAL tail --
      forcing full hydration, so lazy loads default it off.
    * A torn WAL tail is truncated on disk so a later
      :func:`attach_journal` appends from the last durable record.
    * ``obs`` is an optional ``repro.obs`` tracer: recovery records a
      ``durability.recover`` span with a nested ``durability.wal_replay``
      event (records applied, torn-tail reason).
    """
    if obs is not None and obs.enabled:
        with obs.span("durability.recover", root=root):
            return _load_graph(root, lazy, verify, clock, obs)
    return _load_graph(root, lazy, verify, clock, None)


def _load_graph(root, lazy, verify, clock, obs) -> Graph:
    manifest = read_manifest(root)
    epoch = manifest["epoch"]
    if lazy is None:
        lazy = bool(manifest["sharded"])
    if verify is None:
        verify = not lazy

    td = manifest["termdict"]
    term_dict = read_termdict_snapshot(
        os.path.join(root, td["file"]),
        expected_epoch=epoch,
        expected_checksum=td["checksum"],
    )
    if len(term_dict) != td["terms"]:
        raise DurabilityError(
            f"termdict holds {len(term_dict)} terms, manifest says {td['terms']}"
        )

    if manifest["sharded"]:
        graph = ShardedTripleStore(
            identifier=manifest["identifier"],
            shards=manifest["shards"],
            clock=clock,
        )
        graph._dict = term_dict
        shards = []
        for entry in manifest["shard_files"]:
            path = os.path.join(root, entry["file"])
            if lazy:
                shard = LazyShard(
                    _shard_loader(path, epoch, entry["checksum"]), entry["triples"]
                )
            else:
                # eager loads get a plain Shard: no property indirection on
                # the hot index paths afterwards
                shard = Shard()
                columns = read_shard_columns(
                    path, expected_epoch=epoch, expected_checksum=entry["checksum"]
                )
                _fill_indexes(shard.spo, shard.pos, shard.osp, columns)
                shard.size = entry["triples"]
                # the snapshot columns ARE the sorted run: seed the shard's
                # columnar cache so the first batch scan copies nothing
                shard._columns = columns
            shards.append(shard)
        graph._shards = tuple(shards)
    else:
        graph = Graph(identifier=manifest["identifier"])
        graph._dict = term_dict
        entry = manifest["shard_files"][0]
        _fill_indexes(
            graph._spo,
            graph._pos,
            graph._osp,
            read_shard_columns(
                os.path.join(root, entry["file"]),
                expected_epoch=epoch,
                expected_checksum=entry["checksum"],
            ),
        )
    graph._size = manifest["size"]
    graph._generation = manifest["generation"]

    if verify:
        digest = content_digest(graph)
        if digest != manifest["digest"]:
            raise DurabilityError(
                f"snapshot digest {digest} does not match manifest "
                f"digest {manifest['digest']} (store {root})"
            )

    applied, reason = replay_wal(graph, root, manifest)
    if reason is not None:
        # torn tail: drop the partial record so future appends are clean
        _truncate_torn_tail(root, manifest)
    if obs is not None:
        obs.event("durability.wal_replay", applied=applied, reason=reason)
        obs.note(
            epoch=epoch,
            shards=len(manifest["shard_files"]),
            triples=manifest["size"],
            lazy=bool(lazy),
            verified=bool(verify),
        )
    return graph


def _shard_loader(path: str, epoch: int, checksum: int) -> Callable[[], Tuple]:
    def load():
        return read_shard_columns(
            path, expected_epoch=epoch, expected_checksum=checksum
        )

    return load


def _truncate_torn_tail(root: str, manifest: Dict) -> None:
    path = os.path.join(root, manifest["wal"]["file"])
    try:
        _, valid_end, reason = read_wal_records(path, manifest["wal"]["offset"])
        if reason is not None:
            with open(path, "r+b") as handle:
                handle.truncate(valid_end)
    except OSError:  # pragma: no cover - truncation is best-effort
        pass
