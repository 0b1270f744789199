"""Save / load / recovery orchestration for durable graphs.

The durable state of a store is ``(manifest, WAL prefix)``:

* :func:`save_graph` commits the graph under a fresh *epoch* and writes
  what changed since the commit the directory already holds: a columnar
  file for each shard written to since (a plain :class:`Graph` is one
  pseudo-shard, always rewritten) and one term-dictionary segment with the
  rows that moved; untouched shard files and the dictionary's earlier
  segments are named again, not rewritten.  It then creates the epoch's
  empty WAL segment, atomically swaps the manifest and prunes every file
  the new manifest does not name.  Until the swap, every new file is
  invisible garbage and the previous (manifest, WAL) pair stays fully
  intact, which is the whole crash-consistency argument: a crash anywhere
  leaves exactly one valid commit pointer on disk.
* :class:`Journal` (via :func:`attach_journal`) hooks the graph's mutation
  paths so every *content-changing* term-level mutation appends a WAL
  record **before** it applies in memory; no-op writes (duplicate adds,
  absent removes) log nothing, mirroring the ``Graph.generation`` rule.
* :func:`load_graph` reads the manifest, restores the dictionary, loads
  shards eagerly or lazily (:class:`LazyShard` defers building a shard's
  indexes until first touch), optionally verifies each shard's content
  digest (a lazy shard's when it hydrates), then replays the WAL tail --
  truncating a torn final record, failing loudly on mid-stream corruption.

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

from .._leaf import IdIndex, leaf_add
from ..dictionary import TermDict
from ..graph import Graph
from ..sharding import Shard, ShardedTripleStore, sorted_columns
from ..terms import _unchecked_triple
from .crash import CrashInjector, boundary
from .manifest import MANIFEST_VERSION, ManifestError, read_manifest, write_manifest
from .paths import orphan_files, shard_file, termdict_file, termdict_segments, wal_file
from .snapshot import (
    SnapshotError,
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

_DIGEST_PREFIX = "sha256-sum:"
_DIGEST_MODULUS = 1 << 256


def content_digest(graph: Graph) -> str:
    """The store's content as a set hash: the SHA-256 of each triple's N3
    line, summed modulo 2**256.

    Canonical with respect to everything incidental: dictionary ID
    assignment, shard count, insertion order, and free-list history all
    wash out, so two stores digest equal iff they hold the same triples.
    A sum needs no global order, so it is also the sum of the shards' own
    digests -- the value each manifest ``shard_files`` entry records, which
    is what lets a commit leave an unwritten shard alone.

    Always recomputed from the live indexes; no stored value is read.  It
    is a check against our own bugs and torn state, not an authenticator:
    additive hashes yield to a generalized-birthday search, the files carry
    CRC32, and whoever can write them can write the manifest too.
    """
    n3 = _N3Memo(graph.dictionary)
    indexes = [shard.spo for shard in graph.shards] if graph.is_sharded else [graph._spo]
    return _format_digest(sum(_index_digest(spo, n3) for spo in indexes))


class _N3Memo(dict):
    """``term id -> N3 bytes``, rendered once per distinct term per use."""

    __slots__ = ("_decode",)

    def __init__(self, term_dict: TermDict):
        self._decode = term_dict.decode

    def __missing__(self, term_id: int) -> bytes:
        text = self[term_id] = self._decode(term_id).n3().encode("utf-8")
        return text


def _index_digest(spo: IdIndex, n3: _N3Memo) -> int:
    """Unreduced set hash of one SPO index, walked in ID space."""
    sha256 = hashlib.sha256
    from_bytes = int.from_bytes
    total = 0
    for s, by_predicate in spo.items():
        subject = n3[s] + b" "
        for p, objects in by_predicate.items():
            line = subject + n3[p] + b" "
            for o in objects:
                total += from_bytes(sha256(line + n3[o]).digest(), "big")
    return total


def _format_digest(value: int) -> str:
    return f"{_DIGEST_PREFIX}{value % _DIGEST_MODULUS:064x}"


def _parse_digest(text: str) -> int:
    if text.startswith(_DIGEST_PREFIX):
        try:
            return int(text[len(_DIGEST_PREFIX):], 16)
        except ValueError:
            pass
    raise DurabilityError(f"unreadable content digest {text!r}")


# -- save --------------------------------------------------------------------

def save_graph(
    graph: Graph, root: str, injector: Optional[CrashInjector] = None, obs=None
) -> Dict:
    """Commit *graph* under *root*, writing what changed since the commit
    *root* already holds (everything, if it holds none of this graph's).

    Write order is the durability contract: (1) a snapshot file for every
    shard without a committed one and a term-dictionary segment, all named
    for a fresh epoch, (2) the epoch's empty WAL segment, (3) the manifest
    swap (the commit point), (4) prune of the files the new manifest no
    longer names.  A crash anywhere before (3) leaves the previous commit
    fully intact; a crash after (3) leaves the new one plus harmless
    orphans.

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
        committed: Optional[Dict] = read_manifest(root)
    except ManifestError:
        committed = None
    epoch = committed["epoch"] + 1 if committed else 1
    committed_files = committed["shard_files"] if committed else []
    term_dict = graph.dictionary
    # A delta segment is only right on top of the chain this very table
    # descends from; any other committed state (none, another store's, a
    # commit made by a copy that went its own way) gets a full segment.
    # So does a chain whose deltas together weigh as much as its base.
    chain = committed["termdict"] if committed else None
    ours = chain is not None and term_dict.snapshot == chain
    moved: Optional[set] = (
        set()
        if ours and sum(delta["bytes"] for delta in chain["deltas"]) < chain["bytes"]
        else None
    )

    n3 = _N3Memo(term_dict)
    # a plain Graph is one pseudo-shard that remembers nothing
    shards = graph.shards if graph.is_sharded else (None,)
    shard_entries: List[Dict] = []
    for index, shard in enumerate(shards):
        old = committed_files[index] if index < len(committed_files) else None
        if shard is None:
            spo, columns = graph._spo, sorted_columns(graph.triples_ids())
        elif shard._snapshot is not None and shard._snapshot == old:
            # Carried only if it IS the committed entry: a file of another
            # root, or of a save that died before its swap, never
            # qualifies.  The shard is not touched (it may be cold).
            shard_entries.append(old)
            continue
        else:
            spo, columns = shard.spo, shard.columns()
        if moved is not None:
            moved = _moved_ids(root, old, columns, moved)
        name = shard_file(index, epoch)
        triples, checksum = write_shard_snapshot(
            os.path.join(root, name), columns, epoch, injector
        )
        shard_entries.append({
            "file": name,
            "epoch": epoch,
            "triples": triples,
            "checksum": checksum,
            "digest": _format_digest(_index_digest(spo, n3)),
        })

    if ours and not any(entry["epoch"] == epoch for entry in shard_entries):
        termdict = chain  # no shard written: no triple came or went
    else:
        termdict = _save_termdict(term_dict, root, epoch, injector, chain, moved)

    wal_name = wal_file(epoch)
    boundary(injector, "wal-create:before")
    with open(os.path.join(root, wal_name), "wb"):
        pass
    boundary(injector, "wal-create:after")

    manifest = {
        "version": MANIFEST_VERSION,
        "identifier": graph.identifier,
        "sharded": bool(graph.is_sharded),
        "shards": len(shard_entries),
        "epoch": epoch,
        "generation": graph.generation,
        "size": len(graph),
        "digest": _format_digest(
            sum(_parse_digest(entry["digest"]) for entry in shard_entries)
        ),
        "termdict": termdict,
        "shard_files": shard_entries,
        "wal": {"file": wal_name, "offset": 0},
    }
    write_manifest(root, manifest, injector)
    # Only now do the files written above hold committed content.
    term_dict.committed_as(termdict)
    for shard, entry in zip(shards, shard_entries):
        if shard is not None:
            shard._snapshot = entry

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


def _moved_ids(root: str, old: Optional[Dict], columns: Tuple, moved: set) -> Optional[set]:
    """*moved* plus the term IDs of every triple a shard gained or lost.

    What changed is computed, not remembered: the shard's committed file
    *old* is on disk and its new run *columns* is in memory, and their
    symmetric difference is exactly the triples added or removed since the
    commit.  A term whose dictionary row moved occurs in one of them,
    unless its ID was recycled in between (``TermDict.recycled``).
    None when there is no readable committed file to diff against.
    """
    if old is None:
        return None
    try:
        before = read_shard_columns(
            os.path.join(root, old["file"]),
            expected_epoch=old["epoch"],
            expected_checksum=old["checksum"],
        )
    except SnapshotError:
        return None
    for row in set(zip(*before)).symmetric_difference(zip(*columns)):
        moved.update(row)
    return moved


def _save_termdict(
    term_dict: TermDict,
    root: str,
    epoch: int,
    injector: Optional[CrashInjector],
    chain: Optional[Dict],
    moved: Optional[set],
) -> Dict:
    """Write this commit's term-dictionary segment; return the manifest's
    ``termdict`` entry: *chain* plus a delta holding the rows of *moved*,
    or with *moved* None one full segment that replaces the chain.
    """
    if moved is not None:
        # the one kind of row no triple diff names: an ID that changed
        # hands under an unchanged ID row
        moved.update(term_dict.recycled)
    term_dict.epoch = epoch
    name = termdict_file(epoch)
    path = os.path.join(root, name)
    rows, checksum = write_termdict_snapshot(path, term_dict, injector, ids=moved)
    segment = {
        "file": name,
        "epoch": epoch,
        "rows": rows,
        "bytes": os.path.getsize(path),
        "checksum": checksum,
    }
    totals = {"terms": len(term_dict), "next_id": term_dict._next_id}
    if moved is None:
        return {**segment, "deltas": [], **totals}
    return {**chain, "deltas": chain["deltas"] + [segment], **totals}


# -- the journal (live WAL session) ------------------------------------------


class Journal:
    """The WAL session binding a live graph to its store directory.

    While attached (``graph._wal is self``) every content-changing
    mutation logs a record *before* it interns a term or touches an index
    -- see the hooks in ``Graph.add/remove/clear`` and both
    ``add_many_terms`` -- so an append that raises changes nothing.
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
    indexes from the cached columns instead of re-reading the file, and
    hands them to *verify* (if given) before the shard counts as hydrated:
    a shard that fails it raises on every touch.
    """

    __slots__ = ("_loader", "_verify")

    def __init__(
        self,
        loader: Callable[[], Tuple],
        size: int,
        verify: Optional[Callable[[IdIndex], None]] = None,
    ):
        self._loader = None
        super().__init__()
        self.size = size
        self._loader = loader
        self._verify = verify

    @property
    def hydrated(self) -> bool:
        return self._loader is None

    def _load_columns(self) -> Tuple:
        """The snapshot's sorted columns, cached on the shard."""
        cols = self._columns
        if cols is None:
            cols = self._columns = _check_rows(self._loader(), self.size)
        return cols

    def columns(self) -> Tuple:
        if self._loader is not None:
            return self._load_columns()
        return super().columns()

    def _hydrate(self) -> None:
        columns = self._load_columns()
        spo = Shard.spo.__get__(self)
        _fill_indexes(spo, Shard.pos.__get__(self), Shard.osp.__get__(self), columns)
        if self._verify is not None:
            self._verify(spo)
        self._loader = self._verify = None

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


def _check_rows(columns: Tuple, expected: int) -> Tuple:
    if len(columns[0]) != expected:
        raise DurabilityError(
            f"shard snapshot holds {len(columns[0])} rows, "
            f"manifest says {expected}"
        )
    return columns


def _fill_indexes(spo, pos, osp, columns) -> None:
    # Snapshot rows are sorted by (s, p, o), so the SPO index fills in
    # runs: reuse the (s) container across consecutive rows instead of
    # paying a dict probe per row.  POS/OSP rows arrive in scattered order
    # and keep the setdefault probes.
    s_col, p_col, o_col = columns
    prev_s = by_p = None
    pos_setdefault = pos.setdefault
    osp_setdefault = osp.setdefault
    for s, p, o in zip(s_col, p_col, o_col):
        if s != prev_s:
            by_p = spo[s] = {}
            prev_s = s
        leaf_add(by_p, p, o)
        leaf_add(pos_setdefault(p, {}), o, s)
        leaf_add(osp_setdefault(o, {}), s, p)


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
    applied, reason, _ = _replay_wal(graph, root, manifest)
    return applied, reason


def _replay_wal(graph: Graph, root: str, manifest: Dict) -> Tuple[int, Optional[str], int]:
    """:func:`replay_wal` plus the offset just past the last intact record."""
    path = os.path.join(root, manifest["wal"]["file"])
    ops, valid_end, reason = read_wal_records(path, manifest["wal"]["offset"])
    if reason == "bad-checksum":
        raise WalReplayError(
            f"WAL record checksum mismatch in {path} at offset {valid_end}"
        )
    return _apply_wal_ops(graph, ops), reason, valid_end


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
    * ``verify`` (default: the opposite of ``lazy``) recomputes each
      shard's content digest from its *loaded indexes* and compares it to
      the shard's manifest entry, and the entries' sum to the manifest's
      digest -- before replaying the WAL tail for an eager load, at
      hydration for a lazy shard (a :class:`DurabilityError` naming the
      shard, from whichever read touches it first).
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
    if lazy is None:
        lazy = bool(manifest["sharded"])
    if verify is None:
        verify = not lazy

    termdict = manifest["termdict"]
    term_dict = read_termdict_snapshot([
        (os.path.join(root, segment["file"]), segment["epoch"], segment["checksum"])
        for segment in termdict_segments(manifest)
    ])
    if len(term_dict) != termdict["terms"]:
        raise DurabilityError(
            f"termdict holds {len(term_dict)} terms, manifest says {termdict['terms']}"
        )
    term_dict.committed_as(termdict)

    entries = manifest["shard_files"]
    checks = _digest_checks(manifest, term_dict) if verify else [None] * len(entries)

    if manifest["sharded"]:
        graph = ShardedTripleStore(
            identifier=manifest.get("identifier"),
            shards=manifest["shards"],
            clock=clock,
        )
        shards = []
        for entry, check in zip(entries, checks):
            load = _shard_loader(os.path.join(root, entry["file"]), entry)
            if lazy:
                shard = LazyShard(load, entry["triples"], verify=check)
            else:
                # eager loads get a plain Shard: no property indirection on
                # the hot index paths afterwards
                shard = Shard()
                # the snapshot columns ARE the sorted run: seed the shard's
                # columnar cache so the first batch scan copies nothing
                columns = shard._columns = _check_rows(load(), entry["triples"])
                _fill_indexes(shard.spo, shard.pos, shard.osp, columns)
                shard.size = entry["triples"]
                if check is not None:
                    check(shard.spo)
            shard._snapshot = entry
            shards.append(shard)
        graph._shards = tuple(shards)
    else:
        graph = Graph(identifier=manifest.get("identifier"))
        entry = entries[0]
        load = _shard_loader(os.path.join(root, entry["file"]), entry)
        columns = _check_rows(load(), entry["triples"])
        _fill_indexes(graph._spo, graph._pos, graph._osp, columns)
        if checks[0] is not None:
            checks[0](graph._spo)
    graph._dict = term_dict
    graph._size = manifest["size"]
    graph._generation = manifest["generation"]
    del checks  # and with them, unless a cold shard holds one, the N3 memo

    applied, reason, valid_end = _replay_wal(graph, root, manifest)
    if reason is not None:
        # torn tail: drop the partial record so future appends are clean
        _truncate(os.path.join(root, manifest["wal"]["file"]), valid_end)
    if obs is not None:
        obs.event("durability.wal_replay", applied=applied, reason=reason)
        obs.note(
            epoch=manifest["epoch"],
            shards=len(entries),
            triples=manifest["size"],
            lazy=bool(lazy),
            verified=bool(verify),
        )
    return graph


def _shard_loader(path: str, entry: Dict) -> Callable[[], Tuple]:
    """Reads the shard file *entry* names, checked against the epoch and
    the checksum the entry records for it."""

    def load():
        return read_shard_columns(
            path, expected_epoch=entry["epoch"], expected_checksum=entry["checksum"]
        )

    return load


def _digest_checks(manifest: Dict, term_dict: TermDict) -> List[Callable[[IdIndex], None]]:
    """One check per shard file entry: it raises unless the SPO index filled
    from the entry's file digests to what the entry recorded when the file
    was written.  The entries themselves must add up to the manifest's."""
    entries = manifest["shard_files"]
    if _format_digest(
        sum(_parse_digest(entry["digest"]) for entry in entries)
    ) != manifest["digest"]:
        raise DurabilityError(
            f"shard digests do not add up to manifest digest {manifest['digest']}"
        )
    n3 = _N3Memo(term_dict)  # shared: most terms occur in more than one shard
    return [_digest_check(entry, n3) for entry in entries]


def _digest_check(entry: Dict, n3: _N3Memo) -> Callable[[IdIndex], None]:
    def check(spo: IdIndex) -> None:
        try:
            digest = _format_digest(_index_digest(spo, n3))
        except KeyError as exc:
            raise DurabilityError(
                f"shard snapshot {entry['file']} names term id {exc}, "
                f"which the term dictionary lacks"
            ) from None
        if digest != entry["digest"]:
            raise DurabilityError(
                f"shard snapshot {entry['file']} digests to {digest}, "
                f"its manifest entry says {entry['digest']}"
            )

    return check


def _truncate(path: str, size: int) -> None:
    try:
        with open(path, "r+b") as handle:
            handle.truncate(size)
    except OSError:  # pragma: no cover - truncation is best-effort
        pass
