"""A store persists as one record file, replaced whole on every flush.

The file is the durability layer's record framing around one
``[collection, document]`` record per document and a final count record,
installed by its atomic write.  A reopened store is the whole previous
flush or the whole new one, and a damaged file is refused with
:class:`PersistenceError`.
"""

import math
import os

import pytest

from repro.core import HboldStorage, build_cluster_schema
from repro.core.models import ClassIndex, EndpointIndexes, LinkIndex, SchemaSummary
from repro.docstore import STORE_FILE, DocumentStore, PersistenceError
from repro.rdf.durability import CrashInjector, CrashPoint, atomic_write
from repro.rdf.durability.format import HEADER, dumps, pack_record

NS = "http://x.example.org/"
A, B = "http://a.example.org/sparql", "http://b.example.org/sparql"
NAMES = ("endpoints", "indexes", "summaries", "clusters")


def _save(storage, url, classes, **fields):
    """Index *url* as a dataset of *classes* chained classes: its record
    and its three artifacts."""
    iris = [f"{NS}C{k}" for k in range(classes)]
    indexes = EndpointIndexes(
        url, 10 * classes, [ClassIndex(iri, 10 + k) for k, iri in enumerate(iris)],
        [LinkIndex(a, NS + "p", b, 3) for a, b in zip(iris, iris[1:])],
    )
    summary = SchemaSummary.from_indexes(indexes)
    storage.upsert_endpoint(url, **fields)
    storage.save_indexes(indexes)
    storage.save_summary(summary)
    storage.save_cluster_schema(build_cluster_schema(summary))


def _state(storage):
    return {name: getattr(storage, name).find({}) for name in NAMES}


def _flushed_then_changed(root):
    """A flushed store, then a change to all four collections, unflushed;
    returns (storage, state on disk, state in memory)."""
    storage = HboldStorage(DocumentStore(root))
    _save(storage, A, 3, status="listed")
    storage.flush()
    before = _state(storage)
    _save(storage, A, 4, status="indexed")
    _save(storage, B, 2)
    return storage, before, _state(storage)


class TestRoundTrip:
    def test_flush_and_reopen(self, tmp_path):
        root = str(tmp_path / "data")
        storage, _, state = _flushed_then_changed(root)
        storage.flush()
        reopened = HboldStorage(DocumentStore(root))
        assert _state(reopened) == state
        assert [d["_id"] for d in reopened.endpoints.find()] == [A, B]
        assert reopened.load_summary(B).to_doc() == storage.load_summary(B).to_doc()
        assert os.listdir(root) == [STORE_FILE]

    def test_a_reopened_store_takes_new_documents(self, tmp_path):
        root = str(tmp_path / "data")
        storage = HboldStorage(DocumentStore(root))
        _save(storage, A, 2)
        storage.flush()
        reopened = HboldStorage(DocumentStore(root))
        _save(reopened, B, 2)
        reopened.flush()
        assert HboldStorage(DocumentStore(root)).endpoint_count() == 2

    def test_missing_dir_is_an_empty_store(self, tmp_path):
        store = DocumentStore(persist_dir=str(tmp_path / "nothing-here"))
        assert len(store.collection("endpoints")) == 0
        assert not os.path.exists(tmp_path / "nothing-here")

    def test_flush_creates_the_dir(self, tmp_path):
        root = str(tmp_path / "a" / "b")
        store = DocumentStore(root)
        store.flush()
        assert os.listdir(root) == [STORE_FILE]
        assert len(DocumentStore(root).collection("endpoints")) == 0

    def test_flush_without_dir_is_noop(self):
        DocumentStore().flush()  # must not raise

    def test_the_file_is_framed_records_and_a_count(self, tmp_path):
        root = str(tmp_path / "data")
        store = DocumentStore(root)
        store.collection("c").put("k", {"n": 1})
        store.collection("d").put("j", {})
        store.flush()
        with open(os.path.join(root, STORE_FILE), "rb") as handle:
            assert handle.read() == b"".join([
                pack_record(dumps(["c", {"_id": "k", "n": 1}])),
                pack_record(dumps(["d", {"_id": "j"}])),
                pack_record(dumps(2)),
            ])


    def test_the_same_documents_write_the_same_bytes(self, tmp_path):
        """A flush depends only on what the collections hold, so a reopened
        store flushes the file it was read from, byte for byte."""
        files = []
        for name in ("first", "second"):
            root = str(tmp_path / name)
            storage, _, _ = _flushed_then_changed(root)
            storage.flush()
            HboldStorage(DocumentStore(root)).flush()
            with open(os.path.join(root, STORE_FILE), "rb") as handle:
                files.append(handle.read())
        assert files[0] == files[1]

    def test_an_empty_collection_leaves_no_record(self, tmp_path):
        root = str(tmp_path / "data")
        store = DocumentStore(root)
        store.collection("empty")
        store.collection("c").put("k", {})
        store.flush()
        with open(os.path.join(root, STORE_FILE), "rb") as handle:
            assert handle.read() == pack_record(dumps(["c", {"_id": "k"}])) + pack_record(dumps(1))


VALUES = [
    ("empty-string", ""),
    ("unicode", "é 漢 🙂"),
    ("control-characters", "\x00\n\t\"\\"),
    ("zero", 0),
    ("negative", -1),
    ("int64-overflow", 2 ** 63),
    ("huge-int", 10 ** 30),
    ("half", 0.5),
    ("negative-zero", -0.0),
    ("largest-float", 1.7976931348623157e308),
    ("smallest-subnormal", 5e-324),
    ("infinity", float("inf")),
    ("negative-infinity", float("-inf")),
    ("true", True),
    ("false", False),
    ("none", None),
    ("empty-list", []),
    ("empty-dict", {}),
    ("nested-lists", [1, [2, [3, []]]]),
    ("nested-dicts", {"a": {"b": {"c": {}}}}),
    ("mixed-list", [1, "a", None, True, 1.5, {"k": [False]}]),
]


@pytest.mark.parametrize("value", [value for _, value in VALUES], ids=[name for name, _ in VALUES])
def test_a_value_reopens_as_itself(tmp_path, value):
    """What a document holds comes back equal and of the same type: a
    bool stays a bool, an int an int, a float a float (its sign too)."""

    def typed(item):
        if isinstance(item, float):
            return ("float", math.copysign(1.0, item), item)
        if isinstance(item, dict):
            return {key: typed(inner) for key, inner in item.items()}
        if isinstance(item, list):
            return [typed(inner) for inner in item]
        return (type(item).__name__, item)

    root = str(tmp_path / "data")
    store = DocumentStore(root)
    store.collection("c").put("k", {"v": value})
    store.flush()
    reopened = DocumentStore(root).collection("c").get("k")
    assert typed(reopened) == typed({"_id": "k", "v": value})


class TestAtomicFlush:
    """A flush is one ``atomic_write``: its crash boundaries are the only
    instants a crash can land in, and each leaves one whole flush."""

    def _flush(self, monkeypatch, storage, crash_at):
        injector = CrashInjector(crash_at=crash_at)
        with monkeypatch.context() as patch:
            patch.setattr(
                "repro.docstore.database.atomic_write",
                lambda path, chunks, _none, op: atomic_write(path, chunks, injector, op),
            )
            try:
                storage.flush()
            except CrashPoint:
                pass
        return injector

    def test_every_boundary_leaves_one_whole_flush(self, tmp_path, monkeypatch):
        census = self._flush(monkeypatch, _flushed_then_changed(str(tmp_path / "dry"))[0], None)
        ops = [op for _, op in census.trace]
        assert ops == [f"docstore-write:{step}" for step in ("before", "partial", "staged", "after")]
        assert os.listdir(tmp_path / "dry") == [STORE_FILE]
        for crash_at, op in census.trace:
            root = str(tmp_path / f"crash{crash_at}")
            storage, before, after = _flushed_then_changed(root)
            assert self._flush(monkeypatch, storage, crash_at).sequence == crash_at + 1
            reopened = HboldStorage(DocumentStore(root))
            assert _state(reopened) == (after if op.endswith(":after") else before), op
            # the next completed flush leaves the file and nothing else
            reopened.flush()
            assert os.listdir(root) == [STORE_FILE], op
            assert _state(HboldStorage(DocumentStore(root))) == _state(reopened)

    def test_a_failed_install_leaves_the_previous_flush_whole(self, tmp_path, monkeypatch):
        """The store is replaced by one ``os.replace``: failing the second
        one a flush would make cannot leave a mix of two flushes."""
        root = str(tmp_path / "data")
        storage, before, after = _flushed_then_changed(root)
        real_replace, installs = os.replace, []

        def replace(source, target):
            installs.append(target)
            if len(installs) == 2:
                raise OSError("no space left on device")
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", replace)
        try:
            storage.flush()
        except OSError:
            pass
        monkeypatch.undo()
        assert _state(HboldStorage(DocumentStore(root))) in (before, after)


class TestHostileFile:
    @pytest.fixture()
    def written(self, tmp_path):
        root = str(tmp_path / "data")
        store = DocumentStore(root)
        store.collection("endpoints").put(A, {"url": A, "status": "indexed"})
        store.collection("endpoints").put(B, {"url": B, "status": "listed"})
        store.collection("summaries").put(A, {"nodes": [{"iri": NS + "C0", "n": 1.5}]})
        store.flush()
        path = os.path.join(root, STORE_FILE)
        with open(path, "rb") as handle:
            return root, path, handle.read()

    @staticmethod
    def _refused(root, path, data):
        with open(path, "wb") as handle:
            handle.write(data)
        with pytest.raises(PersistenceError) as raised:
            DocumentStore(root)
        assert path in str(raised.value)

    def test_every_truncation_is_refused(self, written):
        root, path, data = written
        boundaries, offset = [], 0
        while offset < len(data):
            boundaries.append(offset)
            offset += HEADER.size + HEADER.unpack_from(data, offset)[0]
        assert len(boundaries) == 4  # three documents and the count
        for cut in range(len(data)):  # the boundaries among them
            self._refused(root, path, data[:cut])

    def test_every_bit_flip_is_refused(self, written):
        root, path, data = written
        for position in range(len(data)):
            for bit in range(8):
                damaged = bytearray(data)
                damaged[position] ^= 1 << bit
                self._refused(root, path, bytes(damaged))

    def test_a_count_that_disagrees_is_refused(self, written):
        root, path, data = written
        body = data[: -len(pack_record(dumps(3)))]
        for count in (dumps(2), dumps(4), dumps("3"), dumps([3])):
            self._refused(root, path, body + pack_record(count))

    def test_a_record_of_the_wrong_shape_is_refused(self, written):
        root, path, _ = written
        for record in (dumps({"c": {}}), dumps(["c"]), dumps(["c", []]), dumps([1, {}]),
                       dumps(["c", {"_id": 7}]), dumps(["c", {"_id": "k", "$x": 1}]),
                       b"\xff not json"):
            self._refused(root, path, pack_record(record) + pack_record(dumps(1)))
        self._refused(root, path, pack_record(dumps(0)) + pack_record(dumps(1)))

    @staticmethod
    def _starts(data):
        starts, offset = [], 0
        while offset < len(data):
            starts.append(offset)
            offset += HEADER.size + HEADER.unpack_from(data, offset)[0]
        return starts

    @pytest.mark.parametrize("record", range(4))
    @pytest.mark.parametrize(
        "byte, mask, fault",
        [(0, 0x01, "bad-checksum"), (3, 0x80, "torn-payload"),
         (4, 0x01, "bad-checksum"), (HEADER.size, 0x01, "bad-checksum")],
        ids=["length-shortened", "length-past-the-end", "checksum", "payload"],
    )
    def test_damage_names_its_record(self, written, record, byte, mask, fault):
        root, path, data = written
        start = self._starts(data)[record]
        damaged = bytearray(data)
        damaged[start + byte] ^= mask
        with open(path, "wb") as handle:
            handle.write(bytes(damaged))
        with pytest.raises(PersistenceError) as raised:
            DocumentStore(root)
        assert str(raised.value) == f"{path}: record {record} at byte {start}: {fault}"

    @pytest.mark.parametrize("record", range(4))
    def test_a_cut_on_a_record_boundary_is_short_of_its_count(self, written, record):
        """The file ends after whole records, so only the count record
        tells it is short: the last record left must be that count."""
        root, path, data = written
        with open(path, "wb") as handle:
            handle.write(data[: self._starts(data)[record]])
        with pytest.raises(PersistenceError) as raised:
            DocumentStore(root)
        if record == 0:
            assert str(raised.value) == f"{path}: no count record"
        else:
            assert str(raised.value).startswith(
                f"{path}: record {record - 1}: the count record should say {record - 1}, not [")

    def test_the_error_names_the_record(self, written):
        root, path, data = written
        damaged = bytearray(data)
        damaged[-1] ^= 1  # inside the count record, the fourth
        with pytest.raises(PersistenceError, match=r"documents\.rec: record 3 at byte \d+: bad-checksum"):
            with open(path, "wb") as handle:
                handle.write(bytes(damaged))
            DocumentStore(root)
