"""``atomic_write``: temp file, fsync, one ``os.replace``.

The durability layer installs every snapshot and manifest with it, and the
document store its one store file.  A reader of the target sees the old
bytes or the new ones, never a mix; a crash leaves at most a stray temp
file beside them; a failure that is not a crash removes the temp file.
"""

from __future__ import annotations

import os

import pytest

from repro.rdf.durability import CrashInjector, CrashPoint, atomic_write

OLD, NEW = b"the previous contents", b"the new contents, in two chunks"
STEPS = ("before", "partial", "staged", "after")


@pytest.fixture()
def target(tmp_path):
    path = tmp_path / "file.rec"
    path.write_bytes(OLD)
    return path


def _chunks():
    yield NEW[:10]
    yield NEW[10:]


def _temp_files(directory):
    return sorted(name for name in os.listdir(directory) if name.endswith(".tmp"))


def test_writes_the_chunks_in_order(tmp_path):
    path = tmp_path / "fresh.rec"
    atomic_write(str(path), iter([b"ab", b"", b"cd", b"e"]), None, "w")
    assert path.read_bytes() == b"abcde"
    assert os.listdir(tmp_path) == ["fresh.rec"]


def test_replaces_an_existing_file(target):
    atomic_write(str(target), _chunks(), None, "w")
    assert target.read_bytes() == NEW
    assert os.listdir(target.parent) == [target.name]


def test_no_chunks_write_an_empty_file(target):
    atomic_write(str(target), [], None, "w")
    assert target.read_bytes() == b""


def test_a_bare_name_is_written_in_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    atomic_write("bare.rec", [NEW], None, "w")
    assert (tmp_path / "bare.rec").read_bytes() == NEW
    assert _temp_files(tmp_path) == []


def test_the_boundaries_are_named_after_the_op(target):
    injector = CrashInjector()
    atomic_write(str(target), _chunks(), injector, "docstore-write")
    assert injector.trace == [(k, f"docstore-write:{step}") for k, step in enumerate(STEPS)]


@pytest.mark.parametrize("crash_at, step", list(enumerate(STEPS)), ids=STEPS)
def test_a_crash_leaves_the_old_file_or_the_new_one(target, crash_at, step):
    with pytest.raises(CrashPoint):
        atomic_write(str(target), _chunks(), CrashInjector(crash_at=crash_at), "w")
    assert target.read_bytes() == (NEW if step == "after" else OLD)
    temps = _temp_files(target.parent)
    if step in ("before", "after"):
        assert temps == []
    else:
        # a crash does not clean up: the temp holds what had been written
        [temp] = temps
        assert temp.startswith(f".{target.name}.")
        written = (target.parent / temp).read_bytes()
        assert written == (NEW[:5] if step == "partial" else NEW)


def test_the_data_is_fsynced_before_the_install(target, monkeypatch):
    calls = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        calls.append("fsync")
        fsync(fd)

    def recording_replace(source, destination):
        calls.append("replace")
        replace(source, destination)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    atomic_write(str(target), _chunks(), None, "w")
    assert calls == ["fsync", "replace"]


@pytest.mark.parametrize("call", ["fsync", "replace"])
def test_a_failed_call_keeps_the_old_file_and_removes_the_temp(target, monkeypatch, call):
    def failing(*args):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, call, failing)
    with pytest.raises(OSError, match="no space left"):
        atomic_write(str(target), _chunks(), None, "w")
    monkeypatch.undo()
    assert target.read_bytes() == OLD
    assert _temp_files(target.parent) == []
