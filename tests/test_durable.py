"""Durable records: directory fsync, in-place appends, torn-tail healing."""

import json
import os
import stat
import subprocess
import sys

import pytest

from repro.analysis.modular import SummaryCache
from repro.campaign import ResultStore
from repro.durable import ChecksummedLog, atomic_write, checksum
from repro.service.cache import VerdictCache

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def test_atomic_write_fsyncs_the_directory_after_the_replace(
        tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        events.append("fsync-" + kind)
        real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    path = str(tmp_path / "a.json")
    atomic_write(path, "{}")
    assert events == ["fsync-file", "replace", "fsync-dir"]
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == "{}"


def test_log_load_names_every_reject_reason(tmp_path):
    log = ChecksummedLog(str(tmp_path / "log.jsonl"), schema=2)
    log.append({"n": 1})
    stale = {"n": 2, "schema": 1}
    stale["sha256"] = checksum(stale)
    forged = {"n": 3, "schema": 2, "sha256": "0" * 64}
    with open(log.path, "ab") as handle:
        handle.write(json.dumps(stale).encode() + b"\n")
        handle.write(json.dumps(forged).encode() + b"\n")
        handle.write(b"[1, 2]\n")
        handle.write(b'{"n": "\xff"}\n')             # flipped into bad UTF-8
        handle.write(b'{"n": 4, "sch')
    records, rejects = log.load()
    assert [r["n"] for r in records] == [1]
    reasons = {reject.line_no: reject.reason for reject in rejects}
    assert "stale" in reasons[2] and "checksum" in reasons[3]
    assert "not an object" in reasons[4]
    assert "unparseable" in reasons[5] and "truncated" in reasons[6]
    assert rejects[0].record == stale and rejects[4].record is None


def test_concurrent_appenders_lose_no_record(tmp_path):
    # More writer processes than cores, each appending one record at a
    # time to the same log: every record must survive, none merged.
    path = str(tmp_path / "shared.jsonl")
    script = ("import sys\n"
              "from repro.durable import ChecksummedLog\n"
              "log = ChecksummedLog(sys.argv[1], schema=1)\n"
              "for n in range(40):\n"
              "    log.append({'writer': int(sys.argv[2]), 'n': n})\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    writers = [subprocess.Popen([sys.executable, "-c", script, path,
                                 str(w)], env=env) for w in range(6)]
    for writer in writers:
        assert writer.wait(timeout=60) == 0
    records, rejects = ChecksummedLog(path, schema=1).load()
    assert rejects == []
    assert sorted((r["writer"], r["n"]) for r in records) == [
        (w, n) for w in range(6) for n in range(40)]


# -- every store appends in place through the same log -----------------------


class _Results:
    def __init__(self, directory):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.path = ResultStore(directory).results_path

    def add(self, key):
        ResultStore(self.directory).append({"cell_id": key, "status": "ok"})

    def reload(self):
        records, corrupt = ResultStore(self.directory).load()
        return {r["cell_id"] for r in records}, len(corrupt)


class _Verdicts:
    def __init__(self, directory):
        self.cache = VerdictCache(directory)
        self.directory, self.path = directory, self.cache.path

    def add(self, key):
        self.cache.put(key, {"verdicts": {"none": True}})

    def reload(self):
        cache = VerdictCache(self.directory)
        return {k for k in ("a", "b", "c") if k in cache}, cache.rejected


class _Summaries:
    def __init__(self, directory):
        self.path = os.path.join(directory, "summaries.jsonl")
        self.cache = SummaryCache(self.path)

    def add(self, key):
        self.cache.put(key, {"payload": key})
        self.cache.flush()

    def reload(self):
        cache = SummaryCache(self.path)
        return ({k for k in ("a", "b", "c") if cache.get(k) is not None},
                cache.rejected)


@pytest.mark.parametrize("store_type", [_Results, _Verdicts, _Summaries],
                         ids=["ResultStore", "VerdictCache", "SummaryCache"])
def test_store_appends_in_place_and_heals_a_torn_tail(tmp_path, store_type):
    store = store_type(str(tmp_path / "store"))
    store.add("a")
    inode = os.stat(store.path).st_ino
    with open(store.path, "rb") as handle:
        first = handle.read()
    store.add("b")
    assert os.stat(store.path).st_ino == inode
    with open(store.path, "rb") as handle:
        before_tear = handle.read()
    assert before_tear.startswith(first) and len(before_tear) > len(first)

    with open(store.path, "ab") as handle:
        handle.write(b'{"key": "torn", "sch')     # crash mid-append
    store.add("c")
    with open(store.path, "rb") as handle:
        lines = handle.read().split(b"\n")
    assert lines[-1] == b""
    assert lines[-3] == b'{"key": "torn", "sch'
    assert json.loads(lines[-2])["sha256"]         # c is on its own line
    assert os.stat(store.path).st_ino == inode

    keys, rejected = store.reload()
    assert keys == {"a", "b", "c"}
    assert rejected == 1
