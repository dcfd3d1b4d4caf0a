"""Durable records: one encoding, one atomic writer, one checksummed log.

Every store in the repository persists through this module: campaign
results, service verdicts, modular summaries, fuzz corpora, checkpoints
and the status files beside them.  :func:`atomic_write` replaces a whole
file; :class:`ChecksummedLog` appends checksummed, schema-stamped JSONL
records in O(1) and loads them corruption-tolerantly.

A crash in the middle of an append can leave a torn last line.  The next
append starts on a fresh line, and ``load`` rejects the torn one as
truncated: a record is either intact and checksummed or never trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

#: The record field that carries :func:`checksum`.
CHECKSUM_FIELD = "sha256"


def canonical(obj: object) -> str:
    """Compact, key-sorted JSON: equal values encode to equal text."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def checksum(record: dict) -> str:
    """SHA-256 over the record's canonical JSON (checksum field excluded)."""
    body = {k: v for k, v in record.items() if k != CHECKSUM_FIELD}
    return hashlib.sha256(canonical(body).encode("utf-8")).hexdigest()


def _fsync_dir(directory: str) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: str, data: Union[str, bytes]) -> None:
    """Replace ``path`` with ``data`` (str is written as UTF-8): tmp file,
    fsync, ``os.replace``, then fsync of the directory so the rename itself
    survives power loss.  A crash leaves the old file or the new one."""
    directory = os.path.dirname(path) or "."
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(directory)


@dataclass
class Reject:
    """One log line :meth:`ChecksummedLog.load` refused to trust."""

    line_no: int
    reason: str
    #: The parsed line, when it was legible JSON at all.
    record: Optional[dict] = None


class ChecksummedLog:
    """Append-only JSONL of records stamped with ``schema`` and a checksum.

    A line is trusted only if it parses, its checksum matches its body,
    and its ``schema`` equals this log's; anything else is a
    :class:`Reject`.  Later lines for the same logical key are the
    caller's business (every store here lets later records win).
    """

    def __init__(self, path: str, schema: object):
        self.path = path
        self.schema = schema

    def seal(self, record: dict) -> str:
        """The line that stores ``record`` (schema stamped if absent)."""
        sealed = dict(record)
        sealed.setdefault("schema", self.schema)
        sealed[CHECKSUM_FIELD] = checksum(sealed)
        return canonical(sealed)

    def verify(self, record: dict) -> Optional[str]:
        """Why a parsed line cannot be trusted, or ``None`` if it can."""
        stored = record.get(CHECKSUM_FIELD)
        if stored is None:
            return "missing checksum"
        if checksum(record) != stored:
            return "checksum mismatch — corrupted record"
        if record.get("schema") != self.schema:
            return (f"schema {record.get('schema')!r} != {self.schema!r} "
                    "— stale record")
        return None

    def load(self) -> Tuple[List[dict], List[Reject]]:
        """Every trusted record in file order, plus every rejected line."""
        records: List[dict] = []
        rejects: List[Reject] = []
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return records, rejects
        for line_no, line in enumerate(data.split(b"\n"), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:   # bad JSON or bad UTF-8
                rejects.append(Reject(line_no, f"unparseable JSON ({exc}) "
                                               "— truncated mid-write?"))
                continue
            if not isinstance(record, dict):
                rejects.append(Reject(line_no, "record is not an object"))
                continue
            reason = self.verify(record)
            if reason is None:
                records.append(record)
            else:
                rejects.append(Reject(line_no, reason, record))
        return records, rejects

    def append(self, *records: dict) -> None:
        """Durably append ``records``: one ``O_APPEND`` write, one fsync.

        A torn last line (no trailing newline) gets a newline first, so
        the new records land on their own lines and ``load`` reports the
        torn one.  Creating the file also fsyncs its directory.
        """
        data = "".join(self.seal(r) + "\n" for r in records).encode("utf-8")
        created = not os.path.exists(self.path)
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                data = b"\n" + data
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
        finally:
            os.close(fd)
        if created:
            _fsync_dir(os.path.dirname(self.path) or ".")

    def rewrite(self, records: Iterable[dict]) -> None:
        """Atomically replace the log with exactly ``records`` (compaction)."""
        atomic_write(self.path,
                     "".join(self.seal(r) + "\n" for r in records))
