"""Content-addressed replay store for LM API responses.

Every live response is recorded before use, keyed by a fingerprint of
the exact prompt plus sampling parameters, so any experiment can later
be re-run offline, byte for byte. The store is append-only; lookups are
exact.

A store is a directory holding one file, `entries.v3.log`, a sequence
of records. Each record is a fixed-width ASCII header line,

    <key> <request length> <completions length> <crc32 of key and body>\\n

(64 hex digits, two 10-digit decimals and 8 hex digits), then the body:
the request, exactly the bytes `fingerprint` hashes, followed by the
completions as compact UTF-8 JSON (`orjson`). JSON has no NaN or
infinity, so `record` refuses completions holding one (`ValueError`);
records an earlier version wrote with `NaN` or `Infinity` tokens still
read back.

The key (v3) is the sha256 of the request bytes
`orjson.dumps({"params": params, "prompt": prompt}, option=OPT_SORT_KEYS)`:
compact UTF-8 JSON with the keys sorted at every depth. orjson writes a
NaN or an infinity as `null`, which would give the request the key of
one holding `None`, so a non-finite number anywhere in the params
raises `ValueError`; a params key that is not a str, or a prompt that
is not valid UTF-8 (a lone surrogate), raises `TypeError`. Either is
raised before anything is read or written. `hashlib`, and with it
OpenSSL, is imported by the first key computed, not by importing the
module, as `orjson` and `fcntl` are by the store's first use.

Each `ReplayStore` keeps an index from key to record, built by reading
headers only. A lookup that hits reads the record's body with one
`os.pread`, checks its CRC and decodes the completions alone. A miss
first catches the index up with what other writers appended since; a
log that was replaced or shrank is indexed again from the start. A hit
reads the file the index was built from: after the log is replaced, a
store keeps serving the records of the old file until a miss indexes
the new one.

`record` holds an exclusive `fcntl.flock` on the log while it catches
up, skips a key the log already holds (the first write wins, across
threads and processes), truncates a torn tail and appends the record
in one `O_APPEND` write. Catching up takes the lock shared, so it never
sees a record half written. A torn tail is what a writer that died
mid-write leaves: readers do not see it, and the next writer removes
it. Any bytes after the last whole record that hold no whole record,
the zero-filled tail a power loss can leave for one, count as a torn
tail. No record is fsynced: a process crash can tear only the tail, a
power loss can lose or corrupt recent records, which a CRC mismatch
then shows (`CorruptEntry`). Damage followed by a whole record is not a
torn tail: the records before it still read, but a miss or a `record`
raises `CorruptEntry`, and `nlconcepts replay verify` reports it.
`nlconcepts replay repair` then rewrites the log with every record
that still holds its entry. A store used across `fork` reopens its log
in the child, so parent and child never share one lock. The directory
and its log are created by the first `record`, so reading a missing
store creates nothing.

This version reads only `entries.v3.log`. A store directory that holds
an earlier layout instead, a v2 log `entries.log` (keyed by the stdlib
`json.dumps(sort_keys=True)` of the request) or one `<key>.json` file
per entry, is refused (`UnmigratedStore`): a v2 header does not carry
its version, so read as v3 such a store would miss on every lookup.
`nlconcepts replay migrate` at commit 444a717 converts it. Such files
left beside an `entries.v3.log` are not read, and `replay verify`
reports each of them as a mismatch.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import weakref
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

LOG_NAME = "entries.v3.log"
HEADER_LEN = 96
_HEADER = re.compile(rb"([0-9a-f]{64}) ([0-9]{10}) ([0-9]{10}) ([0-9a-f]{8})\n")
# the earlier layouts, which are refused: the v2 log, or one entry per file
_V2_LOG_NAME = "entries.log"
_V2_ENTRY = re.compile(r"[0-9a-f]{64}\.json")


class ReplayMiss(KeyError):
    """No recorded response for a request key in a store."""

    def __init__(self, key: str, root):
        super().__init__(key, root)
        self.key = key
        self.root = root

    def __str__(self):
        return f"no recorded response for key {self.key} in replay store {self.root}"


class CorruptEntry(ValueError):
    """A recorded entry that cannot be read back, e.g. a flipped byte."""


class UnmigratedStore(ValueError):
    """A store directory in an earlier layout, which this version does not read."""


def _request_bytes(prompt: str, params: Dict) -> bytes:
    """The v3 request bytes: `orjson.dumps({"params": params, "prompt":
    prompt}, option=OPT_SORT_KEYS)`, built from the two parts so that
    only the short params are searched for a `null`."""
    import orjson  # loaded by the store's first use, not by importing the library

    encoded = orjson.dumps(params, option=orjson.OPT_SORT_KEYS)
    if b"null" in encoded and _non_finite(params):
        raise ValueError(
            f"request params hold a NaN or an infinity, which would be keyed as null: {params!r:.200}"
        )
    return b'{"params":%b,"prompt":%b}' % (encoded, orjson.dumps(prompt))


def _non_finite(value) -> bool:
    """Whether a float NaN or infinity is anywhere in a JSON value."""
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(map(_non_finite, value.values()))
    if isinstance(value, (list, tuple)):
        return any(map(_non_finite, value))
    return False


def _key(request: bytes) -> str:
    """The key of a request's bytes: their sha256, in hex."""
    import hashlib  # loaded by the first key computed, not by importing the library

    return hashlib.sha256(request).hexdigest()


def fingerprint(prompt: str, params: Dict) -> str:
    return _key(_request_bytes(prompt, params))


def _request_of(request: bytes) -> Tuple[str, Dict]:
    """The (prompt, params) a record's request bytes hold."""
    decoded = _decode(request)
    return decoded["prompt"], decoded["params"]


def _crc(key: str, body: bytes) -> int:
    return zlib.crc32(body, zlib.crc32(key.encode("ascii")))


def _encode(completions: List) -> bytes:
    """Completions as compact UTF-8 JSON. orjson writes a NaN or an
    infinity as null, so completions whose JSON holds a null must read
    back equal; a non-finite number raises ValueError."""
    import orjson  # loaded by the store's first use, not by importing the library

    data = orjson.dumps(completions)
    if b"null" in data and orjson.loads(data) != completions:
        raise ValueError(
            "completions do not read back as recorded; JSON has no NaN or infinity, "
            f"which would be stored as null: {completions!r:.200}"
        )
    return data


def _decode(data: bytes):
    """The JSON value of a record's bytes."""
    import orjson

    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        # the NaN and Infinity tokens of records the stdlib encoder wrote
        return json.loads(data)


def _problem(key: str, body: bytes, request_len: int, crc: int) -> Optional[str]:
    """Why a whole record does not hold the entry of its key, or why no
    lookup reaches it, or None. A record's request hashes to its key,
    yet is unreachable, when it is not the v3 encoding of its own prompt
    and params, as a v2 record is."""
    if _key(body[:request_len]) != key:
        return f"key {key} is not its request's"
    if _crc(key, body) != crc:
        return f"key {key} fails its CRC check"
    request = body[:request_len]
    try:
        prompt, params = _request_of(request)
    except (ValueError, KeyError, TypeError) as exc:
        return f"key {key} holds a request that does not decode: {exc!r}"
    try:
        _decode(body[request_len:])
    except ValueError as exc:
        return f"key {key} holds completions that do not decode: {exc}"
    try:
        reachable = _request_bytes(prompt, params) == request
    except (ValueError, TypeError):
        reachable = False
    if not reachable:
        return (
            f"key {key} holds a request that is not the v3 encoding of its prompt and params, "
            "so no lookup reaches it"
        )
    return None


def _records(fd: int, offset: int, size: int, log: str, advice: str):
    """Yield (offset, key, request length, completions length, crc) of
    each whole record from `offset` on in a log of `size` bytes, up to a
    torn tail. Bytes that are no whole record but are followed by one
    raise CorruptEntry, naming the log and ending with `advice`."""
    while offset + HEADER_LEN <= size:
        match = _HEADER.fullmatch(os.pread(fd, HEADER_LEN, offset))
        if match is None:
            break
        request_len, completions_len = int(match[2]), int(match[3])
        end = offset + HEADER_LEN + request_len + completions_len
        if end > size:
            break
        yield offset, match[1].decode("ascii"), request_len, completions_len, int(match[4], 16)
        offset = end
    if offset < size:
        tail = os.pread(fd, size - offset, offset)
        for match in _HEADER.finditer(tail):
            if match.end() + int(match[2]) + int(match[3]) <= len(tail):
                raise CorruptEntry(
                    f"replay log {log} is damaged at byte {offset}, before the whole record "
                    f"at byte {offset + match.start()}{advice}"
                )


@dataclass
class LogReport:
    """What `ReplayStore.verify` found in a log."""

    records: int = 0  # whole records
    duplicates: int = 0  # records of a key an earlier record holds; the first wins
    torn_bytes: int = 0  # bytes after the last whole record
    # records that fail their key or CRC, whose request or completions
    # do not decode, or whose request is not the v3 encoding of its
    # prompt and params, so no lookup reaches it; damage before a whole
    # record; and each file of an earlier layout beside the log
    mismatches: List[str] = field(default_factory=list)


class ReplayStore:
    """One append-only log of recorded requests, indexed in memory."""

    def __init__(self, root):
        self.root = Path(root)
        self._dir = os.fspath(self.root)
        self._log = os.path.join(self._dir, LOG_NAME)
        self._advice = (
            f"; see `nlconcepts replay verify --store {self.root}`, "
            f"then `nlconcepts replay repair --store {self.root}`"
        )
        self._reset()

    def _reset(self) -> None:
        self._pid = os.getpid()
        self._lock = threading.Lock()  # guards everything below
        # the open log, read-only until the first record; the index is
        # empty while it is None
        self._fd: Optional[int] = None
        self._writable = False
        self._closer = None  # closes self._fd when the store is collected
        self._file = None  # (st_dev, st_ino) of the open log
        # key -> (body offset, request length, completions length, crc)
        self._index: Dict[str, Tuple[int, int, int, int]] = {}
        self._size = 0  # end of the last whole record indexed

    def _check_fork(self) -> None:
        """Forget a descriptor and lock inherited across fork; the
        inherited descriptor shares its flock with the parent's."""
        if self._pid != os.getpid():
            if self._closer is not None:
                self._closer()  # the child's copy only
            self._reset()

    def close(self) -> None:
        """Close the log; the store reopens and indexes it when used again."""
        self._check_fork()
        with self._lock:
            self._forget()

    def _forget(self) -> None:
        """Close the log and empty the index."""
        if self._closer is not None:
            self._closer()
        self._fd, self._writable, self._closer = None, False, None
        self._file, self._index, self._size = None, {}, 0

    # -- the log file ----------------------------------------------------

    def _open(self, write: bool) -> Optional[int]:
        """Under self._lock: a descriptor of the log, writable when
        `write`, which creates the log; None when there is no log to
        read. Opening another file than the index describes empties it."""
        if self._fd is not None and (self._writable or not write):
            return self._fd
        try:
            fd = os.open(self._log, os.O_RDWR | os.O_APPEND if write else os.O_RDONLY)
        except FileNotFoundError:
            self._refuse_v2()
            if not write:
                return None
            os.makedirs(self._dir, exist_ok=True)
            fd = os.open(self._log, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        st = os.fstat(fd)
        if (st.st_dev, st.st_ino) != self._file:
            self._forget()
            self._file = (st.st_dev, st.st_ino)
        elif self._closer is not None:  # the read-only descriptor this one replaces
            self._closer()
        self._fd, self._writable = fd, write
        self._closer = weakref.finalize(self, os.close, fd)
        return fd

    def _refuse_v2(self) -> None:
        try:
            names = os.listdir(self._dir)
        except FileNotFoundError:
            return
        if any(name == _V2_LOG_NAME or _V2_ENTRY.fullmatch(name) for name in names):
            raise UnmigratedStore(
                f"replay store {self.root} is in an earlier layout ({_V2_LOG_NAME} or <key>.json "
                f"entries) and holds no {LOG_NAME}, the only layout this version reads; "
                f"`nlconcepts replay migrate {self.root}` at commit 444a717 converts it"
            )

    def _locked(self, write: bool) -> Tuple[Optional[int], int]:
        """Under self._lock: the log's descriptor with its flock held,
        exclusive when `write`, shared otherwise, once the path still
        names the file it is open on, and the log's size; (None, 0) when
        there is no log."""
        import fcntl

        while True:
            fd = self._open(write)
            if fd is None:
                return None, 0
            fcntl.flock(fd, fcntl.LOCK_EX if write else fcntl.LOCK_SH)
            same = False
            try:
                st = os.stat(self._log)
                same = (st.st_dev, st.st_ino) == self._file
            except FileNotFoundError:
                pass
            finally:
                if not same:
                    fcntl.flock(fd, fcntl.LOCK_UN)
            if same:
                return fd, st.st_size
            self._forget()  # removed or replaced: open what the path names now

    def _catch_up(self, fd: int, size: int) -> None:
        """Under the flock: index the whole records appended since the
        last catch-up to a log of `size` bytes."""
        if size < self._size:  # shrank: index it again
            self._index, self._size = {}, 0
        records = _records(fd, self._size, size, self._log, self._advice)
        for offset, key, request_len, completions_len, crc in records:
            self._index.setdefault(key, (offset + HEADER_LEN, request_len, completions_len, crc))
            self._size = offset + HEADER_LEN + request_len + completions_len

    # -- reading ---------------------------------------------------------

    def _find(self, key: str) -> Optional[Tuple[bytes, int]]:
        """(body, request length) of the key's record, None on a miss."""
        self._check_fork()
        with self._lock:
            where = self._index.get(key)
            if where is None:
                try:
                    self._refresh()
                except CorruptEntry:
                    if key not in self._index:  # the records before damage still read
                        raise
                where = self._index.get(key)
                if where is None:
                    return None
            offset, request_len, completions_len, crc = where
            body = os.pread(self._fd, request_len + completions_len, offset)
        if len(body) != request_len + completions_len:
            raise CorruptEntry(f"replay entry {key} in {self._log} is cut short")
        if _crc(key, body) != crc:
            raise CorruptEntry(f"replay entry {key} in {self._log} fails its CRC check")
        return body, request_len

    def _refresh(self) -> None:
        """Under self._lock: catch the index up with the log."""
        import fcntl

        fd, size = self._locked(write=False)
        if fd is None:  # no log (any more)
            return
        try:
            self._catch_up(fd, size)
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)

    def lookup(self, prompt: str, params: Dict) -> List:
        key = fingerprint(prompt, params)
        found = self._find(key)
        if found is None:
            raise ReplayMiss(key, self.root)
        return _decode(found[0][found[1]:])

    def entry(self, key: str) -> Dict:
        found = self._find(key)
        if found is None:
            raise ReplayMiss(key, self.root)
        body, request_len = found
        prompt, params = _request_of(body[:request_len])
        return {"prompt": prompt, "params": params, "completions": _decode(body[request_len:])}

    def keys(self) -> List[str]:
        self._check_fork()
        with self._lock:
            self._refresh()
            return sorted(self._index)

    # -- writing ---------------------------------------------------------

    def record(self, prompt: str, params: Dict, completions: List) -> str:
        """Store completions for a request; first write wins."""
        request = _request_bytes(prompt, params)
        key = _key(request)
        self._append(key, request, _encode(completions))
        return key

    def get_or_record(self, prompt: str, params: Dict, fetch: Callable[[], List]) -> List:
        """The completions recorded for a request; on a miss, those
        `fetch()` returns, recorded first. What the store then holds is
        returned: when another writer recorded the request first, its
        completions win. The request is encoded and keyed once."""
        request = _request_bytes(prompt, params)
        key = _key(request)
        found = self._find(key)
        if found is None:
            self._append(key, request, _encode(fetch()))
            found = self._find(key)
            if found is None:  # the log was replaced meanwhile
                raise ReplayMiss(key, self.root)
        return _decode(found[0][found[1]:])

    def _append(self, key: str, request: bytes, completions: bytes) -> None:
        import fcntl

        body = request + completions
        crc = _crc(key, body)
        data = b"%s %010d %010d %08x\n" % (key.encode("ascii"), len(request), len(completions), crc) + body
        self._check_fork()
        with self._lock:
            fd, size = self._locked(write=True)
            try:
                self._catch_up(fd, size)
                if key in self._index:  # an earlier write won
                    return
                if size > self._size:  # a torn tail: the start of a record whose writer died
                    os.ftruncate(fd, self._size)
                written = os.write(fd, data)
                if written != len(data):
                    os.ftruncate(fd, self._size)
                    raise OSError(f"short write to {self._log}: {written} of {len(data)} bytes")
                self._index[key] = (self._size + HEADER_LEN, len(request), len(completions), crc)
                self._size += len(data)
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)

    # -- checking --------------------------------------------------------

    def verify(self) -> LogReport:
        """Read every record: recompute its key from its request, check
        its CRC, decode its request and completions and check that the
        request is the v3 encoding of its prompt and params, and count
        duplicate keys and torn bytes. Damage before a whole record is
        reported, and the records from that one on are read too. A
        leftover of an earlier layout beside the log (an `entries.log`
        or a `<key>.json`) is a mismatch too: no lookup reaches its
        entries."""
        import fcntl

        self._check_fork()
        report = LogReport()
        seen = set()
        with self._lock:
            fd, size = self._locked(write=False)
            if fd is None:
                return report
            end = 0  # of the last whole record
            try:
                while True:
                    try:
                        records = _records(fd, end, size, self._log, "")
                        for offset, key, request_len, completions_len, crc in records:
                            end = offset + HEADER_LEN + request_len + completions_len
                            body = os.pread(fd, request_len + completions_len, offset + HEADER_LEN)
                            problem = _problem(key, body, request_len, crc)
                            if problem is not None:
                                report.mismatches.append(f"record at byte {offset}: {problem}")
                            report.records += 1
                            report.duplicates += key in seen
                            seen.add(key)
                        break
                    except CorruptEntry as exc:
                        report.mismatches.append(str(exc))
                        # read on from the first whole record after the damage
                        tail = os.pread(fd, size - end, end)
                        whole = (m for m in _HEADER.finditer(tail) if m.end() + int(m[2]) + int(m[3]) <= len(tail))
                        end += next(whole).start()
                report.torn_bytes = size - end
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        for name in sorted(os.listdir(self._dir)):
            if name == _V2_LOG_NAME or _V2_ENTRY.fullmatch(name):
                report.mismatches.append(
                    f"{name}: an earlier layout beside {LOG_NAME}, which is the only one "
                    f"this version reads, so no lookup reaches its entries"
                )
        return report

    def repair(self) -> Tuple[int, int]:
        """Rewrite the log with the records that hold their entry: each
        whole record, wherever it starts, that `verify` finds no
        mismatch in; the first record of a key wins. Returns (records
        kept, bytes dropped); a log with nothing to drop is left as it
        is."""
        import fcntl

        self._check_fork()
        with self._lock:
            if not os.path.exists(self._log):
                self._refuse_v2()
                return 0, 0
            fd, size = self._locked(write=True)
            try:
                data = os.pread(fd, size, 0)
                kept, seen = [], set()
                match = _HEADER.search(data)
                while match is not None:
                    key, request_len = match[1].decode("ascii"), int(match[2])
                    end = match.end() + request_len + int(match[3])
                    body = data[match.end() : end]
                    if end > len(data) or _problem(key, body, request_len, int(match[4], 16)) is not None:
                        match = _HEADER.search(data, match.start() + 1)
                        continue
                    if key not in seen:
                        seen.add(key)
                        kept.append(data[match.start() : end])
                    match = _HEADER.search(data, end)
                log = b"".join(kept)
                if len(log) < size:
                    # other stores see the new file at their next miss or record
                    tmp = self._log + ".repair"
                    with open(tmp, "wb") as out:
                        out.write(log)
                        out.flush()
                        os.fsync(out.fileno())
                    os.replace(tmp, self._log)
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
                self._forget()
        return len(kept), size - len(log)

