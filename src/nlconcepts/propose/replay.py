"""Content-addressed replay store for LM API responses.

Every live response is recorded before use, keyed by a fingerprint of
the exact prompt plus sampling parameters, so any experiment can later
be re-run offline, byte for byte. The store is append-only; lookups are
exact.

Each entry is one compact JSON file, `<key>.json`. `record` writes it
to a temp file `.<key>.<pid>.<thread id>.tmp` in the store directory
and hard-links that to `<key>.json`. The link is atomic and fails when
the key exists, so a reader sees a whole entry or none, and the first
write wins across threads and processes without a lock. A writer that
dies before the link leaves only its temp file behind; `gc` (the CLI's
`replay gc`) removes the temp files whose writer process is gone. No
file is fsynced: a process crash cannot tear an entry, a power loss
can. The directory is created by the first `record`, so reading a
missing store creates nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import threading
from pathlib import Path
from typing import Dict, List, Optional

# a record's temp file: .<key>.<pid>.<thread id>.tmp
_TEMP_NAME = re.compile(r"\.[0-9a-f]{64}\.(\d+)\.\d+\.tmp")


class ReplayMiss(KeyError):
    """No recorded response for a request key in a store."""

    def __init__(self, key: str, root):
        super().__init__(key, root)
        self.key = key
        self.root = root

    def __str__(self):
        return f"no recorded response for key {self.key} in replay store {self.root}"


class CorruptEntry(ValueError):
    """A recorded entry that cannot be read back, e.g. a truncated write."""


def fingerprint(prompt: str, params: Dict) -> str:
    payload = json.dumps({"prompt": prompt, "params": params}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _pid_alive(pid: int) -> bool:
    if os.name != "posix":  # on Windows, os.kill(pid, 0) sends CTRL_C_EVENT
        raise OSError("checking for a writer process needs POSIX signals")
    try:
        os.kill(pid, 0)  # signal 0: an existence check, nothing is sent
    except ProcessLookupError:
        return False
    except PermissionError:  # it exists, owned by another user
        pass
    return True


class ReplayStore:
    """Directory of JSON files, one per recorded request."""

    def __init__(self, root):
        self.root = Path(root)
        self._dir = os.fspath(self.root)

    def _path(self, key: str) -> str:
        return os.path.join(self._dir, f"{key}.json")

    def _read(self, key: str) -> Optional[Dict]:
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            return None
        try:
            return json.loads(data)
        except ValueError as exc:
            raise CorruptEntry(f"replay entry {key} is unreadable ({path}): {exc}") from exc

    def get(self, prompt: str, params: Dict) -> Optional[List]:
        entry = self._read(fingerprint(prompt, params))
        return None if entry is None else entry["completions"]

    def lookup(self, prompt: str, params: Dict) -> List:
        return self.entry(fingerprint(prompt, params))["completions"]

    def record(self, prompt: str, params: Dict, completions: List) -> str:
        """Store completions for a request; first write wins."""
        key = fingerprint(prompt, params)
        data = json.dumps(
            {"prompt": prompt, "params": params, "completions": completions},
            separators=(",", ":"),
        ).encode("utf-8")
        temp = os.path.join(self._dir, f".{key}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            try:
                f = open(temp, "wb")
            except FileNotFoundError:  # the first record creates the store
                os.makedirs(self._dir, exist_ok=True)
                f = open(temp, "wb")
            with f:
                f.write(data)
            with contextlib.suppress(FileExistsError):  # an earlier write won
                os.link(temp, self._path(key))
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temp)
        return key

    def keys(self) -> List[str]:
        return sorted(p.stem for p in self.root.glob("*.json"))

    def entry(self, key: str) -> Dict:
        entry = self._read(key)
        if entry is None:
            raise ReplayMiss(key, self.root)
        return entry

    def gc(self) -> List[str]:
        """Remove the temp files whose writer process no longer exists
        on this host; returns their names. A live writer's temp file is
        kept."""
        try:
            names = sorted(os.listdir(self._dir))
        except FileNotFoundError:
            return []
        removed = []
        for name in names:
            match = _TEMP_NAME.fullmatch(name)
            if match and not _pid_alive(int(match[1])):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(os.path.join(self._dir, name))
                removed.append(name)
        return removed
