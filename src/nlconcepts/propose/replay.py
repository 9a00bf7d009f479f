"""Content-addressed replay store for LM API responses.

Every live response is recorded before use, keyed by a fingerprint of
the exact prompt plus sampling parameters, so any experiment can later
be re-run offline, byte for byte. The store is append-only; lookups are
exact.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Dict, List, Optional


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


class ReplayStore:
    """Directory of JSON files, one per recorded request."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _read(self, key: str) -> Optional[Dict]:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except ValueError as exc:
            raise CorruptEntry(f"replay entry {key} is unreadable ({path}): {exc}") from exc

    def get(self, prompt: str, params: Dict) -> Optional[List]:
        entry = self._read(fingerprint(prompt, params))
        return None if entry is None else entry["completions"]

    def lookup(self, prompt: str, params: Dict) -> List:
        completions = self.get(prompt, params)
        if completions is None:
            raise ReplayMiss(fingerprint(prompt, params), self.root)
        return completions

    def record(self, prompt: str, params: Dict, completions: List) -> str:
        """Store completions for a request; first write wins."""
        key = fingerprint(prompt, params)
        path = self._path(key)
        with self._lock:
            if not path.exists():
                path.write_text(
                    json.dumps(
                        {"prompt": prompt, "params": params, "completions": completions},
                        indent=2,
                    )
                )
        return key

    def keys(self) -> List[str]:
        return sorted(p.stem for p in self.root.glob("*.json"))

    def entry(self, key: str) -> Dict:
        entry = self._read(key)
        if entry is None:
            raise ReplayMiss(key, self.root)
        return entry
