"""Content-hash cache for per-file analyses.

``repro lint --program`` parses and summarises every file before the
cross-file passes run; for a warm tree that work is pure waste.  The
cache stores each file's finished :class:`~repro.lint.engine.FileAnalysis`
(raw rule diagnostics, suppression table, extracted facts) in a pickle
keyed by ``sha256(version, path, content bytes)`` — touch a file and
its entry simply misses; the program passes themselves always recompute
(they are cheap and depend on *every* file's facts).

The cache directory defaults to ``.repro-lint-cache/`` under the
working directory and is safe to delete at any time.  Entries that
fail to load (version skew, truncation) are treated as misses and
overwritten.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path
from typing import Optional, Tuple

#: bump when FileAnalysis / FileFacts / rule semantics change shape.
CACHE_VERSION = "6"

DEFAULT_CACHE_DIR = Path(".repro-lint-cache")


class AnalysisCache:
    """Pickle-per-file cache keyed by content hash."""

    def __init__(self, directory: Path = DEFAULT_CACHE_DIR) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0

    def key(self, path: Path, content: bytes) -> str:
        digest = hashlib.sha256()
        digest.update(CACHE_VERSION.encode("ascii"))
        digest.update(b"\0")
        digest.update(str(path).encode("utf-8", "replace"))
        digest.update(b"\0")
        digest.update(content)
        return digest.hexdigest()

    def _entry(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def load(self, path: Path, content: bytes) -> Tuple[str, Optional[object]]:
        """(cache key, cached analysis or None)."""
        key = self.key(path, content)
        entry = self._entry(key)
        try:
            with entry.open("rb") as handle:
                value = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            self.misses += 1
            return key, None
        self.hits += 1
        return key, value

    def store(self, key: str, value: object) -> None:
        """Best-effort write; a read-only tree must not break linting."""
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = self._entry(key).with_suffix(".tmp")
            with tmp.open("wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(self._entry(key))
        except OSError:
            pass
