"""On-disk persistence for compiled automata artifacts.

Artifacts are stored one file per cache key under a directory, named by
the key's content digest (:func:`repro.compile.digest.key_digest`), so
repeated CLI runs and peer restarts warm-start: the expensive
``regex → Glushkov NFA → determinize → complete → minimize → complement``
pipeline runs once per *content*, not once per process.

The store is deliberately paranoid about its own files:

- writes are atomic (temp file + ``os.replace``), so a crashed run never
  leaves a half-written artifact behind;
- every file carries a format-version magic; version mismatches and any
  unpickling error are treated as a miss — the artifact is recompiled
  and the bad file overwritten, never trusted (see the corrupted-cache
  round-trip test in ``tests/test_compile_cache.py``).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from typing import Any, Optional, Tuple

#: Bumped whenever the pickled artifact layout changes — solved analyses
#: included, so also when ``SafeAnalysis``, ``PossibleAnalysis`` or
#: anything they hold changes shape.
FORMAT_VERSION = 3

_MAGIC = "repro-compile-cache"

_SNAPSHOT_MAGIC = "repro-compile-snapshot"


def dump_snapshot(entries: Any) -> bytes:
    """Serialize cache entries as one transferable snapshot blob.

    ``entries`` is a list of ``(key, value)`` pairs as stored by
    :class:`repro.compile.cache.CompilationCache`.  The blob carries the
    same format version as the on-disk store — an artifact that would be
    rejected from disk is rejected from the wire too.
    """
    return pickle.dumps(
        (_SNAPSHOT_MAGIC, FORMAT_VERSION, list(entries)),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def load_snapshot(blob: bytes) -> Any:
    """Deserialize a snapshot blob; raises ``ValueError`` when invalid.

    Validation mirrors :meth:`PersistentStore.load`'s paranoia: wrong
    magic, wrong version, or any unpickling trouble rejects the whole
    blob — a warm-start must never install artifacts of uncertain
    provenance.
    """
    try:
        record = pickle.loads(blob)
    except Exception as exc:
        raise ValueError("snapshot blob could not be unpickled: %s" % exc)
    if (
        not isinstance(record, tuple)
        or len(record) != 3
        or record[0] != _SNAPSHOT_MAGIC
        or record[1] != FORMAT_VERSION
    ):
        raise ValueError("snapshot blob has the wrong magic or version")
    entries = record[2]
    if not isinstance(entries, list):
        raise ValueError("snapshot blob carries no entry list")
    return entries


class PersistentStore:
    """A directory of pickled ``(magic, version, kind, value)`` records."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, digest: str) -> str:
        return os.path.join(self.directory, digest + ".pkl")

    def load(self, digest: str, kind: str) -> Tuple[Optional[Any], bool]:
        """Returns ``(value, corrupted)``; value is None on miss/corruption."""
        path = self._path(digest)
        try:
            with open(path, "rb") as handle:
                record = pickle.load(handle)
        except FileNotFoundError:
            return None, False
        except Exception:
            return None, True
        if (
            not isinstance(record, tuple)
            or len(record) != 4
            or record[0] != _MAGIC
            or record[1] != FORMAT_VERSION
            or record[2] != kind
        ):
            return None, True
        return record[3], False

    def store(self, digest: str, kind: str, value: Any) -> bool:
        """Atomically write one artifact; returns False on I/O trouble."""
        record = (_MAGIC, FORMAT_VERSION, kind, value)
        try:
            fd, tmp = tempfile.mkstemp(
                prefix=digest[:16] + ".", suffix=".tmp", dir=self.directory
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(record, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, self._path(digest))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError):
            return False
        return True

    def entry_count(self) -> int:
        """How many artifact files the directory currently holds."""
        try:
            return sum(
                1 for name in os.listdir(self.directory)
                if name.endswith(".pkl")
            )
        except OSError:
            return 0
