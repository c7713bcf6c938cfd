"""The gateway's live-session store for mutating documents.

The edit-script exchange mode keeps one
:class:`~repro.incremental.session.EnforcementSession` per document id:
the peer opens a session by POSTing the full document once, then ships
edit scripts that re-enforce incrementally against the warm caches.
This module is the bounded registry those sessions live in:

- **LRU bound** — at most ``limit`` sessions are resident; opening one
  more evicts the least-recently-used session (its compile-cache
  artifacts survive — they are interned gateway-wide — but the subtree
  memo and materialization cache die with it).  Evictions surface as
  ``repro_gateway_incremental_total{event="evicted"}`` and a peer whose
  session was evicted gets the typed 404 ``unknown-session``, telling
  it to re-open by re-sending the document;
- **per-entry lock** — enforcement runs on the thread pool, and an
  :class:`~repro.incremental.session.EnforcementSession` is stateful,
  so concurrent scripts for one document id serialize on the entry's
  lock while different documents proceed in parallel;
- the store itself is a small thread-safe LRU (lookups bump recency),
  deliberately independent of the admission controller: admission
  bounds *work in flight*, the store bounds *state at rest*.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class SessionEntry:
    """One resident session plus the peers that own it."""

    document_id: str
    sender: str
    receiver: str
    session: object  # EnforcementSession (typed loosely: no import cycle)
    lock: threading.Lock = field(default_factory=threading.Lock)


class SessionStore:
    """A thread-safe LRU of :class:`SessionEntry`, bounded by ``limit``."""

    def __init__(self, limit: int = 64):
        self.limit = max(1, int(limit))
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, SessionEntry]" = OrderedDict()
        self.evicted_total = 0
        self.opened_total = 0

    def put(self, entry: SessionEntry) -> Optional[SessionEntry]:
        """Install (or replace) a session; returns the evicted entry, if
        the LRU bound pushed one out."""
        with self._lock:
            self._entries.pop(entry.document_id, None)
            self._entries[entry.document_id] = entry
            self.opened_total += 1
            if len(self._entries) > self.limit:
                _, evicted = self._entries.popitem(last=False)
                self.evicted_total += 1
                return evicted
        return None

    def get(self, document_id: str) -> Optional[SessionEntry]:
        """Look up a session, bumping its recency; None when absent."""
        with self._lock:
            entry = self._entries.get(document_id)
            if entry is not None:
                self._entries.move_to_end(document_id)
            return entry

    def remove(self, document_id: str) -> Optional[SessionEntry]:
        with self._lock:
            return self._entries.pop(document_id, None)

    def ids(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
