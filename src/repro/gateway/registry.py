"""The gateway's persistent peer registry.

One record per peer: its name, its vocabulary (an XML Schema_int
document, kept as text exactly as it arrived so round-trips are
byte-faithful), the set of functions whose *schema obligations* it owns,
and its admission limits.  Ownership follows "Distributed XML Design":
typing an exchanged document is a multi-peer property, so every
function's obligations must have exactly one responsible peer — the
registry enforces uniqueness at registration time
(:class:`~repro.gateway.errors.ObligationConflictError`).

Persistence is JSON-on-disk with atomic writes (temp file +
``os.replace``, the :mod:`repro.compile.persist` discipline): a crashed
gateway never leaves a half-written registry, and a restarted one picks
up exactly the peers it had.  Corrupt or wrong-version files are
reported, not trusted.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import UnknownPeerError, XMLSchemaIntError
from repro.gateway.errors import BadRequestError, ObligationConflictError
from repro.schema.model import Schema

#: Bumped whenever the on-disk registry layout changes.
FORMAT_VERSION = 1

_MAGIC = "repro-gateway-registry"


@dataclass
class PeerRecord:
    """Everything the gateway knows about one registered peer."""

    name: str
    #: The peer's vocabulary as XML Schema_int text (labels + function
    #: signatures) — the schema other peers enforce against when this
    #: peer is the receiver, and the signature source when it sends.
    xschema: str
    #: Function names whose schema obligations this peer owns.  A legal
    #: exchange sent *by* this peer may only materialize owned functions;
    #: everything else stays intensional for its owner to expand.
    #: Empty means unrestricted (the single-peer reading of the paper).
    obligations: Tuple[str, ...] = ()
    #: Per-peer cap on concurrently admitted exchange requests.
    max_inflight: int = 8
    _schema: Optional[Schema] = field(default=None, repr=False, compare=False)
    _sampler: Optional[object] = field(default=None, repr=False, compare=False)
    _checker: Optional[object] = field(default=None, repr=False, compare=False)

    def schema(self) -> Schema:
        """The compiled vocabulary (memoized; raises on malformed text)."""
        if self._schema is None:
            from repro.xschema.compile import compile_xschema
            from repro.xschema.parser import parse_xschema

            self._schema = compile_xschema(parse_xschema(self.xschema))
        return self._schema

    def sampler(self):
        """The vocabulary's compiled
        :class:`~repro.schema.generator.SchemaSampler` (memoized): the
        signatures this peer's calls are answered from when it sends."""
        if self._sampler is None:
            from repro.schema.generator import SchemaSampler

            self._sampler = SchemaSampler(self.schema())
        return self._sampler

    def checker(self, compile_cache):
        """The Definition 3 checker over this vocabulary alone (memoized
        per compile cache): the verdict this peer reaches on what it
        receives, with no other peer's signatures."""
        checker = self._checker
        if checker is None or checker.compile_cache is not compile_cache:
            from repro.schema.validate import InstanceChecker

            checker = self._checker = InstanceChecker(
                self.schema(), None, compile_cache
            )
        return checker

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "xschema": self.xschema,
            "obligations": list(self.obligations),
            "max_inflight": self.max_inflight,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "PeerRecord":
        try:
            name = payload["name"]
            xschema = payload["xschema"]
        except (TypeError, KeyError) as exc:
            raise ValueError("peer record missing field: %s" % exc)
        if not isinstance(name, str) or not name:
            raise ValueError("peer name must be a non-empty string")
        if not isinstance(xschema, str) or not xschema.strip():
            raise ValueError("peer %r has no schema text" % name)
        obligations = payload.get("obligations", [])
        if not isinstance(obligations, (list, tuple)) or not all(
            isinstance(item, str) for item in obligations
        ):
            raise ValueError("peer %r obligations must be strings" % name)
        max_inflight = payload.get("max_inflight", 8)
        if not isinstance(max_inflight, int) or max_inflight < 1:
            raise ValueError("peer %r max_inflight must be a positive int" % name)
        return cls(
            name=name, xschema=xschema,
            obligations=tuple(sorted(set(obligations))),
            max_inflight=max_inflight,
        )


class PeerRegistry:
    """Thread-safe peer directory with optional JSON-on-disk persistence.

    Args:
        path: when set, every mutation is durably (and atomically)
            written there, and construction loads whatever the file
            already holds.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._lock = threading.Lock()
        self._peers: Dict[str, PeerRecord] = {}
        self._owners: Dict[str, str] = {}  # function -> owning peer
        self.load_errors: List[str] = []
        if path and os.path.exists(path):
            self._load(path)

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._peers)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._peers

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._peers)

    def get(self, name: str) -> PeerRecord:
        """Fetch a record; typed :class:`UnknownPeerError` when absent."""
        with self._lock:
            record = self._peers.get(name)
            if record is None:
                raise UnknownPeerError(name, known=tuple(self._peers))
            return record

    def owner_of(self, function: str) -> Optional[str]:
        """The peer owning a function's schema obligations, if any."""
        with self._lock:
            return self._owners.get(function)

    def records(self) -> List[PeerRecord]:
        with self._lock:
            return [self._peers[name] for name in sorted(self._peers)]

    # -- mutations ----------------------------------------------------------

    def register(self, record: PeerRecord) -> PeerRecord:
        """Insert or replace a peer; persists when a path is configured.

        Raises :class:`ObligationConflictError` when the record claims a
        function another live peer already owns, and
        :class:`BadRequestError` when the schema text does not compile —
        a peer that cannot be enforced against must not enter the
        directory.
        """
        try:
            record.schema()
        except XMLSchemaIntError as exc:
            raise BadRequestError(
                "peer %r schema rejected: %s" % (record.name, exc)
            )
        with self._lock:
            for function in record.obligations:
                owner = self._owners.get(function)
                if owner is not None and owner != record.name:
                    raise ObligationConflictError(
                        "function %r obligations are owned by peer %r"
                        % (function, owner)
                    )
            previous = self._peers.get(record.name)
            if previous is not None:
                for function in previous.obligations:
                    self._owners.pop(function, None)
            self._peers[record.name] = record
            for function in record.obligations:
                self._owners[function] = record.name
            snapshot = self._to_json_locked()
        self._save(snapshot)
        return record

    def remove(self, name: str) -> PeerRecord:
        """Drop a peer (typed error when absent); persists the removal."""
        with self._lock:
            record = self._peers.pop(name, None)
            if record is None:
                raise UnknownPeerError(name, known=tuple(self._peers))
            for function in record.obligations:
                if self._owners.get(function) == name:
                    del self._owners[function]
            snapshot = self._to_json_locked()
        self._save(snapshot)
        return record

    # -- persistence --------------------------------------------------------

    def _to_json_locked(self) -> dict:
        return {
            "magic": _MAGIC,
            "version": FORMAT_VERSION,
            "peers": [
                self._peers[name].to_json() for name in sorted(self._peers)
            ],
        }

    def _save(self, snapshot: dict) -> None:
        if not self.path:
            return
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(self.path) + ".", suffix=".tmp",
            dir=directory,
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _load(self, path: str) -> None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            self.load_errors.append("registry file unreadable: %s" % exc)
            return
        if (
            not isinstance(payload, dict)
            or payload.get("magic") != _MAGIC
            or payload.get("version") != FORMAT_VERSION
        ):
            self.load_errors.append(
                "registry file has the wrong magic or version"
            )
            return
        for entry in payload.get("peers", []):
            try:
                record = PeerRecord.from_json(entry)
            except ValueError as exc:
                self.load_errors.append(str(exc))
                continue
            self._peers[record.name] = record
            for function in record.obligations:
                self._owners.setdefault(function, record.name)
