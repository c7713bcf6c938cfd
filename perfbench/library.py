"""The library paths: DOM, stream and incremental-session enforcement.

Everything reaches the program through its public entry points:
``parse_xschema``/``compile_xschema`` for the schema text,
``Document.from_xml``/``to_xml`` for document bytes,
``SchemaEnforcer.enforce_document``, ``enforce_stream`` and
``session().apply`` for enforcement, and the gateway's per-call-seeded
``sampling_invoker`` for service calls.  With a real tracer the
benchmark opens a ``bench.*`` span around every one of those calls; the
program's own spans nest beneath them.
"""

from __future__ import annotations

import gc
import hashlib
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.axml.enforcement import SchemaEnforcer
from repro.compile.cache import CompilationCache
from repro.doc.document import Document
from repro.gateway.invoke import sampling_invoker
from repro.incremental.edits import apply_edits, script_from_json
from repro.incremental.session import full_receipt
from repro.obs.trace import NULL_TRACER
from repro.schema.patterns import allow_all, allow_only
from repro.xschema.compile import compile_xschema
from repro.xschema.parser import parse_xschema

#: Input chunk size of the streamed passes.
CHUNK_BYTES = 16 * 1024


@dataclass(frozen=True)
class LibrarySpec:
    """One workload's library inputs (all wire text)."""

    sender_xsd: str
    receiver_xsd: str
    xml: str
    seed: int
    k: int
    obligations: Tuple[str, ...]

    def policy(self):
        """The gateway's rule: a sender's obligations, else any call."""
        return allow_only(self.obligations) if self.obligations else allow_all()

    @property
    def megabytes(self) -> float:
        return len(self.xml.encode("utf-8")) / (1024.0 * 1024.0)


class HashSink:
    """A ``write`` sink keeping a SHA-256 and the first-write time only."""

    __slots__ = ("digest", "length", "started", "first_write")

    def __init__(self):
        self.digest = hashlib.sha256()
        self.length = 0
        self.started = time.perf_counter()
        self.first_write: Optional[float] = None

    def write(self, text: str) -> None:
        if self.first_write is None:
            self.first_write = time.perf_counter() - self.started
        data = text.encode("utf-8")
        self.digest.update(data)
        self.length += len(data)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def traced_invoker(inner: Callable, tracer) -> Callable:
    """Wrap the invoker in a ``bench.invoke`` span per call."""

    def invoke(call):
        with tracer.span("bench.invoke", function=call.name):
            return inner(call)

    return invoke


class Library:
    """A warm library target: compiled schemas, cache, enforcer."""

    def __init__(self, spec: LibrarySpec, tracer=NULL_TRACER,
                 cache: Optional[CompilationCache] = None):
        self.spec = spec
        self.tracer = tracer
        with tracer.span("bench.xschema"):
            self.sender = compile_xschema(parse_xschema(spec.sender_xsd))
            self.receiver = compile_xschema(parse_xschema(spec.receiver_xsd))
        self.cache = cache if cache is not None else CompilationCache()
        self.enforcer = SchemaEnforcer(
            target_schema=self.receiver,
            sender_schema=self.sender,
            k=spec.k,
            mode="safe",
            policy=spec.policy(),
            workers=1,
            compile_cache=self.cache,
        )
        invoker = sampling_invoker(self.sender, spec.seed)
        self.invoker = (traced_invoker(invoker, tracer)
                        if tracer.enabled else invoker)
        data = spec.xml.encode("utf-8")
        self.chunks = [data[i:i + CHUNK_BYTES]
                       for i in range(0, len(data), CHUNK_BYTES)]

    # -- the timed operations ---------------------------------------------

    def dom_pass(self) -> Tuple[object, Optional[str]]:
        """``from_xml`` → ``enforce_document`` → ``to_xml``."""
        tracer = self.tracer
        with tracer.span("bench.dom"):
            with tracer.span("bench.parse"):
                document = Document.from_xml(self.spec.xml)
            with tracer.span("bench.enforce"):
                outcome = self.enforcer.enforce_document(document, self.invoker)
            with tracer.span("bench.serialize"):
                xml = outcome.document.to_xml() if outcome.ok else None
        return outcome, xml

    def stream_pass(self) -> Tuple[object, HashSink]:
        """``enforce_stream`` over fixed-size chunks into a hashing sink."""
        sink = HashSink()
        with self.tracer.span("bench.stream"):
            outcome = self.enforcer.enforce_stream(
                self.chunks, self.invoker, sink.write
            )
        return outcome, sink

    def open_session(self):
        """``session()`` over the parsed document, then its first pass."""
        with self.tracer.span("bench.open"):
            session = self.enforcer.session(
                Document.from_xml(self.spec.xml), self.invoker
            )
            return session, session.enforce()

    def apply(self, session, wire: list):
        """One wire edit script: ``script_from_json`` → ``apply``."""
        with self.tracer.span("bench.apply"):
            return session.apply(script_from_json(wire))

    # -- untimed measurements and checks -----------------------------------

    def stream_peak_bytes(self) -> Tuple[int, HashSink]:
        """Tracemalloc peak of one streamed pass."""
        gc.collect()
        tracemalloc.start()
        try:
            _outcome, sink = self.stream_pass()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, sink

    def fresh_receipt(self, wires: Sequence[list]) -> dict:
        """``full_receipt`` of a fresh full enforcement of the source
        document after ``wires``, replayed independently of any session."""
        document = Document.from_xml(self.spec.xml)
        for wire in wires:
            document, _inverse = apply_edits(document, script_from_json(wire))
        enforcer = SchemaEnforcer(
            target_schema=self.receiver,
            sender_schema=self.sender,
            k=self.spec.k,
            mode="safe",
            policy=self.spec.policy(),
            workers=1,
            compile_cache=self.cache,
        )
        outcome = enforcer.enforce_document(
            document, sampling_invoker(self.sender, self.spec.seed)
        )
        return full_receipt(outcome)


def cold_setup(spec: LibrarySpec, tracer=NULL_TRACER) -> Tuple[float, Optional[str]]:
    """Schema text → compiled schemas → first enforcement, on a fresh
    ``CompilationCache``.  Returns (seconds, enforced XML or None)."""
    gc.collect()
    started = time.perf_counter()
    with tracer.span("bench.setup"):
        library = Library(spec, tracer=tracer, cache=CompilationCache())
        outcome, xml = library.dom_pass()
    elapsed = time.perf_counter() - started
    return elapsed, xml if outcome.ok else None
