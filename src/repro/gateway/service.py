"""The async exchange gateway: schema enforcement as a peer service.

The paper's setting is peers exchanging intensional documents over the
wire; :class:`Gateway` is the long-lived process that makes the
library's Schema Enforcement module (:mod:`repro.axml.enforcement`)
callable by remote peers:

- ``POST /peers`` registers a peer: its vocabulary (XML Schema_int
  text) and the functions whose schema obligations it owns, persisted
  by :class:`~repro.gateway.registry.PeerRegistry`;
- ``POST /exchange`` accepts a document from a *sender*, enforces the
  *receiver's* schema on it (verify → rewrite → error), and replies
  with the materialized document plus a receipt;
- ``GET /snapshot`` / ``POST /snapshot`` ship the shared compilation
  cache between peers so a restarted or newly joined gateway
  warm-starts instead of recompiling every automaton;
- ``GET /metrics`` exports the ``repro_gateway_*`` metrics (counters,
  gauges, latency histograms with p50/p95/p99 quantile sketches) in
  Prometheus text format; ``GET /healthz`` and ``GET /stats`` serve
  liveness and a JSON summary.

Architecture notes:

- the HTTP front end is a single-threaded asyncio loop (stdlib only,
  :mod:`repro.gateway.http`); CPU-bound enforcement never runs on it —
  requests are dispatched onto a thread pool
  (:meth:`Gateway._run_enforcement`), inside which the engine may fan
  out further via the wave scheduler (``engine_workers``) — the reply
  check (serialize, re-parse, validate against the receiver) runs in
  the same pool job, so the loop only ever awaits;
- every exchange passes the admission gate
  (:class:`~repro.gateway.admission.AdmissionController`): bounded
  queue, per-peer concurrency limits, and per-peer circuit breakers
  wired to enforcement failures — load is shed with typed 429/503
  errors, never queued unboundedly;
- per-request deadlines are enforced twice: propagated into the
  resilient invoker's document budget *and* hard-checked between
  materializations (:func:`~repro.gateway.invoke.deadline_guard`), so
  an expired request aborts mid-enforcement with a 504;
- graceful shutdown (:meth:`Gateway.stop`) stops admitting, waits for
  every in-flight request to finish writing its response, then closes
  lingering keep-alive connections — no admitted request ever loses
  its response.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional, Set, Tuple

from repro.axml.enforcement import EnforcementOutcome, SchemaEnforcer
from repro.compile.cache import CompilationCache
from repro.doc.document import Document
from repro.errors import (
    DocumentParseError,
    ReproError,
    UnknownPeerError,
)
from repro.gateway.admission import AdmissionController
from repro.gateway.errors import (
    BadEditError,
    BadRequestError,
    DeadlineExceededError,
    EnforcementFailedError,
    GatewayError,
    SnapshotError,
    UnknownRouteError,
    UnknownSessionError,
)
from repro.gateway.http import (
    DEFAULT_MAX_BODY_BYTES,
    Request,
    Response,
    StreamingResponse,
    read_request,
    write_response,
)
from repro.gateway.invoke import deadline_guard, delayed, sampling_invoker
from repro.gateway.registry import PeerRecord, PeerRegistry
from repro.gateway.sessions import SessionEntry, SessionStore
from repro.obs import context as obs
from repro.obs.metrics import MetricsRegistry, TIME_BUCKETS
from repro.obs.trace import Tracer
from repro.schema.patterns import allow_all, allow_only
from repro.schema.validate import validate
from repro.services.resilience import (
    ResiliencePolicy,
    ResilientInvoker,
    WallClock,
)

#: Enforcement modes a request may ask for.
MODES = ("safe", "possible", "auto")


def _reply_check(outcome: EnforcementOutcome, receiver: PeerRecord):
    """``(wire, report)`` for a successful outcome, else None.

    Serializes the enforced document and validates the re-parsed bytes
    against the receiver's schema — what the peer will actually see.
    Called inside the pool job that produced the outcome: on a large
    document the re-parse and full validation would otherwise stall
    the event loop for every other connection.
    """
    if not outcome.ok:
        return None
    wire = outcome.document.to_xml()
    return wire, validate(Document.from_xml(wire), receiver.schema())


@dataclass
class GatewayConfig:
    """Every knob of one gateway instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; Gateway.port holds the bound one
    #: JSON-on-disk peer registry path (None = in-memory only).
    registry_path: Optional[str] = None
    #: Gateway-wide cap on admitted (queued + running) requests.
    queue_limit: int = 256
    #: Default per-peer inflight cap (records may override).
    per_peer_limit: int = 8
    #: Enforcement thread-pool size (the asyncio ↔ CPU bridge).
    pool_size: int = 4
    #: Wave-scheduler worker count *inside* each enforcement.
    engine_workers: Optional[int] = None
    #: Reject request bodies beyond this many bytes (413).
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    #: Deadline applied when a request does not carry its own.
    default_deadline: Optional[float] = None
    #: Depth bound and mode defaults (requests may override).
    k: int = 1
    mode: str = "safe"
    #: Consecutive enforcement failures that open a peer's breaker.
    breaker_threshold: int = 5
    breaker_cooldown: float = 1.0
    #: Optional resilient-invoker policy for materializations; the
    #: request deadline is propagated into its document budget.
    resilience: Optional[ResiliencePolicy] = None
    #: Persistence directory for the compilation cache (None = memory).
    compile_cache_dir: Optional[str] = None
    #: Artificial per-call service latency (load experiments only).
    invoke_delay: float = 0.0
    #: Tracer ring-buffer capacity for gateway.* spans.
    trace_capacity: int = 4096
    #: LRU bound on live edit-script sessions (state at rest; the
    #: admission queue bounds work in flight).
    session_limit: int = 64
    #: TCP accept backlog.
    backlog: int = 512


class Gateway:
    """The asyncio HTTP front end over the schema-enforcement stack."""

    def __init__(
        self,
        config: Optional[GatewayConfig] = None,
        registry: Optional[PeerRegistry] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        compile_cache: Optional[CompilationCache] = None,
    ):
        self.config = config or GatewayConfig()
        self.registry = registry or PeerRegistry(self.config.registry_path)
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer or Tracer(capacity=self.config.trace_capacity)
        self.compile_cache = compile_cache or CompilationCache(
            persist_dir=self.config.compile_cache_dir
        )
        self.admission = AdmissionController(
            queue_limit=self.config.queue_limit,
            default_per_peer=self.config.per_peer_limit,
            breaker_threshold=self.config.breaker_threshold,
            breaker_cooldown=self.config.breaker_cooldown,
        )
        self.sessions = SessionStore(limit=self.config.session_limit)
        self.clock = WallClock()
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._pool = None  # ThreadPoolExecutor, created on start
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._inflight_responses = 0
        self._idle = None  # asyncio.Event, created on start
        self._draining = False
        self._started_at = 0.0
        self._previous_obs: Optional[Tuple] = None
        self._routes = {
            ("GET", "/healthz"): self._route_health,
            ("GET", "/metrics"): self._route_metrics,
            ("GET", "/stats"): self._route_stats,
            ("GET", "/peers"): self._route_peers_list,
            ("POST", "/peers"): self._route_peers_register,
            ("POST", "/exchange"): self._route_exchange,
            ("GET", "/snapshot"): self._route_snapshot_export,
            ("POST", "/snapshot"): self._route_snapshot_import,
        }

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> int:
        """Bind, install observability, spin up the pool; returns port."""
        from concurrent.futures import ThreadPoolExecutor

        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        self._previous_obs = (obs.tracer(), obs.metrics())
        obs.install(self.tracer, self.metrics)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, self.config.pool_size),
            thread_name_prefix="gateway-enforce",
        )
        self._server = await asyncio.start_server(
            self._serve_connection,
            host=self.config.host,
            port=self.config.port,
            backlog=self.config.backlog,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = self.clock.now()
        self.metrics.gauge(
            "repro_gateway_up", "1 while the gateway is serving"
        ).set(1)
        return self.port

    async def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Graceful shutdown: drain in-flight requests, then close.

        With ``drain`` every admitted request finishes and its response
        is written before sockets close (the no-lost-responses
        guarantee); without it, in-flight work is abandoned.
        """
        self._draining = True
        self.admission.drain()
        if self._server is not None:
            self._server.close()
        if drain and self._idle is not None:
            try:
                await asyncio.wait_for(self._idle.wait(), timeout=timeout)
            except asyncio.TimeoutError:
                pass
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        if self._server is not None:
            await self._server.wait_closed()
        if self._pool is not None:
            self._pool.shutdown(wait=drain)
        self.metrics.gauge(
            "repro_gateway_up", "1 while the gateway is serving"
        ).set(0)
        if self._previous_obs is not None:
            obs.install(*self._previous_obs)
            self._previous_obs = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # -- connection handling -------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.config.max_body_bytes
                    )
                except GatewayError as error:
                    self._begin_response()
                    try:
                        await write_response(
                            writer, self._error_response(error, "parse"),
                            keep_alive=False,
                        )
                    finally:
                        self._end_response()
                    return
                if request is None:
                    return
                self._begin_response()
                try:
                    response = await self._dispatch(request)
                    await write_response(
                        writer, response,
                        keep_alive=request.keep_alive and not self._draining,
                    )
                finally:
                    self._end_response()
                if not request.keep_alive or self._draining:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    def _begin_response(self) -> None:
        self._inflight_responses += 1
        self._idle.clear()

    def _end_response(self) -> None:
        self._inflight_responses -= 1
        if self._inflight_responses <= 0:
            self._idle.set()

    async def _dispatch(self, request: Request) -> Response:
        route = "%s %s" % (request.method, request.path)
        started = self.clock.now()
        with self.tracer.span(
            "gateway.request", method=request.method, path=request.path
        ) as span:
            try:
                handler = self._resolve(request)
                response = await handler(request)
            except GatewayError as error:
                response = self._error_response(error, request.path)
            except ReproError as error:
                response = Response.json(
                    {"error": "library-error", "detail": str(error),
                     "status": 500},
                    status=500,
                )
                self.metrics.counter(
                    "repro_gateway_errors_total",
                    "Typed gateway errors by code",
                ).inc(code="library-error")
            span.set(status=response.status)
        elapsed = self.clock.now() - started
        self.metrics.counter(
            "repro_gateway_requests_total", "Gateway requests by route/status"
        ).inc(route=route, status=str(response.status))
        self.metrics.histogram(
            "repro_gateway_request_seconds",
            "Wall time from parsed request to written response",
            buckets=TIME_BUCKETS,
        ).observe(elapsed, route=route)
        return response

    def _resolve(self, request: Request):
        handler = self._routes.get((request.method, request.path))
        if handler is not None:
            return handler
        if request.method == "DELETE" and request.path.startswith("/peers/"):
            return self._route_peers_remove
        raise UnknownRouteError(
            "no route for %s %s" % (request.method, request.path)
        )

    def _error_response(self, error: GatewayError, _where: str) -> Response:
        self.metrics.counter(
            "repro_gateway_errors_total", "Typed gateway errors by code"
        ).inc(code=error.code)
        return Response.json(error.payload(), status=error.status)

    # -- routes: operational -------------------------------------------------

    async def _route_health(self, _request: Request) -> Response:
        return Response.json({
            "status": "draining" if self._draining else "ok",
            "peers": len(self.registry),
            "inflight": self.admission.inflight,
            "uptime_seconds": round(self.clock.now() - self._started_at, 3),
        })

    async def _route_metrics(self, _request: Request) -> Response:
        from repro.obs.memory import record_peak_gauge

        record_peak_gauge()
        return Response.text(
            self.metrics.to_prometheus(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _route_stats(self, _request: Request) -> Response:
        from repro.obs.memory import memory_snapshot, record_peak_gauge

        record_peak_gauge()
        cache = self.compile_cache.stats()
        return Response.json({
            "memory": memory_snapshot(),
            "admitted_total": self.admission.admitted_total,
            "inflight": self.admission.inflight,
            "shed": dict(self.admission.shed_counts),
            "peers": self.registry.names(),
            "sessions": {
                "live": len(self.sessions),
                "opened": self.sessions.opened_total,
                "evicted": self.sessions.evicted_total,
            },
            "compile_cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "entries": cache.entries,
            },
        })

    # -- routes: peers -------------------------------------------------------

    async def _route_peers_list(self, _request: Request) -> Response:
        return Response.json({
            "peers": [record.to_json() for record in self.registry.records()]
        })

    async def _route_peers_register(self, request: Request) -> Response:
        payload = request.json()
        try:
            record = PeerRecord.from_json(payload)
        except ValueError as exc:
            raise BadRequestError(str(exc))
        self.registry.register(record)
        self.metrics.gauge(
            "repro_gateway_peers", "Registered peers"
        ).set(len(self.registry))
        self.tracer.event("gateway.peer-registered", peer=record.name)
        return Response.json(
            {"registered": record.name,
             "obligations": list(record.obligations)},
            status=201,
        )

    async def _route_peers_remove(self, request: Request) -> Response:
        name = request.path[len("/peers/"):]
        try:
            self.registry.remove(name)
        except UnknownPeerError as exc:
            from repro.gateway.errors import UnknownGatewayPeerError

            raise UnknownGatewayPeerError(str(exc))
        self.metrics.gauge(
            "repro_gateway_peers", "Registered peers"
        ).set(len(self.registry))
        return Response.json({"removed": name})

    # -- routes: snapshots (warm-start) --------------------------------------

    async def _route_snapshot_export(self, _request: Request) -> Response:
        blob = await self._loop.run_in_executor(
            self._pool, self.compile_cache.export_snapshot
        )
        self.metrics.counter(
            "repro_gateway_snapshot_bytes_total",
            "Compilation-cache snapshot bytes by direction",
        ).inc(len(blob), direction="export")
        return Response.binary(blob)

    async def _route_snapshot_import(self, request: Request) -> Response:
        def install() -> int:
            try:
                return self.compile_cache.import_snapshot(request.body)
            except ValueError as exc:
                raise SnapshotError(str(exc))

        added = await self._loop.run_in_executor(self._pool, install)
        self.metrics.counter(
            "repro_gateway_snapshot_bytes_total",
            "Compilation-cache snapshot bytes by direction",
        ).inc(len(request.body), direction="import")
        self.metrics.counter(
            "repro_gateway_snapshot_entries_total",
            "Artifacts added from imported snapshots",
        ).inc(added)
        return Response.json({"imported": added})

    # -- routes: the exchange ------------------------------------------------

    async def _route_exchange(self, request: Request):
        content_type = (
            request.headers.get("content-type", "").split(";", 1)[0]
            .strip().lower()
        )
        if content_type == "application/xml":
            # Streaming exchange: raw XML body (Content-Length or
            # chunked), parameters in the query string, enforced output
            # streamed back chunk-by-chunk with the receipt in trailers.
            return await self._route_exchange_stream(request)
        payload = request.json()
        sender_name = payload.get("sender")
        receiver_name = payload.get("receiver")
        if not isinstance(sender_name, str) or not sender_name:
            raise BadRequestError("missing or malformed 'sender'")
        if not isinstance(receiver_name, str) or not receiver_name:
            raise BadRequestError("missing or malformed 'receiver'")
        mode = payload.get("mode", self.config.mode)
        if mode not in MODES:
            raise BadRequestError(
                "mode must be one of %s" % ", ".join(MODES)
            )
        k = payload.get("k", self.config.k)
        if not isinstance(k, int) or k < 1:
            raise BadRequestError("'k' must be a positive integer")
        seed = payload.get("seed", 0)
        if not isinstance(seed, int):
            raise BadRequestError("'seed' must be an integer")
        document_id = payload.get("document_id")
        if document_id is not None:
            # Edit-script mode: enforce incrementally against the live
            # session keyed by this id ('document' opens, 'edits' applies).
            if not isinstance(document_id, str) or not document_id:
                raise BadRequestError(
                    "'document_id' must be a non-empty string"
                )
            if payload.get("deadline") is not None:
                raise BadRequestError(
                    "'deadline' is not supported in edit-script mode"
                )
            return await self._route_exchange_incremental(
                payload, sender_name, receiver_name, document_id,
                mode, k, seed,
            )
        document_xml = payload.get("document")
        if not isinstance(document_xml, str) or not document_xml.strip():
            raise BadRequestError("missing or malformed 'document'")
        deadline = payload.get("deadline", self.config.default_deadline)
        if deadline is not None and (
            not isinstance(deadline, (int, float)) or deadline <= 0
        ):
            raise BadRequestError("'deadline' must be a positive number")

        try:
            sender = self.registry.get(sender_name)
            receiver = self.registry.get(receiver_name)
        except UnknownPeerError as exc:
            from repro.gateway.errors import UnknownGatewayPeerError

            raise UnknownGatewayPeerError(str(exc))

        started = self.clock.now()
        ticket = self.admission.admit(
            sender_name, per_peer_limit=sender.max_inflight
        )
        try:
            with self.tracer.span(
                "gateway.exchange", sender=sender_name,
                receiver=receiver_name, mode=mode,
            ) as span:
                outcome, elapsed, reply = await self._run_enforcement(
                    sender, receiver, document_xml, mode, k, seed,
                    deadline, started,
                )
                span.set(
                    ok=outcome.ok, calls=outcome.calls_made,
                    already_conformant=outcome.already_conformant,
                )
        except DeadlineExceededError:
            ticket.release(success=False)
            self.metrics.counter(
                "repro_gateway_deadline_total",
                "Requests aborted by their deadline",
            ).inc(peer=sender_name)
            raise
        except BaseException:
            ticket.release(success=False)
            raise
        else:
            ticket.release(success=outcome.ok)

        self.metrics.histogram(
            "repro_gateway_exchange_seconds",
            "Enforcement wall time by mode",
            buckets=TIME_BUCKETS,
        ).observe(elapsed, mode=mode)
        if not outcome.ok:
            raise EnforcementFailedError(outcome.error or "enforcement failed")

        wire, report = reply
        self.metrics.counter(
            "repro_gateway_exchanges_total",
            "Completed exchange enforcements",
        ).inc(accepted=str(report.ok).lower(), mode=mode)
        self.metrics.counter(
            "repro_gateway_bytes_total", "Document bytes through the gateway"
        ).inc(len(wire.encode("utf-8")), direction="out")
        return Response.json({
            "accepted": report.ok,
            "document": wire,
            "calls": outcome.calls_made,
            "already_conformant": outcome.already_conformant,
            "degraded_functions": list(outcome.degraded_functions),
            "cache_hits": outcome.cache_hits,
            "cache_misses": outcome.cache_misses,
            "validation": "" if report.ok else str(report),
            "elapsed_seconds": round(elapsed, 6),
        })

    async def _run_enforcement(
        self,
        sender: PeerRecord,
        receiver: PeerRecord,
        document_xml: str,
        mode: str,
        k: int,
        seed: int,
        deadline: Optional[float],
        started: float,
    ) -> Tuple[EnforcementOutcome, float, Optional[tuple]]:
        """Dispatch one enforcement onto the thread pool and await it.

        The worker side parses the document, builds the enforcer (the
        engine inside may fan out via the wave scheduler), runs the
        verify → rewrite → error pipeline and the reply check
        (:func:`_reply_check`); the event loop only ever awaits the
        future, so hundreds of concurrent requests stay responsive
        while at most ``pool_size`` enforcements run.
        """
        clock = self.clock

        def job() -> Tuple[EnforcementOutcome, float, Optional[tuple]]:
            if deadline is not None and clock.now() - started > deadline:
                # Spent its whole budget waiting in the queue.
                raise DeadlineExceededError(
                    "deadline of %.3fs expired before enforcement started"
                    % deadline
                )
            try:
                document = Document.from_xml(document_xml)
            except DocumentParseError as exc:
                raise BadRequestError("unparseable document: %s" % exc)
            policy = (
                allow_only(sender.obligations)
                if sender.obligations else allow_all()
            )
            invoker = sampling_invoker(sender.schema(), seed)
            invoker = delayed(invoker, clock, self.config.invoke_delay)
            if self.config.resilience is not None:
                resilience = ResiliencePolicy(
                    **{**self.config.resilience.__dict__,
                       "document_deadline": deadline},
                )
                invoker = ResilientInvoker(invoker, resilience, clock=clock)
            invoker = deadline_guard(invoker, clock, started, deadline)
            enforcer = SchemaEnforcer(
                target_schema=receiver.schema(),
                sender_schema=sender.schema(),
                k=k,
                mode=mode,
                policy=policy,
                workers=self.config.engine_workers,
                compile_cache=self.compile_cache,
            )
            enforce_started = clock.now()
            outcome = enforcer.enforce_document(document, invoker)
            now = clock.now()
            if deadline is not None and now - started > deadline:
                # The guard checks before each call; a request whose
                # *last* call overran still expired — and its peer has
                # already given up, so finishing quietly would be a lie.
                raise DeadlineExceededError(
                    "deadline of %.3fs expired after %.3fs (during "
                    "enforcement)" % (deadline, now - started)
                )
            return outcome, now - enforce_started, _reply_check(
                outcome, receiver
            )

        return await self._loop.run_in_executor(self._pool, job)

    # -- routes: the streaming exchange --------------------------------------

    async def _route_exchange_stream(self, request: Request):
        """``POST /exchange`` with an ``application/xml`` body.

        Single-pass enforcement: the body's bytes (already capped at
        intake — a chunked upload is refused the moment its running
        count crosses the limit) feed the streaming pipeline, and the
        enforced serialization is written back with chunked framing
        while the tail of the document is still being rewritten.  The
        receipt travels in ``X-Repro-*`` trailers, after the last body
        byte — including failures discovered mid-stream, when the 200
        status line is long gone; clients must check ``X-Repro-Ok`` and
        discard the partial body when it is ``false``.
        """
        from repro.rewriting.plan import InvocationLog

        query = request.query
        sender_name = query.get("sender", "")
        receiver_name = query.get("receiver", "")
        if not sender_name:
            raise BadRequestError("missing 'sender' query parameter")
        if not receiver_name:
            raise BadRequestError("missing 'receiver' query parameter")
        mode = query.get("mode", self.config.mode)
        if mode not in MODES:
            raise BadRequestError("mode must be one of %s" % ", ".join(MODES))
        if mode == "possible":
            raise BadRequestError(
                "the streaming exchange supports safe/auto modes only"
            )
        if "deadline" in query:
            raise BadRequestError(
                "'deadline' is not supported on the streaming exchange"
            )
        try:
            k = int(query.get("k", str(self.config.k)))
            seed = int(query.get("seed", "0"))
        except ValueError:
            raise BadRequestError("'k' and 'seed' must be integers")
        if k < 1:
            raise BadRequestError("'k' must be a positive integer")
        if not request.body.strip():
            raise BadRequestError("missing document body")
        try:
            sender = self.registry.get(sender_name)
            receiver = self.registry.get(receiver_name)
        except UnknownPeerError as exc:
            from repro.gateway.errors import UnknownGatewayPeerError

            raise UnknownGatewayPeerError(str(exc))

        self.metrics.counter(
            "repro_gateway_bytes_total", "Document bytes through the gateway"
        ).inc(len(request.body), direction="in")
        started = self.clock.now()
        ticket = self.admission.admit(
            sender_name, per_peer_limit=sender.max_inflight
        )

        loop = self._loop
        clock = self.clock
        queue: asyncio.Queue = asyncio.Queue(maxsize=64)
        state = {"outcome": None, "abandoned": False, "released": False}
        _DONE = object()

        def release_once(ok: bool) -> None:
            if not state["released"]:
                state["released"] = True
                ticket.release(success=ok)

        def push(item) -> None:
            """Thread side: block until the loop has queue space.

            Re-checks client abandonment every 5s; a consumer that makes
            no progress for 60s counts as gone too (a sub-8KB/s reader
            is indistinguishable from a dead one, and the pool thread
            must not be parked forever).
            """
            import concurrent.futures as futures

            stalled = 0.0
            while True:
                if state["abandoned"] or stalled >= 60.0:
                    raise ConnectionError("streaming client went away")
                handle = asyncio.run_coroutine_threadsafe(
                    queue.put(item), loop
                )
                try:
                    handle.result(timeout=5.0)
                    return
                except futures.TimeoutError:
                    stalled += 5.0
                    handle.cancel()
                    try:
                        # The put may have completed just before the
                        # cancel; retrying then would duplicate bytes.
                        handle.result(timeout=5.0)
                        return
                    except futures.CancelledError:
                        continue

        def job() -> None:
            buffer = []
            buffered = 0

            def flush() -> None:
                nonlocal buffered
                if buffer:
                    push("".join(buffer))
                    buffer.clear()
                    buffered = 0

            def write(text: str) -> None:
                nonlocal buffered
                buffer.append(text)
                buffered += len(text)
                if buffered >= 8192:
                    flush()

            policy = (
                allow_only(sender.obligations)
                if sender.obligations else allow_all()
            )
            invoker = sampling_invoker(sender.schema(), seed)
            invoker = delayed(invoker, clock, self.config.invoke_delay)
            enforcer = SchemaEnforcer(
                target_schema=receiver.schema(),
                sender_schema=sender.schema(),
                k=k,
                mode=mode,
                policy=policy,
                workers=self.config.engine_workers,
                compile_cache=self.compile_cache,
            )
            try:
                try:
                    outcome = enforcer.enforce_stream(
                        request.body, invoker, write
                    )
                    flush()
                except DocumentParseError as exc:
                    outcome = EnforcementOutcome(
                        None, None, False, 0, InvocationLog(),
                        error="unparseable document: %s" % exc,
                    )
                state["outcome"] = outcome
            finally:
                push(_DONE)

        enforcement = loop.run_in_executor(self._pool, job)
        # Retrieve the job's exception even when the client vanishes and
        # nobody awaits the future (silences the never-retrieved warning).
        enforcement.add_done_callback(lambda fut: fut.exception())

        async def chunks():
            bytes_out = 0
            try:
                while True:
                    item = await queue.get()
                    if item is _DONE:
                        break
                    data = item.encode("utf-8")
                    bytes_out += len(data)
                    yield data
                await asyncio.wait({enforcement})
                outcome = state["outcome"]
                ok = (
                    enforcement.exception() is None
                    and outcome is not None and outcome.ok
                )
                release_once(ok)
                elapsed = clock.now() - started
                self.metrics.histogram(
                    "repro_gateway_exchange_seconds",
                    "Enforcement wall time by mode",
                    buckets=TIME_BUCKETS,
                ).observe(elapsed, mode="stream")
                self.metrics.counter(
                    "repro_gateway_exchanges_total",
                    "Completed exchange enforcements",
                ).inc(accepted=str(ok).lower(), mode="stream")
                self.metrics.counter(
                    "repro_gateway_bytes_total",
                    "Document bytes through the gateway",
                ).inc(bytes_out, direction="out")
                self.tracer.event(
                    "gateway.exchange-streamed", sender=sender_name,
                    receiver=receiver_name, ok=ok, bytes=bytes_out,
                )
            except BaseException:
                state["abandoned"] = True
                release_once(False)
                raise

        def trailers():
            outcome = state["outcome"]
            if outcome is None:
                return {
                    "X-Repro-Ok": "false",
                    "X-Repro-Error": "enforcement did not complete",
                }
            fields = {
                "X-Repro-Ok": str(outcome.ok).lower(),
                "X-Repro-Calls": str(outcome.calls_made),
                "X-Repro-Conformant": str(
                    outcome.already_conformant
                ).lower(),
                "X-Repro-Cache-Hits": str(outcome.cache_hits),
                "X-Repro-Cache-Misses": str(outcome.cache_misses),
            }
            if outcome.degraded_functions:
                fields["X-Repro-Degraded"] = ",".join(
                    outcome.degraded_functions
                )
            if outcome.error:
                fields["X-Repro-Error"] = outcome.error.replace(
                    "\r", " "
                ).replace("\n", " ")
            return fields

        return StreamingResponse(
            chunks=chunks(),
            content_type="application/xml",
            headers={
                "Trailer": "X-Repro-Ok, X-Repro-Calls, X-Repro-Conformant, "
                           "X-Repro-Cache-Hits, X-Repro-Cache-Misses",
            },
            trailers=trailers,
        )

    # -- routes: the edit-script exchange ------------------------------------

    async def _route_exchange_incremental(
        self,
        payload: dict,
        sender_name: str,
        receiver_name: str,
        document_id: str,
        mode: str,
        k: int,
        seed: int,
    ) -> Response:
        """Incremental enforcement against a live per-document session.

        ``document`` opens (or replaces) the session — a full initial
        enforcement that warms the subtree memo, analysis cache, and
        materialization cache; ``edits`` applies a typed edit script to
        the open session and re-enforces only what the script touched.
        Responses carry the same receipt as the full path plus the
        session's reuse accounting.
        """
        document_xml = payload.get("document")
        edits_payload = payload.get("edits")
        if (document_xml is None) == (edits_payload is None):
            raise BadRequestError(
                "edit-script mode takes exactly one of 'document' (open "
                "the session) or 'edits' (apply a script)"
            )
        try:
            sender = self.registry.get(sender_name)
            receiver = self.registry.get(receiver_name)
        except UnknownPeerError as exc:
            from repro.gateway.errors import UnknownGatewayPeerError

            raise UnknownGatewayPeerError(str(exc))

        started = self.clock.now()
        ticket = self.admission.admit(
            sender_name, per_peer_limit=sender.max_inflight
        )
        try:
            with self.tracer.span(
                "gateway.exchange.incremental", sender=sender_name,
                receiver=receiver_name, document_id=document_id,
            ) as span:
                if document_xml is not None:
                    outcome, reply, session, event = await self._open_session(
                        sender, receiver, document_xml, mode, k, seed,
                        document_id,
                    )
                else:
                    outcome, reply, session, event = (
                        await self._apply_session_edits(
                            sender_name, receiver, edits_payload, document_id,
                        )
                    )
                span.set(
                    ok=outcome.ok, event=event,
                    reused=outcome.nodes_reused,
                    reanalyzed=outcome.nodes_reanalyzed,
                )
        except BaseException:
            ticket.release(success=False)
            raise
        else:
            ticket.release(success=outcome.ok)
        elapsed = self.clock.now() - started

        self._count_incremental(event)
        self.metrics.histogram(
            "repro_gateway_exchange_seconds",
            "Enforcement wall time by mode",
            buckets=TIME_BUCKETS,
        ).observe(elapsed, mode="incremental")
        if not outcome.ok:
            raise EnforcementFailedError(outcome.error or "enforcement failed")

        wire, report = reply
        self.metrics.counter(
            "repro_gateway_exchanges_total",
            "Completed exchange enforcements",
        ).inc(accepted=str(report.ok).lower(), mode="incremental")
        self.metrics.counter(
            "repro_gateway_bytes_total", "Document bytes through the gateway"
        ).inc(len(wire.encode("utf-8")), direction="out")
        return Response.json({
            "accepted": report.ok,
            "document_id": document_id,
            "document": wire,
            "calls": outcome.calls_made,
            "already_conformant": outcome.already_conformant,
            "degraded_functions": list(outcome.degraded_functions),
            "edits_applied": outcome.edits_applied,
            "passes": session.passes,
            "reuse": {
                "nodes_reanalyzed": outcome.nodes_reanalyzed,
                "nodes_reused": outcome.nodes_reused,
                "subtree_nodes_reused": outcome.subtree_nodes_reused,
                "verify_checked": outcome.verify_checked,
                "verify_reused": outcome.verify_reused,
                "invocations_performed": outcome.invocations_performed,
                "invocations_reused": outcome.invocations_reused,
            },
            "validation": "" if report.ok else str(report),
            "elapsed_seconds": round(elapsed, 6),
        })

    async def _open_session(
        self,
        sender: PeerRecord,
        receiver: PeerRecord,
        document_xml: str,
        mode: str,
        k: int,
        seed: int,
        document_id: str,
    ):
        """Build the session and run its initial full enforcement."""
        from repro.errors import DocumentError

        clock = self.clock

        def job():
            try:
                document = Document.from_xml(document_xml)
            except DocumentParseError as exc:
                raise BadRequestError("unparseable document: %s" % exc)
            policy = (
                allow_only(sender.obligations)
                if sender.obligations else allow_all()
            )
            # Per-call seeded sampling keeps every session pass a pure
            # function of (seed, call) — the determinism the byte-identity
            # contract with the full path needs.
            invoker = sampling_invoker(sender.schema(), seed)
            invoker = delayed(invoker, clock, self.config.invoke_delay)
            enforcer = SchemaEnforcer(
                target_schema=receiver.schema(),
                sender_schema=sender.schema(),
                k=k,
                mode=mode,
                policy=policy,
                compile_cache=self.compile_cache,
            )
            try:
                session = enforcer.session(document, invoker)
            except DocumentError as exc:
                raise BadRequestError(
                    "document not in wire normal form: %s" % exc
                )
            outcome = session.enforce()
            return session, outcome, _reply_check(outcome, receiver)

        session, outcome, reply = await self._loop.run_in_executor(
            self._pool, job
        )
        entry = SessionEntry(
            document_id=document_id,
            sender=sender.name,
            receiver=receiver.name,
            session=session,
            mode=mode,
            k=k,
            seed=seed,
        )
        evicted = self.sessions.put(entry)
        if evicted is not None:
            self._count_incremental("evicted")
            self.tracer.event(
                "gateway.session-evicted",
                document_id=evicted.document_id, peer=evicted.sender,
            )
        return outcome, reply, session, "opened"

    async def _apply_session_edits(
        self,
        sender_name: str,
        receiver: PeerRecord,
        edits_payload,
        document_id: str,
    ):
        """Parse the wire script and apply it to the live session."""
        from repro.incremental.edits import (
            EditError,
            EditScriptError,
            script_from_json,
        )

        entry = self.sessions.get(document_id)
        if entry is None:
            raise UnknownSessionError(
                "no live session for document id %r (open one by sending "
                "the full document)" % document_id
            )
        if entry.sender != sender_name or entry.receiver != receiver.name:
            raise BadRequestError(
                "session %r belongs to the exchange %s -> %s"
                % (document_id, entry.sender, entry.receiver)
            )
        try:
            script = script_from_json(edits_payload)
        except EditScriptError as exc:
            raise BadEditError(str(exc))

        def job():
            # Sessions are stateful: scripts for one document serialize
            # on the entry lock; different documents run in parallel.
            with entry.lock:
                try:
                    outcome = entry.session.apply(script)
                except EditError as exc:
                    raise BadEditError(str(exc))
                return outcome, _reply_check(outcome, receiver)

        outcome, reply = await self._loop.run_in_executor(self._pool, job)
        return outcome, reply, entry.session, "applied"

    def _count_incremental(self, event: str) -> None:
        self.metrics.counter(
            "repro_gateway_incremental_total",
            "Edit-script session events by kind (opened/applied/evicted)",
        ).inc(event=event)
