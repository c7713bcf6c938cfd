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
  :mod:`repro.gateway.http`); CPU-bound enforcement never runs on it.
  The JSON and edit-script routes are adapters over one pipeline
  (resolve → admit → one pool job → release → count → reply,
  :meth:`Gateway._exchange`): the pool job parses, enforces (the engine
  inside may fan out via the wave scheduler, ``engine_workers``), runs
  the receiver check — the receiving peer's own-vocabulary
  :class:`~repro.schema.validate.InstanceChecker` on the enforced tree,
  or on the reply's parsed bytes when the tree is not in wire normal
  form (:func:`~repro.doc.normalize.is_wire_normal`) — and serializes
  the reply, so the loop only ever awaits.  The
  streaming route runs the same stages with the reply bridged out of
  its pool job as it is written;
- every exchange passes the admission gate
  (:class:`~repro.gateway.admission.AdmissionController`): bounded
  queue, per-peer concurrency limits, and per-peer circuit breakers
  wired to enforcement failures — load is shed with typed 429/503
  errors, never queued unboundedly;
- a JSON exchange's deadline is checked when its job leaves the queue,
  before every materialization
  (:func:`~repro.gateway.invoke.deadline_guard`) and once enforcement
  returns, so an expired request aborts with a 504;
- graceful shutdown (:meth:`Gateway.stop`) stops admitting, waits for
  every in-flight request to finish writing its response, then closes
  lingering keep-alive connections — no admitted request ever loses
  its response.
"""

from __future__ import annotations

import asyncio
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, Optional, Set, Tuple

from repro.axml.enforcement import EnforcementOutcome, SchemaEnforcer
from repro.compile.cache import CompilationCache
from repro.doc.document import Document
from repro.doc.normalize import is_wire_normal
from repro.errors import (
    DocumentError,
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
    UnknownGatewayPeerError,
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
from repro.rewriting.plan import InvocationLog
from repro.schema.patterns import allow_all, allow_only
from repro.schema.validate import ValidationReport
from repro.services.resilience import WallClock

#: Enforcement modes a request may ask for.
MODES = ("safe", "possible", "auto")

#: The session counters an edit-script receipt reports under ``reuse``.
REUSE = (
    "nodes_reanalyzed", "nodes_reused", "subtree_nodes_reused",
    "verify_checked", "verify_reused", "invocations_performed",
    "invocations_reused",
)


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
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        self._previous_obs = (obs.tracer(), obs.metrics())
        obs.install(self.tracer, self.metrics)
        self._pool = futures.ThreadPoolExecutor(
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

    # -- the exchange pipeline -----------------------------------------------
    #
    # resolve → admit → parse → verify → rewrite → post-check → receiver
    # check → serialize → reply; the stage contracts are in docs/GATEWAY.md.

    def _peers(self, sender: str, receiver: str):
        """Resolve: both peers' records, or the typed 404."""
        try:
            return self.registry.get(sender), self.registry.get(receiver)
        except UnknownPeerError as exc:
            raise UnknownGatewayPeerError(str(exc))

    def _enforcer(
        self, sender: PeerRecord, receiver: PeerRecord, mode: str, k: int
    ) -> SchemaEnforcer:
        """The receiver's schema as target, the sender's signatures and
        obligations as source and policy."""
        return SchemaEnforcer(
            target_schema=receiver.schema(),
            sender_schema=sender.schema(),
            k=k,
            mode=mode,
            policy=(
                allow_only(sender.obligations)
                if sender.obligations else allow_all()
            ),
            workers=self.config.engine_workers,
            compile_cache=self.compile_cache,
        )

    def _invoker(self, sender: PeerRecord, seed: int, started: float = 0.0,
                 deadline: Optional[float] = None):
        """The sender's compiled sampler (per-call seeded: every pass is a
        pure function of ``(seed, call)``) → service delay → deadline guard."""
        invoker = sampling_invoker(sender.sampler(), seed)
        invoker = delayed(invoker, self.clock, self.config.invoke_delay)
        return deadline_guard(invoker, self.clock, started, deadline)

    async def _exchange(self, sender: PeerRecord, receiver: PeerRecord,
                        job: Callable[[float], "_Done"], label: str,
                        span: str, settle=None, **attributes) -> Response:
        """Admit, run one pool job, release, count, reply: the pipeline
        behind the JSON and edit-script routes.

        ``job(started)`` parses and enforces (verify → rewrite →
        post-check); the same pool job then serializes the enforced
        tree and runs the receiver check on what the receiver reads (the
        tree itself when its bytes rebuild it), so the event loop only
        awaits.  ``settle(done)`` runs on the loop, inside the route's
        span (``attributes``), once the job is back.  A failed
        enforcement, and any refusal raised after admission, count
        against the sender's breaker.
        """
        checker = receiver.checker(self.compile_cache)

        def pooled(started: float) -> _Done:
            done = job(started)
            if done.outcome.ok:
                received = done.outcome.document
                done.wire = received.to_xml()
                if not is_wire_normal(received.root):
                    # Its bytes do not rebuild this tree (text among
                    # siblings): check what the receiver reads, if any.
                    received = Document.from_xml(done.wire)
                done.report = checker.validate(received.root)
            return done

        started = self.clock.now()
        ticket = self.admission.admit(
            sender.name, per_peer_limit=sender.max_inflight
        )
        try:
            with self.tracer.span(
                span, sender=sender.name, receiver=receiver.name,
                **attributes,
            ) as active:
                done = await self._loop.run_in_executor(
                    self._pool, pooled, started
                )
                if settle is not None:
                    settle(done)
                active.set(**done.span)
        except BaseException as exc:
            ticket.release(success=False)
            if isinstance(exc, DeadlineExceededError):
                self.metrics.counter(
                    "repro_gateway_deadline_total",
                    "Requests aborted by their deadline",
                ).inc(peer=sender.name)
            raise
        outcome = done.outcome
        ticket.release(success=outcome.ok)
        if done.elapsed is None:
            done.elapsed = self.clock.now() - started
        if not outcome.ok:
            self._count_exchange(label, done.elapsed)
            raise EnforcementFailedError(outcome.error or "enforcement failed")
        accepted = done.report.ok
        self._count_exchange(
            label, done.elapsed, accepted, len(done.wire.encode("utf-8"))
        )
        return Response.json({
            "accepted": accepted,
            "document": done.wire,
            "calls": outcome.calls_made,
            "already_conformant": outcome.already_conformant,
            "degraded_functions": list(outcome.degraded_functions),
            "validation": "" if accepted else str(done.report),
            "elapsed_seconds": round(done.elapsed, 6),
            **done.receipt,
        })

    def _count_exchange(self, label: str, elapsed: float,
                        accepted: Optional[bool] = None, out: int = 0):
        """Observe an exchange's time; count a completed one (``accepted``
        set) and its output bytes."""
        self.metrics.histogram(
            "repro_gateway_exchange_seconds",
            "Enforcement wall time by mode",
            buckets=TIME_BUCKETS,
        ).observe(elapsed, mode=label)
        if accepted is None:
            return
        self.metrics.counter(
            "repro_gateway_exchanges_total",
            "Completed exchange enforcements",
        ).inc(accepted=str(accepted).lower(), mode=label)
        self.metrics.counter(
            "repro_gateway_bytes_total", "Document bytes through the gateway"
        ).inc(out, direction="out")

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
        for role, name in (("sender", sender_name),
                           ("receiver", receiver_name)):
            if not isinstance(name, str) or not name:
                raise BadRequestError("missing or malformed %r" % role)
        mode = payload.get("mode", self.config.mode)
        if mode not in MODES:
            raise BadRequestError("mode must be one of %s" % ", ".join(MODES))
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
        sender, receiver = self._peers(sender_name, receiver_name)
        clock = self.clock

        def job(started: float) -> _Done:
            if deadline is not None and clock.now() - started > deadline:
                # Spent its whole budget waiting in the queue.
                raise DeadlineExceededError(
                    "deadline of %.3fs expired before enforcement started"
                    % deadline
                )
            document = _parse(document_xml)
            invoker = self._invoker(sender, seed, started, deadline)
            enforcer = self._enforcer(sender, receiver, mode, k)
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
            return _Done(outcome, {
                "ok": outcome.ok, "calls": outcome.calls_made,
                "already_conformant": outcome.already_conformant,
            }, {
                "cache_hits": outcome.cache_hits,
                "cache_misses": outcome.cache_misses,
            }, elapsed=now - enforce_started)

        return await self._exchange(
            sender, receiver, job, mode, "gateway.exchange", mode=mode
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
        from repro.incremental.edits import (
            EditError, EditScriptError, script_from_json,
        )

        document_xml = payload.get("document")
        edits_payload = payload.get("edits")
        if (document_xml is None) == (edits_payload is None):
            raise BadRequestError(
                "edit-script mode takes exactly one of 'document' (open "
                "the session) or 'edits' (apply a script)"
            )
        sender, receiver = self._peers(sender_name, receiver_name)
        event = "applied" if document_xml is None else "opened"

        def session_done(session, outcome) -> _Done:
            return _Done(outcome, {
                "ok": outcome.ok, "event": event,
                "reused": outcome.nodes_reused,
                "reanalyzed": outcome.nodes_reanalyzed,
            }, {
                "document_id": document_id,
                "edits_applied": outcome.edits_applied,
                "passes": session.passes,
                "reuse": {name: getattr(outcome, name) for name in REUSE},
            }, session=session)

        def open_job(_started: float) -> _Done:
            document = _parse(document_xml)
            invoker = self._invoker(sender, seed)
            enforcer = self._enforcer(sender, receiver, mode, k)
            try:
                session = enforcer.session(document, invoker)
            except DocumentError as exc:
                raise BadRequestError(
                    "document not in wire normal form: %s" % exc
                )
            return session_done(session, session.enforce())

        def apply_job(_started: float) -> _Done:
            entry = self.sessions.get(document_id)
            if entry is None:
                raise UnknownSessionError(
                    "no live session for document id %r (open one by "
                    "sending the full document)" % document_id
                )
            if (entry.sender, entry.receiver) != (sender.name, receiver.name):
                raise BadRequestError(
                    "session %r belongs to the exchange %s -> %s"
                    % (document_id, entry.sender, entry.receiver)
                )
            try:
                script = script_from_json(edits_payload)
            except EditScriptError as exc:
                raise BadEditError(str(exc))
            # Sessions are stateful: scripts for one document serialize on
            # the entry lock; different documents run in parallel.
            with entry.lock:
                try:
                    outcome = entry.session.apply(script)
                except EditError as exc:
                    raise BadEditError(str(exc))
                return session_done(entry.session, outcome)

        def settle(done: _Done) -> None:
            events = self.metrics.counter(
                "repro_gateway_incremental_total",
                "Edit-script session events by kind (opened/applied/evicted)",
            )
            if event == "opened":
                evicted = self.sessions.put(SessionEntry(
                    document_id, sender.name, receiver.name, done.session,
                ))
                if evicted is not None:
                    events.inc(event="evicted")
                    self.tracer.event(
                        "gateway.session-evicted",
                        document_id=evicted.document_id, peer=evicted.sender,
                    )
            events.inc(event=event)

        return await self._exchange(
            sender, receiver, apply_job if document_xml is None else open_job,
            "incremental", "gateway.exchange.incremental", settle,
            document_id=document_id,
        )

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
        discard the partial body when it is ``false``.  There is no
        receiver check: the tree is never held whole, so ``X-Repro-Ok``
        is the enforcer's verdict.
        """
        query = request.query
        sender_name = query.get("sender", "")
        receiver_name = query.get("receiver", "")
        for role, name in (("sender", sender_name),
                           ("receiver", receiver_name)):
            if not name:
                raise BadRequestError("missing %r query parameter" % role)
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
        sender, receiver = self._peers(sender_name, receiver_name)
        # The dispatch span: it closes when the response head goes out,
        # before the body streams, so the settlement is recorded under it.
        request_span = self.tracer.current()

        self.metrics.counter(
            "repro_gateway_bytes_total", "Document bytes through the gateway"
        ).inc(len(request.body), direction="in")
        started = self.clock.now()
        ticket = self.admission.admit(
            sender_name, per_peer_limit=sender.max_inflight
        )

        loop = self._loop
        queue: asyncio.Queue = asyncio.Queue(maxsize=64)
        state = {"outcome": None, "abandoned": False}
        _DONE = object()

        def push(item) -> None:
            """Thread side: block until the loop has queue space.

            Re-checks client abandonment every 5s; a consumer that makes
            no progress for 60s counts as gone too (a sub-8KB/s reader
            is indistinguishable from a dead one, and the pool thread
            must not be parked forever).
            """
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

            invoker = self._invoker(sender, seed)
            enforcer = self._enforcer(sender, receiver, mode, k)
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
                ticket.release(success=ok)
                self._count_exchange(
                    "stream", self.clock.now() - started, ok, bytes_out
                )
                with self.tracer.span(
                    "gateway.exchange.stream",
                    parent_id=getattr(request_span, "span_id", None),
                    sender=sender_name, receiver=receiver_name,
                ):
                    self.tracer.event(
                        "gateway.exchange-streamed", sender=sender_name,
                        receiver=receiver_name, ok=ok, bytes=bytes_out,
                    )
            except BaseException:
                state["abandoned"] = True
                ticket.release(success=False)
                raise

        def trailers():
            outcome = state["outcome"]
            if outcome is None:
                return {"X-Repro-Ok": "false",
                        "X-Repro-Error": "enforcement did not complete"}
            fields = {
                "X-Repro-Ok": str(outcome.ok).lower(),
                "X-Repro-Calls": str(outcome.calls_made),
                "X-Repro-Conformant": str(outcome.already_conformant).lower(),
                "X-Repro-Cache-Hits": str(outcome.cache_hits),
                "X-Repro-Cache-Misses": str(outcome.cache_misses),
            }
            if outcome.degraded_functions:
                fields["X-Repro-Degraded"] = ",".join(outcome.degraded_functions)
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


@dataclass
class _Done:
    """One exchange's pool job, as handed back to the event loop: the
    outcome (an :class:`EnforcementOutcome` or a session's), the route's
    end-of-span attributes and receipt fields, and — when enforcement
    succeeded — the serialized reply and the receiver's verdict on it."""

    outcome: object
    span: dict
    receipt: dict
    #: Enforcement seconds; None: seconds since admission, filled in by
    #: :meth:`Gateway._exchange` when the ticket is released.
    elapsed: Optional[float] = None
    #: The session the job opened or edited (edit-script route).
    session: object = None
    wire: str = ""
    report: Optional[ValidationReport] = None


def _parse(document_xml: str) -> Document:
    """Parse a request's document; a typed 400 when it is not XML."""
    try:
        return Document.from_xml(document_xml)
    except DocumentParseError as exc:
        raise BadRequestError("unparseable document: %s" % exc)
