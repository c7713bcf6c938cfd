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
  The JSON, edit-script and streaming routes are adapters over one
  pipeline (resolve → admit → one pool job → release → count → reply,
  :meth:`Gateway._exchange`): the pool job parses and enforces (the
  engine inside may fan out via the wave scheduler, ``engine_workers``)
  and delivers the reply with the receiving peer's verdict on what it
  reads (:func:`~repro.axml.delivery.deliver`, a session's memoized
  delivery on the edit-script route, or the stream driver as elements
  close), so the loop only ever awaits;
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
import contextvars
import logging
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Tuple

from repro.axml.delivery import Delivery, deliver
from repro.axml.enforcement import EnforcementOutcome, SchemaEnforcer
from repro.compile.cache import CompilationCache
from repro.doc.document import Document
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

_log = logging.getLogger(__name__)

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
        #: The ``gateway.request`` span id of the request a task serves:
        #: its spans, on the loop or in the pool, name it as their parent.
        self._request_span = contextvars.ContextVar(
            "request_span", default=None
        )
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
            "gateway.request", parent_id=None, method=request.method,
            path=request.path,
        ) as span:
            self._request_span.set(getattr(span, "span_id", None))
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
            except Exception as error:
                # A fault of the gateway itself: still reply (typed 500
                # ``internal``) and count it, so the connection survives.
                _log.exception("unhandled error in %s", route)
                response = self._error_response(GatewayError(
                    "internal error (%s)" % type(error).__name__
                ), request.path)
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
                        span: str, settle=None, bridge: "_Bridge" = None,
                        inbound: int = 0, **attributes) -> Response:
        """Admit, run one pool job, release, count, reply: the pipeline
        behind every exchange route.

        ``job(started)`` enforces; the same pool job then delivers the
        enforced document (:func:`~repro.axml.delivery.deliver`), unless
        the job delivered it (a session does, through its memos) or
        streamed the reply through ``bridge`` with the receiver's
        verdict.  ``settle(done)`` runs on the loop, inside the route's
        span (``attributes``), once the job is back.  The route span and
        the job's ``gateway.job`` span hang under the request's span by
        id.  An admitted request counts its ``inbound`` document bytes.
        A failed enforcement, and any refusal raised after admission,
        count against the sender's breaker.  The receipt is the JSON
        body, or the streamed reply's trailers.
        """
        checker = receiver.checker(self.compile_cache)
        parent = self._request_span.get()

        def pooled(started: float) -> _Done:
            with self.tracer.span("gateway.job", parent_id=parent):
                done = job(started)
                if done.outcome.ok and done.report is None:
                    done.take(deliver(done.outcome.document, checker))
            return done

        started = self.clock.now()
        ticket = self.admission.admit(
            sender.name, per_peer_limit=sender.max_inflight
        )
        if inbound:
            self.metrics.counter(
                "repro_gateway_bytes_total",
                "Document bytes through the gateway",
            ).inc(inbound, direction="in")
        try:
            running = self._loop.run_in_executor(self._pool, pooled, started)
        except BaseException:
            ticket.release(success=False)
            raise

        async def settled() -> _Done:
            try:
                with self.tracer.span(
                    span, parent_id=parent, sender=sender.name,
                    receiver=receiver.name, **attributes,
                ) as active:
                    done = await running
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
            ticket.release(success=done.outcome.ok)
            if done.elapsed is None:
                done.elapsed = self.clock.now() - started
            self.metrics.histogram(
                "repro_gateway_exchange_seconds",
                "Enforcement wall time by mode",
                buckets=TIME_BUCKETS,
            ).observe(done.elapsed, mode=label)
            if done.outcome.ok:  # completed: count it and its bytes
                self.metrics.counter(
                    "repro_gateway_exchanges_total",
                    "Completed exchange enforcements",
                ).inc(accepted=str(done.report.ok).lower(), mode=label)
                self.metrics.counter(
                    "repro_gateway_bytes_total",
                    "Document bytes through the gateway",
                ).inc(done.out, direction="out")
            return done

        if bridge is not None:
            return bridge.reply(running, settled, ticket)
        done = await settled()
        if not done.outcome.ok:
            raise EnforcementFailedError(
                done.outcome.error or "enforcement failed"
            )
        return Response.json(dict(_receipt(done), document=done.wire))

    # -- routes: the exchange ------------------------------------------------

    async def _route_exchange(self, request: Request):
        content_type = (
            request.headers.get("content-type", "").split(";", 1)[0]
            .strip().lower()
        )
        streamed = content_type == "application/xml"
        if streamed:
            # Streaming exchange: raw XML body (Content-Length or
            # chunked), parameters in the query string.
            payload = dict(request.query)
            for key in ("k", "seed"):  # integers, as a JSON body has them
                try:
                    payload[key] = int(payload[key])
                except (KeyError, ValueError):
                    pass  # absent, or left for the check to refuse
        else:
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
        if streamed:
            return await self._route_exchange_stream(
                request, sender_name, receiver_name, mode, k, seed
            )
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
            sender, receiver, job, mode, "gateway.exchange",
            inbound=len(document_xml.encode("utf-8")), mode=mode,
        )

    # -- routes: the edit-script exchange ------------------------------------

    async def _route_exchange_incremental(
        self, payload: dict, sender_name: str, receiver_name: str,
        document_id: str, mode: str, k: int, seed: int,
    ) -> Response:
        """Incremental enforcement against a live per-document session.

        ``document`` opens (or replaces) the session — a full initial
        enforcement that warms the subtree memo, analysis cache, and
        materialization cache; ``edits`` applies a typed edit script to
        the open session and re-enforces only what the script touched.
        Responses carry the same receipt as the full path plus the
        session's reuse accounting.  The job delivers the reply through
        the session (:meth:`~repro.incremental.session.EnforcementSession
        .deliver`), under the entry's lock when the session is shared.
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
        checker = receiver.checker(self.compile_cache)
        event = "applied" if document_xml is None else "opened"

        def session_done(session, outcome) -> _Done:
            done = _Done(outcome, {
                "ok": outcome.ok, "event": event,
                "reused": outcome.nodes_reused,
                "reanalyzed": outcome.nodes_reanalyzed,
            }, {
                "document_id": document_id,
                "edits_applied": outcome.edits_applied,
                "passes": session.passes,
                "reuse": {name: getattr(outcome, name) for name in REUSE},
            }, session=session)
            if outcome.ok:
                done.take(session.deliver(checker))
            return done

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
            # Sessions are stateful: scripts for one document, and the
            # deliveries that read the session's memos, serialize on the
            # entry lock; different documents run in parallel.  (An opened
            # session is not shared before ``settle`` registers it.)
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
            inbound=len(document_xml.encode("utf-8"))
            if isinstance(document_xml, str) else 0,
            document_id=document_id,
        )

    # -- routes: the streaming exchange --------------------------------------

    async def _route_exchange_stream(self, request: Request, sender_name: str,
                                     receiver_name: str, mode: str, k: int,
                                     seed: int) -> StreamingResponse:
        """``POST /exchange`` with an ``application/xml`` body.

        The body's bytes (capped at intake, a chunked upload as soon as
        its running count crosses the limit) feed single-pass
        enforcement, handed the receiver's checker; the reply streams
        back while the tail is still being rewritten, and its receipt
        follows in ``X-Repro-*`` trailers, failures found mid-stream
        included: clients keep the body only if ``X-Repro-Accepted`` is
        ``true``.
        """
        if mode == "possible":
            raise BadRequestError(
                "the streaming exchange supports safe/auto modes only"
            )
        if "deadline" in request.query:
            raise BadRequestError(
                "'deadline' is not supported on the streaming exchange"
            )
        if not request.body.strip():
            raise BadRequestError("missing document body")
        sender, receiver = self._peers(sender_name, receiver_name)
        checker = receiver.checker(self.compile_cache)
        bridge = _Bridge(self._loop)

        def job(_started: float) -> _Done:
            invoker = self._invoker(sender, seed)
            enforcer = self._enforcer(sender, receiver, mode, k)
            try:
                try:
                    outcome = enforcer.enforce_stream(
                        request.body, invoker, bridge.write, checker
                    )
                    bridge.flush()
                except DocumentParseError as exc:
                    outcome = EnforcementOutcome(
                        None, None, False, 0, InvocationLog(),
                        error="unparseable document: %s" % exc,
                    )
            finally:
                bridge.push(None)
            return _Done(outcome, {}, {
                "cache_hits": outcome.cache_hits,
                "cache_misses": outcome.cache_misses,
            }, report=outcome.receiver_report, out=bridge.out)

        def settle(done: _Done) -> None:
            self.tracer.event(
                "gateway.exchange-streamed", sender=sender.name,
                receiver=receiver.name, ok=done.outcome.ok, bytes=done.out,
            )

        # The request span closes when the response head goes out, before
        # the body streams: the settlement names it as its parent by id.
        return await self._exchange(
            sender, receiver, job, "stream", "gateway.exchange.stream",
            settle, bridge, inbound=len(request.body),
        )


#: The receipt fields a streamed reply carries as trailers, when not
#: empty: ``ok`` and ``error`` are the enforcer's verdict, ``accepted``
#: and ``validation`` the receiver's.
TRAILERS = {
    "ok": "X-Repro-Ok",
    "error": "X-Repro-Error",
    "accepted": "X-Repro-Accepted",
    "calls": "X-Repro-Calls",
    "already_conformant": "X-Repro-Conformant",
    "cache_hits": "X-Repro-Cache-Hits",
    "cache_misses": "X-Repro-Cache-Misses",
    "degraded_functions": "X-Repro-Degraded",
    "validation": "X-Repro-Validation",
}


class _Bridge:
    """The streaming route's thread-to-loop bridge: the pool job writes
    the reply, which reaches the loop through a bounded queue in chunks
    of about 8 KB; ``None`` ends it."""

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self.loop = loop
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=64)
        self.buffer: List[str] = []
        self.buffered = 0
        self.out = 0  # body bytes handed to the loop
        self.abandoned = False

    def write(self, text: str) -> None:
        self.buffer.append(text)
        self.buffered += len(text)
        if self.buffered >= 8192:
            self.flush()

    def flush(self) -> None:
        if self.buffer:
            data = "".join(self.buffer).encode("utf-8")
            self.buffer.clear()
            self.buffered = 0
            self.out += len(data)
            self.push(data)

    def push(self, item: Optional[bytes]) -> None:
        """Thread side: block until the loop has queue space, re-checking
        every 5s that the client is still there; one that makes no
        progress for 60s counts as gone too (a sub-8KB/s reader is
        indistinguishable from a dead one, and the pool thread must not
        be parked forever)."""
        stalled = 0.0
        while True:
            if self.abandoned or stalled >= 60.0:
                raise ConnectionError("streaming client went away")
            handle = asyncio.run_coroutine_threadsafe(
                self.queue.put(item), self.loop
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

    def reply(self, running: asyncio.Future, settled, ticket
              ) -> StreamingResponse:
        """The response: the body as the job writes it, then the receipt
        ``settled()`` returns as trailers."""
        # Retrieve the job's exception even when the client vanishes and
        # nobody awaits the future (silences the never-retrieved warning).
        running.add_done_callback(lambda fut: fut.exception())
        receipts: List[_Done] = []

        async def body():
            try:
                while (data := await self.queue.get()) is not None:
                    yield data
                await asyncio.wait({running})
            except BaseException:
                self.abandoned = True
                ticket.release(success=False)
                raise
            try:
                receipts.append(await settled())
            except Exception:  # the 200 is out: report it in the trailers
                _log.exception("streamed exchange did not complete")

        def trailers():
            receipt = {"ok": False, "accepted": False,
                       "error": "enforcement did not complete"}
            if receipts:
                outcome = receipts[0].outcome
                receipt = dict(_receipt(receipts[0]), ok=outcome.ok,
                               error=outcome.error or "")
            return {TRAILERS[key]: _trailer(value)
                    for key, value in receipt.items()
                    if key in TRAILERS and value != "" and value != []}

        return StreamingResponse(
            chunks=body(), content_type="application/xml",
            headers={"Trailer": ", ".join(TRAILERS.values())},
            trailers=trailers,
        )


@dataclass
class _Done:
    """One exchange's pool job, as handed back to the event loop: the
    outcome (an :class:`EnforcementOutcome` or a session's), the route's
    end-of-span attributes and receipt fields, and, once enforcement
    succeeded, the reply and the receiver's verdict on it."""

    outcome: object
    span: dict
    receipt: dict
    #: Enforcement seconds; None: seconds since admission, filled in by
    #: :meth:`Gateway._exchange` when the ticket is released.
    elapsed: Optional[float] = None
    #: The session the job opened or edited (edit-script route).
    session: object = None
    wire: str = ""  # the reply, unless it was streamed
    report: Optional[ValidationReport] = None
    out: int = 0  # reply bytes

    def take(self, delivery: Delivery) -> None:
        """Hold the reply and the receiver's verdict on it."""
        self.wire, self.report, self.out = (
            delivery.wire, delivery.report, delivery.size
        )


def _receipt(done: _Done) -> dict:
    """One exchange's receipt: the JSON body's fields (beside the
    document), and the streamed reply's trailers (:data:`TRAILERS`)."""
    outcome = done.outcome
    accepted = outcome.ok and done.report.ok
    return {
        "accepted": accepted,
        "calls": outcome.calls_made,
        "already_conformant": outcome.already_conformant,
        "degraded_functions": list(outcome.degraded_functions),
        "validation": "" if accepted or not outcome.ok else str(done.report),
        "elapsed_seconds": round(done.elapsed, 6),
        **done.receipt,
    }


def _trailer(value) -> str:
    """A receipt value as a header field value."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        value = ",".join(value)
    return str(value).replace("\r", " ").replace("\n", " ")


def _parse(document_xml: str) -> Document:
    """Parse a request's document; a typed 400 when it is not XML."""
    try:
        return Document.from_xml(document_xml)
    except DocumentParseError as exc:
        raise BadRequestError("unparseable document: %s" % exc)
