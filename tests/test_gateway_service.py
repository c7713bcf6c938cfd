"""End-to-end tests for the exchange gateway service.

Each test runs a real gateway (ephemeral port, background event loop
via :class:`GatewayThread`) and talks to it over actual sockets with
:class:`GatewayClient` — the same wire path a remote peer uses.
"""

import asyncio
import threading

import pytest

from repro.doc.nodes import Text
from repro.gateway import GatewayClient, GatewayConfig, GatewayThread
from repro.gateway.http import parse_chunked_response
from repro.gateway.loadgen import OBLIGATIONS, _scenario, direct_enforcement

SENDER_XSD, RECEIVER_XSD, DOCUMENT_XML = _scenario()


def run(coro):
    return asyncio.run(coro)


async def _register(client: GatewayClient) -> None:
    reply = await client.register_peer(
        "alice", SENDER_XSD, obligations=OBLIGATIONS
    )
    assert reply.status == 201, reply.body
    reply = await client.register_peer("bob", RECEIVER_XSD)
    assert reply.status == 201, reply.body


@pytest.fixture
def gateway():
    with GatewayThread(GatewayConfig()) as harness:
        async def setup():
            client = GatewayClient(harness.host, harness.port)
            try:
                await _register(client)
            finally:
                await client.close()

        run(setup())
        yield harness


class TestRoundTrip:
    def test_exchange_matches_direct_library_path(self, gateway):
        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                return await client.exchange(
                    "alice", "bob", DOCUMENT_XML, seed=42
                )
            finally:
                await client.close()

        reply = run(go())
        assert reply.status == 200
        payload = reply.json()
        assert payload["accepted"] is True
        assert payload["calls"] == 1
        assert payload["document"] == direct_enforcement(
            SENDER_XSD, RECEIVER_XSD, DOCUMENT_XML, seed=42
        )

    def test_reply_check_runs_off_the_event_loop(self, gateway, monkeypatch):
        # The receiver check walks the whole enforced document; run on
        # the loop it would stall every connection.  It is the receiving
        # peer's own checker, once per reply (the enforcer's post-check
        # runs its own, sender-aware one).
        from repro.schema.validate import InstanceChecker

        receiver_checker = gateway.gateway.registry.get("bob").checker(
            gateway.gateway.compile_cache
        )
        threads = []
        receive = InstanceChecker.receive

        def recording_receive(checker, root, memo=None):
            if checker is receiver_checker:
                threads.append(threading.current_thread())
            return receive(checker, root, memo)

        monkeypatch.setattr(InstanceChecker, "receive", recording_receive)

        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                return await client.exchange(
                    "alice", "bob", DOCUMENT_XML, seed=42
                )
            finally:
                await client.close()

        reply = run(go())
        assert reply.status == 200
        assert reply.json()["accepted"] is True
        assert len(threads) == 1, "the reply was not checked exactly once"
        assert gateway._thread not in threads

    def test_keep_alive_reuses_one_connection(self, gateway):
        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                first = await client.exchange("alice", "bob", DOCUMENT_XML)
                writer = client._writer
                second = await client.exchange("alice", "bob", DOCUMENT_XML)
                assert client._writer is writer  # no reconnect happened
                return first, second
            finally:
                await client.close()

        first, second = run(go())
        assert first.status == second.status == 200
        # Same seed, same request → byte-identical replies.
        assert first.json()["document"] == second.json()["document"]

    def test_health_stats_and_peer_listing(self, gateway):
        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                health = await client.health()
                stats = (await client.request("GET", "/stats")).json()
                peers = (await client.request("GET", "/peers")).json()
                return health, stats, peers
            finally:
                await client.close()

        health, stats, peers = run(go())
        assert health["status"] == "ok" and health["peers"] == 2
        assert stats["peers"] == ["alice", "bob"]
        assert [p["name"] for p in peers["peers"]] == ["alice", "bob"]

    def test_remove_peer(self, gateway):
        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                removed = await client.request("DELETE", "/peers/bob")
                missing = await client.request("DELETE", "/peers/bob")
                gone = await client.exchange("alice", "bob", DOCUMENT_XML)
                return removed, missing, gone
            finally:
                await client.close()

        removed, missing, gone = run(go())
        assert removed.status == 200
        assert missing.status == 404
        assert missing.error_code == "unknown-peer"
        assert gone.status == 404 and gone.error_code == "unknown-peer"

    def test_unknown_route_is_typed_404(self, gateway):
        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                return await client.request("GET", "/nope")
            finally:
                await client.close()

        reply = run(go())
        assert reply.status == 404 and reply.error_code == "unknown-route"


def _sender_only_call_scenario():
    """(sender xsd, receiver xsd, document xml): ``<r>`` keeps a call
    ``g`` whose signature only the sender declares."""
    from repro.doc.builder import call, el
    from repro.doc.document import Document
    from repro.schema.model import SchemaBuilder
    from repro.xschema.writer import schema_to_xschema

    sender = (
        SchemaBuilder().element("r", "g").element("x", "data")
        .function("g", "eps", "x").root("r").build(strict=False)
    )
    receiver = (
        SchemaBuilder().element("r", "g | x").element("x", "data")
        .root("r").build(strict=False)
    )
    return (
        schema_to_xschema(sender), schema_to_xschema(receiver),
        Document(el("r", call("g"))).to_xml(),
    )


def _text_answer_scenario(output: str, receiver_content: str,
                          sender_content: str):
    """(sender xsd, receiver xsd, document xml): ``<r>`` holds a call
    ``g`` answered with ``output``, which carries text at its top level."""
    from repro.doc.builder import call, el
    from repro.doc.document import Document
    from repro.schema.model import SchemaBuilder
    from repro.xschema.writer import schema_to_xschema

    sender = (
        SchemaBuilder().element("r", sender_content).element("x", "data")
        .function("g", "eps", output).root("r").build(strict=False)
    )
    receiver = (
        SchemaBuilder().element("r", receiver_content)
        .element("x", "data").root("r").build(strict=False)
    )
    children = [el("x", "1")] if sender_content.startswith("x") else []
    return (
        schema_to_xschema(sender), schema_to_xschema(receiver),
        Document(el("r", *children, call("g"))).to_xml(),
    )


def _exchange_open_and_stream(gateway, scenario, document_id):
    """Register the scenario's peers; the JSON reply, a session open and
    the streamed reply (parsed)."""
    sender_xsd, receiver_xsd, document_xml = scenario

    async def go():
        client = GatewayClient(gateway.host, gateway.port)
        try:
            for name, xsd in (("carol", sender_xsd), ("dave", receiver_xsd)):
                reply = await client.register_peer(name, xsd)
                assert reply.status == 201, reply.body
            plain = await client.exchange("carol", "dave", document_xml)
            opened = await client.open_session(
                "carol", "dave", document_id, document_xml
            )
            return plain, opened
        finally:
            await client.close()

    plain, opened = run(go())
    streamed = run(_streamed(gateway, "sender=carol&receiver=dave",
                             document_xml))
    return plain, opened, streamed


async def _streamed(gateway, query: str, document_xml: str):
    """One streamed exchange on its own connection, parsed."""
    reader, writer = await asyncio.open_connection(gateway.host, gateway.port)
    body = document_xml.encode("utf-8")
    writer.write((
        "POST /exchange?%s HTTP/1.1\r\nHost: gw\r\n"
        "Content-Type: application/xml\r\nContent-Length: %d\r\n"
        "Connection: close\r\n\r\n" % (query, len(body))
    ).encode("latin-1") + body)
    await writer.drain()
    blob = await asyncio.wait_for(reader.read(), timeout=30)
    writer.close()
    return parse_chunked_response(blob)


def _network_send(scenario, answer, with_network=False):
    """The scenario as a ``PeerNetwork`` transfer from carol to dave,
    whose agreement is dave's vocabulary; carol's service answers every
    call ``g`` with ``answer``."""
    from repro import AXMLPeer, PeerNetwork, Service, constant_responder
    from repro.doc.document import Document
    from repro.xschema.compile import compile_xschema
    from repro.xschema.parser import parse_xschema

    sender_xsd, receiver_xsd, document_xml = scenario
    sender, receiver = (compile_xschema(parse_xschema(xsd))
                        for xsd in (sender_xsd, receiver_xsd))
    carol = AXMLPeer("carol", sender, parallelism=1)
    service = Service("urn:g", "urn:g")
    service.add_operation(
        "g", sender.signature_of("g"), constant_responder(answer)
    )
    carol.registry.register(service)
    network = PeerNetwork()
    network.add_peer(carol)
    network.add_peer(AXMLPeer("dave", receiver))
    network.agree("carol", "dave", receiver)
    carol.repository.store("doc", Document.from_xml(document_xml))
    receipt = network.send("carol", "dave", "doc")
    return (receipt, network) if with_network else receipt


class TestOneEnforcementVerdict:
    def test_kept_call_fails_alike_on_every_route(self, gateway):
        # The engine checks the call the output keeps: the JSON route
        # and a session open answer 422, the streamed trailers say
        # X-Repro-Ok: false, all with one text, and each counts against
        # the sender's breaker.
        from tests.test_enforcement_check import (
            KEPT_CALL_ERROR, kept_call_scenario,
        )
        from repro.xschema.writer import schema_to_xschema

        sender, receiver, document, _invoker = kept_call_scenario()
        plain, opened, streamed = _exchange_open_and_stream(gateway, (
            schema_to_xschema(sender), schema_to_xschema(receiver),
            document.to_xml(),
        ), "doc-kept")
        for reply in (plain, opened):
            assert reply.status == 422, reply.body
            assert reply.error_code == "enforcement-failed"
            assert reply.json()["detail"] == KEPT_CALL_ERROR
        status, _headers, _body, trailers = streamed
        assert status == 200
        assert trailers["x-repro-ok"] == "false"
        assert trailers["x-repro-accepted"] == "false"
        assert trailers["x-repro-error"] == KEPT_CALL_ERROR
        breaker = gateway.gateway.admission.breaker_for("carol")
        assert breaker.consecutive_failures == 3


class TestReceiverVerdict:
    """``accepted`` is the receiver's own-vocabulary verdict, not the
    enforcer's (which also reads the sender's signatures), on what the
    receiver reads: the reply's bytes.  The JSON route, a session open,
    the streaming route (``X-Repro-Accepted``) and ``PeerNetwork.send``
    all reach it, and none raises."""

    def test_mixed_content_reply_is_refused(self, gateway):
        # g answers one text node, spliced in next to <x>: the enforced
        # tree conforms, but its bytes are mixed content, which no peer
        # parses back.
        refusal = "mixed content under <r> is not part of the simple model"
        scenario = _text_answer_scenario("data", "x.data", "x.g")
        plain, opened, streamed = _exchange_open_and_stream(
            gateway, scenario, "doc-mixed"
        )
        for reply in (plain, opened):
            assert reply.status == 200, reply.body
            payload = reply.json()
            assert payload["calls"] == 1
            assert payload["accepted"] is False
            assert payload["validation"] == "unparseable: " + refusal
        status, _headers, _body, trailers = streamed
        assert status == 200
        assert trailers["x-repro-ok"] == "true"
        assert trailers["x-repro-accepted"] == "false"
        assert trailers["x-repro-validation"] == "unparseable: " + refusal
        receipt = _network_send(scenario, (Text("rain"),))
        assert receipt.calls_materialized == 1
        assert receipt.accepted is False
        assert receipt.error == "unparseable: " + refusal

    def test_adjacent_text_reply_is_checked_as_read(self, gateway):
        # Two text nodes serialize as one text run: the receiver reads a
        # single data value, which 'data.data' does not admit.
        scenario = _text_answer_scenario("data.data", "data.data", "g")
        plain, opened, streamed = _exchange_open_and_stream(
            gateway, scenario, "doc-texts"
        )
        diagnosis = (
            "children word #data does not match #data.#data (word ends "
            "too early; expected #data)"
        )
        for reply in (plain, opened):
            assert reply.status == 200, reply.body
            payload = reply.json()
            assert payload["calls"] == 1
            assert payload["accepted"] is False
            assert payload["validation"] == "content at /: " + diagnosis
        status, _headers, _body, trailers = streamed
        assert status == 200
        assert trailers["x-repro-ok"] == "true"
        assert trailers["x-repro-accepted"] == "false"
        # A streamed word's position is not final when it closes.
        assert trailers["x-repro-validation"] == "content: " + diagnosis
        receipt = _network_send(scenario, (Text("a"), Text("b")))
        assert receipt.accepted is False
        assert receipt.error == "content at /: " + diagnosis

    def test_sender_only_signature_is_not_accepted(self, gateway):
        plain, opened, streamed = _exchange_open_and_stream(
            gateway, _sender_only_call_scenario(), "doc-g"
        )
        undeclared = "function 'g' has no declared signature"
        for reply in (plain, opened):
            assert reply.status == 200, reply.body
            payload = reply.json()
            # The enforcer found the call conformant (the sender
            # declares g) and made no call ...
            assert payload["already_conformant"] is True
            assert payload["calls"] == 0
            # ... but the receiver's vocabulary does not declare g.
            assert payload["accepted"] is False
            assert payload["validation"] == (
                "undeclared-function at /0: " + undeclared
            )
        status, _headers, _body, trailers = streamed
        assert status == 200
        assert trailers["x-repro-ok"] == "true"
        assert trailers["x-repro-conformant"] == "true"
        assert trailers["x-repro-accepted"] == "false"
        assert trailers["x-repro-validation"] == (
            "undeclared-function: " + undeclared
        )
        receipt = _network_send(_sender_only_call_scenario(), ())
        assert receipt.accepted is False
        assert receipt.error == "undeclared-function at /0: " + undeclared

    def test_network_send_refuses_mixed_content(self):
        # The call is made, then the receiver cannot read the reply: a
        # refusal on the receipt, counted and traced, not an exception.
        from repro.obs import MetricsRegistry, Tracer, observing

        scenario = _text_answer_scenario("data", "x.data", "x.g")
        tracer, metrics = Tracer(), MetricsRegistry()
        with observing(tracer, metrics):
            receipt, network = _network_send(
                scenario, (Text("rain"),), with_network=True
            )
        assert network.receipts == [receipt]
        assert receipt.accepted is False
        assert "mixed content under <r>" in receipt.error
        assert network.peers["dave"].repository.names() == []
        assert 'repro_transfers_total{accepted="false"} 1' in (
            metrics.to_prometheus()
        )
        (exchange,) = [span for span in tracer.finished()
                       if span.name == "exchange"]
        assert exchange.attributes["accepted"] is False
        assert exchange.attributes["calls"] == 1


class TestPeerCompiledState:
    def test_sender_sampler_is_compiled_once(self, gateway, monkeypatch):
        # Each request only derives its RNG from (seed, call): the
        # sender's sampler is compiled on its first exchange and shared.
        from repro.schema.generator import SchemaSampler

        expected = {
            seed: direct_enforcement(
                SENDER_XSD, RECEIVER_XSD, DOCUMENT_XML, seed=seed
            )
            for seed in (3, 4, 5)
        }
        built = []
        init = SchemaSampler.__init__

        def counting_init(sampler, schema):
            built.append(schema)
            init(sampler, schema)

        monkeypatch.setattr(SchemaSampler, "__init__", counting_init)

        async def exchange(client, seed):
            reply = await client.exchange(
                "alice", "bob", DOCUMENT_XML, seed=seed
            )
            assert reply.status == 200, reply.body
            return reply.json()["document"]

        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                first = await exchange(client, 3)
                assert len(built) == 1
                later = [await exchange(client, 4), await exchange(client, 5)]
                opened = await client.open_session(
                    "alice", "bob", "doc-s", DOCUMENT_XML, seed=5
                )
                return [first] + later, opened
            finally:
                await client.close()

        documents, opened = run(go())
        assert len(built) == 1
        assert documents == [expected[3], expected[4], expected[5]]
        assert opened.json()["document"] == expected[5]


class TestMetrics:
    def test_scrape_after_exchange(self, gateway):
        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                await client.exchange("alice", "bob", DOCUMENT_XML)
                return await client.metrics_text()
            finally:
                await client.close()

        text = run(go())
        assert 'repro_gateway_requests_total{route="POST /exchange"' in text
        assert 'repro_gateway_exchanges_total{accepted="true",mode="safe"}' \
            in text
        assert "repro_gateway_request_seconds_bucket" in text
        assert "repro_gateway_up 1" in text
        # The latency histogram feeds a streaming quantile sketch.
        histogram = gateway.gateway.metrics.get(
            "repro_gateway_request_seconds"
        )
        p99 = histogram.quantile(0.99, route="POST /exchange")
        assert p99 is not None and p99 > 0
        # Enforcement work counters flow into the gateway's registry.
        assert "repro_work_total" in text

    def test_inbound_bytes_are_the_json_document(self, gateway):
        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                reply = await client.exchange("alice", "bob", DOCUMENT_XML)
                assert reply.status == 200, reply.body
                return await client.metrics_text()
            finally:
                await client.close()

        text = run(go())
        size = len(DOCUMENT_XML.encode("utf-8"))
        assert 'repro_gateway_bytes_total{direction="in"} %d' % size in text


def _node_spans(metrics_text: str):
    """(repro_spans_total, repro_span_seconds_count) for ``node``."""
    samples = dict(line.rsplit(" ", 1) for line in metrics_text.splitlines()
                   if not line.startswith("#"))
    return tuple(float(samples.get(series + '{name="node"}', 0))
                 for series in ("repro_spans_total",
                                "repro_span_seconds_count"))


class TestEnforcementSpans:
    def test_every_exchange_route_traces_its_words(self, gateway):
        # repro serve traces every request: the JSON, streaming and
        # edit-script routes each add node spans (one per children word),
        # and the span bridge counts each of them once in both series.
        from repro.doc.nodes import Element, Text
        from repro.incremental.edits import replace, script_to_json

        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            counts = [_node_spans(await client.metrics_text())]
            try:
                reply = await client.exchange("alice", "bob", DOCUMENT_XML,
                                              seed=11)
                assert reply.status == 200, reply.body
                counts.append(_node_spans(await client.metrics_text()))
                status, _headers, _body, trailers = await _streamed(
                    gateway, "sender=alice&receiver=bob&seed=11", DOCUMENT_XML
                )
                assert status == 200 and trailers["x-repro-ok"] == "true"
                counts.append(_node_spans(await client.metrics_text()))
                reply = await client.open_session(
                    "alice", "bob", "doc-1", DOCUMENT_XML, seed=11
                )
                assert reply.status == 200, reply.body
                script = script_to_json(
                    [replace((0,), Element("title", (Text("The Moon"),)))]
                )
                reply = await client.apply_edits("alice", "bob", "doc-1",
                                                 script)
                assert reply.status == 200, reply.body
                counts.append(_node_spans(await client.metrics_text()))
                return counts
            finally:
                await client.close()

        counts = run(go())
        assert counts[0] == (0.0, 0.0)
        for before, after in zip(counts, counts[1:]):
            assert after[0] > before[0]
        for spans_total, seconds_count in counts:
            assert spans_total == seconds_count
        # The request and exchange latency histograms keep their
        # quantiles; only the span histogram tracks none.
        metrics = gateway.gateway.metrics
        assert metrics.get("repro_gateway_request_seconds").tracked \
            == (0.5, 0.95, 0.99)
        assert metrics.get("repro_gateway_exchange_seconds").quantile(
            0.99, mode="safe") > 0
        assert metrics.get("repro_span_seconds").tracked == ()


class TestOneSpanTreePerRequest:
    def test_concurrent_requests_keep_their_trees_apart(self):
        # Three JSON exchanges in flight at once (each call sleeps, so
        # they overlap): each request's spans, from enforce down to
        # transfer.*, descend from its own gateway.request, a root.
        config = GatewayConfig(invoke_delay=0.05)
        with GatewayThread(config) as harness:
            async def go():
                clients = [GatewayClient(harness.host, harness.port)
                           for _ in range(3)]
                try:
                    await _register(clients[0])
                    harness.gateway.tracer.clear()
                    replies = await asyncio.gather(*(
                        client.exchange("alice", "bob", DOCUMENT_XML,
                                        seed=seed)
                        for seed, client in enumerate(clients)
                    ))
                finally:
                    for client in clients:
                        await client.close()
                return replies

            replies = run(go())
            spans = harness.gateway.tracer.finished()
        assert [reply.status for reply in replies] == [200] * 3
        by_id = {span.span_id: span for span in spans}

        def request_of(span):
            while span.parent_id is not None:
                span = by_id[span.parent_id]
            return span

        requests = [span for span in spans if span.name == "gateway.request"]
        assert len(requests) == 3
        assert all(span.parent_id is None for span in requests)
        trees = {span.span_id: [] for span in requests}
        for span in spans:
            if span.name != "gateway.request":
                root = request_of(span)
                assert root.name == "gateway.request", span.name
                trees[root.span_id].append(span.name)
        for names in trees.values():
            for name in ("gateway.exchange", "gateway.job", "enforce",
                         "transfer.serialize", "transfer.validate"):
                assert names.count(name) == 1, (name, names)


class TestInternalErrors:
    def test_an_untyped_route_error_is_a_typed_500_and_the_connection_lives(
        self, gateway
    ):
        async def broken(_request):
            raise RuntimeError("a bug in a route")

        gateway.gateway._routes[("GET", "/healthz")] = broken

        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                failed = await client.request("GET", "/healthz")
                writer = client._writer
                peers = await client.request("GET", "/peers")
                assert client._writer is writer  # the same connection
                return failed, peers, await client.metrics_text()
            finally:
                await client.close()

        failed, peers, metrics = run(go())
        assert failed.status == 500
        assert failed.json() == {"error": "internal",
                                 "detail": "internal error (RuntimeError)",
                                 "status": 500}
        assert peers.status == 200
        assert 'repro_gateway_errors_total{code="internal"} 1' in metrics
        assert ('repro_gateway_requests_total{route="GET /healthz",'
                'status="500"} 1') in metrics


class TestSnapshots:
    def test_warm_start_from_peer_snapshot(self, gateway):
        async def warm():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                await client.exchange("alice", "bob", DOCUMENT_XML)
                return await client.export_snapshot()
            finally:
                await client.close()

        blob = run(warm())
        assert blob  # the exchange compiled artifacts into the cache

        with GatewayThread(GatewayConfig()) as fresh:
            async def seed_and_use():
                client = GatewayClient(fresh.host, fresh.port)
                try:
                    imported = await client.import_snapshot(blob)
                    await _register(client)
                    reply = await client.exchange(
                        "alice", "bob", DOCUMENT_XML, seed=7
                    )
                    stats = (await client.request("GET", "/stats")).json()
                    return imported, reply, stats
                finally:
                    await client.close()

            imported, reply, stats = run(seed_and_use())
        assert imported.status == 200
        assert imported.json()["imported"] > 0
        assert reply.status == 200
        # The pre-seeded cache serves compile hits on the first exchange.
        assert stats["compile_cache"]["hits"] > 0
        assert reply.json()["document"] == direct_enforcement(
            SENDER_XSD, RECEIVER_XSD, DOCUMENT_XML, seed=7
        )

    def test_bad_snapshot_is_typed_400(self, gateway):
        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                return await client.import_snapshot(b"junk blob")
            finally:
                await client.close()

        reply = run(go())
        assert reply.status == 400 and reply.error_code == "bad-snapshot"


class TestGracefulShutdown:
    def test_drain_loses_no_responses(self):
        """Stop mid-flight: every admitted request still gets its reply."""
        harness = GatewayThread(GatewayConfig(
            pool_size=2, invoke_delay=0.05,
        ))
        harness.start()
        stopper = None
        try:
            async def go():
                nonlocal stopper
                setup = GatewayClient(harness.host, harness.port)
                try:
                    await _register(setup)
                finally:
                    await setup.close()

                started = asyncio.Event()
                replies = []

                async def one(seed):
                    client = GatewayClient(harness.host, harness.port)
                    try:
                        await client._connect()
                        started.set()
                        replies.append(await client.exchange(
                            "alice", "bob", DOCUMENT_XML, seed=seed
                        ))
                    finally:
                        await client.close()

                tasks = [asyncio.create_task(one(seed)) for seed in range(6)]
                await started.wait()
                # Wait until every request has been *admitted* (the
                # guarantee is about admitted requests; ones still in
                # flight toward the gate may legitimately be shed).
                for _ in range(1000):
                    if harness.gateway.admission.inflight >= 6:
                        break
                    await asyncio.sleep(0.005)
                # Begin the graceful stop while requests are in flight
                # (the delayed invoker keeps them busy ≥50ms each).
                stopper = threading.Thread(
                    target=harness.stop, kwargs={"drain": True}
                )
                stopper.start()
                await asyncio.gather(*tasks)
                return replies

            replies = run(go())
        finally:
            if stopper is not None:
                stopper.join(timeout=30)
            harness.stop()
        assert len(replies) == 6
        assert all(reply.status == 200 for reply in replies)

    def test_requests_after_drain_are_shed(self):
        harness = GatewayThread(GatewayConfig())
        harness.start()
        try:
            async def setup():
                client = GatewayClient(harness.host, harness.port)
                try:
                    await _register(client)
                finally:
                    await client.close()

            run(setup())
            harness.gateway.admission.drain()

            async def go():
                client = GatewayClient(harness.host, harness.port)
                try:
                    return await client.exchange(
                        "alice", "bob", DOCUMENT_XML
                    )
                finally:
                    await client.close()

            reply = run(go())
            assert reply.status == 503
            assert reply.error_code == "shutting-down"
        finally:
            harness.stop()
