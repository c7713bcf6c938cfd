"""End-to-end tests for the exchange gateway service.

Each test runs a real gateway (ephemeral port, background event loop
via :class:`GatewayThread`) and talks to it over actual sockets with
:class:`GatewayClient` — the same wire path a remote peer uses.
"""

import asyncio
import threading

import pytest

from repro.gateway import GatewayClient, GatewayConfig, GatewayThread
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
        validate = InstanceChecker.validate

        def recording_validate(checker, root, strict=True):
            if checker is receiver_checker:
                threads.append(threading.current_thread())
            return validate(checker, root, strict)

        monkeypatch.setattr(InstanceChecker, "validate", recording_validate)

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


def _exchange_and_open(gateway, scenario, document_id):
    """Register the scenario's peers; the JSON reply and a session open."""
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

    return run(go())


class TestReceiverVerdict:
    """``accepted`` is the receiver's own-vocabulary verdict, not the
    enforcer's (which also reads the sender's signatures), on what the
    receiver reads: the reply's bytes."""

    def test_mixed_content_reply_is_a_library_error(self, gateway):
        # g answers one text node, spliced in next to <x>: the enforced
        # tree conforms, but its bytes are mixed content, which no peer
        # parses back.
        scenario = _text_answer_scenario("data", "x.data", "x.g")
        for reply in _exchange_and_open(gateway, scenario, "doc-mixed"):
            assert reply.status == 500, reply.body
            assert reply.error_code == "library-error"
            assert "mixed content" in reply.json()["detail"]

    def test_adjacent_text_reply_is_checked_as_parsed(self, gateway):
        # Two text nodes serialize as one text run: the receiver reads a
        # single data value, which 'data.data' does not admit.
        scenario = _text_answer_scenario("data.data", "data.data", "g")
        for reply in _exchange_and_open(gateway, scenario, "doc-texts"):
            assert reply.status == 200, reply.body
            payload = reply.json()
            assert payload["calls"] == 1
            assert payload["accepted"] is False
            assert payload["validation"] == (
                "content at /: children word #data does not match "
                "#data.#data (word ends too early; expected #data)"
            )

    def test_sender_only_signature_is_not_accepted(self, gateway):
        sender_xsd, receiver_xsd, document_xml = (
            _sender_only_call_scenario()
        )

        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                for name, xsd in (("carol", sender_xsd),
                                  ("dave", receiver_xsd)):
                    reply = await client.register_peer(name, xsd)
                    assert reply.status == 201, reply.body
                plain = await client.exchange("carol", "dave", document_xml)
                opened = await client.open_session(
                    "carol", "dave", "doc-g", document_xml
                )
                return plain, opened
            finally:
                await client.close()

        for reply in run(go()):
            assert reply.status == 200, reply.body
            payload = reply.json()
            # The enforcer found the call conformant (the sender
            # declares g) and made no call ...
            assert payload["already_conformant"] is True
            assert payload["calls"] == 0
            # ... but the receiver's vocabulary does not declare g.
            assert payload["accepted"] is False
            assert payload["validation"] == (
                "undeclared-function at /0: function 'g' has no declared "
                "signature"
            )


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
