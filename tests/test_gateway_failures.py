"""Gateway failure modes: every refusal is typed and counted.

Each test drives one failure over real sockets and asserts two things:
the response carries the typed error payload (stable machine code +
HTTP status), and the matching ``repro_gateway_*`` counter moved — the
operator's view and the peer's view must agree.
"""

import asyncio
import json

import pytest

from repro.gateway import GatewayClient, GatewayConfig, GatewayThread
from repro.gateway.loadgen import OBLIGATIONS, _scenario

SENDER_XSD, RECEIVER_XSD, DOCUMENT_XML = _scenario()


def run(coro):
    return asyncio.run(coro)


async def _register(client: GatewayClient) -> None:
    assert (await client.register_peer(
        "alice", SENDER_XSD, obligations=OBLIGATIONS
    )).status == 201
    assert (await client.register_peer("bob", RECEIVER_XSD)).status == 201


def counter_value(metrics_text: str, needle: str) -> float:
    """Sum every sample whose name+labels contain ``needle``."""
    total = 0.0
    for line in metrics_text.splitlines():
        if line.startswith("#") or needle not in line:
            continue
        total += float(line.rsplit(" ", 1)[1])
    return total


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


class TestMalformedRequests:
    def test_garbage_body_is_400_and_counted(self, gateway):
        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                reply = await client.request(
                    "POST", "/exchange", b"this is not json"
                )
                metrics = await client.metrics_text()
                return reply, metrics
            finally:
                await client.close()

        reply, metrics = run(go())
        assert reply.status == 400
        payload = reply.json()
        assert payload["error"] == "bad-request"
        assert payload["status"] == 400 and payload["detail"]
        assert counter_value(
            metrics, 'repro_gateway_errors_total{code="bad-request"}'
        ) >= 1

    def test_missing_fields_and_bad_values_are_400(self, gateway):
        cases = [
            {},
            {"sender": "alice"},
            {"sender": "alice", "receiver": "bob"},
            {"sender": "alice", "receiver": "bob", "document": DOCUMENT_XML,
             "mode": "yolo"},
            {"sender": "alice", "receiver": "bob", "document": DOCUMENT_XML,
             "k": 0},
            {"sender": "alice", "receiver": "bob", "document": DOCUMENT_XML,
             "deadline": -1},
        ]

        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                return [
                    await client.post_json("/exchange", case)
                    for case in cases
                ]
            finally:
                await client.close()

        for reply in run(go()):
            assert reply.status == 400 and reply.error_code == "bad-request"

    def test_unparseable_document_is_400(self, gateway):
        documents = [
            "<broken <<xml",
            # Well-formed, but the model refuses the reserved name.
            '<a xmlns:int="http://www.activexml.com/ns/int">'
            '<int:fun methodName="#data"/></a>',
        ]

        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                return [
                    await client.exchange("alice", "bob", document)
                    for document in documents
                ]
            finally:
                await client.close()

        for reply in run(go()):
            assert reply.status == 400 and reply.error_code == "bad-request"


class TestOversizedDocuments:
    def test_oversized_body_is_413_and_counted(self):
        with GatewayThread(GatewayConfig(max_body_bytes=2048)) as harness:
            async def go():
                client = GatewayClient(harness.host, harness.port)
                try:
                    await _register(client)
                finally:
                    # Registration bodies exceed 2 KiB? No — schemas are
                    # small; the giant document below is what trips it.
                    pass
                big = json.dumps({
                    "sender": "alice", "receiver": "bob",
                    "document": "<x>%s</x>" % ("y" * 4096),
                }).encode("utf-8")
                reply = await client.request("POST", "/exchange", big)
                await client.close()  # 413 closes the connection
                metrics = await client.metrics_text()
                await client.close()
                return reply, metrics

            reply, metrics = run(go())
        assert reply.status == 413
        assert reply.json()["error"] == "too-large"
        assert counter_value(
            metrics, 'repro_gateway_errors_total{code="too-large"}'
        ) >= 1


class TestDeadlines:
    def test_deadline_exceeded_mid_enforcement_is_504_and_counted(self):
        # Each service call sleeps 200ms; a 50ms deadline must abort the
        # enforcement *while it runs*, not before it starts.
        with GatewayThread(
            GatewayConfig(invoke_delay=0.2)
        ) as harness:
            async def go():
                client = GatewayClient(harness.host, harness.port)
                try:
                    await _register(client)
                    reply = await client.exchange(
                        "alice", "bob", DOCUMENT_XML, deadline=0.05
                    )
                    metrics = await client.metrics_text()
                    return reply, metrics
                finally:
                    await client.close()

            reply, metrics = run(go())
        assert reply.status == 504
        payload = reply.json()
        assert payload["error"] == "deadline" and payload["status"] == 504
        assert counter_value(metrics, "repro_gateway_deadline_total") >= 1
        assert counter_value(
            metrics, 'repro_gateway_errors_total{code="deadline"}'
        ) >= 1

    def test_generous_deadline_passes(self, gateway):
        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                return await client.exchange(
                    "alice", "bob", DOCUMENT_XML, deadline=30.0
                )
            finally:
                await client.close()

        assert run(go()).status == 200


class TestShedding:
    def test_queue_full_is_503_typed_and_counted(self):
        # One admission slot, slow enforcement: the second of two
        # concurrent requests must shed with queue-full.
        with GatewayThread(GatewayConfig(
            queue_limit=1, pool_size=1, invoke_delay=0.2,
        )) as harness:
            async def go():
                setup = GatewayClient(harness.host, harness.port)
                try:
                    await _register(setup)
                finally:
                    await setup.close()

                async def one(seed):
                    client = GatewayClient(harness.host, harness.port)
                    try:
                        return await client.exchange(
                            "alice", "bob", DOCUMENT_XML, seed=seed
                        )
                    finally:
                        await client.close()

                replies = await asyncio.gather(*[
                    one(seed) for seed in range(4)
                ])
                probe = GatewayClient(harness.host, harness.port)
                try:
                    metrics = await probe.metrics_text()
                finally:
                    await probe.close()
                return replies, metrics

            replies, metrics = run(go())
        statuses = sorted(reply.status for reply in replies)
        assert statuses[0] == 200  # someone got through
        shed = [reply for reply in replies if reply.status == 503]
        assert shed, "expected at least one queue-full shed"
        for reply in shed:
            assert reply.error_code == "queue-full"
            assert reply.json()["status"] == 503
        assert counter_value(
            metrics, 'repro_gateway_shed_total{peer="alice",reason="queue-full"}'
        ) >= len(shed)

    def test_per_peer_limit_is_429(self):
        with GatewayThread(GatewayConfig(
            queue_limit=8, pool_size=1, invoke_delay=0.2,
        )) as harness:
            async def go():
                setup = GatewayClient(harness.host, harness.port)
                try:
                    assert (await setup.register_peer(
                        "alice", SENDER_XSD, obligations=OBLIGATIONS,
                        max_inflight=1,
                    )).status == 201
                    assert (await setup.register_peer(
                        "bob", RECEIVER_XSD
                    )).status == 201
                finally:
                    await setup.close()

                async def one(seed):
                    client = GatewayClient(harness.host, harness.port)
                    try:
                        return await client.exchange(
                            "alice", "bob", DOCUMENT_XML, seed=seed
                        )
                    finally:
                        await client.close()

                return await asyncio.gather(*[
                    one(seed) for seed in range(4)
                ])

            replies = run(go())
        busy = [reply for reply in replies if reply.status == 429]
        assert busy, "expected at least one per-peer shed"
        assert all(reply.error_code == "peer-limit" for reply in busy)


class TestEnforcementFailure:
    def test_unsafe_exchange_is_422_and_breaker_eventually_opens(self):
        # Receiver (***) = title.date.temp.exhibit* is NOT safely
        # reachable from the newspaper document (Figures 7/8): the
        # gateway must answer 422 with the enforcement error, and
        # consecutive failures must open alice's breaker.
        from repro.workloads import newspaper
        from repro.xschema.writer import schema_to_xschema

        star3 = schema_to_xschema(newspaper.schema_star3())
        with GatewayThread(GatewayConfig(
            breaker_threshold=2, breaker_cooldown=60.0,
        )) as harness:
            async def go():
                client = GatewayClient(harness.host, harness.port)
                try:
                    assert (await client.register_peer(
                        "alice", SENDER_XSD, obligations=OBLIGATIONS,
                    )).status == 201
                    assert (await client.register_peer(
                        "carol", star3
                    )).status == 201
                    failures = [
                        await client.exchange("alice", "carol", DOCUMENT_XML)
                        for _ in range(2)
                    ]
                    tripped = await client.exchange(
                        "alice", "carol", DOCUMENT_XML
                    )
                    metrics = await client.metrics_text()
                    return failures, tripped, metrics
                finally:
                    await client.close()

            failures, tripped, metrics = run(go())
        for reply in failures:
            assert reply.status == 422
            assert reply.error_code == "enforcement-failed"
            assert "safe" in reply.json()["detail"]
        assert tripped.status == 503
        assert tripped.error_code == "breaker-open"
        assert counter_value(
            metrics,
            'repro_gateway_shed_total{peer="alice",reason="breaker-open"}',
        ) >= 1
        assert counter_value(
            metrics, "repro_gateway_breaker_transitions_total"
        ) >= 1
