"""Gateway edit-script mode: happy path and the typed failure modes.

Each test runs a real gateway over sockets.  The failure modes the
ISSUE pins down: an edit script against an unknown document id (404
``unknown-session``), a script addressing a nonexistent node path (400
``bad-edit``, session untouched), and session-cache eviction under the
LRU bound (``repro_gateway_incremental_total{event="evicted"}``, then
``unknown-session`` for the evicted id) — each with the matching
``repro_gateway_errors_total`` counter.
"""

import asyncio
import threading

import pytest

from repro.doc.document import Document
from repro.doc.nodes import Element, Text
from repro.gateway import GatewayClient, GatewayConfig, GatewayThread
from repro.gateway.loadgen import OBLIGATIONS, _scenario, direct_enforcement
from repro.incremental.edits import (
    apply_edits,
    replace,
    script_from_json,
    script_to_json,
)

SENDER_XSD, RECEIVER_XSD, DOCUMENT_XML = _scenario()

RETITLE = script_to_json(
    [replace((0,), Element("title", (Text("The Moon"),)))]
)


def run(coro):
    return asyncio.run(coro)


async def _register(client: GatewayClient) -> None:
    reply = await client.register_peer(
        "alice", SENDER_XSD, obligations=OBLIGATIONS
    )
    assert reply.status == 201, reply.body
    reply = await client.register_peer("bob", RECEIVER_XSD)
    assert reply.status == 201, reply.body


def make_gateway(**config_kwargs):
    harness = GatewayThread(GatewayConfig(**config_kwargs))
    harness.start()

    async def setup():
        client = GatewayClient(harness.host, harness.port)
        try:
            await _register(client)
        finally:
            await client.close()

    run(setup())
    return harness


@pytest.fixture
def gateway():
    harness = make_gateway()
    try:
        yield harness
    finally:
        harness.stop()


class TestEditScriptMode:
    def test_open_then_edit_matches_direct_path(self, gateway):
        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                opened = await client.open_session(
                    "alice", "bob", "doc-1", DOCUMENT_XML, seed=42
                )
                edited = await client.apply_edits(
                    "alice", "bob", "doc-1", RETITLE
                )
                return opened, edited
            finally:
                await client.close()

        opened, edited = run(go())
        assert opened.status == 200, opened.body
        assert opened.json()["document"] == direct_enforcement(
            SENDER_XSD, RECEIVER_XSD, DOCUMENT_XML, seed=42
        )
        assert edited.status == 200, edited.body
        payload = edited.json()
        # Byte-identical to the full library path over the edited doc.
        after, _ = apply_edits(
            Document.from_xml(DOCUMENT_XML), script_from_json(RETITLE)
        )
        assert payload["document"] == direct_enforcement(
            SENDER_XSD, RECEIVER_XSD, after.to_xml(), seed=42
        )
        # The reuse counters prove the pass was incremental.
        assert payload["edits_applied"] == 1
        assert payload["passes"] == 2
        assert payload["reuse"]["nodes_reused"] > 0
        assert payload["reuse"]["invocations_reused"] >= 1
        assert payload["reuse"]["invocations_performed"] == 0

    def test_reply_check_runs_off_the_event_loop(self, gateway, monkeypatch):
        # Both session events (open, apply) check their reply with the
        # receiving peer's own checker inside the pool job, never on the
        # loop thread serving connections.
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
                opened = await client.open_session(
                    "alice", "bob", "doc-1", DOCUMENT_XML, seed=42
                )
                edited = await client.apply_edits(
                    "alice", "bob", "doc-1", RETITLE
                )
                return opened, edited
            finally:
                await client.close()

        opened, edited = run(go())
        assert opened.status == edited.status == 200
        assert opened.json()["accepted"] is edited.json()["accepted"] is True
        assert len(threads) == 2
        assert gateway._thread not in threads

    def test_unknown_document_id_is_typed_404(self, gateway):
        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                reply = await client.apply_edits(
                    "alice", "bob", "never-opened", RETITLE
                )
                metrics = await client.metrics_text()
                return reply, metrics
            finally:
                await client.close()

        reply, metrics = run(go())
        assert reply.status == 404
        assert reply.error_code == "unknown-session"
        body = reply.json()
        assert body["status"] == 404 and "never-opened" in body["detail"]
        assert (
            'repro_gateway_errors_total{code="unknown-session"} 1' in metrics
        )

    def test_nonexistent_node_path_is_typed_400(self, gateway):
        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                opened = await client.open_session(
                    "alice", "bob", "doc-1", DOCUMENT_XML, seed=7
                )
                bad = await client.apply_edits(
                    "alice", "bob", "doc-1",
                    [{"op": "delete", "path": [99, 99]}],
                )
                # The rejection is atomic: the session still applies
                # good scripts against its unchanged document.
                good = await client.apply_edits(
                    "alice", "bob", "doc-1", RETITLE
                )
                metrics = await client.metrics_text()
                return opened, bad, good, metrics
            finally:
                await client.close()

        opened, bad, good, metrics = run(go())
        assert opened.status == 200
        assert bad.status == 400
        assert bad.error_code == "bad-edit"
        assert "no node at" in bad.json()["detail"]
        assert good.status == 200, good.body
        assert 'repro_gateway_errors_total{code="bad-edit"} 1' in metrics

    def test_malformed_wire_script_is_typed_400(self, gateway):
        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                await client.open_session(
                    "alice", "bob", "doc-1", DOCUMENT_XML
                )
                return await client.apply_edits(
                    "alice", "bob", "doc-1",
                    [{"op": "rename", "path": [0]}],
                )
            finally:
                await client.close()

        reply = run(go())
        assert reply.status == 400 and reply.error_code == "bad-edit"

    def test_requires_exactly_one_of_document_or_edits(self, gateway):
        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                neither = await client.post_json("/exchange", {
                    "sender": "alice", "receiver": "bob",
                    "document_id": "doc-1",
                })
                both = await client.post_json("/exchange", {
                    "sender": "alice", "receiver": "bob",
                    "document_id": "doc-1",
                    "document": DOCUMENT_XML, "edits": RETITLE,
                })
                return neither, both
            finally:
                await client.close()

        neither, both = run(go())
        assert neither.status == 400
        assert neither.error_code == "bad-request"
        assert both.status == 400 and both.error_code == "bad-request"


class TestSessionEviction:
    def test_lru_eviction_counts_and_types(self):
        harness = make_gateway(session_limit=2)
        try:
            async def go():
                client = GatewayClient(harness.host, harness.port)
                try:
                    for name in ("doc-a", "doc-b", "doc-c"):
                        reply = await client.open_session(
                            "alice", "bob", name, DOCUMENT_XML
                        )
                        assert reply.status == 200, reply.body
                    # doc-a was least recently used: evicted.
                    evicted = await client.apply_edits(
                        "alice", "bob", "doc-a", RETITLE
                    )
                    survivor = await client.apply_edits(
                        "alice", "bob", "doc-b", RETITLE
                    )
                    stats = (await client.request("GET", "/stats")).json()
                    metrics = await client.metrics_text()
                    return evicted, survivor, stats, metrics
                finally:
                    await client.close()

            evicted, survivor, stats, metrics = run(go())
            assert evicted.status == 404
            assert evicted.error_code == "unknown-session"
            assert survivor.status == 200, survivor.body
            assert stats["sessions"] == {
                "live": 2, "opened": 3, "evicted": 1,
            }
            assert (
                'repro_gateway_incremental_total{event="evicted"} 1'
                in metrics
            )
            assert (
                'repro_gateway_incremental_total{event="opened"} 3'
                in metrics
            )
        finally:
            harness.stop()

    def test_reopening_replaces_without_eviction(self):
        harness = make_gateway(session_limit=2)
        try:
            async def go():
                client = GatewayClient(harness.host, harness.port)
                try:
                    for name in ("doc-a", "doc-b", "doc-a"):
                        assert (await client.open_session(
                            "alice", "bob", name, DOCUMENT_XML
                        )).status == 200
                    stats = (await client.request("GET", "/stats")).json()
                    return stats
                finally:
                    await client.close()

            stats = run(go())
            assert stats["sessions"]["live"] == 2
            assert stats["sessions"]["evicted"] == 0
        finally:
            harness.stop()


class TestBreakerAccounting:
    def test_refusals_after_admission_count_against_the_sender(self):
        # Unknown peers are refused before admission and never touch the
        # breaker; an unknown session id and a bad script are refused
        # after it, so they count like failed enforcements.
        harness = make_gateway(breaker_threshold=2, breaker_cooldown=60.0)
        try:
            async def go():
                client = GatewayClient(harness.host, harness.port)
                try:
                    unknown_peer = [
                        await client.apply_edits(
                            "alice", "nobody", "doc-1", RETITLE
                        )
                        for _ in range(3)
                    ]
                    opened = await client.open_session(
                        "alice", "bob", "doc-1", DOCUMENT_XML
                    )
                    refused = [
                        await client.apply_edits(
                            "alice", "bob", "never-opened", RETITLE
                        ),
                        await client.apply_edits(
                            "alice", "bob", "doc-1", [{"op": "bogus"}]
                        ),
                    ]
                    tripped = await client.apply_edits(
                        "alice", "bob", "doc-1", RETITLE
                    )
                    return unknown_peer, opened, refused, tripped
                finally:
                    await client.close()

            unknown_peer, opened, refused, tripped = run(go())
            assert all(r.error_code == "unknown-peer" for r in unknown_peer)
            assert opened.status == 200, opened.body
            assert [r.error_code for r in refused] == [
                "unknown-session", "bad-edit",
            ]
            assert tripped.status == 503
            assert tripped.error_code == "breaker-open"
        finally:
            harness.stop()


class TestDeepDocuments:
    def test_opening_a_deep_document_is_accepted(self):
        # A 3,000-deep conformant document (~21 KB of edit-script open)
        # gets a reply instead of a dropped connection.
        from repro.schema import SchemaBuilder
        from repro.xschema.writer import schema_to_xschema

        xsd = schema_to_xschema(
            SchemaBuilder().element("a", "a?").root("a").build()
        )
        depth = 3000
        document_xml = "<a>" * depth + "</a>" * depth
        harness = GatewayThread(GatewayConfig())
        harness.start()
        try:
            async def go():
                client = GatewayClient(harness.host, harness.port)
                try:
                    for name in ("deep-sender", "deep-receiver"):
                        reply = await client.register_peer(name, xsd)
                        assert reply.status == 201, reply.body
                    return await client.open_session(
                        "deep-sender", "deep-receiver", "deep-doc",
                        document_xml,
                    )
                finally:
                    await client.close()

            opened = run(go())
            assert opened.status == 200, opened.body
            payload = opened.json()
            assert payload["accepted"] is True
            assert payload["reuse"]["verify_checked"] == depth
        finally:
            harness.stop()
