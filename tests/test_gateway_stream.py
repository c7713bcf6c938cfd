"""The streaming exchange route: chunked wire framing end to end.

``POST /exchange`` with ``Content-Type: application/xml`` streams the
enforced document back with chunked framing and carries the receipt in
``X-Repro-*`` trailers.  These tests run a real gateway and speak raw
HTTP/1.1 over sockets: byte-identity with the JSON (DOM) route, chunked
request intake with its early size cap, failures surfacing in trailers
after a committed 200, and the memory block on ``/stats``.
"""

import asyncio

import pytest

from repro.gateway import GatewayClient, GatewayConfig, GatewayThread
from repro.gateway.http import parse_chunked_response
from repro.gateway.loadgen import OBLIGATIONS, _scenario

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


async def _raw(host, port, head: str, body: bytes) -> bytes:
    """One close-delimited request; returns the full response bytes."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        blob = b""
        while True:
            data = await asyncio.wait_for(reader.read(65536), timeout=10)
            if not data:
                return blob
            blob += data
            if b"\r\n0\r\n" in blob and blob.endswith(b"\r\n\r\n"):
                return blob  # terminal chunk + trailers seen
            head_part, sep, rest = blob.partition(b"\r\n\r\n")
            if sep and b"content-length:" in head_part.lower():
                for line in head_part.lower().split(b"\r\n"):
                    if line.startswith(b"content-length:"):
                        if len(rest) >= int(line.split(b":")[1]):
                            return blob
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _stream_head(query: str, length=None, chunked=False) -> str:
    lines = [
        "POST /exchange?%s HTTP/1.1" % query,
        "Host: gw",
        "Content-Type: application/xml",
        "Connection: close",
    ]
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    else:
        lines.append("Content-Length: %d" % length)
    return "\r\n".join(lines) + "\r\n\r\n"


def _chunk_encode(data: bytes, size: int = 1000) -> bytes:
    out = b""
    for i in range(0, len(data), size):
        piece = data[i:i + size]
        out += b"%x\r\n" % len(piece) + piece + b"\r\n"
    return out + b"0\r\n\r\n"


async def _dom_reference(gateway):
    client = GatewayClient(gateway.host, gateway.port)
    try:
        reply = await client.exchange("alice", "bob", DOCUMENT_XML, seed=42)
    finally:
        await client.close()
    assert reply.status == 200, reply.body
    return reply.json()


class TestStreamedExchange:
    def test_matches_dom_route_bytes_and_receipt(self, gateway):
        async def go():
            dom = await _dom_reference(gateway)
            body = DOCUMENT_XML.encode("utf-8")
            blob = await _raw(
                gateway.host, gateway.port,
                _stream_head("sender=alice&receiver=bob&seed=42",
                             length=len(body)),
                body,
            )
            return dom, parse_chunked_response(blob)

        dom, (status, headers, body, trailers) = run(go())
        assert status == 200
        assert headers.get("transfer-encoding") == "chunked"
        assert body.decode("utf-8") == dom["document"]
        assert trailers.get("x-repro-ok") == "true"
        assert trailers.get("x-repro-conformant") == "false"
        assert trailers.get("x-repro-calls") == str(dom["calls"])
        assert "x-repro-cache-hits" in trailers
        assert "x-repro-cache-misses" in trailers

    def test_settlement_is_in_the_request_trace(self, gateway):
        # The body streams after the request span has closed; the
        # settlement must still land in that request's span tree.
        tracer = gateway.gateway.tracer
        tracer.clear()

        async def go():
            body = DOCUMENT_XML.encode("utf-8")
            return await _raw(
                gateway.host, gateway.port,
                _stream_head("sender=alice&receiver=bob&seed=42",
                             length=len(body)),
                body,
            )

        _status, _headers, body, trailers = parse_chunked_response(run(go()))
        assert trailers.get("x-repro-ok") == "true"
        spans = tracer.finished()
        by_id = {span.span_id: span for span in spans}
        (request,) = [span for span in spans if span.name == "gateway.request"]

        def in_request_tree(span):
            while span is not None:
                if span is request:
                    return True
                span = by_id.get(span.parent_id)
            return False

        events = [
            event for span in spans if in_request_tree(span)
            for event in span.events if event.name == "gateway.exchange-streamed"
        ]
        assert len(events) == 1
        assert events[0].attributes == {
            "sender": "alice", "receiver": "bob", "ok": True,
            "bytes": len(body),
        }

    def test_chunked_request_body(self, gateway):
        async def go():
            dom = await _dom_reference(gateway)
            body = DOCUMENT_XML.encode("utf-8")
            blob = await _raw(
                gateway.host, gateway.port,
                _stream_head("sender=alice&receiver=bob&seed=42",
                             chunked=True),
                _chunk_encode(body),
            )
            return dom, parse_chunked_response(blob)

        dom, (status, _headers, body, trailers) = run(go())
        assert status == 200
        assert body.decode("utf-8") == dom["document"]
        assert trailers.get("x-repro-ok") == "true"

    def test_oversized_chunked_upload_rejected_early(self, gateway):
        # The cap triggers on the declared chunk size, before any of the
        # data is read — an attacker cannot make the gateway buffer it.
        cap = GatewayConfig().max_body_bytes

        async def go():
            return await _raw(
                gateway.host, gateway.port,
                _stream_head("sender=alice&receiver=bob", chunked=True),
                b"%x\r\n" % (cap + 1),
            )

        blob = run(go())
        assert b"413" in blob.split(b"\r\n", 1)[0]

    def test_unparseable_body_fails_in_trailers(self, gateway):
        # The 200 is committed before enforcement runs; mid-stream
        # failure travels in the trailers and the body must be discarded.
        async def go():
            bad = b"<newspaper><unclosed>"
            return await _raw(
                gateway.host, gateway.port,
                _stream_head("sender=alice&receiver=bob", length=len(bad)),
                bad,
            )

        status, _headers, _body, trailers = parse_chunked_response(run(go()))
        assert status == 200
        assert trailers.get("x-repro-ok") == "false"
        assert "unparseable" in trailers.get("x-repro-error", "")

    def test_possible_mode_rejected(self, gateway):
        async def go():
            body = DOCUMENT_XML.encode("utf-8")
            return await _raw(
                gateway.host, gateway.port,
                _stream_head("sender=alice&receiver=bob&mode=possible",
                             length=len(body)),
                body,
            )

        assert b"400" in run(go()).split(b"\r\n", 1)[0]

    def test_unknown_peer_rejected(self, gateway):
        async def go():
            body = DOCUMENT_XML.encode("utf-8")
            return await _raw(
                gateway.host, gateway.port,
                _stream_head("sender=alice&receiver=nobody",
                             length=len(body)),
                body,
            )

        head = run(go()).split(b"\r\n", 1)[0]
        assert b"404" in head or b"400" in head


class TestStatsMemory:
    def test_stats_reports_peak_rss(self, gateway):
        async def go():
            client = GatewayClient(gateway.host, gateway.port)
            try:
                return await client.request("GET", "/stats")
            finally:
                await client.close()

        reply = run(go())
        assert reply.status == 200
        memory = reply.json()["memory"]
        assert memory["peak_rss_bytes"] > 0
