"""Integration tests: observability across the whole exchange stack.

A traced peer-to-peer exchange must produce one coherent span tree —
``exchange → enforce → document → node → analysis → ...`` with
``invoke`` spans under the nodes that materialized calls — plus the
pipeline metrics, with zero behavioural difference from an untraced run.
"""

import json

import pytest

from repro import (
    AXMLPeer,
    FunctionSignature,
    PeerNetwork,
    ResiliencePolicy,
    Service,
    constant_responder,
    el,
    flaky_responder,
    parse_regex,
)
from repro.axml.network import TransferReceipt
from repro.cli import main
from repro.compile import CompilationCache, compiling
from repro.obs import MetricsRegistry, Tracer, observing, spans_from_jsonl
from repro.services.resilience import FaultReport, SimulatedClock
from repro.workloads import newspaper
from repro.xschema.writer import schema_to_xschema

WIDTH = 4


def build_network(resilience=None, fail_every=0):
    star = newspaper.wide_schema_star(WIDTH)
    star2 = newspaper.wide_schema_star2(WIDTH)
    # These tests pin the *sequential* span tree (shape and byte-exact
    # exports), so the sender opts out of any REPRO_WORKERS prefetching.
    alice = AXMLPeer("alice", star, resilience=resilience, parallelism=1)
    forecast = Service(newspaper.FORECAST_ENDPOINT, newspaper.FORECAST_NS)
    responder = constant_responder((el("temp", "15"),))
    if fail_every:
        responder = flaky_responder(responder, fail_every)
    forecast.add_operation(
        "Get_Temp",
        FunctionSignature(parse_regex("city"), parse_regex("temp")),
        responder,
    )
    alice.registry.register(forecast)
    bob = AXMLPeer("bob", star2)
    network = PeerNetwork()
    network.add_peer(alice)
    network.add_peer(bob)
    network.agree("alice", "bob", star2)
    alice.repository.store("front", newspaper.wide_document(WIDTH))
    return network, bob


def span_tree(tracer):
    spans = sorted(tracer.finished(), key=lambda span: span.span_id)
    by_id = {span.span_id: span for span in spans}
    return spans, by_id


class TestExchangeTrace:
    def test_full_span_hierarchy(self):
        network, _bob = build_network()
        tracer = Tracer(clock=SimulatedClock())
        # A fresh cache: a game solved earlier in the process would be
        # found in the shared analysis store, with no product/game spans.
        with compiling(CompilationCache()), observing(tracer):
            receipt = network.send("alice", "bob", "front")
        assert receipt.accepted

        spans, by_id = span_tree(tracer)
        names = [span.name for span in spans]
        for expected in (
            "exchange", "enforce", "document", "node", "analysis",
            "product", "game", "invoke", "transfer.serialize",
            "transfer.validate",
        ):
            assert expected in names, "missing %r in %s" % (expected, names)

        (exchange,) = [span for span in spans if span.name == "exchange"]
        assert exchange.parent_id is None
        assert exchange.attributes["sender"] == "alice"
        assert exchange.attributes["accepted"] is True
        assert exchange.attributes["calls"] == WIDTH
        assert exchange.attributes["bytes"] == receipt.bytes_on_wire

        # enforce/document under the exchange; serialize/validate too.
        for name in ("enforce", "transfer.serialize", "transfer.validate"):
            (span,) = [s for s in spans if s.name == name]
            assert by_id[span.parent_id].name == "exchange"
        (document,) = [span for span in spans if span.name == "document"]
        assert by_id[document.parent_id].name == "enforce"

        # every node hangs off the document; invokes hang off nodes.
        nodes = [span for span in spans if span.name == "node"]
        assert nodes and all(
            by_id[span.parent_id].name == "document" for span in nodes
        )
        invokes = [span for span in spans if span.name == "invoke"]
        assert len(invokes) == WIDTH
        for span in invokes:
            assert by_id[span.parent_id].name == "node"
            assert span.attributes["function"] == "Get_Temp"
            assert span.attributes["outcome"] == "ok"
            # the SOAP round-trip annotated its byte counts
            assert span.attributes["request_bytes"] > 0
            assert span.attributes["response_bytes"] > 0

        # analyses sit under nodes, solver internals under analyses.
        analyses = [span for span in spans if span.name == "analysis"]
        assert analyses and all(
            by_id[span.parent_id].name == "node" for span in analyses
        )
        for name in ("product", "game"):
            inner = [span for span in spans if span.name == name]
            assert inner and all(
                by_id[span.parent_id].name == "analysis" for span in inner
            )

    def test_trace_is_deterministic_under_simulated_clock(self):
        import io

        def run():
            network, _bob = build_network(resilience=ResiliencePolicy())
            tracer = Tracer(clock=SimulatedClock())
            # Each run on a fresh cache, so both compile and solve alike.
            with compiling(CompilationCache()), observing(tracer):
                network.send("alice", "bob", "front")
            out = io.StringIO()
            tracer.export_jsonl(out)
            return out.getvalue()

        assert run() == run()

    def test_traced_run_matches_untraced_run(self):
        network, bob = build_network()
        tracer = Tracer(clock=SimulatedClock())
        with observing(tracer):
            traced = network.send("alice", "bob", "front")
        plain_network, plain_bob = build_network()
        plain = plain_network.send("alice", "bob", "front")
        assert traced.accepted == plain.accepted
        assert traced.calls_materialized == plain.calls_materialized
        assert traced.bytes_on_wire == plain.bytes_on_wire
        assert (
            bob.repository.get("front").to_xml()
            == plain_bob.repository.get("front").to_xml()
        )

    def test_fault_events_and_retry_spans(self):
        network, _bob = build_network(
            resilience=ResiliencePolicy(), fail_every=3
        )
        tracer = Tracer(clock=SimulatedClock())
        with observing(tracer) as (_t, registry):
            receipt = network.send("alice", "bob", "front")
        assert receipt.accepted
        assert receipt.retries > 0

        invokes = [s for s in tracer.finished() if s.name == "invoke"]
        events = [e.name for span in invokes for e in span.events]
        assert "fault" in events and "retry" in events and "attempt" in events
        retried = [
            span for span in invokes
            if any(e.name == "retry" for e in span.events)
        ]
        assert len(retried) == receipt.retries
        assert (
            registry.counter("repro_invocation_retries_total").total
            == receipt.retries
        )
        assert (
            registry.counter("repro_invocation_faults_total").value(
                kind="transient"
            )
            == receipt.faults
        )


class TestWarmWords:
    def test_a_warm_word_adds_no_event_and_carries_cache_hit(self):
        # A per-document memo hit is an attribute set in the node span's
        # closing set, not a SpanEvent with a clock read of its own; the
        # counter keeps counting it.
        from repro.axml.enforcement import SchemaEnforcer
        from repro.workloads import magazine

        receiver, sender = magazine.schemas()[1], magazine.schemas()[0]
        # Sequential: a prefetch planner's lookups open analysis spans
        # under its own exec.plan span.
        enforcer = SchemaEnforcer(receiver, sender, workers=1,
                                  compile_cache=CompilationCache())
        registry = MetricsRegistry()
        tracer = Tracer(clock=SimulatedClock())
        with observing(tracer, registry):
            outcome = enforcer.enforce_document(magazine.document(3),
                                                magazine.invoker)
            enforcer.enforce_stream(magazine.document(3).to_xml(),
                                    magazine.invoker, lambda _text: None)
        assert outcome.ok and outcome.cache_hits > 0
        spans = tracer.finished()
        assert all(not span.events for span in spans)
        nodes = [span for span in spans if span.name == "node"]
        hits = [span for span in nodes
                if span.attributes.get("cache") == "hit"]
        assert set(span.attributes.get("cache") for span in nodes) \
            == {"hit", None}
        # Every word is one node span; every hit-free node solved or
        # fetched its analysis under an analysis span.
        parents = {span.parent_id for span in spans if span.name == "analysis"}
        assert {span.span_id for span in nodes if span not in hits} == parents
        assert len(hits) == registry.counter(
            "repro_analysis_cache_total").value(outcome="hit")
        assert len(hits) == 2 * outcome.cache_hits


class TestExchangeMetrics:
    def test_pipeline_metrics_populated(self):
        network, _bob = build_network(resilience=ResiliencePolicy())
        registry = MetricsRegistry()
        with compiling(CompilationCache()), observing(
            Tracer(clock=SimulatedClock()), registry
        ):
            receipt = network.send("alice", "bob", "front")
        assert receipt.accepted
        assert registry.counter("repro_invocations_total").value(
            function="Get_Temp"
        ) == WIDTH
        assert registry.counter("repro_invocation_attempts_total").value(
            function="Get_Temp"
        ) == WIDTH
        assert registry.counter("repro_transfers_total").value(
            accepted="true"
        ) == 1
        assert registry.counter("repro_transfer_bytes_total").total == (
            receipt.bytes_on_wire
        )
        assert registry.counter("repro_documents_rewritten_total").total == 1
        assert registry.counter("repro_soap_bytes_total").value(
            direction="out", kind="request"
        ) > 0
        assert registry.counter("repro_soap_bytes_total").value(
            direction="in", kind="response"
        ) > 0
        assert registry.histogram("repro_product_nodes").count(kind="safe") > 0
        assert registry.histogram("repro_span_seconds").count(name="invoke") == WIDTH
        text = registry.to_prometheus()
        assert 'repro_invocations_total{function="Get_Temp"} %d' % WIDTH in text


class TestReceiptDerivation:
    def test_receipt_mirrors_fault_report(self):
        report = FaultReport(
            retries=4, transient_faults=3, timeouts=2, breaker_opens=1
        )
        report.dead_functions.append("Get_Temp")
        receipt = TransferReceipt(
            "a", "b", "doc", 1, 10, True,
            retries=99, faults=99, breaker_opens=99,  # stale, must lose
            fault_report=report,
        )
        assert receipt.retries == 4
        assert receipt.faults == 5
        assert receipt.breaker_opens == 1
        assert receipt.degraded_functions == ("Get_Temp",)

    def test_receipt_fallbacks_without_report(self):
        receipt = TransferReceipt(
            "a", "b", "doc", 1, 10, True,
            retries=2, faults=1, degraded_functions=("f",),
        )
        assert receipt.retries == 2
        assert receipt.faults == 1
        assert receipt.breaker_opens == 0
        assert receipt.degraded_functions == ("f",)

    def test_live_receipt_cannot_disagree_with_its_report(self):
        network, _bob = build_network(
            resilience=ResiliencePolicy(), fail_every=3
        )
        receipt = network.send("alice", "bob", "front")
        assert receipt.fault_report is not None
        assert receipt.retries == receipt.fault_report.retries
        assert receipt.faults == receipt.fault_report.faults
        assert receipt.breaker_opens == receipt.fault_report.breaker_opens


class TestInvocationElapsed:
    def test_records_carry_elapsed_time(self):
        network, _bob = build_network(resilience=ResiliencePolicy())
        tracer = Tracer(clock=SimulatedClock())
        with observing(tracer):
            network.send("alice", "bob", "front")
        outcome_logs = [
            receipt for receipt in network.receipts
        ]
        assert outcome_logs
        # The enforcement log is easiest to reach via a direct rewrite:
        from repro.rewriting.engine import RewriteEngine

        star = newspaper.wide_schema_star(WIDTH)
        star2 = newspaper.wide_schema_star2(WIDTH)
        engine = RewriteEngine(target_schema=star2, sender_schema=star)
        peer = AXMLPeer("carol", star, resilience=ResiliencePolicy())
        forecast = Service(newspaper.FORECAST_ENDPOINT, newspaper.FORECAST_NS)
        forecast.add_operation(
            "Get_Temp",
            FunctionSignature(parse_regex("city"), parse_regex("temp")),
            constant_responder((el("temp", "15"),)),
        )
        peer.registry.register(forecast)
        invoker = peer.registry.make_invoker(
            resilience=ResiliencePolicy(), clock=SimulatedClock()
        )
        result = engine.rewrite(newspaper.wide_document(WIDTH), invoker)
        assert len(result.log) == WIDTH
        for record in result.log.records:
            assert record.elapsed is not None
            assert record.elapsed >= 0.0
        assert result.log.total_elapsed == pytest.approx(
            sum(record.elapsed for record in result.log.records)
        )
        assert "in " in str(result.log.records[0])


class TestCliObservability:
    @pytest.fixture
    def files(self, tmp_path):
        doc_path = tmp_path / "doc.xml"
        doc_path.write_text(newspaper.document().to_xml())
        star = tmp_path / "star.xsd"
        star.write_text(schema_to_xschema(newspaper.schema_star()))
        star2 = tmp_path / "star2.xsd"
        star2.write_text(schema_to_xschema(newspaper.schema_star2()))
        return {
            "doc": str(doc_path), "star": str(star), "star2": str(star2),
            "dir": tmp_path,
        }

    def test_rewrite_trace_and_metrics_files(self, files, capsys):
        trace = files["dir"] / "trace.jsonl"
        prom = files["dir"] / "metrics.prom"
        code = main([
            "rewrite", files["doc"], files["star"], files["star2"],
            "-o", str(files["dir"] / "out.xml"),
            "--trace", str(trace), "--metrics", str(prom),
            "--compile-cache", str(files["dir"] / "cache"),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "trace:" in err and "analysis cache:" in err

        spans = spans_from_jsonl(trace.read_text())
        names = {span["name"] for span in spans}
        assert {"enforce", "document", "node", "analysis"} <= names
        for line in trace.read_text().splitlines():
            json.loads(line)  # every line is valid JSON

        text = prom.read_text()
        assert "repro_documents_rewritten_total" in text
        assert "repro_span_seconds_bucket" in text

    def test_rewrite_metrics_to_stdout(self, files, capsys):
        code = main([
            "rewrite", files["doc"], files["star"], files["star2"],
            "-o", str(files["dir"] / "out.xml"), "--metrics", "-",
        ])
        assert code == 0
        assert "repro_analysis_cache_total" in capsys.readouterr().out

    def test_stats_renders_span_tree(self, files, capsys):
        trace = files["dir"] / "trace.jsonl"
        main([
            "rewrite", files["doc"], files["star"], files["star2"],
            "-o", str(files["dir"] / "out.xml"), "--trace", str(trace),
        ])
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("enforce")
        assert "└─" in out and "document" in out

    def test_stats_on_empty_trace_fails(self, files, capsys):
        empty = files["dir"] / "empty.jsonl"
        empty.write_text("")
        assert main(["stats", str(empty)]) == 1

    def test_untraced_rewrite_installs_nothing(self, files, capsys):
        from repro.obs import metrics as current_metrics
        from repro.obs import tracer as current_tracer

        code = main([
            "rewrite", files["doc"], files["star"], files["star2"],
            "-o", str(files["dir"] / "out.xml"),
        ])
        assert code == 0
        assert not current_tracer().enabled
        assert not current_metrics().enabled
