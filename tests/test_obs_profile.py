"""Unit tests for span-profile aggregation (repro.obs.profile)."""

import json

import pytest

from repro import (
    FunctionSignature,
    Service,
    ServiceRegistry,
    constant_responder,
    el,
    parse_regex,
)
from repro.compile import CompilationCache
from repro.compile.context import compiling
from repro.obs import Tracer, observing
from repro.obs.profile import (
    PHASES,
    Profile,
    phase_of,
    profile_spans,
    profile_tracer,
)
from repro.rewriting.engine import RewriteEngine
from repro.services.resilience import SimulatedClock
from repro.workloads import newspaper


def span(span_id, parent_id, name, start, end):
    return {
        "span_id": span_id, "parent_id": parent_id, "name": name,
        "start": start, "end": end, "duration": end - start,
        "attributes": {}, "events": [],
    }


class TestPhaseMapping:
    def test_pipeline_stages(self):
        assert phase_of("product") == "product"
        assert phase_of("game") == "game"
        assert phase_of("subset") == "determinize"
        assert phase_of("invoke") == "materialize"
        assert phase_of("compile.nfa") == "compile"
        assert phase_of("compile.expansion") == "compile"
        assert phase_of("compile.bitcomp") == "determinize"
        assert phase_of("compile.bitdfa") == "determinize"
        assert phase_of("exec.wave") == "materialize"
        assert phase_of("transfer.validate") == "materialize"
        assert phase_of("enforce") == "other"

    def test_every_phase_is_listed(self):
        for name in ("compile.nfa", "compile.bitdfa", "product", "game",
                     "invoke", "document"):
            assert phase_of(name) in PHASES


class TestProfileSpans:
    def test_tree_merges_by_name_path(self):
        spans = [
            span(1, None, "enforce", 0.0, 10.0),
            span(2, 1, "analysis", 1.0, 4.0),
            span(3, 2, "game", 2.0, 3.0),
            span(4, 1, "analysis", 5.0, 9.0),
            span(5, 4, "game", 6.0, 8.0),
        ]
        profile = profile_spans(spans)
        (root,) = profile.roots
        assert root.name == "enforce" and root.count == 1
        (analysis,) = root.children.values()
        assert analysis.count == 2
        assert analysis.inclusive == pytest.approx(7.0)
        (game,) = analysis.children.values()
        assert game.count == 2
        assert game.inclusive == pytest.approx(3.0)

    def test_exclusive_times_telescope_exactly(self):
        spans = [
            span(1, None, "enforce", 0.0, 10.0),
            span(2, 1, "product", 1.0, 5.0),
            span(3, 2, "compile.bitdfa", 2.0, 4.0),
            span(4, 1, "game", 6.0, 9.0),
        ]
        profile = profile_spans(spans)
        assert profile.total == pytest.approx(10.0)
        assert profile.exclusive_sum() == pytest.approx(profile.total)
        phases = profile.phases()
        assert phases["determinize"] == pytest.approx(2.0)
        assert phases["product"] == pytest.approx(2.0)
        assert phases["game"] == pytest.approx(3.0)
        assert phases["other"] == pytest.approx(3.0)

    def test_orphans_promote_to_roots(self):
        spans = [span(7, 99, "analysis", 0.0, 2.0)]  # parent rotated out
        profile = profile_spans(spans)
        assert [root.name for root in profile.roots] == ["analysis"]
        assert profile.total == pytest.approx(2.0)

    def test_unfinished_spans_are_skipped_and_counted(self):
        unfinished = span(2, 1, "game", 1.0, 2.0)
        unfinished["duration"] = None
        profile = profile_spans([span(1, None, "enforce", 0.0, 3.0),
                                 unfinished])
        assert profile.unfinished == 1
        assert "unfinished" in profile.render()

    def test_exclusive_clamps_against_clock_skew(self):
        # A child that appears longer than its parent (cross-thread
        # timestamps) must not drive exclusive time negative.
        spans = [
            span(1, None, "enforce", 0.0, 1.0),
            span(2, 1, "invoke", 0.0, 5.0),
        ]
        profile = profile_spans(spans)
        (root,) = profile.roots
        assert root.exclusive == 0.0

    def test_render_and_json_exports(self):
        profile = profile_spans([
            span(1, None, "enforce", 0.0, 4.0),
            span(2, 1, "game", 1.0, 3.0),
        ])
        text = profile.render()
        assert "enforce" in text and "[game]" in text
        assert "phase attribution" in text
        payload = json.loads(profile.to_json())
        assert payload["total_seconds"] == pytest.approx(4.0)
        assert payload["roots"][0]["name"] == "enforce"


def traced_rewrite(workers):
    """One engine rewrite traced under SimulatedClock, profiled.

    A fresh compilation cache per run keeps the span tree a pure
    function of the inputs (a warm ambient cache would elide the
    ``compile.*`` spans of later runs).
    """
    registry = ServiceRegistry()
    forecast = Service(newspaper.FORECAST_ENDPOINT, newspaper.FORECAST_NS)
    forecast.add_operation(
        "Get_Temp",
        FunctionSignature(parse_regex("city"), parse_regex("temp")),
        constant_responder((el("temp", "15"),)),
    )
    registry.register(forecast)
    engine = RewriteEngine(
        newspaper.wide_schema_star2(8), newspaper.wide_schema_star(8),
        k=1, workers=workers,
    )
    tracer = Tracer(clock=SimulatedClock(), capacity=100_000)
    with compiling(CompilationCache()), observing(tracer):
        result = engine.rewrite(
            newspaper.wide_document(8), registry.make_invoker()
        )
    assert result.document.is_extensional()
    return profile_tracer(tracer)


class TestProfileDeterminism:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_profile_is_byte_identical_run_to_run(self, workers):
        first = traced_rewrite(workers).to_json()
        second = traced_rewrite(workers).to_json()
        assert first == second

    def test_profile_covers_the_pipeline(self):
        profile = traced_rewrite(1)
        names = set()

        def walk(node):
            names.add(node.name)
            for child in node.children.values():
                walk(child)

        for root in profile.roots:
            walk(root)
        # RewriteEngine's root span is "document" (SchemaEnforcer adds
        # the outer "enforce" when driven through the exchange path).
        for expected in ("document", "analysis", "product", "game", "invoke"):
            assert expected in names

    def test_exclusive_sum_matches_total_within_one_percent(self):
        # Under the real clock (nonzero durations) the telescoping
        # invariant is the acceptance bound of the `repro profile` CLI.
        registry = ServiceRegistry()
        forecast = Service(newspaper.FORECAST_ENDPOINT, newspaper.FORECAST_NS)
        forecast.add_operation(
            "Get_Temp",
            FunctionSignature(parse_regex("city"), parse_regex("temp")),
            constant_responder((el("temp", "15"),)),
        )
        registry.register(forecast)
        engine = RewriteEngine(
            newspaper.wide_schema_star2(6), newspaper.wide_schema_star(6),
            k=1, workers=1,
        )
        tracer = Tracer(capacity=100_000)
        with compiling(CompilationCache()), observing(tracer):
            result = engine.rewrite(
                newspaper.wide_document(6), registry.make_invoker()
            )
            assert result.document.is_extensional()
        profile = profile_tracer(tracer)
        assert profile.total > 0.0
        assert profile.exclusive_sum() == pytest.approx(
            profile.total, rel=0.01
        )
