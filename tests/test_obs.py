"""Unit tests for the observability layer (repro.obs)."""

import io
import json

import pytest

from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    NullMetricsRegistry,
    NullTracer,
    Tracer,
    install,
    metrics,
    observing,
    render_span_dicts,
    spans_from_jsonl,
    tracer,
    uninstall,
)
from repro.obs.metrics import TIME_BUCKETS
from repro.obs.trace import Span
from repro.services.resilience import SimulatedClock


class TestSpans:
    def test_nesting_and_ids_are_deterministic(self):
        t = Tracer(clock=SimulatedClock())
        with t.span("exchange", sender="alice") as outer:
            t.clock.sleep(1.0)
            with t.span("document", mode="safe") as inner:
                t.clock.sleep(0.5)
            outer.set(accepted=True)
        spans = {span.name: span for span in t.finished()}
        assert spans["exchange"].span_id == 1
        assert spans["exchange"].parent_id is None
        assert spans["document"].span_id == 2
        assert spans["document"].parent_id == 1
        assert spans["document"].duration == 0.5
        assert spans["exchange"].duration == 1.5
        assert spans["exchange"].attributes["accepted"] is True

    def test_identical_runs_produce_identical_traces(self):
        def run():
            t = Tracer(clock=SimulatedClock())
            with t.span("document"):
                t.clock.sleep(0.25)
                with t.span("node", word="a.b"):
                    t.clock.sleep(0.125)
                t.event("retry", delay=0.5)
            out = io.StringIO()
            t.export_jsonl(out)
            return out.getvalue()

        assert run() == run()

    def test_children_finish_before_parents_in_sink(self):
        t = Tracer(clock=SimulatedClock())
        with t.span("parent"):
            with t.span("child"):
                pass
        names = [span.name for span in t.finished()]
        assert names == ["child", "parent"]

    def test_events_attach_to_current_span(self):
        t = Tracer(clock=SimulatedClock())
        with t.span("invoke") as span:
            t.clock.sleep(2.0)
            t.event("fault", kind="transient")
        assert len(span.events) == 1
        event = span.events[0]
        assert event.name == "fault"
        assert event.time == 2.0
        assert event.attributes == {"kind": "transient"}

    def test_exception_marks_span_and_propagates(self):
        t = Tracer(clock=SimulatedClock())
        with pytest.raises(ValueError):
            with t.span("node"):
                raise ValueError("boom")
        (span,) = t.finished()
        assert span.attributes["error"] == "boom"
        assert span.end is not None

    def test_ring_buffer_drops_oldest(self):
        t = Tracer(clock=SimulatedClock(), capacity=3)
        for index in range(5):
            with t.span("s%d" % index):
                pass
        assert t.dropped == 2
        assert [span.name for span in t.finished()] == ["s2", "s3", "s4"]

    def test_profiling_hook_sees_every_finished_span(self):
        seen = []
        t = Tracer(clock=SimulatedClock(), on_span_end=seen.append)
        with t.span("a"):
            with t.span("b"):
                pass
        assert [span.name for span in seen] == ["b", "a"]


class TestJsonlRoundTrip:
    def test_export_and_reparse(self, tmp_path):
        t = Tracer(clock=SimulatedClock())
        with t.span("document", mode="safe"):
            t.clock.sleep(1.0)
            with t.span("node", word="title"):
                t.clock.sleep(0.5)
        path = tmp_path / "trace.jsonl"
        assert t.export_jsonl(str(path)) == 2
        spans = spans_from_jsonl(path.read_text())
        assert [span["name"] for span in spans] == ["document", "node"]
        assert spans[1]["parent_id"] == spans[0]["span_id"]
        assert spans[1]["duration"] == 0.5
        assert spans[0]["attributes"] == {"mode": "safe"}

    def test_rendered_tree_matches_live_rendering(self):
        t = Tracer(clock=SimulatedClock())
        with t.span("document"):
            with t.span("node", word="a"):
                pass
            with t.span("node", word="b"):
                pass
        out = io.StringIO()
        t.export_jsonl(out)
        rendered = render_span_dicts(spans_from_jsonl(out.getvalue()))
        assert rendered == t.render_tree()
        assert "├─ node" in rendered and "└─ node" in rendered

    def test_orphan_spans_render_as_roots(self):
        spans = [
            {"span_id": 7, "parent_id": 3, "name": "stray",
             "duration": 0.5, "attributes": {}},
        ]
        assert render_span_dicts(spans).startswith("stray")


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("calls", "calls made").inc(function="f")
        registry.counter("calls").inc(2.0, function="f")
        registry.gauge("depth").set(4)
        registry.histogram("sizes").observe(3)
        registry.histogram("sizes").observe(70)
        assert registry.counter("calls").value(function="f") == 3.0
        assert registry.gauge("depth").value() == 4.0
        assert registry.histogram("sizes").count() == 2
        assert registry.histogram("sizes").sum() == 73.0

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_prometheus_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_calls_total", "Calls").inc(function="Get_Temp")
        registry.histogram("repro_sizes", "Sizes", (1.0, 10.0)).observe(5)
        text = registry.to_prometheus()
        assert "# HELP repro_calls_total Calls" in text
        assert "# TYPE repro_calls_total counter" in text
        assert 'repro_calls_total{function="Get_Temp"} 1' in text
        assert 'repro_sizes_bucket{le="1"} 0' in text
        assert 'repro_sizes_bucket{le="10"} 1' in text
        assert 'repro_sizes_bucket{le="+Inf"} 1' in text
        assert "repro_sizes_sum 5" in text
        assert "repro_sizes_count 1" in text

    def test_jsonl_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c", "a counter").inc(3, mode="safe")
        registry.gauge("g").set(2.5)
        registry.histogram("h", "sizes", (1.0, 5.0)).observe(4)
        rebuilt = MetricsRegistry.from_jsonl(registry.to_jsonl())
        assert rebuilt.to_jsonl() == registry.to_jsonl()
        assert rebuilt.to_prometheus() == registry.to_prometheus()
        assert rebuilt.counter("c").value(mode="safe") == 3.0
        assert rebuilt.histogram("h").count() == 1

    def test_summary_is_human_readable(self):
        registry = MetricsRegistry()
        registry.counter("repro_calls_total").inc(2, function="f")
        registry.histogram("repro_sizes").observe(10)
        summary = registry.summary()
        assert 'repro_calls_total{function="f"}: 2' in summary
        assert "repro_sizes: count=1 sum=10 mean=10" in summary

    def test_histogram_overflow_lands_in_inf_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "sizes", (1.0, 5.0))
        histogram.observe(3)
        histogram.observe(1000)  # above every finite bound
        key = ()
        assert histogram.counts[key] == [0, 1, 2]  # le=1, le=5, le=+Inf
        assert histogram.count() == 2
        text = registry.to_prometheus()
        assert 'h_bucket{le="5"} 1' in text
        assert 'h_bucket{le="+Inf"} 2' in text

    def test_histogram_quantiles_from_sketch(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value), mode="safe")
        assert histogram.quantile(0.5, mode="safe") == pytest.approx(
            50.5, rel=0.05
        )
        estimates = histogram.quantiles(mode="safe")
        assert set(estimates) == {0.5, 0.95, 0.99}
        # An unseen label set has no sketch: quantiles are None.
        assert histogram.quantile(0.5, mode="possible") is None

    def test_jsonl_round_trip_with_labeled_histograms(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "sizes", (1.0, 5.0))
        for mode, values in (("safe", [0.5, 3.0, 99.0]),
                             ("possible", [2.0, 4.0])):
            for value in values:
                histogram.observe(value, mode=mode)
        rebuilt = MetricsRegistry.from_jsonl(registry.to_jsonl())
        assert rebuilt.to_jsonl() == registry.to_jsonl()
        again = rebuilt.histogram("h")
        assert again.count(mode="safe") == 3
        assert again.count(mode="possible") == 2
        # The +Inf slot and the quantile sketch both survive the trip.
        assert again.counts[(("mode", "safe"),)][-1] == 3
        assert again.quantiles(mode="safe") == histogram.quantiles(mode="safe")

    def test_from_jsonl_accepts_legacy_records_without_inf_slot(self):
        # Records written before the explicit overflow bucket carry one
        # count per finite bound; the cumulative +Inf slot is the total.
        legacy = (
            '{"buckets": [1.0, 5.0], "count": 3, "counts": [1, 2], '
            '"help": "", "labels": {}, "name": "h", "sum": 9.0, '
            '"type": "histogram"}\n'
        )
        registry = MetricsRegistry.from_jsonl(legacy)
        histogram = registry.histogram("h")
        assert histogram.counts[()] == [1, 2, 3]
        assert histogram.count() == 3
        assert histogram.quantile(0.5) is None  # no sketch to restore

    def test_summary_shows_quantiles_for_single_series(self):
        registry = MetricsRegistry()
        for value in range(1, 101):
            registry.histogram("h").observe(float(value))
        summary = registry.summary()
        assert "p50=" in summary and "p95=" in summary and "p99=" in summary
        # A second label set makes quantiles non-aggregatable: hidden.
        registry.histogram("h").observe(1.0, mode="x")
        assert "p50=" not in registry.summary()

    def test_span_observer_bridges_durations(self):
        registry = MetricsRegistry()
        t = Tracer(clock=SimulatedClock(), on_span_end=registry.span_observer())
        with t.span("document"):
            t.clock.sleep(0.01)
        assert registry.counter("repro_spans_total").value(name="document") == 1
        histogram = registry.histogram("repro_span_seconds")
        assert histogram.count(name="document") == 1
        assert histogram.sum(name="document") == pytest.approx(0.01)
        assert histogram.buckets == tuple(sorted(TIME_BUCKETS))


class TestNullObjects:
    def test_null_tracer_is_inert(self):
        span = NULL_TRACER.span("anything", word="w")
        with span as inner:
            assert inner is span
            inner.set(foo=1)
        NULL_TRACER.event("fault")
        assert NULL_TRACER.finished() == ()
        assert NULL_TRACER.export_jsonl(io.StringIO()) == 0
        assert not NULL_TRACER.enabled

    def test_null_span_is_shared(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_null_metrics_are_inert(self):
        NULL_METRICS.counter("c", "help").inc(5, label="x")
        NULL_METRICS.gauge("g").set(1)
        NULL_METRICS.histogram("h", buckets=(1.0,)).observe(2)
        assert NULL_METRICS.to_prometheus() == ""
        assert NULL_METRICS.names() == []
        assert not NULL_METRICS.enabled

    def test_defaults_are_null(self):
        uninstall()
        assert isinstance(tracer(), NullTracer)
        assert isinstance(metrics(), NullMetricsRegistry)


class TestContext:
    def test_install_and_uninstall(self):
        t, m = Tracer(clock=SimulatedClock()), MetricsRegistry()
        install(t, m)
        try:
            assert tracer() is t
            assert metrics() is m
        finally:
            uninstall()
        assert isinstance(tracer(), NullTracer)

    def test_install_bridges_tracer_to_metrics(self):
        t, m = Tracer(clock=SimulatedClock()), MetricsRegistry()
        install(t, m)
        try:
            with t.span("node"):
                t.clock.sleep(0.5)
            assert m.counter("repro_spans_total").value(name="node") == 1
        finally:
            uninstall()

    def test_bridge_is_wired_once_per_pair(self):
        t, m = Tracer(clock=SimulatedClock()), MetricsRegistry()
        install(t, m)
        install(t, m)  # idempotent: re-install must not double-count
        try:
            with t.span("node"):
                pass
            assert m.counter("repro_spans_total").value(name="node") == 1
        finally:
            uninstall()

    def test_observing_restores_previous_state(self):
        t = Tracer(clock=SimulatedClock())
        with observing(t):
            assert tracer() is t
            with t.span("inner"):
                pass
        assert isinstance(tracer(), NullTracer)
        assert len(t.finished()) == 1

    def test_observing_creates_defaults(self):
        with observing() as (t, m):
            assert t.enabled and m.enabled
            with t.span("x"):
                pass
            assert m.counter("repro_spans_total").value(name="x") == 1


class TestConcurrency:
    """Regression: the tracer and metrics are shared across the
    scheduler's worker threads — parenting must stay per-thread and
    counters must not lose increments."""

    def test_concurrent_spans_never_interleave_parents(self):
        import threading

        t = Tracer(clock=SimulatedClock())
        n = 8
        barrier = threading.Barrier(n)

        def worker(idx):
            with t.span("outer", idx=idx):
                barrier.wait(timeout=10)  # all outers open at once
                with t.span("inner", idx=idx):
                    barrier.wait(timeout=10)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)

        spans = t.finished()
        assert len(spans) == 2 * n
        by_id = {span.span_id: span for span in spans}
        for span in spans:
            if span.name == "inner":
                parent = by_id[span.parent_id]
                # each inner hangs off *its own thread's* outer, never
                # a concurrently open span of another thread
                assert parent.name == "outer"
                assert parent.attributes["idx"] == span.attributes["idx"]
            else:
                assert span.parent_id is None

    def test_threads_do_not_inherit_the_main_threads_span(self):
        import threading

        t = Tracer(clock=SimulatedClock())
        recorded = []
        with t.span("main-work"):

            def worker():
                with t.span("detached") as span:
                    pass
                recorded.append(span)

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=10)
        (detached,) = [s for s in t.finished() if s.name == "detached"]
        assert detached.parent_id is None

    def test_explicit_parent_id_crosses_threads(self):
        import threading

        t = Tracer(clock=SimulatedClock())
        with t.span("wave") as wave:
            wave_id = wave.span_id

            def worker():
                with t.span("task", parent_id=wave_id):
                    pass

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        tasks = [s for s in t.finished() if s.name == "task"]
        assert len(tasks) == 4
        assert all(s.parent_id == wave_id for s in tasks)

    def test_counters_and_histograms_lose_no_updates(self):
        import threading

        m = MetricsRegistry()
        n_threads, per_thread = 8, 500

        def worker():
            for _ in range(per_thread):
                m.counter("c", "test").inc(kind="x")
                m.histogram("h", "test").observe(1.0)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert m.counter("c", "test").value(kind="x") == n_threads * per_thread
        assert m.histogram("h", "test").count() == n_threads * per_thread

    def test_sixteen_threads_under_constant_preemption(self):
        # Ids come from an itertools.count and the hooks are read without
        # the lock; with more threads than cores and a GIL switch forced
        # every microsecond, no id may repeat or go missing, no span may
        # escape both the sink and the ``dropped`` count, the bridge must
        # see each span once, and no span may adopt another thread's.
        import sys
        import threading

        n_threads, rounds = 16, 60
        registry = MetricsRegistry()
        t = Tracer(capacity=500, on_span_end=registry.span_observer())
        barrier = threading.Barrier(n_threads)
        opened = [[] for _ in range(n_threads)]

        def worker(index):
            mine = opened[index]
            barrier.wait(timeout=30)
            for _ in range(rounds):
                with t.span("outer", thread=index) as outer:
                    with t.span("inner", thread=index) as inner:
                        mine.append((inner.span_id, inner.parent_id))
                    # Closed out of order: the identity scan's path.
                    first = t.start("a", thread=index)
                    second = t.start("b", thread=index)
                    t.finish(first)
                    t.finish(second)
                    mine += [(first.span_id, first.parent_id),
                             (second.span_id, second.parent_id)]
                mine.append((outer.span_id, outer.parent_id))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(index,))
                       for index in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)

        n = n_threads * rounds * 4
        ids = [span_id for mine in opened for span_id, _ in mine]
        assert sorted(ids) == list(range(1, n + 1))
        assert len(t.finished()) + t.dropped == n
        assert t.dropped == n - 500
        spans_total = registry.counter("repro_spans_total")
        assert spans_total.total == n
        assert sum(registry.histogram("repro_span_seconds").totals.values()) \
            == n
        owner = {span_id: index for index, mine in enumerate(opened)
                 for span_id, _ in mine}
        for index, mine in enumerate(opened):
            for _span_id, parent_id in mine:
                assert parent_id is None or owner[parent_id] == index


class TestEnabledCost:
    """What an enabled span pays for, pinned (docs/OBSERVABILITY.md)."""

    def test_a_finished_span_feeds_no_quantile_estimator(self, monkeypatch):
        from repro.obs.quantile import P2Quantile

        observed = []
        monkeypatch.setattr(P2Quantile, "observe",
                            lambda estimator, value: observed.append(value))
        with observing(Tracer(clock=SimulatedClock()),
                       MetricsRegistry()) as (t, m):
            for _ in range(3):
                with t.span("node"):
                    t.clock.sleep(0.001)
        assert observed == []
        histogram = m.histogram("repro_span_seconds")
        assert histogram.count(name="node") == 3
        assert histogram.tracked == ()
        assert histogram.quantiles(name="node") == {}
        # Histograms made without quantiles= keep p50/p95/p99.
        m.histogram("h").observe(1.0)
        assert len(observed) == 3

    def test_no_quantiles_survive_the_jsonl_round_trip(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "", (1.0,), quantiles=())
        histogram.observe(0.5, mode="safe")
        rebuilt = MetricsRegistry.from_jsonl(registry.to_jsonl()).get("h")
        assert rebuilt.tracked == ()
        rebuilt.observe(2.0, mode="new")
        assert rebuilt.quantiles(mode="new") == {}
        assert rebuilt.counts == {(("mode", "safe"),): [1, 1],
                                  (("mode", "new"),): [0, 1]}

    def test_bridged_buckets_are_cumulative_and_inclusive(self):
        # One tally per observation, accumulated on export: a value on a
        # bound counts in that bucket and every one above it.
        registry = MetricsRegistry()
        observe = registry.span_observer()
        for name, duration in (("node", 0.00003), ("node", 0.0025),
                               ("document", 3.0), ("node", 42.0)):
            span = Span(1, None, name, 0.0)
            span.end = duration
            observe(span)
        text = registry.to_prometheus()
        assert 'repro_spans_total{name="node"} 3' in text
        assert 'repro_span_seconds_bucket{name="node",le="0.0001"} 1' in text
        assert 'repro_span_seconds_bucket{name="node",le="0.001"} 1' in text
        assert 'repro_span_seconds_bucket{name="node",le="0.0025"} 2' in text
        assert 'repro_span_seconds_bucket{name="node",le="10"} 2' in text
        assert 'repro_span_seconds_bucket{name="node",le="+Inf"} 3' in text
        assert 'repro_span_seconds_bucket{name="document",le="2.5"} 0' in text
        assert 'repro_span_seconds_bucket{name="document",le="5"} 1' in text
        assert 'repro_span_seconds_count{name="node"} 3' in text
