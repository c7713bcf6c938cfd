"""E16 — observability overhead: the null-object path must be ~free.

Every hot path in the stack (engine, game solvers, DFA products, the
resilient invoker, SOAP, the peer network) now calls into ``repro.obs``.
By default those sinks are null objects, so the only cost is a function
call and an attribute check per site.  This benchmark quantifies that
cost on an E15-style wide exchange and asserts the bound the design
promises: **under 5% of end-to-end latency**.

Method: time the exchange with the default (null) sinks, then run one
traced exchange to count how many spans/events/metric touches the
exchange actually performs, microbenchmark the per-touch null cost, and
compare ``touches x per-touch`` against the measured exchange time.
The touch counts and both timings land in the benchmark JSON via
``extra_info``.
"""

import time

from repro import (
    AXMLPeer,
    FunctionSignature,
    PeerNetwork,
    ResiliencePolicy,
    Service,
    constant_responder,
    el,
    parse_regex,
)
from repro.obs import NULL_METRICS, NULL_TRACER, Tracer, observing
from repro.services.resilience import SimulatedClock
from repro.workloads import newspaper

WIDTH = 12
MAX_OVERHEAD_FRACTION = 0.05


def wide_network(resilience=None):
    star = newspaper.wide_schema_star(WIDTH)
    star2 = newspaper.wide_schema_star2(WIDTH)
    alice = AXMLPeer("alice", star, resilience=resilience)
    forecast = Service(newspaper.FORECAST_ENDPOINT, newspaper.FORECAST_NS)
    forecast.add_operation(
        "Get_Temp",
        FunctionSignature(parse_regex("city"), parse_regex("temp")),
        constant_responder((el("temp", "15"),)),
    )
    alice.registry.register(forecast)
    bob = AXMLPeer("bob", star2)
    network = PeerNetwork()
    network.add_peer(alice)
    network.add_peer(bob)
    network.agree("alice", "bob", star2)
    alice.repository.store("front", newspaper.wide_document(WIDTH))
    return network


def run_exchange(resilience=None):
    network = wide_network(resilience)
    receipt = network.send("alice", "bob", "front")
    assert receipt.accepted
    return receipt


def count_touches():
    """How many obs touches one exchange performs (spans + events)."""
    tracer = Tracer(clock=SimulatedClock(), capacity=100_000)
    with observing(tracer):
        run_exchange(resilience=ResiliencePolicy())
    spans = tracer.finished()
    events = sum(len(span.events) for span in spans)
    return len(spans), events


def null_touch_cost(iterations=200_000):
    """Per-touch cost of the null path: one span() + with + set + event."""
    started = time.perf_counter()
    for _ in range(iterations):
        with NULL_TRACER.span("node", word="w") as span:
            span.set(mode="safe")
        NULL_TRACER.event("attempt", n=1)
        NULL_METRICS.counter("c", "h").inc(function="f")
    return (time.perf_counter() - started) / iterations


def test_null_tracer_overhead_under_five_percent(benchmark):
    """The instrumented-but-untraced exchange stays within the budget.

    The bitset game keeps the exchange's game share small, so the touch
    count must fit in a tight wall-clock budget.
    """
    benchmark(run_exchange, ResiliencePolicy())
    n_spans, n_events = count_touches()
    per_touch = null_touch_cost()
    touches = n_spans + n_events
    # Each touch above bundles a span, an attribute set, an event and a
    # metric call — strictly more work than most real sites do.
    estimated_overhead = touches * per_touch
    measured = benchmark.stats.stats.mean
    fraction = estimated_overhead / measured

    benchmark.extra_info["spans_per_exchange"] = n_spans
    benchmark.extra_info["events_per_exchange"] = n_events
    benchmark.extra_info["null_cost_per_touch_s"] = per_touch
    benchmark.extra_info["estimated_overhead_s"] = estimated_overhead
    benchmark.extra_info["exchange_mean_s"] = measured
    benchmark.extra_info["overhead_fraction"] = fraction

    print(
        "\nE16: %d span(s) + %d event(s)/exchange, %.0f ns/touch null cost; "
        "estimated overhead %.2f%% of a %.3f ms exchange"
        % (
            n_spans, n_events, per_touch * 1e9,
            fraction * 100.0, measured * 1e3,
        )
    )
    assert fraction < MAX_OVERHEAD_FRACTION, (
        "null-path observability overhead %.2f%% exceeds %.0f%%"
        % (fraction * 100.0, MAX_OVERHEAD_FRACTION * 100.0)
    )


def test_traced_exchange_still_completes(benchmark):
    """Tracing on: the same exchange, for the curious (not bounded)."""

    def traced():
        with observing(Tracer(clock=SimulatedClock(), capacity=100_000)):
            return run_exchange(resilience=ResiliencePolicy())

    receipt = benchmark(traced)
    assert receipt.accepted
    benchmark.extra_info["calls_materialized"] = receipt.calls_materialized
