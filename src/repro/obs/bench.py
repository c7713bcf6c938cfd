"""`repro bench` — named benchmarks with deterministic work counters.

Each bench runs a hot path of the stack under a **fresh**
:class:`~repro.obs.metrics.MetricsRegistry` and a **fresh**
:class:`~repro.compile.cache.CompilationCache`, so the
``repro_work_total`` snapshot in its payload is a pure function of the
code and the inputs — byte-identical across invocations on any machine.
Wall-clock numbers ride along for humans but are *excluded* from
regression comparison (:func:`deterministic_view` strips them), which is
what lets CI diff trajectories without trusting runner speed.

Payloads follow the ``BENCH_*.json`` convention: one
flat, sorted JSON object per bench, written as ``BENCH_<name>.json``
into ``--out`` / ``$REPRO_BENCH_DIR`` / the repo root.  On top of the
descriptive fields every payload carries:

- ``work`` — the :func:`~repro.obs.metrics.work_snapshot` per
  configuration (deterministic; the regression differ's input),
- ``machine`` — a coarse host fingerprint (ignored by the differ),
- ``smoke`` — whether the reduced scenario set ran; payloads only diff
  against baselines with the *same* flag.

This module is deliberately not imported from ``repro.obs.__init__`` —
it pulls in the solvers and workloads, which the null-path observability
sites must never pay for.
"""

from __future__ import annotations

import json
import os
import platform
import random
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.compile.cache import CompilationCache
from repro.compile.context import compiling
from repro.obs.context import observing
from repro.obs.metrics import MetricsRegistry, record_work, work_snapshot
from repro.obs.quantile import DEFAULT_QUANTILES, QuantileSketch, exact_quantile
from repro.obs.trace import NULL_TRACER

#: Wall-clock (and otherwise machine-dependent) keys, stripped by
#: :func:`deterministic_view` before payloads are compared.
EXCLUDED_SUFFIXES = ("_seconds", "_ns", "_fraction", "_bytes", "_per_s")
EXCLUDED_KEYS = ("machine", "speedup", "within_budget")


# ---------------------------------------------------------------------------
# Shared scenario family (the E4/E22 game workload)
# ---------------------------------------------------------------------------


def _outputs():
    from repro.regex.parser import parse_regex

    return {
        "Get_Temp": parse_regex("temp"),
        "TimeOut": parse_regex("(exhibit | performance)*"),
        "Get_Date": parse_regex("date"),
        "Get_Review": parse_regex("(review.date?)*"),
        "Deep": parse_regex("(exhibit.Deep?){0,4}"),
    }


def _scenarios(smoke: bool):
    """(name, word, target, k) — the E4 example plus two scaled variants."""
    from repro.regex.parser import parse_regex

    fig6 = ("fig6", ("title", "date", "Get_Temp", "TimeOut"),
            parse_regex("title.date.temp.(TimeOut | exhibit*)"), 1)
    if smoke:
        return [fig6]
    return [
        fig6,
        ("repeat32", ("title", "date") + ("Get_Temp", "TimeOut") * 12
         + ("Deep",) * 3,
         parse_regex(
             "title.date.(temp.(TimeOut | (exhibit.performance?){0,32}))*"
             ".(exhibit | Deep?)*"
         ), 2),
        ("repeat48",
         ("title", "date") + ("Get_Temp", "TimeOut", "Get_Review") * 10
         + ("Deep",) * 4,
         parse_regex(
             "title.date.(temp.(TimeOut | (exhibit.performance?){0,48})"
             ".(review.date?)*)*.(exhibit | Deep?)*"
         ), 2),
    ]


def _solve_all(scenarios, outputs, cc) -> List[Tuple[bool, bool, bool]]:
    """Every solver's verdict per scenario (the agreement check)."""
    from repro.rewriting.lazy import analyze_safe_lazy
    from repro.rewriting.possible import analyze_possible
    from repro.rewriting.safe import analyze_safe

    verdicts = []
    for _name, word, target, k in scenarios:
        safe = analyze_safe(word, outputs, target, k=k, compile_cache=cc)
        lazy = analyze_safe_lazy(word, outputs, target, k=k, compile_cache=cc)
        possible = analyze_possible(word, outputs, target, k=k,
                                    compile_cache=cc)
        verdicts.append((safe.exists, lazy.exists, possible.exists))
    return verdicts


# ---------------------------------------------------------------------------
# The benches
# ---------------------------------------------------------------------------


def bench_game_work(smoke: bool = False) -> dict:
    """Product+game work counters and wall time of the three solvers.

    The deterministic payload is the ``repro_work_total`` snapshot —
    fixpoint pops, frontier sizes, product nodes — exactly what an
    algorithmic regression moves even when the machine hides it in the
    noise.  Verdict consistency (eager = lazy, safe ⇒ possible) is
    asserted in-band.
    """
    outputs = _outputs()
    scenarios = _scenarios(smoke)
    registry = MetricsRegistry()
    with observing(NULL_TRACER, registry):
        cc = CompilationCache()
        started = time.perf_counter()
        verdicts = _solve_all(scenarios, outputs, cc)
        seconds = time.perf_counter() - started
    return {
        "benchmark": "game_work",
        "experiment": "E24",
        "hot_path": "safe+lazy+possible product+game, fresh compile cache; "
                    "work counters from repro_work_total",
        "scenarios": [name for name, _w, _t, _k in scenarios],
        "verdicts_consistent": all(
            safe == lazy and (possible or not safe)
            for safe, lazy, possible in verdicts
        ),
        "solve_seconds": round(seconds, 6),
        "work": {"default": work_snapshot(registry)},
    }


def bench_obs_overhead(smoke: bool = False) -> dict:
    """E16 re-verified: null-path observability overhead.

    The deterministic part is the touch census — spans and events one
    wide exchange emits (counted under ``SimulatedClock``, so
    byte-stable).  The wall-derived per-touch cost, estimated overhead
    and fraction are recorded for humans and stripped by the differ.
    """
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
    from repro.obs.metrics import NULL_METRICS
    from repro.obs.trace import Tracer
    from repro.services.resilience import SimulatedClock
    from repro.workloads import newspaper

    width = 4 if smoke else 12

    def run_exchange():
        star = newspaper.wide_schema_star(width)
        star2 = newspaper.wide_schema_star2(width)
        alice = AXMLPeer("alice", star, resilience=ResiliencePolicy())
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
        alice.repository.store("front", newspaper.wide_document(width))
        receipt = network.send("alice", "bob", "front")
        assert receipt.accepted
        return receipt

    # Wall time of the exchange with the default null sinks.
    with compiling(CompilationCache()):
        run_exchange()  # warm (compiles paid once)
    with compiling(CompilationCache()):
        run_exchange()
        started = time.perf_counter()
        run_exchange()
        exchange_seconds = time.perf_counter() - started
    # Deterministic touch census + work counters, traced.
    tracer = Tracer(clock=SimulatedClock(), capacity=100_000)
    registry = MetricsRegistry()
    with compiling(CompilationCache()), observing(tracer, registry):
        run_exchange()
    spans = tracer.finished()
    events = sum(len(span.events) for span in spans)
    # Per-touch null cost.
    iterations = 20_000 if smoke else 200_000
    started = time.perf_counter()
    for _ in range(iterations):
        with NULL_TRACER.span("node", word="w") as span:
            span.set(mode="safe")
        NULL_TRACER.event("attempt", n=1)
        NULL_METRICS.counter("c", "h").inc(function="f")
    per_touch = (time.perf_counter() - started) / iterations
    fraction = (len(spans) + events) * per_touch / exchange_seconds
    max_fraction = 0.05
    return {
        "benchmark": "obs_overhead",
        "experiment": "E16",
        "hot_path": "wide exchange (width %d) with null sinks; touch census "
                    "traced under SimulatedClock" % width,
        "max_overhead_fraction": max_fraction,
        "width": width,
        "spans_per_exchange": len(spans),
        "events_per_exchange": events,
        "exchange_seconds": round(exchange_seconds, 6),
        "null_touch_seconds": round(per_touch, 9),
        "overhead_fraction": round(fraction, 6),
        "within_budget": fraction < max_fraction,
        "work": {"default": work_snapshot(registry)},
    }


def bench_quantile_sketch(smoke: bool = False) -> dict:
    """P² streaming quantiles vs. exact order statistics on seeded data.

    Error figures are deterministic (seeded streams, pure estimator);
    the observe-loop wall time rides along for humans.
    """
    n = 2_000 if smoke else 20_000
    registry = MetricsRegistry()
    payload: dict = {
        "benchmark": "quantile_sketch",
        "experiment": "P2",
        "hot_path": "QuantileSketch.observe on seeded streams vs "
                    "exact_quantile ground truth",
        "observations_per_stream": n,
        "quantiles": list(DEFAULT_QUANTILES),
    }
    streams: List[Tuple[str, Callable[[random.Random], float]]] = [
        ("uniform", lambda rng: rng.uniform(0.0, 100.0)),
        ("exponential", lambda rng: rng.expovariate(0.1)),
        ("lognormal", lambda rng: rng.lognormvariate(0.0, 1.0)),
    ]
    total_seconds = 0.0
    for name, draw in streams:
        rng = random.Random(2003)
        values = [draw(rng) for _ in range(n)]
        sketch = QuantileSketch()
        started = time.perf_counter()
        for value in values:
            sketch.observe(value)
        total_seconds += time.perf_counter() - started
        ordered = sorted(values)
        for q in DEFAULT_QUANTILES:
            exact = exact_quantile(ordered, q)
            estimate = sketch.quantile(q)
            error = abs(estimate - exact) / (abs(exact) or 1.0)
            payload["%s_p%g_rel_error" % (name, q * 100)] = round(error, 6)
        record_work(registry, "quantile", {"observations": n}, stream=name)
    payload["observe_seconds"] = round(total_seconds, 6)
    payload["work"] = {"default": work_snapshot(registry)}
    return payload


def bench_compile_cache(smoke: bool = False) -> dict:
    """Cold vs. warm sweep through a fresh compilation cache.

    Hit/miss/build counts are deterministic; the cold/warm wall times
    quantify what the cache buys on this machine.
    """
    outputs = _outputs()
    scenarios = _scenarios(smoke)
    registry = MetricsRegistry()
    with observing(NULL_TRACER, registry):
        cc = CompilationCache()
        started = time.perf_counter()
        cold_verdicts = _solve_all(scenarios, outputs, cc)
        cold = time.perf_counter() - started
        # Warm wall time is best-of-3 (the sweep count is fixed, so the
        # work counters stay deterministic; only the minimum is noisy).
        warm = None
        for _ in range(3):
            started = time.perf_counter()
            warm_verdicts = _solve_all(scenarios, outputs, cc)
            elapsed = time.perf_counter() - started
            warm = elapsed if warm is None else min(warm, elapsed)
    stats = cc.stats()
    return {
        "benchmark": "compile_cache",
        "experiment": "E22-counters",
        "hot_path": "cold then warm solver sweep against one fresh "
                    "CompilationCache",
        "scenarios": [name for name, _w, _t, _k in scenarios],
        "verdicts_stable": cold_verdicts == warm_verdicts,
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "cache_entries": stats.entries,
        "cold_seconds": round(cold, 6),
        "warm_seconds": round(warm, 6),
        "work": {"default": work_snapshot(registry)},
    }


def bench_gateway_load(smoke: bool = False) -> dict:
    """Closed-loop load benchmark against the exchange gateway (E25).

    Concurrent ``POST /exchange`` storm plus an overload/shed phase;
    the gateway must return byte-identical documents to the direct
    library path.  Implemented in :mod:`repro.gateway.loadgen`
    (imported lazily — the gateway pulls in asyncio machinery the
    other benches never need).
    """
    from repro.gateway.loadgen import run_load

    return run_load(smoke=smoke)


def bench_incremental(smoke: bool = False) -> dict:
    """Edit-storm incremental enforcement vs full re-enforcement (E26).

    Seeded single-article edits over magazine documents at two sizes;
    every incremental receipt must be byte-identical to a fresh full
    enforcement, with a re-analysis footprint set by edit locality, not
    document size.  Implemented in :mod:`repro.incremental.bench`
    (imported lazily, like the gateway bench).
    """
    from repro.incremental.bench import run_incremental

    return run_incremental(smoke=smoke)


def bench_stream_enforce(smoke: bool = False) -> dict:
    """Streaming vs DOM enforcement over one byte stream (E27).

    Same magazine workload at three sizes; the streaming pass must
    reproduce the DOM pass's bytes and receipt exactly while its
    tracemalloc peak grows sub-linearly in the input.  Implemented in
    :mod:`repro.stream.bench` (imported lazily, like the gateway bench).
    """
    from repro.stream.bench import run_stream_enforce

    return run_stream_enforce(smoke=smoke)


#: name -> bench callable; ``repro bench`` runs these in this order.
BENCHES: Dict[str, Callable[[bool], dict]] = {
    "game_work": bench_game_work,
    "obs_overhead": bench_obs_overhead,
    "quantile_sketch": bench_quantile_sketch,
    "compile_cache": bench_compile_cache,
    "gateway_load": bench_gateway_load,
    "incremental": bench_incremental,
    "stream_enforce": bench_stream_enforce,
}


# ---------------------------------------------------------------------------
# Payload plumbing: fingerprint, write, deterministic view, diff
# ---------------------------------------------------------------------------


def machine_fingerprint() -> dict:
    """Coarse host identity recorded in payloads (ignored by the differ)."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


def run_bench(name: str, smoke: bool = False) -> dict:
    """Run one named bench; returns the complete payload."""
    try:
        bench = BENCHES[name]
    except KeyError:
        raise ValueError(
            "unknown bench %r (have: %s)" % (name, ", ".join(sorted(BENCHES)))
        )
    payload = bench(smoke)
    payload["smoke"] = bool(smoke)
    payload["machine"] = machine_fingerprint()
    return payload


def bench_filename(name: str) -> str:
    return "BENCH_%s.json" % name


def write_payload(payload: dict, out_dir: str) -> str:
    """Write ``BENCH_<name>.json`` (sorted keys, trailing newline)."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, bench_filename(payload["benchmark"]))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def deterministic_view(payload: dict) -> dict:
    """The payload minus wall-clock and host-dependent entries.

    Two invocations of the same bench on the same code must produce
    byte-identical JSON serializations of this view — that invariant is
    what the trajectory differ (and the acceptance test) relies on.
    """

    def strip(value):
        if isinstance(value, dict):
            return {
                key: strip(sub)
                for key, sub in value.items()
                if key not in EXCLUDED_KEYS
                and not any(key.endswith(suffix) for suffix in EXCLUDED_SUFFIXES)
            }
        if isinstance(value, list):
            return [strip(item) for item in value]
        return value

    return strip(payload)


def _flatten(value, prefix: str = "") -> Dict[str, object]:
    if isinstance(value, dict):
        flat: Dict[str, object] = {}
        for key in sorted(value):
            flat.update(_flatten(value[key], "%s.%s" % (prefix, key)
                                 if prefix else str(key)))
        return flat
    return {prefix: value}


def diff_payloads(baseline: dict, current: dict,
                  threshold: float = 0.10) -> List[str]:
    """Counter regressions of *current* against *baseline*.

    Both payloads are reduced to their deterministic views and
    flattened; a regression is a numeric value that **grew** beyond
    ``threshold`` (work counters measure cost: more pops, more builds,
    bigger frontiers = worse), a True boolean that turned False
    (verdict agreement, budget compliance), or a baseline key missing
    from *current* — a counter that stops being reported can no longer
    be gated, so it must be re-recorded on purpose, never dropped
    silently.  Improvements and new keys never flag.
    """
    before = _flatten(deterministic_view(baseline))
    after = _flatten(deterministic_view(current))
    regressions: List[str] = []
    for key, old in sorted(before.items()):
        if key not in after:
            regressions.append("%s: %s -> missing" % (key, old))
            continue
        new = after[key]
        if isinstance(old, bool) or isinstance(new, bool):
            if old is True and new is False:
                regressions.append("%s: True -> False" % key)
            continue
        if isinstance(old, (int, float)) and isinstance(new, (int, float)):
            bound = old * (1.0 + threshold) if old > 0 else threshold
            if new > bound:
                regressions.append(
                    "%s: %s -> %s (+%.1f%%, threshold %.0f%%)"
                    % (key, old, new,
                       100.0 * (new - old) / old if old else float("inf"),
                       threshold * 100.0)
                )
    return regressions


def compare_against(payload: dict, baseline_path: str,
                    threshold: float = 0.10) -> Optional[List[str]]:
    """Diff a fresh payload against a baseline file, if comparable.

    Returns None when there is no baseline or the smoke flags differ
    (full runs and smoke runs count different scenario sets); otherwise
    the — possibly empty — regression list.
    """
    if not os.path.exists(baseline_path):
        return None
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    if bool(baseline.get("smoke")) != bool(payload.get("smoke")):
        return None
    return diff_payloads(baseline, payload, threshold=threshold)
