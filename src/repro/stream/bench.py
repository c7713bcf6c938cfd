"""E27 — streaming enforcement: bounded memory at DOM-identical bytes.

A magazine document (``magazine = article*``, every article carrying a
``Get_Temp`` that must be materialized) is enforced twice at each of
three sizes:

- **dom** — the classic path: parse the whole tree, rewrite it, then
  serialize the result (peak memory grows with the document);
- **stream** — :func:`repro.stream.enforce.stream_rewrite`: the input
  arrives in bounded chunks, children words are rewritten as elements
  close, output bytes leave through a hashing sink that retains nothing
  (peak memory tracks depth + one article, not the document).

Receipts and output bytes must be identical (``receipts_identical``),
and the streaming path's tracemalloc peak must grow sub-linearly while
the input quadruples (``peak_sublinear``) — the two deterministic
acceptance booleans CI diffs.  Wall-clock figures and every ``*_bytes``
measurement are stripped from regression comparisons.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Tuple

from repro.axml.enforcement import SchemaEnforcer
from repro.compile.cache import CompilationCache
from repro.doc.document import Document
from repro.obs.context import observing
from repro.obs.memory import peak_rss_bytes, traced_peak
from repro.obs.metrics import MetricsRegistry, work_snapshot
from repro.obs.trace import NULL_TRACER
from repro.schema.model import Schema
from repro.workloads import magazine


def _chunks(xml: str, size: int = 1 << 14) -> List[str]:
    return [xml[i:i + size] for i in range(0, len(xml), size)]


class _HashSink:
    """A write sink retaining a digest and a byte count, never the bytes."""

    __slots__ = ("digest", "length")

    def __init__(self):
        self.digest = hashlib.sha256()
        self.length = 0

    def write(self, chunk: str) -> None:
        data = chunk.encode("utf-8")
        self.digest.update(data)
        self.length += len(data)


def _enforcer(receiver: Schema, sender: Schema,
              compile_cache: CompilationCache) -> SchemaEnforcer:
    return SchemaEnforcer(
        target_schema=receiver, sender_schema=sender,
        k=1, mode="safe", compile_cache=compile_cache,
    )


def _receipt(outcome) -> Tuple:
    return (
        outcome.ok, outcome.already_conformant, outcome.calls_made,
        outcome.cache_hits, outcome.cache_misses,
        outcome.degraded_functions,
    )


def _run_size(articles: int, receiver: Schema, sender: Schema,
              compile_cache: CompilationCache) -> Dict[str, object]:
    xml = magazine.document(articles).to_xml()
    chunks = _chunks(xml)

    def dom_pass():
        enforcer = _enforcer(receiver, sender, compile_cache)
        outcome = enforcer.enforce_document(
            Document.from_xml(xml), magazine.invoker
        )
        return outcome, outcome.document.to_xml()

    def stream_pass():
        enforcer = _enforcer(receiver, sender, compile_cache)
        sink = _HashSink()
        outcome = enforcer.enforce_stream(chunks, magazine.invoker, sink.write)
        return outcome, sink

    started = time.perf_counter()
    dom_outcome, dom_xml = dom_pass()
    dom_seconds = time.perf_counter() - started

    started = time.perf_counter()
    stream_outcome, sink = stream_pass()
    stream_seconds = time.perf_counter() - started

    (_, _), dom_peak = traced_peak(dom_pass)
    (_, _), stream_peak = traced_peak(stream_pass)

    dom_digest = hashlib.sha256(dom_xml.encode("utf-8")).hexdigest()
    identical = (
        dom_digest == sink.digest.hexdigest()
        and len(dom_xml.encode("utf-8")) == sink.length
        and _receipt(dom_outcome) == _receipt(stream_outcome)
    )
    megabytes = len(xml.encode("utf-8")) / (1024.0 * 1024.0)
    return {
        "articles": articles,
        "input_bytes": len(xml.encode("utf-8")),
        "output_bytes": sink.length,
        "calls_made": stream_outcome.calls_made,
        "receipts_identical": identical,
        "dom_seconds": round(dom_seconds, 6),
        "stream_seconds": round(stream_seconds, 6),
        "dom_throughput_mb_per_s": round(dom_seconds and megabytes / dom_seconds, 3),
        "stream_throughput_mb_per_s": round(
            stream_seconds and megabytes / stream_seconds, 3
        ),
        "dom_tracemalloc_peak_bytes": dom_peak,
        "stream_tracemalloc_peak_bytes": stream_peak,
    }


def run_stream_enforce(smoke: bool = False) -> dict:
    """The E27 payload (``BENCH_stream_enforce.json``)."""
    sizes = (20, 40, 80) if smoke else (100, 200, 400)
    sender, receiver = magazine.schemas()
    compile_cache = CompilationCache()  # warm automata across both paths
    registry = MetricsRegistry()
    with observing(NULL_TRACER, registry):
        runs = [
            _run_size(articles, receiver, sender, compile_cache)
            for articles in sizes
        ]
    smallest, largest = runs[0], runs[-1]
    input_growth = largest["input_bytes"] / max(smallest["input_bytes"], 1)
    dom_growth = (
        largest["dom_tracemalloc_peak_bytes"]
        / max(smallest["dom_tracemalloc_peak_bytes"], 1)
    )
    stream_growth = (
        largest["stream_tracemalloc_peak_bytes"]
        / max(smallest["stream_tracemalloc_peak_bytes"], 1)
    )
    return {
        "benchmark": "stream_enforce",
        "experiment": "E27",
        "hot_path": "single-pass SAX enforcement (close-time word "
                    "rewriting + incremental emission through a hashing "
                    "sink) vs parse-rewrite-serialize over the same bytes",
        "sizes": runs,
        "receipts_identical": all(r["receipts_identical"] for r in runs),
        # Sub-linear memory: the DOM peak tracks the input (the whole
        # tree is live at once); the streaming peak must grow at most
        # 2/3 as fast.  It cannot be flat on THIS document shape: the
        # magazine grows by adding root children, so the root's children
        # word, its spine of hollowed sealed elements, and the receipt
        # log (one entry per call, two calls per article) all grow with
        # the article count — O(depth + fanout + calls), never O(tree).
        "peak_sublinear": stream_growth < input_growth / 1.5,
        "input_growth_fraction": round(input_growth, 2),
        "dom_peak_growth_fraction": round(dom_growth, 2),
        "stream_peak_growth_fraction": round(stream_growth, 2),
        "peak_rss_bytes": peak_rss_bytes(),
        "work": {"default": work_snapshot(registry)},
    }
