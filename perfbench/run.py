#!/usr/bin/env python3
"""End-to-end benchmark of Active XML schema enforcement.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gateway --seed 1 --seconds 45 --trace 0

Every workload sends its seeded inputs through the four paths a peer
uses: a DOM pass (``from_xml`` → ``enforce_document`` → ``to_xml``), a
streamed pass (``enforce_stream``), an incremental session under an edit
storm (``session().apply``), and ``repro serve`` over HTTP in its own
process (JSON, streaming and edit-script ``/exchange``).  The timed
loop interleaves the paths in rounds, so every metric samples the whole
run.  Every output is checked outside the timed region.  The last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
split of a traced run with ``--trace 1``.  Spans, the per-layer table
and the gateway's ``/stats`` and ``/metrics`` are written under
``.perfbench-out/``.  The exit code is 0 only when every operation
succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import sys
import time
from collections import Counter
from statistics import median
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: the program's source (src/repro) is missing under %s"
              % ROOT, file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, ROOT]

from perfbench import inputs  # noqa: E402
from perfbench.gateway import Connection, ServerProcess  # noqa: E402
from perfbench.library import (  # noqa: E402
    Library, LibrarySpec, cold_setup, sha256_text,
)
from perfbench.measure import render_table, self_times, tail  # noqa: E402
from repro.compile.cache import CompilationCache  # noqa: E402
from repro.doc.document import Document  # noqa: E402
from repro.gateway.loadgen import direct_enforcement  # noqa: E402
from repro.obs.context import observing  # noqa: E402
from repro.obs.metrics import MetricsRegistry, work_snapshot  # noqa: E402
from repro.obs.trace import NULL_TRACER, Tracer  # noqa: E402

#: Cold set-ups per run; ``setup_s`` is their median.
LIBRARY_SETUPS = 5
GATEWAY_SETUPS = 5
#: Fewest timed rounds, whatever ``--seconds`` says.
MIN_ROUNDS = 6
#: Interleaved untraced/traced DOM passes for ``obs.trace_overhead``.
OVERHEAD_PASSES = 5
MB = 1024.0 * 1024.0


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Exchange:
    """A sender/receiver pair registered with the gateway."""

    sender: str
    receiver: str
    sender_xsd: str
    receiver_xsd: str
    obligations: Tuple[str, ...]


@dataclass
class Workload:
    name: str
    library: LibrarySpec
    storm: Callable[[], Iterator[list]]
    #: Pair and document of the JSON and streaming routes.
    oneshot: Exchange
    oneshot_xml: str
    oneshot_k: int
    #: Request seed of gateway cycle ``i`` (None: the library seed).
    cycle_seed: Optional[Callable[[int], int]]
    #: Pair of the edit-script route (its session runs the storm over
    #: the library document).
    session: Exchange
    #: One timed round: a DOM pass, a stream pass, this many library
    #: edits and this many gateway cycles (JSON, stream, edit).
    edits_per_round: int
    cycles_per_round: int
    #: ``setup_s`` is measured on the gateway rather than the library.
    gateway_setup: bool = False


def _pair(prefix: str, xsds: Tuple[str, str],
          obligations: Tuple[str, ...]) -> Exchange:
    return Exchange(prefix + "-sender", prefix + "-receiver", xsds[0],
                    xsds[1], obligations)


def digest(seed: int) -> Workload:
    xsds = inputs.digest_schemas()
    obligations = ("Get_Temp", "TimeOut", "Deep")
    xml = inputs.digest_xml(seed)
    pair = _pair("digest", xsds, obligations)
    return Workload(
        name="digest",
        library=LibrarySpec(xsds[0], xsds[1], xml, seed, 2, obligations),
        storm=lambda: inputs.digest_storm(seed),
        oneshot=pair, oneshot_xml=xml, oneshot_k=2, cycle_seed=None,
        session=pair, edits_per_round=8, cycles_per_round=1,
    )


def gateway(seed: int) -> Workload:
    magazine_xsds = inputs.magazine_schemas()
    xml = inputs.magazine_xml(seed, inputs.GATEWAY_ARTICLES)
    # A function's obligations belong to one peer: the newspaper sender
    # owns them, so the magazine sender registers none (any call allowed).
    return Workload(
        name="gateway",
        library=LibrarySpec(magazine_xsds[0], magazine_xsds[1], xml, seed, 1,
                            ()),
        storm=lambda: inputs.magazine_storm(seed, inputs.GATEWAY_ARTICLES),
        oneshot=_pair("newspaper", inputs.newspaper_schemas(),
                      ("Get_Temp", "TimeOut")),
        oneshot_xml=inputs.newspaper_xml(), oneshot_k=1,
        cycle_seed=lambda cycle: seed * 1_000_003 + cycle,
        session=_pair("magazine", magazine_xsds, ()),
        edits_per_round=10, cycles_per_round=10, gateway_setup=True,
    )


WORKLOADS = {"digest": digest, "gateway": gateway}


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Attempted and failed operations, with the first few failures."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        """One operation and whether it succeeded."""
        self.attempted += 1
        return self.check(ok, what)

    def check(self, ok: bool, what: str) -> bool:
        """A check on operations already counted."""
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


@dataclass
class Samples:
    """Everything a run measured (seconds unless noted)."""

    setups: List[float] = field(default_factory=list)
    dom: List[float] = field(default_factory=list)
    dom_traced: List[float] = field(default_factory=list)
    dom_untraced: List[float] = field(default_factory=list)
    stream: List[float] = field(default_factory=list)
    first_write: List[float] = field(default_factory=list)
    edits: List[float] = field(default_factory=list)
    #: Per-pass and per-edit counters, summed.
    counts: Counter = field(default_factory=Counter)
    gw_json: List[float] = field(default_factory=list)
    gw_json_enforce: List[float] = field(default_factory=list)
    gw_stream: List[float] = field(default_factory=list)
    gw_stream_ttfb: List[float] = field(default_factory=list)
    gw_edit: List[float] = field(default_factory=list)
    gw_edit_enforce: List[float] = field(default_factory=list)
    gw_errors: int = 0
    gw_shed: int = 0
    gw_rss_mb: float = 0.0
    rss_mb: float = 0.0
    stream_peak: int = 0
    nodes: int = 0
    entries: int = 0


def _vmhwm_mb() -> float:
    """This process's resident high-water mark (``VmHWM``), in MB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / MB
    raise RuntimeError("no VmHWM in /proc/self/status")


def _game_work(registry: Optional[MetricsRegistry]) -> Counter:
    """``repro_work_total`` of the game stage, by counter."""
    totals: Counter = Counter()
    if registry is None:
        return totals
    for sample, value in work_snapshot(registry).items():
        if 'stage="game"' in sample:
            for counter in ("product_nodes", "frontier_pops"):
                if 'counter="%s"' % counter in sample:
                    totals[counter] += value
    return totals


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Expected:
    """The library's answer for each gateway request seed (untimed)."""

    def __init__(self, work: Workload, reference: str):
        self.work = work
        self.reference = reference
        self.cache = CompilationCache()
        self.memo: Dict[int, str] = {}

    def __call__(self, seed: int) -> str:
        if self.work.cycle_seed is None:
            return self.reference
        if seed not in self.memo:
            pair = self.work.oneshot
            self.memo[seed] = direct_enforcement(
                pair.sender_xsd, pair.receiver_xsd, self.work.oneshot_xml,
                seed, compile_cache=self.cache)
        return self.memo[seed]


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class Runner:
    """One run of one workload: set-up, warm-up, timed rounds, checks."""

    def __init__(self, work: Workload, tracer, registry, server_cpu,
                 out_dir: str):
        self.work = work
        self.tracer = tracer
        self.registry = registry
        self.server_cpu = server_cpu
        self.out_dir = out_dir
        self.tally = Tally()
        self.samples = Samples()
        self.server: Optional[ServerProcess] = None
        self.conn: Optional[Connection] = None
        self.setup_outputs: List[Optional[str]] = []
        #: (seed, SHA-256 of the JSON document, of the streamed body or
        #: None when not streamed) per exchange, checked after the loop.
        self.pending: List[Tuple[int, Optional[str], Optional[str], bool]] = []
        self.final_edit: dict = {}
        self.cycles = 0

    # -- set-up -------------------------------------------------------------

    def library_setups(self, count: int) -> None:
        for _ in range(count):
            elapsed, xml = cold_setup(self.work.library)
            self.samples.setups.append(elapsed)
            self.setup_outputs.append(xml)

    def traced_setup(self) -> None:
        """One cold set-up under the tracer (after an untraced one that
        takes first-import costs out of it)."""
        cold_setup(self.work.library)
        with observing(self.tracer, self.registry):
            _elapsed, xml = cold_setup(self.work.library, self.tracer)
        self.setup_outputs.append(xml)

    def start_server(self) -> float:
        """Spawn → listening → peers registered → first exchange
        answered; returns the seconds it took."""
        self.close()
        work = self.work
        started = time.perf_counter()
        self.server = ServerProcess(ROOT, self.server_cpu,
                                    os.path.join(self.out_dir, "server.log"))
        self.server.start()
        self.conn = Connection(self.server.host, self.server.port)
        pairs = [work.oneshot] + ([work.session]
                                  if work.session is not work.oneshot else [])
        for pair in pairs:
            for name, xsd, obligations in (
                    (pair.sender, pair.sender_xsd, pair.obligations),
                    (pair.receiver, pair.receiver_xsd, ())):
                reply = self.conn.register(name, xsd, obligations)
                self.tally.record(reply.status == 201, "register %s: HTTP %d"
                                  % (name, reply.status))
        seed = self._cycle_seed(-len(self.samples.setups) - 1)
        reply = self.conn.exchange_json(work.oneshot.sender,
                                        work.oneshot.receiver,
                                        work.oneshot_xml, seed,
                                        work.oneshot_k)
        elapsed = time.perf_counter() - started
        self._pend(seed, reply, None)
        return elapsed

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- warm-up ------------------------------------------------------------

    def warm_up(self) -> None:
        """Fill every cache, open both sessions, and check each path
        once; nothing here is timed."""
        spec, work = self.work.library, self.work
        self.cache = CompilationCache()
        self.plain = Library(spec, cache=self.cache)
        self.lib = (Library(spec, tracer=self.tracer, cache=self.cache)
                    if self.tracer.enabled else self.plain)
        outcome, xml = self.plain.dom_pass()
        self.tally.record(outcome.ok, "warm-up DOM pass: %s" % outcome.error)
        self.reference = xml or ""
        self.reference_sha = sha256_text(self.reference)
        self.reference_len = len(self.reference.encode("utf-8"))
        for index, output in enumerate(self.setup_outputs):
            self.tally.record(output == self.reference,
                              "set-up %d: output differs" % index)
        self.expected = Expected(work, self.reference)
        self.samples.nodes = Document.from_xml(spec.xml).size()
        self._stream(self.plain, keep=False)

        self.storm = work.storm()
        self.applied: List[list] = []
        with observing(self.tracer, self.registry):
            self.session, first = self.lib.open_session()
        self.tally.record(first.ok, "session open: %s" % first.error)

        if self.server is None:
            self.start_server()
        self.document_id = "%s-%d" % (work.name, spec.seed)
        reply = self.conn.open_session(work.session.sender,
                                       work.session.receiver,
                                       self.document_id, spec.xml, spec.seed,
                                       spec.k)
        self.tally.record(reply.ok, "gateway session open: HTTP %d"
                          % reply.status)
        self.gw_storm = work.storm()
        self.gw_applied: List[list] = []
        with observing(self.tracer, self.registry):
            for _ in range(2):
                self._edit(keep=False)
            self._cycle(keep=False)

    # -- the timed operations -----------------------------------------------

    def _dom(self, keep: bool) -> None:
        gc.collect()
        before = _game_work(self.registry)
        started = time.perf_counter()
        outcome, xml = self.lib.dom_pass()
        elapsed = time.perf_counter() - started
        self.tally.record(outcome.ok and xml == self.reference,
                          "DOM pass: %s" % (outcome.error or "output differs"))
        if keep:
            self.samples.dom.append(elapsed)
            counts = self.samples.counts
            counts["analyses"] += outcome.cache_misses
            counts["calls"] += outcome.calls_made
            counts.update(_game_work(self.registry) - before)

    def _stream(self, library: Library, keep: bool) -> None:
        gc.collect()
        started = time.perf_counter()
        outcome, sink = library.stream_pass()
        elapsed = time.perf_counter() - started
        self.tally.record(
            outcome.ok and sink.digest.hexdigest() == self.reference_sha
            and sink.length == self.reference_len,
            "stream pass: %s" % (outcome.error or "SHA-256 differs"))
        if keep:
            self.samples.stream.append(elapsed)
            self.samples.first_write.append(sink.first_write or 0.0)

    def _edit(self, keep: bool) -> None:
        self.applied.append(next(self.storm))
        started = time.perf_counter()
        outcome = self.lib.apply(self.session, self.applied[-1])
        elapsed = time.perf_counter() - started
        self.tally.record(outcome.ok, "edit %d: %s" % (len(self.applied),
                                                       outcome.error))
        if keep:
            self.samples.edits.append(elapsed)
            counts = self.samples.counts
            counts["nodes_reanalyzed"] += outcome.nodes_reanalyzed
            counts["verify_checked"] += outcome.verify_checked
            counts["invocations_performed"] += outcome.invocations_performed

    def _cycle_seed(self, index: int) -> int:
        if self.work.cycle_seed is None:
            return self.work.library.seed
        return self.work.cycle_seed(index)

    def _pend(self, seed: int, reply, streamed) -> None:
        body = reply.json() if reply.ok else {}
        json_sha = (sha256_text(body["document"])
                    if body.get("accepted") is True else None)
        stream_sha = None
        if streamed is not None and streamed.ok and streamed.trailers.get(
                "x-repro-ok") == "true":
            stream_sha = _sha(streamed.body)
        self.pending.append((seed, json_sha, stream_sha,
                             streamed is not None))

    def _cycle(self, keep: bool) -> None:
        """A JSON exchange, the same document streamed, and one edit
        script on the live gateway session."""
        work, conn, tracer = self.work, self.conn, self.tracer
        seed = self._cycle_seed(self.cycles)
        self.cycles += 1
        with tracer.span("bench.http.json"):
            reply = conn.exchange_json(work.oneshot.sender,
                                       work.oneshot.receiver,
                                       work.oneshot_xml, seed, work.oneshot_k)
        with tracer.span("bench.http.stream"):
            streamed = conn.exchange_stream(
                work.oneshot.sender, work.oneshot.receiver,
                work.oneshot_xml.encode("utf-8"), seed, work.oneshot_k)
        self.gw_applied.append(next(self.gw_storm))
        with tracer.span("bench.http.edit"):
            edited = conn.apply_edits(work.session.sender,
                                      work.session.receiver,
                                      self.document_id, self.gw_applied[-1])
        self._pend(seed, reply, streamed)
        edit_body = edited.json() if edited.ok else {}
        if not self.tally.record(edit_body.get("accepted") is True,
                                 "gateway edit: HTTP %d" % edited.status):
            self.samples.gw_errors += 1
        self.final_edit = edit_body or self.final_edit
        if keep:
            s = self.samples
            s.gw_json.append(reply.seconds)
            s.gw_stream.append(streamed.seconds)
            s.gw_stream_ttfb.append(streamed.ttfb)
            s.gw_edit.append(edited.seconds)
            if reply.ok:
                s.gw_json_enforce.append(reply.json()["elapsed_seconds"])
            if edit_body:
                s.gw_edit_enforce.append(edit_body["elapsed_seconds"])

    def overhead_passes(self) -> None:
        """Interleaved untraced and traced DOM passes (traced runs)."""
        for _ in range(OVERHEAD_PASSES):
            gc.collect()
            started = time.perf_counter()
            self.plain.dom_pass()
            self.samples.dom_untraced.append(time.perf_counter() - started)
            with observing(self.tracer, self.registry):
                gc.collect()
                started = time.perf_counter()
                self.lib.dom_pass()
                self.samples.dom_traced.append(time.perf_counter() - started)

    def rounds(self, seconds: float, minimum: int) -> None:
        """Timed rounds for ``seconds`` (at least ``minimum`` rounds).

        The round count is even: the digest storm alternates an insert
        (a fresh word) and its delete (a word seen before), and an odd
        count would tilt the gateway's edit mean toward one of them.
        """
        work = self.work
        with observing(self.tracer, self.registry):
            deadline = time.perf_counter() + seconds
            done = 0
            while (done < minimum or time.perf_counter() < deadline
                   or done % 2):
                self._dom(keep=True)
                self._stream(self.lib, keep=True)
                for _ in range(work.edits_per_round):
                    self._edit(keep=True)
                for _ in range(work.cycles_per_round):
                    self._cycle(keep=True)
                done += 1

    # -- untimed checks -----------------------------------------------------

    def finish(self) -> None:
        s, tally = self.samples, self.tally
        s.rss_mb = _vmhwm_mb()
        tally.check(
            self.session.last_outcome.receipt()
            == self.lib.fresh_receipt(self.applied),
            "session receipt differs from a fresh full enforcement")
        peak, sink = self.plain.stream_peak_bytes()
        tally.check(sink.digest.hexdigest() == self.reference_sha,
                    "tracemalloc stream pass: SHA-256 differs")
        s.stream_peak = peak
        s.entries = self.cache.stats().entries

        for seed, json_sha, stream_sha, streamed in self.pending:
            want = sha256_text(self.expected(seed))
            if not tally.record(json_sha == want, "JSON exchange seed %d"
                                % seed):
                s.gw_errors += 1
            if streamed and not tally.record(
                    stream_sha == want, "streamed exchange seed %d" % seed):
                s.gw_errors += 1
        fresh = self.lib.fresh_receipt(self.gw_applied)
        final = self.final_edit
        tally.check(
            final.get("document") == fresh["xml"]
            and final.get("calls") == fresh["calls_made"]
            and final.get("already_conformant") == fresh["already_conformant"]
            and tuple(final.get("degraded_functions", ())) == fresh["degraded"],
            "gateway session receipt differs from a fresh full enforcement")

        stats = self.conn.get("/stats")
        metrics = self.conn.get("/metrics")
        tally.check(stats.ok and metrics.ok, "/stats or /metrics failed")
        for name, reply in (("stats.json", stats), ("metrics.prom", metrics)):
            with open(os.path.join(self.out_dir, name), "wb") as handle:
                handle.write(reply.body)
        payload = stats.json() if stats.ok else {}
        s.gw_shed = sum(payload.get("shed", {}).values())
        s.gw_rss_mb = (payload.get("memory", {}).get("peak_rss_bytes")
                       or 0) / MB


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(work: Workload, s: Samples) -> Dict[str, Tuple[float, str]]:
    """Every timing is total work over total time across the timed
    rounds (a rate, or a mean round trip).  Machine speed here drifts in
    phases that can switch mid-run; a median then jumps between the
    phases while the total averages them, and digest edits alternate
    analysis misses and hits, between which a median would flip too."""
    megabytes = work.library.megabytes

    def mean_ms(samples: List[float]) -> float:
        return 1000.0 * sum(samples) / len(samples)

    return {
        "setup_s": (median(s.setups), "s"),
        "peak_rss_mb": (s.gw_rss_mb if work.gateway_setup else s.rss_mb,
                        "MB"),
        "dom_mb_s": (megabytes * len(s.dom) / sum(s.dom), "MB/s"),
        "stream_mb_s": (megabytes * len(s.stream) / sum(s.stream), "MB/s"),
        "stream_peak_mb": (s.stream_peak / MB, "MB"),
        "edit_per_s": (len(s.edits) / sum(s.edits), "1/s"),
        "gw_json_ms": (mean_ms(s.gw_json), "ms"),
        "gw_stream_ms": (mean_ms(s.gw_stream), "ms"),
        "gw_edit_ms": (mean_ms(s.gw_edit), "ms"),
    }


def _tail_metrics(prefix: str, samples: List[float],
                  out: Dict[str, Tuple[float, str]]) -> None:
    found = tail([1000.0 * sample for sample in samples])
    q, value, n = found if found else (0.0, 0.0, len(samples))
    out[prefix + "_tail_ms"] = (value, "ms")
    out[prefix + "_tail_q"] = (q, "quantile")
    out[prefix + "_n"] = (n, "count")


def per_layer(s: Samples, table: Dict[str, Dict[str, float]],
              steady_builds: int) -> Dict[str, Tuple[float, str]]:
    dom = table.get("bench.dom", {})
    setup = table.get("bench.setup", {})
    passes = len(s.dom) + len(s.dom_traced)  # every traced bench.dom span
    edits = len(s.edits)

    def per_pass(layer: str) -> float:
        return dom.get(layer, 0.0) / passes

    def per_count(name: str, base: int) -> float:
        return s.counts[name] / base

    out: Dict[str, Tuple[float, str]] = {
        "doc.parse_s": (per_pass("doc.parse"), "s"),
        "doc.serialize_s": (per_pass("doc.serialize"), "s"),
        "doc.nodes": (s.nodes, "count"),
        "schema.check_s": (per_pass("schema.check"), "s"),
        "xschema.compile_s": (setup.get("xschema.compile", 0.0), "s"),
        "compile.build_s": (setup.get("compile.build", 0.0), "s"),
        "compile.builds": (steady_builds, "count"),
        "compile.entries": (s.entries, "count"),
        "rewriting.engine_s": (per_pass("rewriting.engine"), "s"),
        "rewriting.product_s": (per_pass("rewriting.product"), "s"),
        "rewriting.game_s": (per_pass("rewriting.game"), "s"),
        "rewriting.analyses": (per_count("analyses", len(s.dom)), "count"),
        "automata.product_nodes": (per_count("product_nodes", len(s.dom)),
                                   "count"),
        "automata.frontier_pops": (per_count("frontier_pops", len(s.dom)),
                                   "count"),
        "services.invoke_s": (per_pass("services.invoke"), "s"),
        "services.calls": (per_count("calls", len(s.dom)), "count"),
        "stream.pass_s": (median(s.stream), "s"),
        "stream.first_write_ms": (1000.0 * median(s.first_write), "ms"),
        "incremental.nodes_reanalyzed": (
            per_count("nodes_reanalyzed", edits), "count"),
        "incremental.verify_checked": (
            per_count("verify_checked", edits), "count"),
        "incremental.invocations_performed": (
            per_count("invocations_performed", edits), "count"),
        "incremental.edit_p50_ms": (1000.0 * median(s.edits), "ms"),
        "gateway.json_enforce_ms": (1000.0 * median(s.gw_json_enforce),
                                    "ms"),
        "gateway.edit_enforce_ms": (1000.0 * median(s.gw_edit_enforce),
                                    "ms"),
        "gateway.json_overhead_ms": (1000.0 * median(
            [a - b for a, b in zip(s.gw_json, s.gw_json_enforce)]), "ms"),
        "gateway.edit_overhead_ms": (1000.0 * median(
            [a - b for a, b in zip(s.gw_edit, s.gw_edit_enforce)]), "ms"),
        "gateway.stream_ttfb_ms": (1000.0 * median(s.gw_stream_ttfb), "ms"),
        "gateway.json_p50_ms": (1000.0 * median(s.gw_json), "ms"),
        "gateway.stream_p50_ms": (1000.0 * median(s.gw_stream), "ms"),
        "gateway.edit_p50_ms": (1000.0 * median(s.gw_edit), "ms"),
        "gateway.errors": (s.gw_errors, "count"),
        "gateway.shed": (s.gw_shed, "count"),
        "obs.trace_overhead": (
            median(s.dom_traced) / median(s.dom_untraced), "ratio"),
    }
    _tail_metrics("incremental.edit", s.edits, out)
    _tail_metrics("gateway.json", s.gw_json, out)
    _tail_metrics("gateway.stream", s.gw_stream, out)
    _tail_metrics("gateway.edit", s.gw_edit, out)
    return out


def _span_table(tracer, tally: Tally, out_dir: str) -> Tuple[
        Dict[str, Dict[str, float]], int]:
    """Per-layer self times of the traced run, written out; and the
    compile builds during the repeated DOM and stream passes."""
    spans = [span.to_dict() for span in tracer.finished()]
    by_id = {span["span_id"]: span for span in spans}

    def root(span: dict) -> dict:
        while span.get("parent_id") in by_id:
            span = by_id[span["parent_id"]]
        return span

    table = self_times(spans)
    for name, layers in table.items():
        parts = sum(v for k, v in layers.items() if k != "_total")
        tally.check(abs(parts - layers["_total"]) <= 0.01 * layers["_total"],
                    "self times of %s do not sum to the root" % name)
    steady = sum(1 for span in spans if span["name"].startswith("compile.")
                 and root(span)["name"] in ("bench.dom", "bench.stream"))
    counts = Counter(span["name"] for span in spans
                     if span["parent_id"] not in by_id)
    text = render_table(table, counts)
    print(text)
    tracer.export_jsonl(os.path.join(out_dir, "spans.jsonl"))
    with open(os.path.join(out_dir, "layers.txt"), "w") as handle:
        handle.write(text + "\n")
    return table, steady


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def _cpus() -> Tuple[Optional[int], Optional[int]]:
    """(client CPU, server CPU): disjoint when two or more are usable."""
    usable = sorted(os.sched_getaffinity(0))
    if len(usable) < 2:
        return None, None
    os.sched_setaffinity(0, {usable[0]})
    return usable[0], usable[1]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Measure the defaults: no ambient REPRO_* knob may leak in.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]

    cpus = _cpus()
    environment = {
        "nproc": os.cpu_count(),
        "affinity": {"client": cpus[0], "server": cpus[1]},
        "python": platform.python_version(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }
    print(json.dumps({"environment": environment}, sort_keys=True))
    out_dir = os.path.join(OUT, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    os.makedirs(out_dir, exist_ok=True)

    work = WORKLOADS[args.workload](args.seed)
    traced = bool(args.trace)
    tracer = Tracer(capacity=10_000_000) if traced else NULL_TRACER
    registry = MetricsRegistry() if traced else None
    runner = Runner(work, tracer, registry, cpus[1], out_dir)
    phases: Dict[str, float] = {}
    clock = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    try:
        if traced:
            runner.traced_setup()
        elif work.gateway_setup:
            for _ in range(GATEWAY_SETUPS):
                runner.samples.setups.append(runner.start_server())
        else:
            runner.library_setups(LIBRARY_SETUPS)
        phase("setup")
        runner.warm_up()
        if traced:
            runner.overhead_passes()
        phase("warm_up")
        runner.rounds(args.seconds, MIN_ROUNDS)
        phase("rounds")
        runner.finish()
        phase("checks")
    finally:
        runner.close()

    tally = runner.tally
    summary: Dict[str, object] = {
        "environment": environment, "notes": tally.notes, "phases": phases,
        "samples": {**vars(runner.samples),
                    "counts": dict(runner.samples.counts)},
    }
    if traced:
        table, steady = _span_table(tracer, tally, out_dir)
        summary["layers"] = table
        metrics = per_layer(runner.samples, table, steady)
    else:
        metrics = end_to_end(work, runner.samples)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    summary["result"] = result
    with open(os.path.join(out_dir, "summary.json"), "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True, default=str)
    for note in tally.notes:
        print("FAILED: %s" % note, file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
