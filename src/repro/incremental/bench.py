"""E26 — incremental enforcement under an edit storm.

A magazine document (``magazine = article*``, every ``article`` the
paper's newspaper body needing its ``Get_Temp`` materialized) takes a
seeded storm of small edits at two sizes.  After every edit, the same
re-enforcement runs twice:

- **incremental** — one warm :class:`~repro.incremental.session
  .EnforcementSession` absorbs the edit and re-enforces through its
  caches;
- **full** — a fresh :class:`~repro.axml.enforcement.SchemaEnforcer`
  re-enforces the edited document from scratch (with a warm
  compilation cache, so the comparison isolates the *analysis and
  materialization* reuse, not automata compilation).

The acceptance criteria, asserted by ``benchmarks/
test_bench_incremental.py`` and recorded in ``BENCH_incremental.json``:

- every incremental receipt is byte-identical to the full one
  (``identical_outcomes``);
- the storm runs ≥ 5x faster incrementally at the large size
  (``speedup`` — wall clock, stripped from regression diffs);
- the per-edit re-analysis footprint is a function of edit *locality*,
  not document size: the worst-case ``nodes_reanalyzed`` per edit is
  identical at both sizes while the document doubles
  (``locality_holds`` — deterministic, diffed by CI);
- after every edit the session delivers its reply through its memos
  (:meth:`~repro.incremental.session.EnforcementSession.deliver`) and
  the full path delivers plainly (:func:`~repro.axml.delivery.deliver`):
  the deliveries are identical (``identical_deliveries``), and the
  worst-case lines formatted plus receiver words checked per session
  delivery is the same at both sizes (``delivery_local``).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

from repro.axml.delivery import deliver
from repro.axml.enforcement import SchemaEnforcer
from repro.compile.cache import CompilationCache
from repro.doc.builder import el
from repro.incremental.edits import DocEdit, replace, update_call
from repro.incremental.session import full_receipt
from repro.obs import context as obs
from repro.obs.context import observing
from repro.obs.metrics import MetricsRegistry, work_snapshot
from repro.obs.trace import NULL_TRACER
from repro.schema.validate import InstanceChecker
from repro.workloads import magazine

#: The work a delivery does: lines formatted and receiver words checked.
_DELIVERY_WORK = (
    'repro_work_total{counter="lines",stage="serialize"}',
    'repro_work_total{counter="words",stage="check"}',
)


def _delivery_work() -> float:
    """The ambient registry's :data:`_DELIVERY_WORK` so far."""
    work = work_snapshot(obs.metrics())
    return sum(work.get(key, 0.0) for key in _DELIVERY_WORK)


def _storm(rng: random.Random, articles: int, edits: int) -> List[DocEdit]:
    """``edits`` single-article touches, spread over the document."""
    storm: List[DocEdit] = []
    for i in range(edits):
        target = rng.randrange(articles)
        if i % 2 == 0:
            # Retitle one article: a pure structural edit, no new calls.
            storm.append(replace(
                (target, 0), el("title", "retitled-%d" % i)
            ))
        else:
            # Repoint one article's Get_Temp at a new city: forces
            # exactly one fresh materialization.
            storm.append(update_call(
                (target, 2), (el("city", "city-%d-%d" % (target, i)),)
            ))
    return storm


def _run_size(articles: int, edits: int, seed: str) -> Dict[str, object]:
    sender, receiver = magazine.schemas()
    rng = random.Random(seed)
    document = magazine.document(articles)
    storm = _storm(rng, articles, edits)

    shared_cc = CompilationCache()
    enforcer = SchemaEnforcer(
        target_schema=receiver, sender_schema=sender,
        k=1, mode="safe", compile_cache=shared_cc,
    )
    checker = InstanceChecker(receiver, None, shared_cc)
    session = enforcer.session(document, magazine.invoker)
    session.enforce()  # the warm-up pass both paths get for free
    session.deliver(checker)

    # Warm the full path's compile cache too, so the speedup measures
    # analysis/materialization reuse rather than automata compilation.
    enforcer.enforce_document(session.document, magazine.invoker)

    reanalyzed: List[int] = []
    delivery_work: List[float] = []
    identical = True
    identical_deliveries = True
    incremental_elapsed = 0.0
    full_elapsed = 0.0
    current = session.document
    for edit in storm:
        started = time.perf_counter()
        outcome = session.apply([edit])
        incremental_elapsed += time.perf_counter() - started
        reanalyzed.append(outcome.nodes_reanalyzed)
        current = session.document

        started = time.perf_counter()
        fresh = SchemaEnforcer(
            target_schema=receiver, sender_schema=sender,
            k=1, mode="safe", compile_cache=shared_cc,
        ).enforce_document(current, magazine.invoker)
        full_elapsed += time.perf_counter() - started
        if outcome.receipt() != full_receipt(fresh):
            identical = False

        before = _delivery_work()
        delivery = session.deliver(checker)
        delivery_work.append(_delivery_work() - before)
        if delivery.observed() != deliver(
                fresh.document, checker).observed():
            identical_deliveries = False

    nodes = current.size()
    return {
        "articles": articles,
        "document_nodes": nodes,
        "edits": len(storm),
        "identical_outcomes": identical,
        "max_reanalyzed_per_edit": max(reanalyzed),
        "mean_reanalyzed_per_edit": round(
            sum(reanalyzed) / len(reanalyzed), 2
        ),
        "reanalyzed_bounded": max(reanalyzed) < nodes // 4,
        "identical_deliveries": identical_deliveries,
        "max_delivery_work_per_edit": max(delivery_work),
        "incremental_seconds": round(incremental_elapsed, 6),
        "full_seconds": round(full_elapsed, 6),
        "speedup": round(full_elapsed / max(incremental_elapsed, 1e-9), 2),
    }


def run_incremental(smoke: bool = False) -> dict:
    """The E26 payload (``BENCH_incremental.json``)."""
    sizes = (40, 80) if smoke else (150, 300)
    edits = 30 if smoke else 60
    registry = MetricsRegistry()
    with observing(NULL_TRACER, registry):
        small = _run_size(sizes[0], edits, "incremental-storm-small")
        large = _run_size(sizes[1], edits, "incremental-storm-large")
    return {
        "benchmark": "incremental",
        "experiment": "E26",
        "hot_path": "per-edit incremental session pass vs fresh full "
                    "enforcement over the edited document (shared warm "
                    "compile cache)",
        "small": small,
        "large": large,
        "identical_outcomes": (
            small["identical_outcomes"] and large["identical_outcomes"]
        ),
        # The locality claim: doubling the document must not change the
        # worst-case re-analysis footprint of a single-article edit.
        "locality_holds": (
            small["max_reanalyzed_per_edit"]
            == large["max_reanalyzed_per_edit"]
            and large["reanalyzed_bounded"]
        ),
        "identical_deliveries": (
            small["identical_deliveries"] and large["identical_deliveries"]
        ),
        # The same claim on the wire: a session delivery formats and
        # checks only what the edit rebuilt.
        "delivery_local": (
            small["max_delivery_work_per_edit"]
            == large["max_delivery_work_per_edit"]
        ),
        "speedup": large["speedup"],
        "work": {"default": work_snapshot(registry)},
    }
