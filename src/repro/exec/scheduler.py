"""Concurrent materialization: waves, dedup, batching, replay.

The scheduler turns the :mod:`repro.exec.dag` plan into overlapped
round-trips without giving up the sequential engine's guarantees:

1. **Plan** — a *planning clone* of the engine (same schemas, mode, k,
   policy; its own analysis memo and counters) extracts the call DAG.
   The real engine is never consulted, so its cache accounting stays
   bit-identical to a sequential run; the games the clone solves are
   shared with it through the compilation cache.
2. **Prefetch** — tasks run in topological waves on a bounded
   ``ThreadPoolExecutor``.  Each task rewrites its call's parameters
   through the planning clone (replaying nested prefetched results) and
   invokes the rewritten call once, storing the returned forest in a
   fingerprint-keyed result store.  Identical ``(function,
   normalized-args)`` occurrences collapse: statically at plan time and
   dynamically via in-flight coalescing (waiters block on the leader's
   round-trip instead of issuing their own).
3. **Replay** — the ordinary sequential pass then runs with the store
   wrapped around the invoker.  Every call it decides to make is
   answered from the store when prefetched (a *replay hit*, zero
   round-trips) and forwarded to the real invoker otherwise.  Because
   the sequential pass alone decides which results enter the document
   and in which order, output is **bit-identical** to ``max_workers=1``
   no matter how the prefetch raced.

A prefetch task failure is never fatal: the *fault itself* is stored
and replayed (one-shot) when the sequential pass reaches that call, so
the engine error-handles it exactly as it would a live failure —
including AUTO-mode graceful degradation — without granting a stateful
service an extra attempt it would not have seen sequentially.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.doc.nodes import FunctionCall, Node, with_children
from repro.exec.dag import CallDAG, CallTask, build_call_dag
from repro.exec.fingerprint import call_fingerprint, fingerprint_digest
from repro.obs import context as obs


@dataclass(frozen=True)
class ExecPolicy:
    """How (and whether) to overlap a document's service calls.

    Args:
        max_workers: worker threads for the prefetch pool; ``1`` (the
            default) disables prefetching entirely — the classical
            sequential engine runs untouched.
        dedup: collapse identical ``(function, normalized-args)`` calls
            to one round-trip (static plan-time dedup plus in-flight
            coalescing).  Off disables both, scheduling every
            occurrence; note the replay store stays fingerprint-keyed
            either way — determinism requires it — so a duplicate whose
            twin already *completed* is still answered locally.
        batch: group each wave's tasks by endpoint and run each group on
            one worker, so a worker drains an endpoint's queue instead
            of interleaving connections.
    """

    max_workers: int = 1
    dedup: bool = True
    batch: bool = False

    @property
    def parallel(self) -> bool:
        return self.max_workers > 1


@dataclass
class ExecReport:
    """What the scheduler planned, prefetched, deduplicated and saved."""

    max_workers: int = 1
    dedup: bool = True
    batch: bool = False
    #: Call occurrences the planner saw (scheduled or left sequential).
    planned_calls: int = 0
    #: Occurrences the analysis kept sequential ("depends" decisions).
    sequenced_calls: int = 0
    #: Tasks actually submitted to the pool (after static dedup).
    scheduled_tasks: int = 0
    #: Duplicate occurrences collapsed at plan time (dedup only).
    static_dedup_saved: int = 0
    waves: int = 0
    batches: int = 0
    tasks_ok: int = 0
    tasks_failed: int = 0
    #: Invocations that really crossed the wire through the store.
    physical_calls: int = 0
    #: Calls answered from the store with no round-trip.
    replay_hits: int = 0
    #: Concurrent duplicates that waited on an in-flight leader.
    inflight_hits: int = 0

    @property
    def saved_round_trips(self) -> int:
        """Round-trips avoided vs. a store-less sequential run.

        A sequential engine performs one round-trip per planned
        occurrence; here every occurrence that was scheduled (or
        collapsed at plan time into an already-scheduled twin) is
        answered by ``physical_calls`` wire crossings.  The difference
        is the true saving — 0 when every call is unique, one per extra
        occurrence of a deduplicated call.  (``replay_hits`` is *not*
        the right numerator: nested results are legitimately read
        several times — by the parent's prefetch and again by the
        sequential pass — without any round-trip being saved.)
        """
        return max(
            0,
            self.scheduled_tasks + self.static_dedup_saved
            - self.physical_calls,
        )

    @property
    def prefetched(self) -> bool:
        return self.scheduled_tasks > 0

    def summary(self) -> str:
        if not self.prefetched:
            return "exec: sequential (%d call(s) planned)" % self.planned_calls
        return (
            "exec: %d worker(s), %d task(s) in %d wave(s), "
            "%d ok / %d failed, dedup %s, %d round-trip(s) saved"
            % (
                self.max_workers,
                self.scheduled_tasks,
                self.waves,
                self.tasks_ok,
                self.tasks_failed,
                "on" if self.dedup else "off",
                self.saved_round_trips,
            )
        )


class _Inflight:
    """One in-flight leader round-trip that duplicates wait on."""

    __slots__ = ("event", "result", "error")

    def __init__(self):
        self.event = threading.Event()
        self.result: Optional[Tuple[Node, ...]] = None
        self.error: Optional[BaseException] = None


class _StoredError:
    """A prefetched fault, replayed once so the sequential pass sees the
    same failure the prefetch did (instead of retrying a stateful
    service that already consumed the attempt)."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error


class ScheduledInvoker:
    """The fingerprint-keyed result store, shaped like an invoker.

    Wraps the real invoker for both the prefetch tasks and the replay
    pass.  Results are read-many (the same stored forest answers the
    parent task's parameter rewriting *and* the sequential pass), and
    the ``clock`` / ``report`` attributes of the wrapped invoker shine
    through so ``timed_invoke`` and fault accounting keep working.
    """

    def __init__(self, inner, dedup: bool, report: ExecReport):
        self.inner = inner
        self._dedup = dedup
        self._report = report
        self._lock = threading.Lock()
        self._results: Dict[str, Tuple[Node, ...]] = {}
        self._inflight: Dict[str, _Inflight] = {}

    @property
    def clock(self):
        return getattr(self.inner, "clock", None)

    @property
    def report(self):
        return getattr(self.inner, "report", None)

    def __call__(self, call: FunctionCall) -> Tuple[Node, ...]:
        fingerprint = call_fingerprint(call)
        while True:
            leader = True
            cell: Optional[_Inflight] = None
            with self._lock:
                stored = self._results.get(fingerprint)
                if stored is not None:
                    self._report.replay_hits += 1
                    hit = "replay"
                    if isinstance(stored, _StoredError):
                        # One-shot: a later occurrence retries live, as
                        # the sequential engine would have.
                        del self._results[fingerprint]
                elif self._dedup:
                    cell = self._inflight.get(fingerprint)
                    if cell is None:
                        cell = self._inflight[fingerprint] = _Inflight()
                    else:
                        leader = False
                        self._report.inflight_hits += 1
                        hit = "coalesced"
            if stored is not None:
                self._count_store(hit)
                if isinstance(stored, _StoredError):
                    raise stored.error
                return stored
            if leader:
                return self._invoke(fingerprint, call, cell)
            self._count_store(hit)
            cell.event.wait()
            if cell.error is None:
                return cell.result
            # The leader's round-trip failed.  Retry from the top: we
            # either find a fresher result or become the leader and
            # surface the fault to our own caller.

    def _invoke(self, fingerprint: str, call: FunctionCall,
                cell: Optional[_Inflight]) -> Tuple[Node, ...]:
        try:
            forest = tuple(self.inner(call))
        except BaseException as exc:
            with self._lock:
                # A failed attempt still crossed the wire, and its fault
                # is worth replaying — never clobber a stored success.
                self._report.physical_calls += 1
                self._results.setdefault(fingerprint, _StoredError(exc))
                if cell is not None and \
                        self._inflight.get(fingerprint) is cell:
                    del self._inflight[fingerprint]
            if cell is not None:
                cell.error = exc
                cell.event.set()
            raise
        with self._lock:
            self._results.setdefault(fingerprint, forest)
            self._report.physical_calls += 1
            if cell is not None and \
                    self._inflight.get(fingerprint) is cell:
                del self._inflight[fingerprint]
        if cell is not None:
            cell.result = forest
            cell.event.set()
        self._count_store("miss")
        return forest

    @staticmethod
    def _count_store(outcome: str) -> None:
        metrics = obs.metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_exec_store_total", "Result-store lookups by outcome"
            ).inc(outcome=outcome)


class MaterializationScheduler:
    """Prefetches a document's independent calls on a bounded pool.

    Args:
        plan_engine: the engine's *planning clone* — same configuration,
            private analysis memo (see
            :meth:`repro.rewriting.RewriteEngine._planning_engine`).
        policy: the :class:`ExecPolicy` knobs.
    """

    def __init__(self, plan_engine, policy: ExecPolicy):
        self.engine = plan_engine
        self.policy = policy

    def prefetch(self, document, invoker) -> Tuple[object, ExecReport]:
        """Plan and prefetch; returns ``(invoker-for-the-real-pass, report)``.

        With nothing schedulable (sequential policy, possible-mode
        engine, no predictable calls) the original invoker is returned
        unchanged — the ``max_workers=1`` path is behavior-identical to
        a build without this subsystem.
        """
        report = ExecReport(
            max_workers=self.policy.max_workers,
            dedup=self.policy.dedup,
            batch=self.policy.batch,
        )
        tracer = obs.tracer()
        with tracer.span("exec.plan") as plan_span:
            dag = build_call_dag(document, self.engine)
            plan_span.set(
                calls=dag.planned_calls,
                tasks=len(dag.tasks),
                edges=dag.n_edges,
                sequenced=len(dag.sequenced),
            )
        report.planned_calls = dag.planned_calls
        report.sequenced_calls = len(dag.sequenced)
        if not self.policy.parallel or not dag.tasks:
            return invoker, report

        waves = dag.waves()
        if self.policy.dedup:
            waves, report.static_dedup_saved = _static_dedup(waves)
        report.scheduled_tasks = sum(len(wave) for wave in waves)
        report.waves = len(waves)
        store = ScheduledInvoker(invoker, self.policy.dedup, report)
        lock = threading.Lock()
        workers = min(self.policy.max_workers, max(1, report.scheduled_tasks))
        with tracer.span(
            "exec.schedule",
            workers=workers,
            tasks=report.scheduled_tasks,
            waves=report.waves,
            dedup=self.policy.dedup,
        ) as span:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-exec"
            )
            try:
                for index, wave in enumerate(waves):
                    self._run_wave(index, wave, store, report, lock, pool)
            finally:
                pool.shutdown(wait=True)
            span.set(ok=report.tasks_ok, failed=report.tasks_failed)
        metrics = obs.metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_exec_waves_total", "Prefetch waves executed"
            ).inc(report.waves)
            metrics.histogram(
                "repro_exec_wave_tasks", "Tasks per prefetch wave"
            ).observe(report.scheduled_tasks / report.waves
                      if report.waves else 0.0)
        return store, report

    # -- internals ---------------------------------------------------------

    def _run_wave(self, index, wave, store, report, lock, pool) -> None:
        tracer = obs.tracer()
        with tracer.span("exec.wave", index=index, tasks=len(wave)) as wspan:
            parent_id = getattr(wspan, "span_id", None)
            if self.policy.batch:
                groups = _endpoint_batches(wave)
            else:
                groups = [[task] for task in wave]
            report.batches += len(groups)
            futures = [
                pool.submit(self._run_group, group, store, report, lock,
                            parent_id)
                for group in groups
            ]
            for future in futures:
                future.result()
            wspan.set(failed=report.tasks_failed)

    def _run_group(self, group: Sequence[CallTask], store, report, lock,
                   parent_id) -> None:
        tracer = obs.tracer()
        metrics = obs.metrics()
        for task in group:
            with tracer.span(
                "exec.task",
                parent_id=parent_id,
                function=task.function,
                call=fingerprint_digest(task.fingerprint),
            ) as span:
                try:
                    self._materialize(task, store)
                except Exception as exc:
                    # Prefetch is an optimization: the fault (stored by
                    # the invoker wrapper) replays to the sequential
                    # pass, which error-handles the call itself.
                    span.set(outcome="error",
                             error=str(exc) or type(exc).__name__)
                    with lock:
                        report.tasks_failed += 1
                    outcome = "error"
                else:
                    span.set(outcome="ok")
                    with lock:
                        report.tasks_ok += 1
                    outcome = "ok"
            if metrics.enabled:
                metrics.counter(
                    "repro_exec_tasks_total", "Prefetch tasks by outcome"
                ).inc(outcome=outcome, function=task.function)

    def _materialize(self, task: CallTask, store) -> None:
        """Rewrite one call's parameters (replaying nested prefetches)
        and perform its round-trip into the store."""
        params = self.engine.rewrite_forest(
            task.call.params, task.input_type, store
        )
        store(with_children(task.call, tuple(params)))


def _static_dedup(
    waves: List[List[CallTask]],
) -> Tuple[List[List[CallTask]], int]:
    """Drop plan-time duplicates, keeping each fingerprint's first
    (document-order, earliest-wave) occurrence."""
    seen: Dict[str, CallTask] = {}
    saved = 0
    deduped: List[List[CallTask]] = []
    for wave in waves:
        kept: List[CallTask] = []
        for task in wave:
            if task.fingerprint in seen:
                saved += 1
                continue
            seen[task.fingerprint] = task
            kept.append(task)
        if kept:
            deduped.append(kept)
    return deduped, saved


def _endpoint_batches(wave: Sequence[CallTask]) -> List[List[CallTask]]:
    """Group one wave's tasks by endpoint, preserving document order
    within each group and first-appearance order across groups."""
    groups: Dict[object, List[CallTask]] = {}
    ordered: List[List[CallTask]] = []
    for task in wave:
        key = (task.call.endpoint, task.call.namespace)
        bucket = groups.get(key)
        if bucket is None:
            bucket = groups[key] = []
            ordered.append(bucket)
        bucket.append(task)
    return ordered
