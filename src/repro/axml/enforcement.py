"""The Schema Enforcement module.

"The role of the Schema Enforcement module is (i) to verify whether the
call parameters conform to the WSDL_int description of the service,
(ii) if not, to try to rewrite them into the required structure and
(iii) if this fails, to report an error.  Similarly, before an ActiveXML
service returns its answer, the module performs the same three steps on
the returned data."  (Section 7)

:class:`SchemaEnforcer` packages exactly that three-step behaviour for
whole documents (outgoing exchanges) and for forests (service parameters
and results), on top of :class:`repro.rewriting.RewriteEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple

from repro.doc.document import Document
from repro.doc.nodes import Node
from repro.errors import RewriteError, SchemaError, ServiceError
from repro.obs import context as obs
from repro.obs.metrics import record_work
from repro.regex.ast import Regex
from repro.rewriting.cost import UNIT, CostModel
from repro.rewriting.engine import POSSIBLE, SAFE, RewriteEngine
from repro.rewriting.plan import InvocationLog
from repro.rewriting.safe import Invoker
from repro.schema.model import Schema
from repro.schema.patterns import InvocationPolicy, allow_all
from repro.schema.validate import InstanceChecker, ValidationReport
from repro.services.resilience import FaultReport


@dataclass
class EnforcementOutcome:
    """What one enforcement pass did."""

    document: Optional[Document]
    forest: Optional[Tuple[Node, ...]]
    already_conformant: bool
    calls_made: int
    log: InvocationLog
    error: Optional[str] = None
    #: Retry/fault/breaker accounting when the invoker was resilient.
    fault_report: Optional[FaultReport] = None
    #: Functions the engine degraded around (AUTO mode, dead providers).
    degraded_functions: Tuple[str, ...] = ()
    #: Analysis-cache efficacy of the pass (hits/misses on the engine's
    #: per-document cache of solved rewriting problems).
    cache_hits: int = 0
    cache_misses: int = 0
    #: The concurrent materialization scheduler's report
    #: (:class:`repro.exec.ExecReport`) when the engine prefetched.
    exec_report: Optional[object] = None
    #: The receiving peer's verdict on what it reads, when a stream was
    #: handed its checker (:meth:`SchemaEnforcer.enforce_stream`).
    receiver_report: Optional[ValidationReport] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_functions)


@dataclass
class SchemaEnforcer:
    """Verify → rewrite → error, as one reusable component.

    Args:
        target_schema: the structure required by the receiving side
            (the agreed exchange schema, or a service's WSDL_int types).
        sender_schema: signatures for functions the target does not know.
        k / mode / policy / cost_model: forwarded to the rewrite engine.
        workers / dedup / batch: concurrent materialization knobs,
            forwarded to the engine (see :mod:`repro.exec`); ``None``
            resolves ``REPRO_WORKERS`` / ``REPRO_DEDUP``.
        compile_cache: the shared automata compilation cache, forwarded
            to every engine this enforcer builds (``None`` = ambient).
    """

    target_schema: Schema
    sender_schema: Optional[Schema] = None
    k: int = 1
    mode: str = SAFE
    policy: InvocationPolicy = field(default_factory=allow_all)
    cost_model: CostModel = field(default_factory=lambda: UNIT)
    eager: Optional[Callable[[str], bool]] = None
    #: Use the lazy game solver (same answers, fewer explored nodes);
    #: forwarded to every engine this enforcer builds.
    lazy: bool = True
    workers: Optional[int] = None
    dedup: Optional[bool] = None
    batch: bool = False
    compile_cache: Optional[object] = None
    #: Optional converters (conclusion extension): applied as a last
    #: resort when plain rewriting cannot reach the target structure.
    converters: tuple = ()

    @cached_property
    def checker(self) -> InstanceChecker:
        """The Definition 3 checker for this schema pair, built on first
        use and handed to the stream driver and sessions."""
        return InstanceChecker(
            self.target_schema, self.sender_schema, self.compile_cache
        )

    def _engine(self, kind=RewriteEngine) -> RewriteEngine:
        """A ``kind`` engine with this enforcer's settings and checker."""
        engine = kind(
            target_schema=self.target_schema,
            sender_schema=self.sender_schema,
            k=self.k,
            mode=self.mode,
            policy=self.policy,
            cost_model=self.cost_model,
            eager=self.eager,
            lazy=self.lazy,
            workers=self.workers,
            dedup=self.dedup,
            batch=self.batch,
            compile_cache=self.compile_cache,
        )
        engine.checker = self.checker
        return engine

    @staticmethod
    def _fault_report(invoker: Invoker) -> Optional[FaultReport]:
        """The invoker's fault accounting, when it keeps one (resilience)."""
        report = getattr(invoker, "report", None)
        return report if isinstance(report, FaultReport) else None

    def enforce_document(
        self, document: Document, invoker: Invoker
    ) -> EnforcementOutcome:
        """The three steps, applied to a whole outgoing document."""
        with obs.tracer().span("enforce", scope="document") as span:
            outcome = self._enforce_document(document, invoker)
            span.set(
                ok=outcome.ok,
                already_conformant=outcome.already_conformant,
                calls=outcome.calls_made,
                degraded=outcome.degraded,
            )
            return outcome

    def _enforce_document(
        self, document: Document, invoker: Invoker,
        engine: Optional[RewriteEngine] = None, conformance=None,
    ) -> EnforcementOutcome:
        """Verify → rewrite → outcome; the engine checks what it writes.
        A session hands in its memo ``engine`` and ``conformance`` memo."""
        # (i) verify
        if (conformance or self.checker).ok(document.root):
            return EnforcementOutcome(
                document, None, True, 0, InvocationLog(),
                fault_report=self._fault_report(invoker),
            )
        # (ii) rewrite
        try:
            result = (engine or self._engine()).rewrite(document, invoker)
        except (RewriteError, SchemaError, ServiceError) as exc:
            # (ii') converters, when configured: restructure then retry.
            if self.converters:
                converted = self._try_converters(document, invoker)
                if converted is not None:
                    return converted
            # (iii) report
            return EnforcementOutcome(
                None, None, False, 0, InvocationLog(), error=str(exc),
                fault_report=self._fault_report(invoker),
            )
        return self._rewritten(result, invoker)

    def _rewritten(self, result, invoker: Invoker) -> EnforcementOutcome:
        """The outcome of a successful document rewrite."""
        return EnforcementOutcome(
            result.document, None, False, len(result.log), result.log,
            fault_report=self._fault_report(invoker),
            degraded_functions=result.degraded_functions,
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
            exec_report=result.exec_report,
        )

    def enforce_stream(
        self, source, invoker: Invoker, write: Callable[[str], None],
        receiver: Optional[InstanceChecker] = None,
    ) -> EnforcementOutcome:
        """Enforce one document from an XML source, streaming the output.

        ``source`` is a string, bytes, or an iterable of byte/str chunks;
        ``write`` receives the enforced serialization incrementally while
        the tail of the input is still being parsed.  Memory stays
        bounded by the document's depth plus the widest buffered sibling
        run (never the whole tree).  The receipt mirrors
        :meth:`enforce_document` on the same input: already-conformant
        documents stream through with zero invocations, and errors carry
        the same messages (though on multi-error documents a different
        one of them may surface first; partial output already handed to
        ``write`` must then be discarded).  Converters are not applied
        on this path, and possible mode is rejected — its service calls
        on conformant words would diverge from the DOM verify step.
        Malformed XML raises :class:`DocumentParseError` as the DOM
        parser does.  Handed the receiving peer's checker, a successful
        pass also carries that peer's verdict on what it reads
        (``receiver_report``), the one :func:`repro.axml.delivery.deliver`
        reaches on the whole tree.
        """
        if self.mode == POSSIBLE:
            raise ValueError(
                "streaming enforcement supports safe/auto modes only"
            )
        from repro.stream.enforce import stream_rewrite

        engine = self._engine()
        with obs.tracer().span("enforce", scope="stream") as span:
            try:
                result = stream_rewrite(
                    engine, source, invoker, write, receiver
                )
            except (RewriteError, SchemaError, ServiceError) as exc:
                outcome = EnforcementOutcome(
                    None, None, False, 0, InvocationLog(), error=str(exc),
                    fault_report=self._fault_report(invoker),
                )
            else:
                if result.already_conformant:
                    # Mirror the DOM path's verify short-circuit: the
                    # rewrite was the identity, so the receipt reads as
                    # "verified conformant" with untouched counters.
                    outcome = EnforcementOutcome(
                        None, None, True, 0, InvocationLog(),
                        fault_report=self._fault_report(invoker),
                    )
                else:
                    outcome = EnforcementOutcome(
                        None, None, False, len(result.log), result.log,
                        fault_report=self._fault_report(invoker),
                        degraded_functions=result.degraded_functions,
                        cache_hits=result.cache_hits,
                        cache_misses=result.cache_misses,
                    )
                outcome.receiver_report = result.receiver_report
            span.set(
                ok=outcome.ok,
                already_conformant=outcome.already_conformant,
                calls=outcome.calls_made,
                degraded=outcome.degraded,
            )
            return outcome

    def _try_converters(
        self, document: Document, invoker: Invoker
    ) -> Optional[EnforcementOutcome]:
        """Apply the configured converters, then retry the rewrite.

        Returns None when conversion does not help either, so the caller
        falls through to the step-(iii) error report.
        """
        from repro.rewriting.converters import convert_document

        try:
            converted = convert_document(document, self.converters)
            result = self._engine().rewrite(converted, invoker)
        except (RewriteError, SchemaError, ServiceError, ValueError):
            return None
        return self._rewritten(result, invoker)

    def enforce_forest(
        self, forest: Sequence[Node], target: Regex, invoker: Invoker
    ) -> EnforcementOutcome:
        """The three steps, applied to parameters or results of a service.

        ``target`` is the type from the service's WSDL_int description
        (``tau_in`` for parameters, ``tau_out`` for results).
        """
        with obs.tracer().span("enforce", scope="forest") as span:
            outcome = self._enforce_forest(forest, target, invoker)
            span.set(
                ok=outcome.ok,
                already_conformant=outcome.already_conformant,
                calls=outcome.calls_made,
            )
            return outcome

    def _enforce_forest(
        self, forest: Sequence[Node], target: Regex, invoker: Invoker
    ) -> EnforcementOutcome:
        if self.checker.forest_ok(forest, target):
            return EnforcementOutcome(
                None, tuple(forest), True, 0, InvocationLog(),
                fault_report=self._fault_report(invoker),
            )
        log = InvocationLog()
        stats = {"words": 0, "product": 0, "mode": SAFE, "checked": 0}
        engine = self._engine()
        try:
            rewritten = engine.rewrite_forest(forest, target, invoker, log, stats)
        except (RewriteError, SchemaError, ServiceError) as exc:
            hits, misses = engine.cache_stats
            return EnforcementOutcome(
                None, None, False, len(log), log, str(exc),
                fault_report=self._fault_report(invoker),
                cache_hits=hits, cache_misses=misses,
            )
        finally:  # a failing pass checked words too
            record_work(obs.metrics(), "check", {"words": stats["checked"]})
        hits, misses = engine.cache_stats
        return EnforcementOutcome(
            None, rewritten, False, len(log), log,
            fault_report=self._fault_report(invoker),
            degraded_functions=tuple(sorted(stats.get("dead", ()))),
            cache_hits=hits, cache_misses=misses,
        )

    # -- incremental enforcement (repro.incremental) ------------------------

    def session(self, document: Document, invoker: Invoker):
        """Open an :class:`~repro.incremental.EnforcementSession` for a
        mutating document.

        The session runs the initial pass lazily — call
        :meth:`~repro.incremental.session.EnforcementSession.enforce`
        for the first outcome, then
        :meth:`~repro.incremental.session.EnforcementSession.apply` per
        edit script.  Requires a per-call-deterministic invoker for
        outcomes byte-identical to full re-enforcement (see
        :mod:`repro.incremental.session`).
        """
        from repro.incremental.session import EnforcementSession

        return EnforcementSession(self, document, invoker)

    def enforce_incremental(
        self, document: Document, invoker: Invoker, edit_scripts=()
    ):
        """Convenience: open a session, enforce, replay edit scripts.

        Returns ``(session, outcomes)`` where ``outcomes[0]`` is the
        initial pass and ``outcomes[i+1]`` the pass after
        ``edit_scripts[i]``.
        """
        session = self.session(document, invoker)
        outcomes = [session.enforce()]
        for script in edit_scripts:
            outcomes.append(session.apply(script))
        return session, outcomes
