"""The document-level rewriting driver (Section 4, three stages).

Given a document ``t``, a sender schema ``s0`` (the WSDL-given signatures
of every function around) and a data exchange schema ``s``, the driver:

1. **rewrites function parameters bottom-up** — the deepest calls first,
   so that by the time a call may be invoked its own parameters already
   conform to its input type;
2. **traverses the tree top-down**, and
3. **rewrites each node's children word** with the word-level algorithms
   (safe by default, with optional fallback to possible rewriting — the
   two-step process described at the start of Section 3).

The engine is transport-agnostic: it takes an *invoker* callable
(``FunctionCall -> forest``); :mod:`repro.axml.enforcement` wires it to
the simulated service fabric.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.automata.symbols import DATA
from repro.compile import context as compile_context
from repro.doc.document import Document
from repro.doc.nodes import Element, FunctionCall, Node, Text, symbol_of, with_children
from repro.errors import (
    FunctionUnavailableError,
    NoPossibleRewritingError,
    NoSafeRewritingError,
    RewriteError,
    SchemaError,
)
from repro.obs import context as obs
from repro.regex.ast import Regex
from repro.rewriting.cost import UNIT, CostModel
from repro.rewriting.lazy import analyze_safe_lazy
from repro.rewriting.mixed import pre_materialize
from repro.rewriting.plan import InvocationLog
from repro.rewriting.possible import analyze_possible, execute_possible
from repro.rewriting.safe import Invoker, analyze_safe, execute_safe
from repro.schema.model import Schema
from repro.schema.patterns import InvocationPolicy, allow_all

#: Rewriting guarantee levels the engine supports.
SAFE = "safe"
POSSIBLE = "possible"
AUTO = "auto"  # try safe first, fall back to possible (Section 3's process)


@dataclass
class RewriteResult:
    """What :meth:`RewriteEngine.rewrite` produced."""

    document: Document
    log: InvocationLog
    mode_used: str  # SAFE or POSSIBLE — the guarantee that actually held
    words_rewritten: int = 0  # how many children words were processed
    product_nodes: int = 0  # total product size across all word problems
    #: Functions the engine stopped invoking after the resilient layer
    #: gave up on them (AUTO-mode graceful degradation).
    degraded_functions: Tuple[str, ...] = ()
    #: Analysis-cache efficacy during this rewrite (identical
    #: (word, target) problems recur across sibling nodes).
    cache_hits: int = 0
    cache_misses: int = 0
    #: The concurrent materialization scheduler's
    #: :class:`repro.exec.ExecReport`, when prefetching ran (None on the
    #: sequential path).
    exec_report: Optional[object] = None

    @property
    def calls_made(self) -> int:
        return len(self.log)

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_functions)


@dataclass
class RewriteEngine:
    """Rewrites documents into a data exchange schema.

    Args:
        target_schema: the agreed exchange schema ``s``.
        sender_schema: ``s0`` — signatures of functions the target does
            not declare (assumed consistent with ``s`` where they
            overlap, as in Section 4).
        k: the depth bound of Definition 7.
        mode: ``"safe"`` (fail when no safe rewriting exists),
            ``"possible"`` or ``"auto"``.
        policy: the invocable/non-invocable partition (Section 2.1).
        cost_model: prices used for logging and for the mixed pre-pass.
        lazy: use the Section 7 lazy game solver (same answers, fewer
            explored nodes).
        eager: optional predicate selecting calls to pre-materialize (the
            mixed approach of Section 5); None disables the pre-pass.
        workers: worker threads for the concurrent materialization
            scheduler (:mod:`repro.exec`).  ``None`` resolves the
            ``REPRO_WORKERS`` environment variable, defaulting to 1 —
            the classical sequential driver, behavior-identical to
            builds without the scheduler.  Results are merged in
            document order, so output is bit-identical at any count.
        dedup: collapse identical ``(function, normalized-args)`` calls
            to one round-trip while prefetching.  ``None`` resolves
            ``REPRO_DEDUP`` (default on).  Only consulted when
            ``workers > 1``.
        batch: group each prefetch wave's calls by endpoint (one worker
            drains an endpoint's batch).
        compile_cache: the shared automata compilation cache
            (:mod:`repro.compile`), which also holds solved word
            analyses.  ``None`` uses the ambient process-wide cache;
            pass an explicit :class:`~repro.compile.CompilationCache`
            to share across a chosen set of engines, or
            :data:`~repro.compile.DISABLED` to compile and solve fresh
            each time (the differential harness's baseline).
    """

    target_schema: Schema
    sender_schema: Optional[Schema] = None
    k: int = 1
    mode: str = SAFE
    policy: InvocationPolicy = field(default_factory=allow_all)
    cost_model: CostModel = field(default_factory=lambda: UNIT)
    lazy: bool = True
    eager: Optional[Callable[[str], bool]] = None
    #: Memoize word analyses across nodes.  Documents repeat content
    #: models (every <exhibit> shares one), so identical (word, target)
    #: problems recur; the solved game is stateless and safely reusable.
    #: False also skips the compilation cache's shared analysis store:
    #: every occurrence is solved (benchmark E18's ablation).
    cache: bool = True
    workers: Optional[int] = None
    dedup: Optional[bool] = None
    batch: bool = False
    compile_cache: Optional[object] = None
    _analysis_cache: Dict = field(default_factory=dict, repr=False)
    _cache_hits: int = field(default=0, repr=False)
    _cache_misses: int = field(default=0, repr=False)
    _cache_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    @property
    def cache_stats(self) -> Tuple[int, int]:
        """(hits, misses) of the per-engine analysis memo."""
        return (self._cache_hits, self._cache_misses)

    def _ccache(self):
        """The effective compilation cache (field, else the ambient one)."""
        if self.compile_cache is not None:
            return self.compile_cache
        return compile_context.cache()

    @property
    def resolved_workers(self) -> int:
        """The effective worker count (field, else ``REPRO_WORKERS``, else 1)."""
        if self.workers is not None:
            return max(1, int(self.workers))
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if env:
            try:
                return max(1, int(env))
            except ValueError:
                return 1
        return 1

    @property
    def resolved_dedup(self) -> bool:
        """The effective dedup flag (field, else ``REPRO_DEDUP``, else on)."""
        if self.dedup is not None:
            return bool(self.dedup)
        env = os.environ.get("REPRO_DEDUP", "").strip().lower()
        return env not in ("0", "false", "no", "off")

    # -- public API -------------------------------------------------------

    def rewrite(self, document: Document, invoker: Invoker) -> RewriteResult:
        """Rewrite a whole document into the target schema.

        Raises :class:`NoSafeRewritingError` /
        :class:`NoPossibleRewritingError` when the requested guarantee
        cannot be met, and :class:`RewriteExecutionError` when a possible
        rewriting exhausts its backtracking options at run time.
        """
        log = InvocationLog()
        stats = {"words": 0, "product": 0, "mode": SAFE}
        hits_before, misses_before = self.cache_stats
        with obs.tracer().span("document", mode=self.mode, k=self.k) as span:
            invoker, exec_report = self._maybe_prefetch(document, invoker)
            root = document.root
            if isinstance(root, Text):
                result = RewriteResult(document, log, SAFE)
            else:
                new_root = self._rewrite_node(root, invoker, log, stats)
                hits, misses = self.cache_stats
                result = RewriteResult(
                    Document(new_root),
                    log,
                    stats["mode"],
                    words_rewritten=stats["words"],
                    product_nodes=stats["product"],
                    degraded_functions=tuple(sorted(stats.get("dead", ()))),
                    cache_hits=hits - hits_before,
                    cache_misses=misses - misses_before,
                )
            result.exec_report = exec_report
            span.set(
                mode_used=result.mode_used,
                words=result.words_rewritten,
                product_nodes=result.product_nodes,
                calls=result.calls_made,
                cache_hits=result.cache_hits,
                cache_misses=result.cache_misses,
            )
        metrics = obs.metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_documents_rewritten_total", "Documents rewritten"
            ).inc(mode=result.mode_used)
            metrics.histogram(
                "repro_document_words", "Children words per document"
            ).observe(result.words_rewritten)
        return result

    def can_rewrite(self, document: Document) -> bool:
        """Static check: does the requested guarantee hold for the document?

        No service is ever invoked; parameters and children words are
        analyzed with the same staging as :meth:`rewrite`.  Note that for
        ``mode="possible"`` a True answer only means a rewriting *may*
        exist (Definition 5).
        """
        try:
            self._check_node(document.root)
            return True
        except RewriteError:
            return False

    def rewrite_forest(
        self,
        forest: Sequence[Node],
        target: Regex,
        invoker: Invoker,
        log: Optional[InvocationLog] = None,
        stats: Optional[dict] = None,
    ) -> Tuple[Node, ...]:
        """Rewrite a sibling forest so its root word matches ``target``.

        This is the engine's workhorse, also used directly by the Schema
        Enforcement module for service parameters and results.
        """
        log = log if log is not None else InvocationLog()
        stats = stats if stats is not None else {"words": 0, "product": 0, "mode": SAFE}
        prepared = tuple(self._prepare(node, invoker, log, stats) for node in forest)
        if self.eager is not None:
            prepared = pre_materialize(
                prepared, self.eager, invoker, self.k, log,
                self.cost_model.cost_of,
            )
        rewritten = self._rewrite_word(prepared, target, invoker, log, stats)
        return tuple(
            self._descend(node, invoker, log, stats) for node in rewritten
        )

    def analyze_word(self, word: Tuple[str, ...], target: Regex):
        """Solve (and cache) one children word's safe analysis.

        This is the static half of :meth:`_rewrite_word` — no service is
        invoked.  The concurrent materialization planner
        (:func:`repro.exec.build_call_dag`) uses it to preview per-call
        keep/invoke/depends decisions; the cache key matches the one the
        execution path uses, so planning warms the cache.

        Returns None when no safe analysis applies (possible-mode
        engines, schema errors) — callers must then assume nothing about
        the word's decisions.
        """
        if self.mode == POSSIBLE:
            return None
        try:
            target = self._desugared(target, word)
            return self._cached(SAFE, word, target, frozenset())
        except Exception:
            # Planning must be harmless: a word the driver would reject
            # (or fall back on) simply is not prefetched.
            return None

    # -- concurrent materialization (repro.exec) ----------------------------

    def _maybe_prefetch(self, document: Document, invoker):
        """Overlap the document's independent round-trips when asked to.

        Returns ``(invoker-for-the-sequential-pass, ExecReport-or-None)``.
        The sequential pass alone decides what enters the document and in
        which order, so this changes latency, never output.  Skipped for
        possible-mode engines (backtracking makes invocations
        unpredictable) and with an eager pre-pass configured (it already
        invokes calls itself, in its own order).
        """
        workers = self.resolved_workers
        if workers <= 1 or self.mode == POSSIBLE or self.eager is not None:
            return invoker, None
        from repro.exec import ExecPolicy, MaterializationScheduler

        policy = ExecPolicy(
            max_workers=workers, dedup=self.resolved_dedup, batch=self.batch
        )
        scheduler = MaterializationScheduler(self._planning_engine(), policy)
        return scheduler.prefetch(document, invoker)

    def _planning_engine(self) -> "RewriteEngine":
        """A disposable sequential clone used for planning and for the
        prefetch tasks' parameter rewriting.

        Same decision inputs (schemas, k, mode, policy, laziness), but
        its own analysis memo and counters — so this engine's
        ``cache_hits``/``cache_misses`` accounting stays bit-identical
        to a sequential run no matter how much the planner analyzes.
        The clone shares the compilation cache, so the sequential pass
        finds the games the planner solved instead of solving them
        again.
        """
        return RewriteEngine(
            target_schema=self.target_schema,
            sender_schema=self.sender_schema,
            k=self.k,
            mode=self.mode,
            policy=self.policy,
            cost_model=self.cost_model,
            lazy=self.lazy,
            eager=None,
            cache=self.cache,
            workers=1,
            compile_cache=self.compile_cache,
        )

    # -- the three stages ---------------------------------------------------

    def _rewrite_node(self, node: Node, invoker, log, stats) -> Node:
        """Top-down stage for one subtree whose root stays in the document."""
        if isinstance(node, Text):
            return node
        if isinstance(node, FunctionCall):
            input_type = self._input_type(node.name)
            if input_type is None:
                raise SchemaError(
                    "function %r has no declared signature in either schema"
                    % node.name
                )
            params = self.rewrite_forest(node.params, input_type, invoker, log, stats)
            return with_children(node, params)
        content = self.target_schema.type_of(node.label)
        if content is None:
            raise SchemaError(
                "element label %r is not declared by the target schema"
                % node.label
            )
        children = self.rewrite_forest(node.children, content, invoker, log, stats)
        return with_children(node, children)

    def _prepare(self, node: Node, invoker, log, stats) -> Node:
        """Stage 1: rewrite function parameters, deepest calls first."""
        if isinstance(node, FunctionCall):
            input_type = self._input_type(node.name)
            if input_type is None:
                raise SchemaError(
                    "function %r has no declared signature in either schema"
                    % node.name
                )
            params = self.rewrite_forest(node.params, input_type, invoker, log, stats)
            return with_children(node, params)
        return node

    def _descend(self, node: Node, invoker, log, stats) -> Node:
        """Stage 2: continue the top-down traversal below a kept node."""
        if isinstance(node, Element):
            if node.enforced:
                # Sealed by the streaming driver: the subtree's words were
                # rewritten when the element closed; re-descending would
                # redo the analyses and double-count cache lookups.
                return node
            content = self.target_schema.type_of(node.label)
            if content is None:
                raise SchemaError(
                    "element label %r is not declared by the target schema"
                    % node.label
                )
            children = self.rewrite_forest(node.children, content, invoker, log, stats)
            return with_children(node, children)
        return node

    def _rewrite_word(
        self, children: Tuple[Node, ...], target: Regex, invoker, log, stats
    ) -> Tuple[Node, ...]:
        """Stage 3: rewrite one children word (safe, auto or possible).

        In AUTO mode the word *degrades gracefully* under infrastructure
        failure: when the resilient invocation layer gives up on a
        function (:class:`FunctionUnavailableError`, e.g. retries
        exhausted or a breaker stuck open), the word is re-analyzed with
        that function moved to the non-invocable side of the Section 2.1
        partition — the plan may then keep the call intensional or route
        through other providers — instead of failing the whole document.
        """
        word = tuple(symbol_of(node) for node in children)
        target = self._desugared(target, word)
        stats["words"] += 1
        dead = stats.setdefault("dead", set())
        tracer = obs.tracer()
        if tracer.enabled:
            span_context = tracer.span(
                "node", word=".".join(word) or "eps", length=len(word)
            )
        else:
            span_context = tracer.span("node")
        with span_context as span:
            while True:
                try:
                    result = self._rewrite_word_once(
                        children, word, target, invoker, log, stats, dead
                    )
                    span.set(mode=stats["mode"])
                    return result
                except FunctionUnavailableError as fault:
                    name = getattr(fault, "function", "")
                    if self.mode != AUTO or not name or name in dead:
                        raise
                    dead.add(name)
                    stats["degradations"] = stats.get("degradations", 0) + 1
                    tracer.event("degrade", function=name)
                    obs.metrics().counter(
                        "repro_degradations_total",
                        "Words re-analyzed around a dead function",
                    ).inc(function=name)

    def _rewrite_word_once(
        self,
        children: Tuple[Node, ...],
        word: Tuple[str, ...],
        target: Regex,
        invoker,
        log,
        stats,
        dead,
    ) -> Tuple[Node, ...]:
        """One analyze-and-execute pass over a children word.

        A warm word costs one analysis-cache probe.  When the solved
        analysis attached no signature copy, nothing can be invoked: the
        product path is the word's own path, ``exists`` says it ends
        unmarked, and the strategy would return the children unchanged,
        so the walk is skipped.
        """
        if self.mode in (SAFE, AUTO):
            analysis = self._cached(SAFE, word, target, dead)
            stats["product"] += analysis.stats.product_nodes
            if analysis.exists:
                if not analysis.expansion.copies:
                    return children
                new_children, _ = execute_safe(
                    analysis, children, invoker, log, self.cost_model.cost_of
                )
                return new_children
            if self.mode == SAFE:
                raise NoSafeRewritingError(
                    "children word %s has no safe %d-depth rewriting into %s"
                    % (".".join(word) or "eps", self.k, target)
                )
            stats["mode"] = POSSIBLE

        analysis = self._cached(POSSIBLE, word, target, dead)
        stats["product"] += analysis.stats.product_nodes
        if not analysis.exists:
            raise NoPossibleRewritingError(
                "children word %s cannot rewrite into %s%s"
                % (
                    ".".join(word) or "eps",
                    target,
                    " (with %s unavailable)" % ", ".join(sorted(dead))
                    if dead
                    else "",
                )
            )
        stats["mode"] = POSSIBLE if self.mode != SAFE else stats["mode"]
        new_children, _ = execute_possible(
            analysis, children, invoker, log, self.cost_model.cost_of
        )
        return new_children

    # -- static analysis (no invocations) -----------------------------------

    def _check_node(self, node: Node) -> None:
        if isinstance(node, Text):
            return
        if isinstance(node, FunctionCall):
            input_type = self._input_type(node.name)
            if input_type is None:
                raise NoSafeRewritingError(
                    "function %r has no declared signature" % node.name
                )
            self._check_forest(node.params, input_type)
            return
        content = self.target_schema.type_of(node.label)
        if content is None:
            raise NoSafeRewritingError(
                "element label %r is not declared" % node.label
            )
        self._check_forest(node.children, content)

    def _check_forest(self, forest: Sequence[Node], target: Regex) -> None:
        for node in forest:
            self._check_node(node)
        word = tuple(symbol_of(node) for node in forest)
        output_types, invocable = self._word_problem(word)
        target = self._desugared(target, word)

        def exists(kind: str) -> bool:
            return self._solve(
                kind, word, output_types, target, invocable
            ).exists

        if self.mode != POSSIBLE and exists(SAFE):
            return
        if self.mode != SAFE and exists(POSSIBLE):
            return
        if self.mode == SAFE:
            raise NoSafeRewritingError(
                "children word %s has no safe %d-depth rewriting into %s"
                % (".".join(word) or "eps", self.k, target)
            )
        raise NoPossibleRewritingError(
            "children word %s cannot rewrite into %s"
            % (".".join(word) or "eps", target)
        )

    def _solve(self, kind: str, word, output_types, target, invocable):
        """Solve one word problem: the safe game (lazy or eager) or
        possible rewriting's reachability."""
        cc = self._ccache()
        if kind == POSSIBLE:
            return analyze_possible(word, output_types, target, self.k,
                                    invocable, compile_cache=cc)
        analyze = analyze_safe_lazy if self.lazy else analyze_safe
        return analyze(word, output_types, target, self.k, invocable,
                       compile_cache=cc)

    def _cached(self, kind: str, word, target, dead):
        """The solved analysis of one word problem, memoized twice.

        The per-engine dict is the per-document memo, keyed by (kind,
        word, target, dead set).  The other inputs (k, policy, schemas,
        laziness) are engine-constant, and ``output_types``/``invocable``
        are functions of the word and the degradation state alone, so
        the key is exact.  The word enters as the tuple itself (strings
        cache their hashes) and the target through the compilation
        cache's interned digest (with caching disabled, the structural
        regex itself), so a warm word costs one tuple hash.

        Only a per-engine miss reaches the compilation cache's shared
        ``analysis`` store (:meth:`_analyzed`), where every engine on
        that cache finds the games any of them solved.  Solved analyses
        are immutable after construction — execution only reads them.
        ``cache_hits``/``cache_misses`` count this memo alone: a
        problem's first occurrence in a rewrite is a miss whether it was
        solved or found in the store, so receipts stay a function of the
        request, not of what the process solved before.
        """
        if not self.cache:
            return self._analyzed(kind, word, target, dead, shared=False)
        key = (kind, word, self._ccache().regex_key(target), frozenset(dead))
        with self._cache_lock:
            analysis = self._analysis_cache.get(key)
            if analysis is None:
                self._cache_misses += 1
            else:
                self._cache_hits += 1
        if analysis is None:
            # Computed outside the lock: the scheduler's workers share
            # the planning clone, and a heavy analysis must not serialize
            # them (a racing duplicate is discarded by setdefault).
            analysis = self._analyzed(kind, word, target, dead, shared=True)
            with self._cache_lock:
                analysis = self._analysis_cache.setdefault(key, analysis)
        else:
            obs.tracer().event("analysis.cache", kind=kind, outcome="hit")
            metrics = obs.metrics()
            if metrics.enabled:
                metrics.counter(
                    "repro_analysis_cache_total", "Analysis cache lookups"
                ).inc(outcome="hit")
        return analysis

    def _analyzed(self, kind: str, word, target, dead, shared: bool):
        """One word analysis under an ``analysis`` span.

        With ``shared``, the compilation cache's ``analysis`` store
        answers when it holds the problem (``cache="shared"``: from
        memory, disk or an imported snapshot) and solves it otherwise
        (``cache="miss"``).  Without it the problem is solved outright
        (``cache="off"``).  Only a real solve emits ``product``/``game``
        spans, game work and the ``repro_product_nodes`` histogram.
        """
        output_types, invocable = self._word_problem(word, dead)
        solved = False

        def solve():
            nonlocal solved
            solved = True
            return self._solve(kind, word, output_types, target, invocable)

        with obs.tracer().span("analysis", kind=kind) as span:
            if shared:
                cc = self._ccache()
                algorithm = kind if kind == POSSIBLE else (
                    "safe-lazy" if self.lazy else "safe-eager"
                )
                key = cc.analysis_key(
                    word, output_types, self.k,
                    [name for name in output_types if invocable(name)],
                    target, algorithm,
                )
                analysis = cc.analysis(key, solve)
            else:
                analysis = solve()
            span.set(
                cache=("miss" if solved else "shared") if shared else "off",
                exists=analysis.exists,
                product_nodes=analysis.stats.product_nodes,
                explored=analysis.stats.product_explored,
            )
        metrics = obs.metrics()
        if metrics.enabled:
            if shared:
                metrics.counter(
                    "repro_analysis_cache_total", "Analysis cache lookups"
                ).inc(outcome="miss")
            if solved:
                metrics.histogram(
                    "repro_product_nodes",
                    "Reachable product nodes per word analysis",
                ).observe(analysis.stats.product_nodes, kind=kind)
        return analysis

    # -- plumbing -------------------------------------------------------------

    def _input_type(self, name: str) -> Optional[Regex]:
        """``tau_in`` for parameter rewriting: the receiver's view first.

        A kept call is validated by the receiver against the *target*
        schema's input type, so parameters are rewritten toward it; the
        sender schema fills in functions the target does not declare.
        """
        input_type = self.target_schema.input_type(name)
        if input_type is None and self.sender_schema is not None:
            input_type = self.sender_schema.input_type(name)
        return input_type

    def _signature(self, name: str):
        """The *operational* signature: the sender's (WSDL) view first.

        Section 4 assumes s0 and s agree on shared functions and notes
        the algorithm "can be extended to handle distinct signatures".
        The extension implemented here: output types used to build
        ``A_w^k`` come from the sender schema — they describe what the
        services actually return — falling back to the target's
        declaration when the sender has none.
        """
        signature = None
        if self.sender_schema is not None:
            signature = self.sender_schema.signature_of(name)
        if signature is None:
            signature = self.target_schema.signature_of(name)
        return signature

    def _candidates(self, word: Sequence[str]) -> List[str]:
        """Every function name that can appear during this rewriting."""
        names = set(self.target_schema.function_names())
        if self.sender_schema is not None:
            names |= self.sender_schema.function_names()
        names |= {symbol for symbol in word if self._signature(symbol) is not None}
        return sorted(names)

    def _word_problem(self, word: Sequence[str], dead=frozenset()):
        """Output types and the invocability filter for one children word.

        ``dead`` holds functions the resilient layer gave up on during
        this rewrite; they are treated as non-invocable so plans route
        around them (keep the call, or use another provider).
        """
        output_types: Dict[str, Regex] = {}
        for name in self._candidates(word):
            signature = self._signature(name)
            if signature is not None:
                output_types[name] = signature.output_type

        unavailable = frozenset(dead)

        def invocable(name: str) -> bool:
            return self.policy.is_invocable(name) and name not in unavailable

        return output_types, invocable

    def _desugared(self, target: Regex, word: Sequence[str]) -> Regex:
        """Expand target-schema pattern atoms over the candidate functions."""
        if not self.target_schema.patterns:
            return target
        candidates = self._candidates(word)
        schema = Schema({"__target__": target}, {}, dict(self.target_schema.patterns))
        return schema.desugar_patterns(candidates, self._signature).label_types[
            "__target__"
        ]
