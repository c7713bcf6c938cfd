"""Per-document enforcement sessions: re-enforce only what an edit touched.

A :class:`EnforcementSession` keeps one *source* document alive across a
sequence of edit scripts and re-runs the verify → rewrite → validate
pipeline after each batch, producing outcomes **byte-identical** to a
full :meth:`~repro.axml.enforcement.SchemaEnforcer.enforce_document`
over the edited document — while doing work proportional to the edit's
locality, not the document's size.  Four reuse layers stack up:

1. **compile cache** — automata artifacts (DFAs, expansions) and solved
   games live in the enforcer's compilation cache (a fresh one per
   session when the enforcer has none), so re-analyzed spine words
   never recompile, and a game any engine on that cache solved is not
   solved again;
2. **analysis cache** — the engine's per-(word, target, dead) memo of
   solved games persists across edits, so an unchanged children word on
   the spine re-analyzes in O(1); a word it has not met yet is looked
   up in the compilation cache's shared store before it is solved;
3. **materialization cache** — service answers are memoized by call
   fingerprint; an unchanged call is never re-invoked;
4. **subtree memo** — the heart of the session: a
   :class:`MemoRewriteEngine` keyed by *node identity*.  Edits rebuild
   only the root-to-edit spine (:func:`~repro.doc.paths.replace_at`
   shares every off-spine subtree), so an untouched subtree is the same
   object as last pass and its rewritten result — including the
   invocation-log slice and stats it contributed — replays without
   visiting a single descendant.

Identity keying (not value hashing) is what keeps lookups O(1): hashing
a frozen dataclass is O(subtree), which would silently re-introduce the
full-document cost the session exists to avoid.

Byte-identity with full re-enforcement holds for *per-call-deterministic*
invokers (each call's answer a pure function of the call — the
per-call seeded :func:`~repro.services.responders.sampling_invoker` the
gateway and the conformance fuzzer serve calls with).  For stateful
invokers the session's semantics are "prior materializations are
reused", which is the useful behavior for subscription traffic but no
longer bit-comparable to a fresh run.  The differential edit fuzzer
(:func:`repro.conformance.differential.run_edit_scenario`) holds the
byte-identity contract down across the engine configuration matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.doc.document import Document
from repro.doc.nodes import (
    Element,
    FunctionCall,
    Node,
    Text,
    children_of,
    tree_size,
)
from repro.doc.normalize import normalize_document
from repro.doc.paths import iter_nodes
from repro.errors import RewriteError, SchemaError, ServiceError
from repro.exec.fingerprint import call_fingerprint
from repro.incremental.edits import DocEdit, apply_edits
from repro.obs import context as obs
from repro.obs.metrics import record_work
from repro.rewriting.engine import POSSIBLE, SAFE, RewriteEngine
from repro.rewriting.plan import InvocationLog, InvocationRecord
from repro.schema.validate import InstanceChecker


# ---------------------------------------------------------------------------
# Identity-keyed caches
# ---------------------------------------------------------------------------


class _IdentityMemo:
    """A cache keyed by node identity, validated against the node object.

    Entries hold the node itself (keeping ``id()`` stable and unique for
    the memo's lifetime) plus a value.  Structural sharing guarantees an
    unedited subtree is *the same object* across edits, which makes this
    an exact, O(1) invalidation scheme: the spine rebuilt by an edit has
    fresh ids and simply misses.
    """

    def __init__(self):
        self._entries: Dict[int, Tuple[Node, object]] = {}

    def get(self, node: Node):
        entry = self._entries.get(id(node))
        if entry is not None and entry[0] is node:
            return entry[1]
        return None

    def put(self, node: Node, value) -> None:
        self._entries[id(node)] = (node, value)

    def retain(self, live: Set[int]) -> None:
        """Drop every entry whose node is not in ``live`` (node ids).

        An entry keeps its node alive, so a live node's id cannot belong
        to another entry: keeping the ids in ``live`` is exact.
        """
        self._entries = {
            key: entry for key, entry in self._entries.items() if key in live
        }

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class _SubtreeEntry:
    """One memoized subtree rewriting (a ``_descend``/``_prepare`` result)."""

    result: Node
    records: Tuple[InvocationRecord, ...]
    cost: float
    words: int
    product: int
    went_possible: bool
    dead_context: frozenset
    dead_added: frozenset
    degradations: int
    #: Input subtree size, counted the first time the entry is reused
    #: (the root, re-analyzed on every pass, is never walked for it).
    size: Optional[int] = None


class ConformanceMemo:
    """Per-node instance checking, memoized by identity.

    ``ok(root)`` equals ``checker.ok(root)`` (strict Definition 3): a
    node's verdict is ``local_ok(node) and all(ok(child) ...)``, so
    memoizing by identity makes re-verification after an edit O(spine).
    The walk is iterative (any depth) and short-circuits in that order:
    a fully checked subtree is memoized True, each open ancestor of the
    first failure False.
    """

    def __init__(self, checker: InstanceChecker):
        self.checker = checker
        self._memo = _IdentityMemo()
        self.checked = 0
        self.reused = 0
        #: Children words checked (element and call nodes not reused).
        self.words = 0

    def ok(self, root: Node) -> bool:
        memo = self._memo
        undecided: List[Node] = []  # entered nodes whose subtree is open
        stack: List[Optional[Node]] = [root]
        while stack:
            node = stack.pop()
            if node is None:  # the innermost undecided node's subtree passed
                memo.put(undecided.pop(), True)
                continue
            verdict = memo.get(node)
            if verdict is not None:
                self.reused += 1
            else:
                self.checked += 1
                if not isinstance(node, Text):
                    self.words += 1
                verdict = self.checker.local_ok(node)
                kids = children_of(node)
                if verdict and kids:
                    undecided.append(node)
                    stack.append(None)
                    stack.extend(reversed(kids))
                    continue
                memo.put(node, verdict)
            if not verdict:
                for ancestor in undecided:
                    memo.put(ancestor, False)
                return False
        return True


class CachingInvoker:
    """Memoize service answers by call fingerprint (materialization reuse).

    Correct whenever the underlying invoker is per-call deterministic
    (same call → same forest); in a session this is also the *defined*
    semantics for edits: a call the edit did not touch keeps the answer
    already in the enforced document.
    """

    def __init__(self, invoker):
        self._invoker = invoker
        self._memo: Dict[str, Tuple[Node, ...]] = {}
        self.performed = 0
        self.reused = 0
        # timed_invoke reads the invoker's pluggable clock through us.
        clock = getattr(invoker, "clock", None)
        if clock is not None:
            self.clock = clock

    def cached(self, fc: FunctionCall) -> Optional[Tuple[Node, ...]]:
        """The memoized answer to a call, if it was ever performed."""
        return self._memo.get(call_fingerprint(fc))

    def __call__(self, fc: FunctionCall) -> Tuple[Node, ...]:
        key = call_fingerprint(fc)
        cached = self._memo.get(key)
        if cached is not None:
            self.reused += 1
            return cached
        forest = tuple(self._invoker(fc))
        self._memo[key] = forest
        self.performed += 1
        return forest


# ---------------------------------------------------------------------------
# The memoizing engine
# ---------------------------------------------------------------------------


class MemoRewriteEngine(RewriteEngine):
    """A :class:`RewriteEngine` that memoizes per-subtree rewriting.

    The three overridden stages (:meth:`_rewrite_node` for the root,
    :meth:`_prepare` for function-call parameter prep, :meth:`_descend`
    for kept elements) each run under :meth:`_memoized`: a fresh
    sub-log/sub-stats pair captures exactly what the subtree contributed,
    the entry replays that contribution on a hit — records appended in
    document order, stats merged, AUTO-mode degradations re-applied — so
    a replayed pass is observationally identical to a recomputed one.

    Entries are tagged with the degradation context (``dead`` set) they
    were computed under and only replay in an equal context; the engine
    runs strictly sequentially (``resolved_workers`` pinned to 1 — the
    scheduler's planning pre-pass would analyze the whole document and
    defeat locality; output is bit-identical at any worker count, so
    this is invisible in results).
    """

    def __init__(self, **kwargs):
        kwargs.setdefault("workers", 1)
        super().__init__(**kwargs)
        self._memo = _IdentityMemo()
        self.nodes_reanalyzed = 0
        self.nodes_reused = 0
        self.subtree_nodes_reused = 0

    @property
    def resolved_workers(self) -> int:
        return 1

    def reset_pass_counters(self) -> None:
        self.nodes_reanalyzed = 0
        self.nodes_reused = 0
        self.subtree_nodes_reused = 0

    # -- the overridden recursion points --------------------------------

    def _rewrite_node(self, node, invoker, log, stats):
        return self._memoized(
            node, invoker, log, stats, super()._rewrite_node
        )

    def _prepare(self, node, invoker, log, stats):
        if not isinstance(node, FunctionCall):
            return node
        return self._memoized(node, invoker, log, stats, super()._prepare)

    def _descend(self, node, invoker, log, stats):
        if not isinstance(node, Element):
            return node
        return self._memoized(node, invoker, log, stats, super()._descend)

    # -- memoization core ------------------------------------------------

    def _memoized(self, node, invoker, log, stats, compute):
        dead_context = frozenset(stats.get("dead", ()))
        entry = self._memo.get(node)
        if entry is not None and entry.dead_context == dead_context:
            self._replay(entry, log, stats)
            self.nodes_reused += 1
            if entry.size is None:
                entry.size = tree_size(node)
            self.subtree_nodes_reused += entry.size
            return entry.result
        self.nodes_reanalyzed += 1
        # Share the dead set (degradation is pass-global) but give the
        # subtree its own log/stats so the entry captures exactly its
        # contribution.
        dead = stats.setdefault("dead", set())
        sub_log = InvocationLog()
        sub_stats = {"words": 0, "product": 0, "mode": SAFE, "dead": dead}
        result = compute(node, invoker, sub_log, sub_stats)
        entry = _SubtreeEntry(
            result=result,
            records=tuple(sub_log.records),
            cost=sub_log.cost,
            words=sub_stats["words"],
            product=sub_stats["product"],
            went_possible=sub_stats["mode"] == POSSIBLE,
            dead_context=dead_context,
            dead_added=frozenset(dead) - dead_context,
            degradations=sub_stats.get("degradations", 0),
        )
        self._memo.put(node, entry)
        self._replay(entry, log, stats, fresh_dead=False)
        return result

    @staticmethod
    def _replay(entry: _SubtreeEntry, log, stats, fresh_dead=True) -> None:
        log.records.extend(entry.records)
        log.cost += entry.cost
        stats["words"] += entry.words
        stats["product"] += entry.product
        if entry.went_possible:
            stats["mode"] = POSSIBLE
        if entry.degradations:
            stats["degradations"] = (
                stats.get("degradations", 0) + entry.degradations
            )
        if fresh_dead and entry.dead_added:
            stats.setdefault("dead", set()).update(entry.dead_added)


# ---------------------------------------------------------------------------
# Outcomes and the session
# ---------------------------------------------------------------------------


@dataclass
class IncrementalOutcome:
    """One session pass — the full-enforcement receipt plus reuse counters.

    ``document``/``error``/``already_conformant``/``calls_made``/
    ``degraded_functions``/``log`` carry exactly what a fresh
    :meth:`SchemaEnforcer.enforce_document` over the same source would
    report (:meth:`receipt` is the comparison view the differential
    oracle uses); the remaining fields account for what the incremental
    machinery *skipped*.
    """

    document: Optional[Document]
    already_conformant: bool
    calls_made: int
    log: InvocationLog
    error: Optional[str] = None
    degraded_functions: Tuple[str, ...] = ()
    #: Subtree-memo accounting for this pass.
    nodes_reanalyzed: int = 0
    nodes_reused: int = 0
    subtree_nodes_reused: int = 0
    #: Conformance-memo accounting for this pass.
    verify_checked: int = 0
    verify_reused: int = 0
    #: Materialization-cache accounting for this pass.
    invocations_performed: int = 0
    invocations_reused: int = 0
    #: How many edits this pass applied (0 for the initial enforcement).
    edits_applied: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None

    def receipt(self) -> dict:
        """The fields a full re-enforcement must reproduce byte-for-byte.

        Engine-internal cache accounting and wall times are excluded by
        design — reuse is the whole point — but everything a peer can
        observe is in: the document bytes, the verdict, the error text,
        the invocation sequence (names, depths, output symbols,
        backtracking), and the degradation set.
        """
        return {
            "ok": self.ok,
            "error": self.error,
            "already_conformant": self.already_conformant,
            "xml": None if self.document is None else self.document.to_xml(),
            "calls_made": self.calls_made,
            "invocations": [
                (r.function, r.depth, r.output_symbols, r.backtracked)
                for r in self.log.records
            ],
            "degraded": tuple(self.degraded_functions),
        }


def full_receipt(outcome) -> dict:
    """The same comparison view computed from an ``EnforcementOutcome``."""
    return {
        "ok": outcome.ok,
        "error": outcome.error,
        "already_conformant": outcome.already_conformant,
        "xml": None if outcome.document is None else outcome.document.to_xml(),
        "calls_made": outcome.calls_made,
        "invocations": [
            (r.function, r.depth, r.output_symbols, r.backtracked)
            for r in outcome.log.records
        ],
        "degraded": tuple(outcome.degraded_functions),
    }


_session_ids = itertools.count(1)


class EnforcementSession:
    """One mutating document's enforcement state, kept warm across edits.

    Built via :meth:`SchemaEnforcer.session`; drive it with
    :meth:`enforce` (initial pass) and :meth:`apply` (edit script →
    fresh outcome).  The session owns the evolving *source* document;
    the enforced document is recomputed per pass (cheaply, through the
    caches) rather than patched, which is how outcomes stay
    byte-identical to full re-enforcement even when an edit changes
    which rewriting the schema admits globally.
    """

    def __init__(self, enforcer, document: Document, invoker: Callable):
        self.enforcer = enforcer
        self.session_id = next(_session_ids)
        self._invoker = CachingInvoker(invoker)
        self._engine = MemoRewriteEngine(
            target_schema=enforcer.target_schema,
            sender_schema=enforcer.sender_schema,
            k=enforcer.k,
            mode=enforcer.mode,
            policy=enforcer.policy,
            cost_model=enforcer.cost_model,
            eager=enforcer.eager,
            lazy=enforcer.lazy,
            compile_cache=enforcer.compile_cache,
        )
        self._verify = ConformanceMemo(enforcer.checker)
        self.document = normalize_document(document)
        self.enforced: Optional[Document] = None
        self.last_outcome: Optional[IncrementalOutcome] = None
        self.edits_applied = 0
        self.passes = 0
        #: Live nodes counted by the last memo sweep (see :meth:`_sweep`).
        self.live_nodes = 0

    # -- the passes -----------------------------------------------------

    def enforce(self) -> IncrementalOutcome:
        """Run one (re-)enforcement pass over the current source document."""
        with obs.tracer().span(
            "incremental.enforce", session=self.session_id,
            passes=self.passes,
        ) as span:
            outcome = self._enforce_once()
            span.set(
                ok=outcome.ok,
                reused=outcome.nodes_reused,
                reanalyzed=outcome.nodes_reanalyzed,
            )
        self.passes += 1
        self.last_outcome = outcome
        self.enforced = outcome.document
        memo_size = max(len(self._engine._memo), len(self._verify._memo))
        if memo_size > 2 * self.live_nodes:
            self._sweep()
        self._metrics(outcome)
        return outcome

    def apply(self, edits) -> IncrementalOutcome:
        """Apply one edit script to the source, then re-enforce.

        Typed :class:`~repro.incremental.edits.EditError` failures leave
        the session untouched (the script applies atomically).  Returns
        the fresh outcome; the inverse script is kept on
        ``last_inverse`` for undo.
        """
        edits = tuple(edits)
        with obs.tracer().span(
            "incremental.apply", session=self.session_id, edits=len(edits)
        ):
            document, inverse = apply_edits(self.document, edits)
            self.document = document
            self.last_inverse = inverse
            self.edits_applied += len(edits)
            outcome = self.enforce()
            outcome.edits_applied = len(edits)
        metrics = obs.metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_incremental_edits_total",
                "Edit-script operations applied to live sessions",
            ).inc(len(edits))
        return outcome

    def _enforce_once(self) -> IncrementalOutcome:
        engine = self._engine
        verify = self._verify
        invoker = self._invoker
        engine.reset_pass_counters()
        checked0, reused0 = verify.checked, verify.reused
        words0 = verify.words
        performed0, inv_reused0 = invoker.performed, invoker.reused

        def counters(outcome: IncrementalOutcome) -> IncrementalOutcome:
            record_work(
                obs.metrics(), "check", {"words": verify.words - words0}
            )
            outcome.nodes_reanalyzed = engine.nodes_reanalyzed
            outcome.nodes_reused = engine.nodes_reused
            outcome.subtree_nodes_reused = engine.subtree_nodes_reused
            outcome.verify_checked = verify.checked - checked0
            outcome.verify_reused = verify.reused - reused0
            outcome.invocations_performed = invoker.performed - performed0
            outcome.invocations_reused = invoker.reused - inv_reused0
            return outcome

        # (i) verify — memoized per subtree
        if verify.ok(self.document.root):
            return counters(IncrementalOutcome(
                self.document, True, 0, InvocationLog(),
            ))
        # (ii) rewrite — through the subtree memo
        try:
            result = engine.rewrite(self.document, invoker)
        except (RewriteError, SchemaError, ServiceError) as exc:
            converted = self._try_converters(invoker)
            if converted is not None:
                return counters(converted)
            return counters(IncrementalOutcome(
                None, False, 0, InvocationLog(), error=str(exc),
            ))
        # (iii) validate the produced document — memoized; on the rare
        # failure path run the full validator for the byte-identical
        # violation report.
        if not verify.ok(result.document.root):
            report = verify.checker.validate(result.document.root)
            return counters(IncrementalOutcome(
                None, False, len(result.log), result.log,
                error="rewriting produced a non-conformant document: %s"
                % report,
                degraded_functions=result.degraded_functions,
            ))
        return counters(IncrementalOutcome(
            result.document, False, len(result.log), result.log,
            degraded_functions=result.degraded_functions,
        ))

    def _try_converters(self, invoker) -> Optional[IncrementalOutcome]:
        """Parity with SchemaEnforcer's converter fallback (rare path)."""
        if not self.enforcer.converters:
            return None
        outcome = self.enforcer._try_converters(self.document, invoker)
        if outcome is None or not outcome.ok:
            return None
        return IncrementalOutcome(
            outcome.document, False, outcome.calls_made, outcome.log,
            degraded_functions=outcome.degraded_functions,
        )

    # -- undo and introspection -----------------------------------------

    last_inverse: Tuple[DocEdit, ...] = ()

    def undo(self) -> IncrementalOutcome:
        """Apply the inverse of the last edit script."""
        if not self.last_inverse:
            raise ValueError("nothing to undo")
        inverse, self.last_inverse = self.last_inverse, ()
        return self.apply(inverse)

    # -- bounded memos ---------------------------------------------------

    def live_ids(self) -> Set[int]:
        """Identities of every node a later pass or :meth:`undo` can
        look up in the memos.

        The live trees are the source document, the enforced document and
        the source :meth:`undo` would produce (which holds
        ``last_inverse``'s payload; an undone ``update-call`` rebuilds
        its call around the old parameters).  A call among them also
        makes its memoized answer live — a pass that invokes the call
        again re-descends that same forest — recursively.
        """
        roots: List[Node] = [self.document.root]
        if self.enforced is not None:
            roots.append(self.enforced.root)
        if self.last_inverse:
            roots.append(apply_edits(self.document, self.last_inverse)[0].root)
        live: Set[int] = set()
        stack = roots
        while stack:
            node = stack.pop()
            if id(node) in live:
                continue
            live.add(id(node))
            stack.extend(children_of(node))
            if isinstance(node, FunctionCall):
                stack.extend(self._invoker.cached(node) or ())
        return live

    def _sweep(self) -> None:
        """Drop memo entries for nodes no live tree holds any more.

        Each edit leaves the replaced spine's entries behind; without a
        sweep they would keep every replaced spine alive for the
        session's lifetime.  The pass that finds a memo holding more
        than twice the nodes counted at the last sweep walks the live
        trees (:meth:`live_ids`) once and keeps only their entries —
        every entry a normal pass or :meth:`undo` can consult — so reuse
        counters are unchanged and the walk costs O(1) per memo entry
        created, amortized.
        """
        live = self.live_ids()
        self.live_nodes = len(live)
        self._engine._memo.retain(live)
        self._verify._memo.retain(live)

    def cache_snapshot(self) -> Dict[Tuple[int, ...], str]:
        """A canonical view of the cached state *reachable* from the
        current source document: path → digest of the memoized subtree
        result.

        The raw memo may also hold entries for the enforced document,
        for ``last_inverse``'s payload, for memoized service answers and
        — until the next sweep (:meth:`_sweep`) — for replaced spines,
        so state equality after edit + inverse is asserted on this
        reachable view — which also proves the session would do zero
        rewriting work beyond the spine on its next pass.
        """
        import hashlib

        snapshot: Dict[Tuple[int, ...], str] = {}
        for path, node in iter_nodes(self.document.root):
            entry = self._engine._memo.get(node)
            if entry is None:
                continue
            payload = "|".join((
                str(entry.result),
                str(len(entry.records)),
                ".".join(r.function for r in entry.records),
                str(entry.words),
                str(entry.product),
                str(sorted(entry.dead_context)),
            ))
            snapshot[path] = hashlib.sha256(
                payload.encode("utf-8")
            ).hexdigest()[:16]
        return snapshot

    def reuse_totals(self) -> Dict[str, int]:
        """Session-lifetime reuse accounting (all passes)."""
        return {
            "passes": self.passes,
            "edits_applied": self.edits_applied,
            "invocations_performed": self._invoker.performed,
            "invocations_reused": self._invoker.reused,
            "verify_checked": self._verify.checked,
            "verify_reused": self._verify.reused,
        }

    def _metrics(self, outcome: IncrementalOutcome) -> None:
        metrics = obs.metrics()
        if not metrics.enabled:
            return
        nodes = metrics.counter(
            "repro_incremental_nodes_total",
            "Subtree-memo consultations by outcome",
        )
        nodes.inc(outcome.nodes_reused, outcome="reused")
        nodes.inc(outcome.nodes_reanalyzed, outcome="reanalyzed")
        verify = metrics.counter(
            "repro_incremental_verify_total",
            "Conformance-memo consultations by outcome",
        )
        verify.inc(outcome.verify_reused, outcome="reused")
        verify.inc(outcome.verify_checked, outcome="checked")
        calls = metrics.counter(
            "repro_incremental_invocations_total",
            "Materializations served from the session cache vs performed",
        )
        calls.inc(outcome.invocations_reused, outcome="reused")
        calls.inc(outcome.invocations_performed, outcome="performed")
        metrics.counter(
            "repro_incremental_passes_total",
            "Incremental enforcement passes by verdict",
        ).inc(outcome="ok" if outcome.ok else "error")
