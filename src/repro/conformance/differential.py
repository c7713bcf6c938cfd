"""The differential runner: one scenario, every engine configuration.

The concurrency, observability and resilience layers all promise the
same contract: *they change latency and robustness, never results*.
This module enforces the contract empirically.  A scenario is executed
once per :class:`EngineConfig` in the matrix and every pair of outcomes
must agree on

- success/failure and the error text when failing,
- the produced document, byte for byte (``to_xml`` output),
- the number of service calls that entered the document,
- the rewriting mode that actually held (safe vs. possible fallback),
- the analysis cache accounting (hits/misses), which the concurrent
  scheduler guarantees bit-identical to a sequential run,
- the functions degraded around (AUTO-mode graceful degradation).

The baseline's enforced output is also read back the way the receiving
peer does — ``Document.from_xml`` of its bytes.  When the output is in
wire normal form (:func:`~repro.doc.normalize.is_wire_normal`) that
reading must rebuild the enforced tree (node ``==``) and re-serialize
to the same bytes, or it is reported as a ``round-trip`` disagreement.
This is the property the gateway's receiver check relies on to check
the tree instead of the parsed reply.

Word-level scenarios are additionally checked against the reference
interpreter (:mod:`repro.conformance.reference`) — eager, lazy and
possible solvers must reproduce the executable spec's verdicts on every
exact instance, plus the safe ⇒ possible implication.

``EngineConfig(mutate=True)`` deliberately corrupts the produced bytes;
it exists so the harness can prove, in tests and via ``repro fuzz
--self-test``, that a real divergence would not slip through.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.conformance.fuzzer import (
    DocumentScenario,
    EditScenario,
    WordScenario,
    fuzz_document_scenario,
    fuzz_edit_scenario,
    fuzz_word_scenario,
)
from repro.conformance.reference import (
    reference_possible,
    reference_safe,
)
from repro.doc.document import Document
from repro.doc.normalize import is_wire_normal
from repro.errors import ReproError, TransientFault
from repro.obs import MetricsRegistry, Tracer, observing
from repro.rewriting.engine import RewriteEngine
from repro.rewriting.lazy import analyze_safe_lazy
from repro.rewriting.possible import analyze_possible
from repro.rewriting.safe import analyze_safe
from repro.services.resilience import ResiliencePolicy, ResilientInvoker
from repro.services.responders import sampling_invoker


@dataclass(frozen=True)
class EngineConfig:
    """One point of the configuration matrix."""

    name: str
    workers: int = 1
    lazy: bool = True
    observed: bool = False
    resilient: bool = False
    shared_cache: bool = False  # share one compilation cache across seeds
    #: Run the streaming enforcement pipeline (SAX parse + close-time
    #: rewriting + incremental emission) instead of the DOM path.  Skipped
    #: on possible-mode scenarios, which streaming rejects by design.
    streamed: bool = False
    mutate: bool = False  # self-test: corrupt the outcome on purpose


#: One process-wide compilation cache for every ``shared_cache`` run.
#: Deliberately *never* cleared between scenarios: a divergence caused by
#: artifact sharing across engines, documents or seeds would surface as a
#: disagreement with the compile-cold baseline.
_SHARED_COMPILE_CACHE = None
_SHARED_COMPILE_LOCK = threading.Lock()


def _compile_cache_for(config: "EngineConfig"):
    from repro.compile import DISABLED, CompilationCache

    if not config.shared_cache:
        # Baselines compile cold: every artifact rebuilt from scratch,
        # so the shared-cache variant is compared against the
        # no-sharing-whatsoever pipeline.
        return DISABLED
    global _SHARED_COMPILE_CACHE
    with _SHARED_COMPILE_LOCK:
        if _SHARED_COMPILE_CACHE is None:
            _SHARED_COMPILE_CACHE = CompilationCache()
        return _SHARED_COMPILE_CACHE


#: The shipped matrix: a baseline plus one variant per subsystem whose
#: "results never change" contract is on the line.
DEFAULT_MATRIX: Tuple[EngineConfig, ...] = (
    EngineConfig("baseline"),
    EngineConfig("workers-4", workers=4),
    EngineConfig("eager-game", lazy=False),
    EngineConfig("traced", observed=True),
    EngineConfig("resilient", resilient=True),
    EngineConfig("shared-cache", shared_cache=True),
    EngineConfig("streamed", streamed=True),
)

#: The matrix with a deliberately broken member, for harness self-tests.
SELF_TEST_MATRIX: Tuple[EngineConfig, ...] = DEFAULT_MATRIX + (
    EngineConfig("mutant", mutate=True),
)

#: The matrix the incremental-vs-full edit oracle runs over: the five
#: enforcement-relevant configurations.  (``shared-cache`` is omitted — a session *is* a shared-cache run; the
#: within-config oracle compares it against compile-cold full passes
#: anyway.)
EDIT_MATRIX: Tuple[EngineConfig, ...] = (
    EngineConfig("baseline"),
    EngineConfig("workers-4", workers=4),
    EngineConfig("eager-game", lazy=False),
    EngineConfig("traced", observed=True),
    EngineConfig("resilient", resilient=True),
)

#: The edit matrix with a deliberately broken member, for self-tests.
EDIT_SELF_TEST_MATRIX: Tuple[EngineConfig, ...] = EDIT_MATRIX + (
    EngineConfig("mutant", mutate=True),
)


@dataclass
class ConfigOutcome:
    """Everything one configuration produced for one scenario."""

    config: str
    ok: bool
    error: Optional[str] = None
    xml: Optional[str] = None
    calls_made: int = 0
    mode_used: Optional[str] = None
    cache_hits: int = 0
    cache_misses: int = 0
    degraded: Tuple[str, ...] = ()
    #: The enforced tree, when ``ok`` and run on the DOM path.
    document: Optional[Document] = field(
        default=None, repr=False, compare=False
    )

    #: The fields every configuration pair must agree on.
    COMPARED = (
        "ok", "error", "xml", "calls_made", "mode_used",
        "cache_hits", "cache_misses", "degraded",
    )


@dataclass(frozen=True)
class Disagreement:
    """One observed divergence, addressable enough to triage."""

    kind: str  # "word" or "document"
    seed: int
    config: str  # configuration (or solver) that diverged
    aspect: str  # which compared field / which verdict
    expected: str
    got: str

    def __str__(self) -> str:
        return "%s scenario %d: %s disagrees on %s (expected %s, got %s)" % (
            self.kind, self.seed, self.config, self.aspect,
            self.expected, self.got,
        )


@dataclass
class DifferentialReport:
    """Aggregate result of a fuzzing run."""

    scenarios: int = 0
    word_scenarios: int = 0
    document_scenarios: int = 0
    edit_scenarios: int = 0
    edit_passes_compared: int = 0
    exact_reference_checks: int = 0
    disagreements: List[Disagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def merge_scenario(self, kind: str,
                       found: Sequence[Disagreement]) -> None:
        self.scenarios += 1
        if kind == "word":
            self.word_scenarios += 1
        elif kind == "edits":
            self.edit_scenarios += 1
        else:
            self.document_scenarios += 1
        self.disagreements.extend(found)

    def summary(self) -> str:
        text = (
            "%d scenario(s): %d word (%d exact reference checks), "
            "%d document; %d disagreement(s)"
            % (
                self.scenarios, self.word_scenarios,
                self.exact_reference_checks, self.document_scenarios,
                len(self.disagreements),
            )
        )
        if self.edit_scenarios:
            text += ", %d edit (%d incremental passes compared)" % (
                self.edit_scenarios, self.edit_passes_compared,
            )
        return text


# ---------------------------------------------------------------------------
# Word-level differential: solvers vs. the reference interpreter
# ---------------------------------------------------------------------------


def run_word_scenario(
    scenario: WordScenario, invert_reference: bool = False
) -> Tuple[List[Disagreement], bool]:
    """Check every word-level solver against the executable spec.

    Returns ``(disagreements, exact)`` — ``exact`` reports whether the
    reference verdicts were exhaustive (they are, for fuzzed scenarios,
    whose output types are star-free by construction).
    ``invert_reference`` flips the spec's verdict for harness
    self-tests.
    """
    word, outputs, target, k = (
        scenario.word, scenario.output_types, scenario.target, scenario.k,
    )
    found: List[Disagreement] = []

    def note(config: str, aspect: str, expected, got) -> None:
        found.append(Disagreement(
            "word", scenario.seed, config, aspect, str(expected), str(got),
        ))

    ref_safe = reference_safe(word, outputs, target, k)
    ref_possible = reference_possible(word, outputs, target, k)
    exact = ref_safe.exact and ref_possible.exact
    expected_safe = ref_safe.exists ^ invert_reference
    expected_possible = ref_possible.exists ^ invert_reference

    eager = analyze_safe(word, outputs, target, k).exists
    lazy = analyze_safe_lazy(word, outputs, target, k).exists
    possible = analyze_possible(word, outputs, target, k).exists

    if eager != lazy:
        note("lazy-game", "safe verdict vs eager", eager, lazy)
    if exact:
        if eager != expected_safe:
            note("safe-solver", "safe verdict vs reference",
                 expected_safe, eager)
        if possible != expected_possible:
            note("possible-solver", "possible verdict vs reference",
                 expected_possible, possible)
    if eager and not possible:
        note("possible-solver", "safe implies possible", True, False)
    return found, exact


# ---------------------------------------------------------------------------
# Document-level differential: the engine configuration matrix
# ---------------------------------------------------------------------------


def _flaky_invoker(invoker, seed: int, period: int):
    """Deterministic, order-independent fault injection.

    Roughly one call fingerprint in ``period`` fails its first attempt
    with a transient fault; retries succeed.  Keyed on the fingerprint
    (not an invocation counter) so concurrent and sequential runs inject
    the same faults.
    """
    from repro.exec.fingerprint import call_fingerprint

    failed = set()
    lock = threading.Lock()

    def wrapped(fc):
        fingerprint = call_fingerprint(fc)
        digest = hashlib.sha256(
            ("flaky|%d|%s" % (seed, fingerprint)).encode("utf-8")
        ).hexdigest()
        if int(digest, 16) % period == 0:
            with lock:
                fresh = fingerprint not in failed
                failed.add(fingerprint)
            if fresh:
                raise TransientFault(
                    "injected fault for %s" % fingerprint[:40]
                )
        return invoker(fc)

    return wrapped


def run_config(
    scenario: DocumentScenario, config: EngineConfig
) -> ConfigOutcome:
    """Execute one scenario under one engine configuration."""
    engine = RewriteEngine(
        target_schema=scenario.exchange_schema,
        sender_schema=scenario.sender_schema,
        k=scenario.k,
        mode=scenario.mode,
        lazy=config.lazy,
        workers=config.workers,
        dedup=True,
        compile_cache=_compile_cache_for(config),
    )
    invoker = sampling_invoker(scenario.sender_schema, scenario.invoker_seed)
    if config.resilient:
        if scenario.flaky_period:
            invoker = _flaky_invoker(
                invoker, scenario.invoker_seed, scenario.flaky_period
            )
        invoker = ResilientInvoker(
            invoker,
            ResiliencePolicy(
                max_attempts=scenario.retries + 1,
                jitter_seed=scenario.invoker_seed,
            ),
        )

    outcome = ConfigOutcome(config=config.name, ok=False)
    if config.streamed:
        return _run_streamed(scenario, config, engine, invoker, outcome)
    try:
        if config.observed:
            with observing(Tracer(), MetricsRegistry()):
                result = engine.rewrite(scenario.document, invoker)
        else:
            result = engine.rewrite(scenario.document, invoker)
    except ReproError as error:
        outcome.error = "%s: %s" % (type(error).__name__, error)
        outcome.cache_hits, outcome.cache_misses = engine.cache_stats
        return outcome
    outcome.ok = True
    outcome.document = result.document
    outcome.xml = result.document.to_xml()
    outcome.calls_made = result.calls_made
    outcome.mode_used = result.mode_used
    outcome.cache_hits = result.cache_hits
    outcome.cache_misses = result.cache_misses
    outcome.degraded = result.degraded_functions
    if config.mutate:
        outcome.xml = (outcome.xml or "") + "<!-- mutated -->"
    return outcome


def round_trip_disagreements(
    seed: int, outcome: ConfigOutcome
) -> List[Disagreement]:
    """An enforced output in wire normal form must parse back to the same
    tree and re-serialize to the same bytes.  Outputs outside that form
    (text among siblings, blank or padded text) are not expected to, and
    are skipped: the gateway checks their parsed bytes instead."""
    if not outcome.ok or not is_wire_normal(outcome.document.root):
        return []
    try:
        reparsed = Document.from_xml(outcome.xml)
    except ReproError as error:
        got = "%s: %s" % (type(error).__name__, error)
    else:
        got = (
            reparsed.to_xml() if reparsed.root == outcome.document.root
            else "the parsed tree differs"
        )
    if got == outcome.xml:
        return []
    return [Disagreement(
        "document", seed, "round-trip", "xml",
        _excerpt(outcome.xml), _excerpt(got),
    )]


def _run_streamed(
    scenario: DocumentScenario,
    config: EngineConfig,
    engine: RewriteEngine,
    invoker,
    outcome: ConfigOutcome,
) -> ConfigOutcome:
    """The streaming pipeline on the scenario's serialized document.

    The document is round-tripped through its XML bytes (streaming has
    no DOM to start from), enforced as elements close and re-emitted
    incrementally; the collected emission is compared byte-for-byte
    against the DOM result.
    """
    from repro.stream.enforce import stream_rewrite

    chunks: List[str] = []
    try:
        result = stream_rewrite(
            engine, scenario.document.to_xml(), invoker, chunks.append
        )
    except ReproError as error:
        outcome.error = "%s: %s" % (type(error).__name__, error)
        outcome.cache_hits, outcome.cache_misses = engine.cache_stats
        return outcome
    outcome.ok = True
    outcome.xml = "".join(chunks)
    outcome.calls_made = result.calls_made
    outcome.mode_used = result.mode_used
    outcome.cache_hits = result.cache_hits
    outcome.cache_misses = result.cache_misses
    outcome.degraded = result.degraded_functions
    if config.mutate:
        outcome.xml = (outcome.xml or "") + "<!-- mutated -->"
    return outcome


def run_document_scenario(
    scenario: DocumentScenario,
    matrix: Sequence[EngineConfig] = DEFAULT_MATRIX,
) -> List[Disagreement]:
    """Run the configuration matrix and compare everything to baseline."""
    configs = [
        config for config in matrix
        if not (config.streamed and scenario.mode == "possible")
    ]
    outcomes = [run_config(scenario, config) for config in configs]
    baseline, variants = outcomes[0], outcomes[1:]
    found = round_trip_disagreements(scenario.seed, baseline)
    for config, variant in zip(configs[1:], variants):
        aspects = ConfigOutcome.COMPARED
        if config.streamed and not baseline.ok and not variant.ok:
            # Streaming checks children words post-order (at close time)
            # while the DOM walk is top-down, so on documents with several
            # independent violations a different one may surface first —
            # and the error-path cache accounting is order-dependent.
            # Both paths must still agree that the document is rejected.
            aspects = ("ok",)
        for aspect in aspects:
            expected = getattr(baseline, aspect)
            got = getattr(variant, aspect)
            if expected != got:
                found.append(Disagreement(
                    "document", scenario.seed, variant.config, aspect,
                    _excerpt(expected), _excerpt(got),
                ))
    return found


def _excerpt(value, limit: int = 120) -> str:
    text = repr(value)
    if len(text) > limit:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:10]
        text = "%s... [%d chars, sha %s]" % (text[:limit], len(text), digest)
    return text


# ---------------------------------------------------------------------------
# Edit-script differential: incremental sessions vs. full re-enforcement
# ---------------------------------------------------------------------------


def _edit_invoker(scenario: DocumentScenario, config: EngineConfig):
    """A fresh invoker stack for one enforcement run under ``config``.

    Per-call-seeded sampling plus, for the resilient configuration, the
    fingerprint-keyed fault injection and the retrying wrapper — built
    fresh per run so the session and every full reference pass observe
    identical service behavior.
    """
    invoker = sampling_invoker(scenario.sender_schema, scenario.invoker_seed)
    if config.resilient:
        if scenario.flaky_period:
            invoker = _flaky_invoker(
                invoker, scenario.invoker_seed, scenario.flaky_period
            )
        invoker = ResilientInvoker(
            invoker,
            ResiliencePolicy(
                max_attempts=scenario.retries + 1,
                jitter_seed=scenario.invoker_seed,
            ),
        )
    return invoker


def run_edit_config(
    scenario: EditScenario, config: EngineConfig
) -> Tuple[List[Disagreement], List[dict]]:
    """Drive one incremental session through the scenario's scripts.

    After every pass (initial enforcement, then one per applied script)
    the session's receipt is compared field-by-field against a fresh
    full enforcement of the *same* source document with a fresh invoker
    — the incremental-vs-full oracle.  Returns the disagreements and the
    receipt sequence (for cross-configuration comparison).
    """
    from repro.axml.enforcement import SchemaEnforcer
    from repro.compile import CompilationCache
    from repro.incremental import EditError, full_receipt

    base = scenario.base

    def enforcer() -> SchemaEnforcer:
        return SchemaEnforcer(
            target_schema=base.exchange_schema,
            sender_schema=base.sender_schema,
            k=base.k,
            mode=base.mode,
            lazy=config.lazy,
            workers=config.workers,
            dedup=True,
            compile_cache=CompilationCache(),
        )

    found: List[Disagreement] = []
    receipts: List[dict] = []

    def note(aspect: str, expected, got) -> None:
        found.append(Disagreement(
            "edits", scenario.seed, config.name, aspect,
            _excerpt(expected), _excerpt(got),
        ))

    def drive() -> None:
        session = enforcer().session(
            base.document, _edit_invoker(base, config)
        )
        steps = [("initial", None)] + [
            ("script-%d" % index, script)
            for index, script in enumerate(scenario.scripts, 1)
        ]
        for label, script in steps:
            if script is None:
                outcome = session.enforce()
            else:
                try:
                    outcome = session.apply(script)
                except EditError:
                    # Rejected atomically (config-independent: rejection
                    # is a pure tree-shape decision) — no pass happened.
                    continue
            incremental = outcome.receipt()
            if config.mutate:
                incremental = dict(
                    incremental,
                    xml=(incremental["xml"] or "") + "<!-- mutated -->",
                )
            reference = full_receipt(
                enforcer().enforce_document(
                    session.document, _edit_invoker(base, config)
                )
            )
            for aspect in sorted(incremental):
                if incremental[aspect] != reference[aspect]:
                    note(
                        "%s:%s" % (label, aspect),
                        reference[aspect], incremental[aspect],
                    )
            receipts.append(incremental)

    if config.observed:
        with observing(Tracer(), MetricsRegistry()):
            drive()
    else:
        drive()
    return found, receipts


def run_edit_scenario(
    scenario: EditScenario,
    matrix: Sequence[EngineConfig] = EDIT_MATRIX,
    report: Optional[DifferentialReport] = None,
) -> List[Disagreement]:
    """The full edit oracle: within-config incremental-vs-full, plus
    cross-config agreement of the receipt sequences against baseline."""
    found: List[Disagreement] = []
    sequences: List[Tuple[str, List[dict]]] = []
    for config in matrix:
        config_found, receipts = run_edit_config(scenario, config)
        found.extend(config_found)
        sequences.append((config.name, receipts))
        if report is not None:
            report.edit_passes_compared += len(receipts)
    _, baseline = sequences[0]
    for name, receipts in sequences[1:]:
        if len(receipts) != len(baseline):
            found.append(Disagreement(
                "edits", scenario.seed, name, "pass count",
                str(len(baseline)), str(len(receipts)),
            ))
            continue
        for index, (expected, got) in enumerate(zip(baseline, receipts)):
            for aspect in sorted(expected):
                if expected[aspect] != got[aspect]:
                    found.append(Disagreement(
                        "edits", scenario.seed, name,
                        "pass %d vs baseline: %s" % (index, aspect),
                        _excerpt(expected[aspect]), _excerpt(got[aspect]),
                    ))
    return found


# ---------------------------------------------------------------------------
# Seed-driven entry points (used by the CLI and the corpus replayer)
# ---------------------------------------------------------------------------


def run_seed(
    seed: int,
    kind: str = "all",
    matrix: Sequence[EngineConfig] = DEFAULT_MATRIX,
    invert_reference: bool = False,
    report: Optional[DifferentialReport] = None,
) -> DifferentialReport:
    """Fuzz and differentially execute one seed; accumulate into a report.

    ``kind`` selects the scenario family: ``"word"``, ``"document"``,
    ``"all"`` (both), or ``"edits"`` — the incremental-enforcement
    oracle, which runs over :data:`EDIT_MATRIX` regardless of
    ``matrix`` (its configurations are enforcement-level, not
    engine-level).
    """
    report = report if report is not None else DifferentialReport()
    if kind in ("word", "all"):
        scenario = fuzz_word_scenario(seed)
        found, exact = run_word_scenario(scenario, invert_reference)
        if exact:
            report.exact_reference_checks += 1
        report.merge_scenario("word", found)
    if kind in ("document", "all"):
        scenario = fuzz_document_scenario(seed)
        report.merge_scenario(
            "document", run_document_scenario(scenario, matrix)
        )
    if kind == "edits":
        edit_matrix = (
            EDIT_SELF_TEST_MATRIX if invert_reference else EDIT_MATRIX
        )
        scenario = fuzz_edit_scenario(seed)
        report.merge_scenario(
            "edits", run_edit_scenario(scenario, edit_matrix, report)
        )
    return report
