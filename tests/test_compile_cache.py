"""The shared compilation cache (:mod:`repro.compile`).

Covers the hash-consing identity (canonical digests, interning), the
memoized minimized pipeline and its language-preservation contract, LRU
eviction, the concurrency story (four worker threads hammering one
cache; stats monotonicity under load), on-disk persistence with
corrupted-file fallback, and the engine-level guarantee that sharing
compiled artifacts never changes results or cache accounting.
"""

from __future__ import annotations

import os
import pickle
import random
import sys
import threading

import pytest

from repro import Document, RewriteEngine, el, is_instance, parse_regex
from repro.automata.dfa import complement, complete, determinize
from repro.automata.glushkov import glushkov_nfa
from repro.automata.ops import language_equal
from repro.automata.symbols import Alphabet, regex_symbols
from repro.axml.enforcement import SchemaEnforcer
from repro.compile import (
    DISABLED,
    CompilationCache,
    NullCompilationCache,
    PersistentStore,
    cache as ambient_cache,
    compiling,
    install,
    key_digest,
    mapping_digest,
    regex_digest,
    symbols_digest,
    uninstall,
    word_digest,
)
from repro.compile import context as compile_context
from repro.doc.builder import call
from repro.errors import FunctionUnavailableError, ReproError
from repro.obs import MetricsRegistry, Tracer, observing
from repro.obs.metrics import work_snapshot
from repro.regex.ast import Atom, Seq
from repro.rewriting.expansion import build_expansion
from repro.rewriting.lazy import analyze_safe_lazy
from repro.rewriting.safe import analyze_safe, problem_alphabet
from repro.schema.model import SchemaBuilder
from repro.schema.patterns import allow_all, allow_only
from repro.workloads import newspaper
from tests.conftest import build_registry

WORD = ("title", "date", "Get_Temp", "TimeOut")


def newspaper_outputs():
    return {
        "Get_Temp": parse_regex("temp"),
        "TimeOut": parse_regex("(exhibit | performance)*"),
        "Get_Date": parse_regex("date"),
    }


def raw_target_dfa(target, alphabet):
    """The pre-cache pipeline: complete but unminimized."""
    return complete(determinize(glushkov_nfa(target), alphabet))


class TestDigests:
    def test_equal_structure_equal_digest(self):
        assert regex_digest(parse_regex("a.(b|c)*")) == regex_digest(
            parse_regex("a.(b|c)*")
        )

    def test_different_structure_different_digest(self):
        assert regex_digest(parse_regex("a.b")) != regex_digest(
            parse_regex("b.a")
        )
        assert regex_digest(parse_regex("a*")) != regex_digest(
            parse_regex("a")
        )

    def test_serialization_is_unambiguous(self):
        # An atom whose name *contains* a separator must not collide
        # with the sequence of its pieces — the length-prefixed
        # encoding guarantees it.
        assert regex_digest(Atom("ab")) != regex_digest(
            Seq((Atom("a"), Atom("b")))
        )

    def test_word_digest_is_order_sensitive(self):
        assert word_digest(("a", "b")) != word_digest(("b", "a"))
        assert word_digest(("ab",)) != word_digest(("a", "b"))

    def test_mapping_digest_is_order_insensitive(self):
        forward = {"f": "d1", "g": "d2"}
        backward = {"g": "d2", "f": "d1"}
        assert mapping_digest(forward) == mapping_digest(backward)

    def test_symbols_digest_is_set_like(self):
        assert symbols_digest(frozenset(["x", "y"])) == symbols_digest(
            ["y", "x"]
        )

    def test_key_digest_is_filename_safe(self):
        digest = key_digest(("comp", regex_digest(parse_regex("a")), "x"))
        assert digest.isalnum()


class TestInterning:
    def test_intern_collapses_equal_regexes(self):
        cc = CompilationCache()
        first, second = parse_regex("a.(b|c)"), parse_regex("a.(b|c)")
        assert first is not second
        assert cc.intern(first) is cc.intern(second)
        assert cc.stats().interned >= 1

    def test_digest_identity_fast_path(self):
        cc = CompilationCache()
        expr = parse_regex("(a|b)*.c")
        assert cc.digest(expr) == cc.digest(expr) == regex_digest(expr)

    def test_equal_copies_are_not_remembered_by_identity(self):
        cc = CompilationCache()
        first = parse_regex("(a|b)*.c")
        assert cc.intern(first) is first
        for _ in range(100):
            assert cc.intern(parse_regex("(a|b)*.c")) is first
        assert len(cc._by_id) == 1

    def test_pattern_schema_enforcements_keep_the_identity_table_bounded(self):
        # A function-pattern target is desugared afresh for every word;
        # the copies must not accumulate in the identity table.
        base = (
            SchemaBuilder().element("title", "data").element("date", "data")
            .element("temp", "data").element("city", "data")
            .element("exhibit", "title.date").root("newspaper")
        )
        sender = (
            base.element(
                "newspaper",
                "title.date.(Get_Temp | temp).(TimeOut | exhibit*)",
            )
            .function("Get_Temp", "city", "temp")
            .function("TimeOut", "data", "exhibit*")
            .build()
        )
        target = (
            SchemaBuilder().element("title", "data").element("date", "data")
            .element("temp", "data").element("city", "data")
            .element("exhibit", "title.date").root("newspaper")
            .element("newspaper", "title.date.(Forecast | temp).exhibit*")
            .pattern("Forecast", "city", "temp", lambda _name: True)
            .build(strict=False)
        )
        cc = CompilationCache()
        document = newspaper.document()

        def invoker(_call):
            return (el("exhibit", el("title", "P"), el("date", "d")),)

        def enforce():
            outcome = SchemaEnforcer(
                target, sender, compile_cache=cc
            ).enforce_document(document, invoker)
            return (outcome.document.to_xml(), outcome.calls_made,
                    outcome.cache_hits, outcome.cache_misses)

        first = enforce()
        assert first[1] == 1
        size = len(cc._by_id)
        for _ in range(999):
            assert enforce() == first
        assert len(cc._by_id) == size

    def test_keys_are_digests(self):
        cc = CompilationCache()
        assert cc.regex_key(parse_regex("a")) == regex_digest(parse_regex("a"))

    def test_null_cache_keys_are_structural(self):
        expr = parse_regex("a")
        assert DISABLED.regex_key(expr) is expr


class TestPipeline:
    def test_artifacts_are_shared_by_content(self):
        cc = CompilationCache()
        target = parse_regex("title.date.temp.exhibit*")
        alphabet = problem_alphabet(WORD, newspaper_outputs(), target)
        assert cc.nfa(target) is cc.nfa(parse_regex("title.date.temp.exhibit*"))
        assert cc.bit_target_dfa(target, alphabet) is cc.bit_target_dfa(
            target, alphabet
        )
        assert cc.bit_complement(target, alphabet) is cc.bit_complement(
            target, alphabet
        )
        stats = cc.stats()
        assert stats.hits >= 3 and stats.misses >= 3

    def test_minimized_pipeline_preserves_language(self):
        cc = CompilationCache()
        for expression in (
            "title.date.temp.(TimeOut | exhibit*)",
            "a.(b|c)*.d",
            "(a|b).(a|b).(a|b)",
            "eps | a.a*",
        ):
            target = parse_regex(expression)
            alphabet = Alphabet.closure(regex_symbols(target))
            raw = raw_target_dfa(target, alphabet)
            minimized = cc.bit_target_dfa(target, alphabet).to_dfa()
            assert language_equal(raw, minimized)
            assert minimized.n_states <= raw.n_states
            assert minimized.is_complete()
            assert language_equal(
                complement(raw), cc.bit_complement(target, alphabet).to_dfa()
            )

    def test_null_cache_same_artifacts_no_sharing(self):
        target = parse_regex("a.b*")
        alphabet = Alphabet.closure(regex_symbols(target))
        one = DISABLED.bit_target_dfa(target, alphabet)
        two = DISABLED.bit_target_dfa(target, alphabet)
        assert one is not two
        assert one == two
        assert DISABLED.stats().lookups == 0
        assert not DISABLED.enabled and not NullCompilationCache().enabled


class TestExpansionMemo:
    def test_expansion_is_shared(self):
        cc = CompilationCache()
        outputs = newspaper_outputs()
        first = build_expansion(WORD, outputs, k=1, compile_cache=cc)
        second = build_expansion(list(WORD), dict(outputs), k=1,
                                 compile_cache=cc)
        assert first is second

    def test_invocable_partition_splits_the_key(self):
        cc = CompilationCache()
        outputs = newspaper_outputs()
        everything = build_expansion(WORD, outputs, k=1, compile_cache=cc)
        restricted = build_expansion(
            WORD, outputs, k=1,
            invocable=lambda name: name != "TimeOut", compile_cache=cc,
        )
        assert everything is not restricted
        assert len(everything.fork_edges()) > len(restricted.fork_edges())

    def test_depth_splits_the_key(self):
        cc = CompilationCache()
        outputs = newspaper_outputs()
        assert build_expansion(WORD, outputs, k=1, compile_cache=cc) is not (
            build_expansion(WORD, outputs, k=2, compile_cache=cc)
        )

    def test_disabled_cache_builds_fresh(self):
        outputs = newspaper_outputs()
        first = build_expansion(WORD, outputs, k=1, compile_cache=DISABLED)
        second = build_expansion(WORD, outputs, k=1, compile_cache=DISABLED)
        assert first is not second
        assert first.size() == second.size()

    def test_analyses_agree_with_disabled_cache(self):
        outputs = newspaper_outputs()
        target = parse_regex("title.date.temp.(TimeOut | exhibit*)")
        shared = CompilationCache()
        for analyze in (analyze_safe, analyze_safe_lazy):
            cold = analyze(WORD, outputs, target, 1, compile_cache=DISABLED)
            warm = analyze(WORD, outputs, target, 1, compile_cache=shared)
            warm2 = analyze(WORD, outputs, target, 1, compile_cache=shared)
            assert cold.exists == warm.exists == warm2.exists is True
            assert [d.action for d in cold.preview_decisions()] == [
                d.action for d in warm.preview_decisions()
            ]


class TestLRU:
    def test_eviction_under_pressure(self):
        cc = CompilationCache(maxsize=4)
        alphabet = Alphabet.closure({"a", "b"})
        for index in range(10):
            cc.bit_target_dfa(parse_regex("a" + ".a" * index), alphabet)
        stats = cc.stats()
        assert stats.entries <= 4
        assert stats.evictions > 0

    def test_evicted_artifacts_recompile_correctly(self):
        cc = CompilationCache(maxsize=2)
        alphabet = Alphabet.closure({"a", "b"})
        target = parse_regex("a.b")
        first = cc.bit_target_dfa(target, alphabet)
        for index in range(6):  # flush the LRU
            cc.bit_target_dfa(parse_regex("b" + ".b" * index), alphabet)
        again = cc.bit_target_dfa(target, alphabet)
        assert first is not again and first == again

    def test_stats_accounting_is_consistent(self):
        cc = CompilationCache(maxsize=8)
        alphabet = Alphabet.closure({"a"})
        for _ in range(3):
            cc.bit_target_dfa(parse_regex("a*"), alphabet)
        stats = cc.stats()
        assert stats.lookups == stats.hits + stats.misses
        assert 0.0 <= stats.hit_rate <= 1.0
        assert "hit" in stats.summary()


class TestThreadSafety:
    WORKERS = 4  # mirrors REPRO_WORKERS=4, the shipped parallel setting

    def test_hammering_one_cache_from_four_threads(self):
        cc = CompilationCache(maxsize=16)  # small: eviction under load
        expressions = [
            parse_regex(text) for text in (
                "a.b*", "(a|b)*", "a.(b|c).d", "d*.a", "b|c|d",
                "(a.b)*", "a|eps", "c.c.c*",
            )
        ]
        alphabet = Alphabet.closure({"a", "b", "c", "d"})
        expected = {
            regex_digest(expr): DISABLED.bit_target_dfa(expr, alphabet).n
            for expr in expressions
        }
        errors = []
        snapshots = []
        stop = threading.Event()

        def sampler():
            while not stop.is_set():
                snapshots.append(cc.stats())

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(150):
                    expr = rng.choice(expressions)
                    dfa = cc.bit_target_dfa(expr, alphabet)
                    # Minimal DFAs are canonical in size: every thread
                    # must see an artifact of the unique minimal shape.
                    if dfa.n != expected[regex_digest(expr)]:
                        raise AssertionError("wrong artifact for %s" % expr)
                    comp = cc.bit_complement(expr, alphabet)
                    if comp.n != dfa.n:
                        raise AssertionError("complement shape changed")
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(self.WORKERS)
        ]
        monitor = threading.Thread(target=sampler)
        monitor.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        monitor.join()
        assert not errors, errors[0]
        stats = cc.stats()
        assert stats.entries <= 16
        assert stats.lookups >= self.WORKERS * 150 * 2
        # Counters only ever grow, even while four threads race.
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert later.hits >= earlier.hits
            assert later.misses >= earlier.misses
            assert later.evictions >= earlier.evictions

    def test_interning_races_converge(self):
        cc = CompilationCache()
        results = [[] for _ in range(self.WORKERS)]

        def worker(slot):
            for index in range(100):
                expr = parse_regex("a.(b|c)*.d")
                results[slot].append(cc.intern(expr))

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(self.WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        interned = {id(obj) for result in results for obj in result}
        assert len(interned) == 1  # one canonical instance, ever


class TestPersistence:
    def _compile_some(self, directory):
        cc = CompilationCache(persist_dir=directory)
        target = parse_regex("title.date.temp.exhibit*")
        alphabet = problem_alphabet(WORD, newspaper_outputs(), target)
        dfa = cc.bit_target_dfa(target, alphabet)
        comp = cc.bit_complement(target, alphabet)
        expansion = build_expansion(WORD, newspaper_outputs(), k=1,
                                    compile_cache=cc)
        return cc, target, alphabet, dfa, comp, expansion

    def test_round_trip_warm_start(self, tmp_path):
        directory = str(tmp_path / "artifacts")
        cc1, target, alphabet, dfa, comp, expansion = self._compile_some(
            directory
        )
        assert cc1.stats().persist_misses > 0  # first run was cold
        store = PersistentStore(directory)
        assert store.entry_count() >= 3

        cc2 = CompilationCache(persist_dir=directory)
        dfa2 = cc2.bit_target_dfa(target, alphabet)
        comp2 = cc2.bit_complement(target, alphabet)
        expansion2 = build_expansion(WORD, newspaper_outputs(), k=1,
                                     compile_cache=cc2)
        assert cc2.stats().persist_hits >= 3
        assert dfa == dfa2
        assert comp == comp2
        assert expansion2.size() == expansion.size()
        assert [e.guard for e in expansion2.edges] == [
            e.guard for e in expansion.edges
        ]

    def test_corrupted_files_fall_back_to_recompilation(self, tmp_path):
        directory = str(tmp_path / "artifacts")
        _cc, target, alphabet, dfa, _comp, _expansion = self._compile_some(
            directory
        )
        for name in os.listdir(directory):
            with open(os.path.join(directory, name), "wb") as handle:
                handle.write(b"\x80garbage, not a pickle")

        cc = CompilationCache(persist_dir=directory)
        recompiled = cc.bit_target_dfa(target, alphabet)
        assert dfa == recompiled
        stats = cc.stats()
        assert stats.persist_errors >= 1
        assert stats.persist_hits == 0

        # The bad file was overwritten with a fresh artifact: the next
        # process warm-starts again.
        cc2 = CompilationCache(persist_dir=directory)
        assert dfa == cc2.bit_target_dfa(target, alphabet)
        assert cc2.stats().persist_hits >= 1

    def test_wrong_version_or_kind_is_corruption(self, tmp_path):
        store = PersistentStore(str(tmp_path))
        assert store.store("digest0", "dfa", {"ok": True})
        assert store.load("digest0", "dfa") == ({"ok": True}, False)
        assert store.load("digest0", "nfa") == (None, True)  # kind mismatch
        with open(os.path.join(str(tmp_path), "digest1.pkl"), "wb") as handle:
            pickle.dump(("repro-compile-cache", 999, "dfa", {}), handle)
        assert store.load("digest1", "dfa") == (None, True)
        assert store.load("missing", "dfa") == (None, False)


class TestSnapshots:
    def _warm_cache(self):
        cc = CompilationCache()
        target = parse_regex("title.date.temp.exhibit*")
        alphabet = problem_alphabet(WORD, newspaper_outputs(), target)
        dfa = cc.bit_target_dfa(target, alphabet)
        comp = cc.bit_complement(target, alphabet)
        return cc, target, alphabet, dfa, comp

    def test_export_import_round_trip(self):
        cc1, target, alphabet, dfa, comp = self._warm_cache()
        blob = cc1.export_snapshot()
        assert isinstance(blob, bytes) and blob

        cc2 = CompilationCache()
        added = cc2.import_snapshot(blob)
        assert added == cc1.stats().entries
        # The imported artifacts serve as hits, not rebuilds.
        assert cc2.bit_target_dfa(target, alphabet) == dfa
        assert cc2.bit_complement(target, alphabet) == comp
        stats = cc2.stats()
        assert stats.hits >= 2 and stats.misses == 0

    def test_existing_entries_win_and_import_is_idempotent(self):
        cc1, target, alphabet, _dfa, _comp = self._warm_cache()
        blob = cc1.export_snapshot()
        assert cc1.import_snapshot(blob) == 0  # everything already there

        cc2 = CompilationCache()
        local = cc2.bit_target_dfa(target, alphabet)
        added = cc2.import_snapshot(blob)
        assert 0 < added < cc1.stats().entries
        assert cc2.bit_target_dfa(target, alphabet) is local

    def test_malformed_blobs_raise_without_touching_store(self):
        cc = CompilationCache()
        for blob in (b"", b"junk", pickle.dumps(("wrong-magic", 1, []))):
            with pytest.raises(ValueError):
                cc.import_snapshot(blob)
        assert cc.stats().entries == 0

    def test_wrong_version_rejected(self):
        from repro.compile.persist import FORMAT_VERSION, dump_snapshot

        cc = CompilationCache()
        blob = pickle.dumps(
            ("repro-compile-snapshot", FORMAT_VERSION + 1, [])
        )
        with pytest.raises(ValueError):
            cc.import_snapshot(blob)
        assert cc.import_snapshot(dump_snapshot([])) == 0

    def test_import_respects_lru_bound(self):
        cc1, _target, _alphabet, _dfa, _comp = self._warm_cache()
        small = CompilationCache(maxsize=1)
        small.import_snapshot(cc1.export_snapshot())
        assert small.stats().entries == 1

    def test_null_cache_round_trip_is_empty(self):
        null = DISABLED
        blob = null.export_snapshot()
        assert null.import_snapshot(blob) == 0
        with pytest.raises(ValueError):
            null.import_snapshot(b"junk")


class TestContext:
    def test_ambient_cache_is_lazy_and_stable(self):
        uninstall()
        try:
            first = ambient_cache()
            assert first.enabled
            assert ambient_cache() is first
        finally:
            uninstall()

    def test_install_and_compiling_scope(self):
        mine = CompilationCache()
        previous = ambient_cache()
        install(mine)
        try:
            assert ambient_cache() is mine
            with compiling(DISABLED) as scoped:
                assert scoped is DISABLED
                assert ambient_cache() is DISABLED
            assert ambient_cache() is mine
        finally:
            install(previous)

    def test_env_off_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "off")
        uninstall()
        try:
            assert ambient_cache() is DISABLED
        finally:
            uninstall()

    def test_env_directory_enables_persistence(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "warm")
        monkeypatch.setenv("REPRO_COMPILE_CACHE", directory)
        monkeypatch.setenv("REPRO_COMPILE_CACHE_SIZE", "7")
        uninstall()
        try:
            cc = ambient_cache()
            assert cc.enabled and cc.maxsize == 7
            assert cc._persist is not None
            assert cc._persist.directory == directory
        finally:
            uninstall()

    def test_env_size_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_CACHE_SIZE", "not-a-number")
        uninstall()
        try:
            assert ambient_cache().maxsize == compile_context.DEFAULT_MAXSIZE
        finally:
            uninstall()


def wide_newspaper(n_exhibits):
    exhibits = [
        el("exhibit", el("title", "t%d" % index),
           call("Get_Date", el("title", "t%d" % index)))
        for index in range(n_exhibits)
    ]
    return Document(
        el("newspaper", el("title", "x"), el("date", "d"),
           el("temp", "21"), *exhibits)
    )


class TestEngineIntegration:
    """Sharing artifacts must never change results or accounting."""

    def _run(self, compile_cache, workers=1):
        engine = RewriteEngine(
            newspaper.schema_star3(), newspaper.schema_star(), k=1,
            workers=workers, compile_cache=compile_cache,
        )
        result = engine.rewrite(
            wide_newspaper(12), build_registry().make_invoker()
        )
        assert is_instance(
            result.document, newspaper.schema_star3(), newspaper.schema_star()
        )
        return (
            result.document.to_xml(), result.calls_made, result.mode_used,
            result.cache_hits, result.cache_misses, engine.cache_stats,
        )

    def test_shared_vs_cold_vs_parallel_identical(self):
        shared = CompilationCache()
        cold = self._run(DISABLED)
        warm = self._run(shared)
        rewarm = self._run(shared)  # second engine, same artifacts
        parallel = self._run(shared, workers=4)
        assert cold == warm == rewarm == parallel
        assert shared.stats().hits > 0

    def test_shared_cache_actually_avoids_compiles(self):
        shared = CompilationCache()
        self._run(shared)
        misses_after_first = shared.stats().misses
        self._run(shared)
        # The second engine compiled nothing new.
        assert shared.stats().misses == misses_after_first

    def test_enforcer_forwards_the_cache(self):
        from repro.axml.enforcement import SchemaEnforcer

        shared = CompilationCache()
        enforcer = SchemaEnforcer(
            newspaper.schema_star2(), newspaper.schema_star(), k=1,
            compile_cache=shared,
        )
        outcome = enforcer.enforce_document(
            newspaper.document(), build_registry().make_invoker()
        )
        assert outcome.ok
        assert not outcome.already_conformant
        assert shared.stats().lookups > 0

    def test_compat_check_uses_the_cache(self):
        from repro.schemarewrite import schema_safely_rewrites

        shared = CompilationCache()
        report = schema_safely_rewrites(
            newspaper.schema_star(), newspaper.schema_star2(),
            compile_cache=shared,
        )
        assert report.compatible
        assert shared.stats().lookups > 0


# ---------------------------------------------------------------------------
# The shared analysis store
# ---------------------------------------------------------------------------


def _observed(run):
    """``run()`` under a fresh tracer and registry: its result, the game
    stage's product nodes, and the finished spans."""
    tracer, registry = Tracer(), MetricsRegistry()
    with observing(tracer, registry):
        result = run()
    product_nodes = sum(
        amount for sample, amount in work_snapshot(registry).items()
        if 'stage="game"' in sample and 'counter="product_nodes"' in sample
    )
    return result, product_nodes, tracer.finished()


def _enforce(cc):
    """One newspaper pass through a fresh enforcer on ``cc``: the output
    and the receipt's counters."""
    enforcer = SchemaEnforcer(
        newspaper.schema_star2(), newspaper.schema_star(), k=1, workers=1,
        compile_cache=cc,
    )
    outcome = enforcer.enforce_document(
        newspaper.document(), build_registry().make_invoker()
    )
    assert outcome.ok and not outcome.already_conformant
    return (outcome.document.to_xml(), outcome.calls_made,
            outcome.cache_hits, outcome.cache_misses)


def _rewrite(cc, workers=1, cache=True):
    engine = RewriteEngine(
        newspaper.schema_star3(), newspaper.schema_star(), k=1,
        workers=workers, cache=cache, compile_cache=cc,
    )
    result = engine.rewrite(
        wide_newspaper(12), build_registry().make_invoker()
    )
    return (result.document.to_xml(), result.calls_made,
            result.product_nodes, result.cache_hits, result.cache_misses)


def _tiny_schema(root, outputs):
    builder = SchemaBuilder().element("r", root).element("a", "data")
    for name, output in outputs.items():
        builder.function(name, "data?", output)
    return builder.root("r").build()


#: What each tiny function answers, by its output type.
_ANSWERS = {
    "a": lambda: (el("a", "1"),),
    "a.a": lambda: (el("a", "1"), el("a", "2")),
    "a.g": lambda: (el("a", "1"), call("g")),
}


def _tiny(cc, root="a.a", outputs=None, sender=None, k=1, policy=None,
          lazy=True, mode="safe", word=("f",), dead=()):
    """Rewrite ``r[word]`` over a two-label schema; what the engine gives
    (output and counters, or the error)."""
    outputs = outputs or {"f": "a.a", "g": "a", "h": "a"}
    answered = sender or outputs
    engine = RewriteEngine(
        _tiny_schema(root, outputs),
        _tiny_schema("a*", sender) if sender else None,
        k=k, mode=mode, policy=policy or allow_all(), lazy=lazy, workers=1,
        compile_cache=cc,
    )

    def invoke(fc):
        if fc.name in dead:
            raise FunctionUnavailableError(fc.name)
        return _ANSWERS[answered[fc.name]]()

    document = Document(el("r", *[call(name) for name in word]))
    try:
        result = engine.rewrite(document, invoke)
    except ReproError as error:
        return type(error).__name__, str(error)
    return (result.document.to_xml(), result.calls_made, result.product_nodes,
            result.mode_used, result.degraded_functions, result.cache_hits,
            result.cache_misses)


#: Pairs of engines that differ in one input of the analysis key.
_KEY_CASES = {
    "k": ({"outputs": {"f": "a.g", "g": "a"}, "k": 1},
          {"outputs": {"f": "a.g", "g": "a"}, "k": 2}),
    "sender-output-type": ({"sender": {"f": "a.a"}},
                           {"sender": {"f": "a"}}),
    "policy": ({}, {"policy": allow_only(("g",))}),
    "dead-function": (
        {"root": "a.h | f.a", "outputs": {"f": "a", "h": "a"},
         "mode": "auto", "word": ("f", "h")},
        {"root": "a.h | f.a", "outputs": {"f": "a", "h": "a"},
         "mode": "auto", "word": ("f", "h"), "dead": ("h",)},
    ),
    "lazy": ({"root": "a.a.a", "word": ("f", "g"), "lazy": True},
             {"root": "a.a.a", "word": ("f", "g"), "lazy": False}),
    "target": ({"root": "a.a"}, {"root": "f | a.a"}),
}


class TestAnalysisStore:
    """Solved analyses are shared through the cache, never mixed up."""

    def test_second_pass_solves_nothing(self):
        cc = CompilationCache()
        first, first_work, first_spans = _observed(lambda: _enforce(cc))
        second, second_work, spans = _observed(lambda: _enforce(cc))
        assert first_work > 0
        assert second_work == 0
        names = [span.name for span in spans]
        assert "product" not in names and "game" not in names
        assert second == first
        assert first[3] > 0  # each pass counts its own misses
        for trace, outcome in ((first_spans, "miss"), (spans, "shared")):
            assert {
                span.attributes["cache"] for span in trace
                if span.name == "analysis"
            } == {outcome}

    @pytest.mark.parametrize("case", sorted(_KEY_CASES))
    def test_key_separates_every_input(self, case):
        one, two = _KEY_CASES[case]
        expected = (_tiny(DISABLED, **one), _tiny(DISABLED, **two))
        assert expected[0] != expected[1]  # the input matters
        for order in ((one, two), (two, one)):
            cc = CompilationCache()
            got = tuple(_tiny(cc, **options) for options in order)
            if order[0] is two:
                got = got[::-1]
            assert got == expected

    def test_threads_share_one_store(self):
        configs = [options for pair in _KEY_CASES.values() for options in pair]
        expected = [_tiny(DISABLED, **options) for options in configs]
        cc = CompilationCache(maxsize=8)  # small: eviction under load
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(40):
                    index = rng.randrange(len(configs))
                    if _tiny(cc, **configs[index]) != expected[index]:
                        raise AssertionError("wrong analysis: %r"
                                             % (configs[index],))
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]

    def test_planning_clone_shares_solved_games(self):
        sequential, sequential_work, _ = _observed(
            lambda: _rewrite(CompilationCache(), workers=1)
        )
        parallel, parallel_work, _ = _observed(
            lambda: _rewrite(CompilationCache(), workers=4)
        )
        assert sequential_work > 0
        assert parallel_work == sequential_work
        assert parallel == sequential

    def test_persisted_analyses_warm_start_a_fresh_cache(self, tmp_path):
        directory = str(tmp_path / "artifacts")
        first, first_work, _ = _observed(
            lambda: _enforce(CompilationCache(persist_dir=directory))
        )
        cc = CompilationCache(persist_dir=directory)
        second, second_work, _ = _observed(lambda: _enforce(cc))
        assert first_work > 0 and second_work == 0
        assert second == first
        assert cc.stats().persist_hits > 0
        assert cc.stats().persist_errors == 0

    def test_snapshot_carries_analyses(self):
        warm = CompilationCache()
        first = _enforce(warm)
        cc = CompilationCache()
        cc.import_snapshot(warm.export_snapshot())
        second, work, _ = _observed(lambda: _enforce(cc))
        assert work == 0
        assert second == first

    def test_corrupt_analysis_record_is_rebuilt(self, tmp_path):
        directory = str(tmp_path / "artifacts")
        first = _enforce(CompilationCache(persist_dir=directory))
        corrupted = 0
        for name in os.listdir(directory):
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                record = pickle.load(handle)
            if record[2] == "analysis":
                with open(path, "wb") as handle:
                    handle.write(b"\x80garbage, not a pickle")
                corrupted += 1
        assert corrupted > 0
        cc = CompilationCache(persist_dir=directory)
        second, work, _ = _observed(lambda: _enforce(cc))
        assert work > 0
        assert second == first
        assert cc.stats().persist_errors == corrupted

    def test_disabled_cache_solves_every_pass(self):
        passes = [_observed(lambda: _enforce(DISABLED)) for _ in range(2)]
        assert passes[0][1] > 0
        assert passes[0][:2] == passes[1][:2]

    def test_engines_without_memo_skip_the_store(self):
        cc = CompilationCache()
        passes = [
            _observed(lambda: _rewrite(cc, cache=False)) for _ in range(2)
        ]
        assert passes[0][1] > 0
        assert passes[0][:2] == passes[1][:2]
        assert not any(key[0] == "analysis" for key in cc._store)
