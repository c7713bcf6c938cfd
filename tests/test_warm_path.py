"""The warm enforcement path: lookup-only words and one compiled sampler.

- a solved safe analysis without a signature copy leaves its children
  unchanged, so the engine may skip the executor's walk;
- a warm pass walks only words that hold an invocable call and hashes
  no word;
- the shared per-call sampler answers exactly like a fresh
  :class:`~repro.schema.generator.InstanceGenerator` per call, from any
  number of threads.
"""

from __future__ import annotations

import importlib
import random
import sys
import threading

import pytest

from repro.automata.symbols import DATA
from repro.compile.cache import CompilationCache
from repro.conformance.fuzzer import fuzz_document_scenario
from repro.doc.nodes import Element, FunctionCall, Text, symbol_of
from repro.errors import ReproError
from repro.exec.fingerprint import call_fingerprint
from repro.rewriting.engine import RewriteEngine
from repro.rewriting.safe import SafeAnalysis, execute_safe
from repro.schema.generator import InstanceGenerator
from repro.services.responders import sampling_invoker
from repro.workloads import newspaper

# ``repro.compile`` re-exports a ``cache`` function over its submodule.
compile_cache_module = importlib.import_module("repro.compile.cache")
digest_module = importlib.import_module("repro.compile.digest")
engine_module = importlib.import_module("repro.rewriting.engine")

FUZZ_SEEDS = range(40)


def _refuse(call):
    raise AssertionError("a copy-free word invoked %r" % call.name)


def _safe_analyses(engine):
    return [
        analysis for analysis in engine._analysis_cache.values()
        if isinstance(analysis, SafeAnalysis)
    ]


def _children_for(engine, word):
    """Nodes spelling ``word`` (the executor reads only symbols and
    whether a node is a call)."""
    return tuple(
        Text("v") if symbol == DATA
        else FunctionCall(symbol) if engine._signature(symbol) is not None
        else Element(symbol)
        for symbol in word
    )


def _engines():
    """Engines that enforced the fuzzer's scenarios and a newspaper."""
    for seed in FUZZ_SEEDS:
        scenario = fuzz_document_scenario(seed)
        if scenario.mode == "possible":
            continue
        engine = RewriteEngine(
            target_schema=scenario.exchange_schema,
            sender_schema=scenario.sender_schema,
            k=scenario.k,
            mode=scenario.mode,
            workers=1,
            compile_cache=CompilationCache(),
        )
        invoker = sampling_invoker(
            scenario.sender_schema, scenario.invoker_seed
        )
        try:
            engine.rewrite(scenario.document, invoker)
        except ReproError:
            pass  # rejected documents still leave solved analyses behind
        yield engine
    engine = RewriteEngine(
        target_schema=newspaper.wide_schema_star2(6),
        sender_schema=newspaper.wide_schema_star(6),
        workers=1,
        compile_cache=CompilationCache(),
    )
    engine.rewrite(
        newspaper.wide_document(6),
        sampling_invoker(newspaper.wide_schema_star(6), 3),
    )
    yield engine


class TestWalkSkip:
    def test_copy_free_analyses_return_their_children(self):
        checked = 0
        for engine in _engines():
            for analysis in _safe_analyses(engine):
                if not analysis.exists or analysis.expansion.copies:
                    continue
                children = _children_for(engine, analysis.word)
                assert tuple(symbol_of(c) for c in children) == analysis.word
                out, log = execute_safe(analysis, children, _refuse)
                assert out == children
                assert all(a is b for a, b in zip(out, children))
                assert len(log) == 0
                checked += 1
        assert checked >= 20


class TestWarmPass:
    def _engine(self):
        return RewriteEngine(
            target_schema=newspaper.wide_schema_star2(6),
            sender_schema=newspaper.wide_schema_star(6),
            workers=1,
            compile_cache=CompilationCache(),
        )

    def test_warm_pass_walks_only_invocable_words_and_hashes_none(
        self, monkeypatch
    ):
        engine = self._engine()
        document = newspaper.wide_document(6)
        invoker = sampling_invoker(newspaper.wide_schema_star(6), 3)
        cold = engine.rewrite(document, invoker)

        walked = []
        digests = []
        real_execute = engine_module.execute_safe
        real_digest = digest_module.word_digest

        def counting_execute(analysis, children, *args, **kwargs):
            walked.append(analysis.word)
            return real_execute(analysis, children, *args, **kwargs)

        def counting_digest(word):
            digests.append(word)
            return real_digest(word)

        monkeypatch.setattr(engine_module, "execute_safe", counting_execute)
        for module in (digest_module, compile_cache_module):
            monkeypatch.setattr(module, "word_digest", counting_digest)

        warm = engine.rewrite(document, invoker)
        assert warm.cache_misses == 0
        assert warm.document.to_xml() == cold.document.to_xml()
        assert digests == []
        assert walked, "the newspaper's Get_Temp words must still be walked"
        for word in walked:
            assert any(
                engine._signature(symbol) is not None
                and engine.policy.is_invocable(symbol)
                for symbol in word
            ), word
        assert len(walked) < warm.words_rewritten


def _fuzz_calls(scenario):
    """Calls to every function of a fuzzer sender schema, plus the
    document's own calls."""
    for index in range(10):
        for name in sorted(scenario.sender_schema.functions):
            yield FunctionCall(name, (Text("p%d" % index),))
    for _path, call in scenario.document.function_nodes():
        yield call


class TestCompiledSampler:
    def test_matches_a_fresh_generator_per_call(self):
        compared = 0
        for seed in range(60):
            scenario = fuzz_document_scenario(seed)
            schema = scenario.sender_schema
            invoker = sampling_invoker(schema, seed)
            for call in _fuzz_calls(scenario):
                rng = random.Random("%s|%s" % (seed, call_fingerprint(call)))
                fresh = tuple(
                    InstanceGenerator(schema, rng, max_depth=4)
                    .output_forest(call.name)
                )
                assert invoker(call) == fresh
                compared += 1
        assert compared >= 1000

    def test_threads_share_one_invoker(self):
        scenario = fuzz_document_scenario(7)
        schema = scenario.sender_schema
        calls = [
            FunctionCall(name, (Text("t%d" % index),))
            for index in range(40)
            for name in sorted(schema.functions)
        ]
        expected = [sampling_invoker(schema, 5)(call) for call in calls]
        shared = sampling_invoker(schema, 5)
        results = [[None] * len(calls) for _ in range(8)]
        errors = []

        def work(slot):
            try:
                order = list(range(len(calls)))
                random.Random(slot).shuffle(order)
                for index in order:
                    results[slot][index] = shared(calls[index])
            except Exception as exc:  # reported below, not swallowed
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(slot,))
                for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for answers in results:
            assert answers == expected

    def test_undeclared_function_is_refused(self):
        scenario = fuzz_document_scenario(3)
        invoker = sampling_invoker(scenario.sender_schema, 1)
        with pytest.raises(ReproError, match="no signature"):
            invoker(FunctionCall("undeclared"))
