"""Unit tests for the conformance subsystem itself.

The harness guards the whole stack, so it gets its own direct coverage:
the reference interpreter's verdicts and exactness flags, fuzzer
determinism, the differential matrix contract (including the mutant
self-test member), corpus serialization round-trips and shrinking.
"""

from __future__ import annotations

import re

import pytest

from repro.conformance.corpus import (
    document_entry,
    document_scenario_from_entry,
    regex_source,
    schema_from_dict,
    schema_to_dict,
    shrink_document_scenario,
    shrink_word_scenario,
    word_entry,
    word_scenario_from_entry,
)
from repro.conformance.differential import (
    DEFAULT_MATRIX,
    SELF_TEST_MATRIX,
    run_config,
    round_trip_disagreements,
    run_document_scenario,
    run_seed,
    run_word_scenario,
)
from repro.conformance.fuzzer import (
    DocumentScenario,
    WordScenario,
    fuzz_document_scenario,
    fuzz_word_scenario,
)
from repro.conformance.reference import (
    output_language_bound,
    reference_can_rewrite,
    reference_possible,
    reference_safe,
)
from repro.regex.parser import parse_regex
from repro.services.responders import sampling_invoker
from repro.workloads import newspaper


def _scenario(word, outputs, target, k=1):
    return (
        tuple(word.split(".")) if word else (),
        {name: parse_regex(src) for name, src in outputs.items()},
        parse_regex(target),
        k,
    )


class TestReferenceInterpreter:
    def test_paper_running_example_star2_is_safe(self):
        word, outputs, target, k = _scenario(
            "title.date.Get_Temp.TimeOut",
            {"Get_Temp": "temp", "TimeOut": "(exhibit | performance)*"},
            "title.date.temp.(TimeOut | exhibit*)",
        )
        verdict = reference_safe(word, outputs, target, k)
        assert verdict.exists
        # The winning strategy keeps TimeOut, so its starred output type
        # is never enumerated and the verdict stays exact.
        assert verdict.exact

    def test_paper_running_example_star3_possible_not_safe(self):
        word, outputs, target, k = _scenario(
            "title.date.Get_Temp.TimeOut",
            {"Get_Temp": "temp", "TimeOut": "(exhibit | performance)*"},
            "title.date.temp.exhibit*",
        )
        assert not reference_safe(word, outputs, target, k).exists
        assert reference_possible(word, outputs, target, k).exists

    def test_knowledge_flows_left_to_right(self):
        # f's output is known before g's keep/invoke decision: invoke g
        # after seeing "a", keep it after seeing "b" — adaptively safe.
        early = _scenario(
            "f.g", {"f": "(a | b)", "g": "c"}, "(a.c | b.g)"
        )
        assert reference_safe(*early).exists
        # Mirror image: f's keep/invoke decision comes *before* g
        # reveals anything — not safe, though luck can still strike.
        late = _scenario(
            "f.g", {"f": "c", "g": "(a | b)"}, "(c.a | f.b)"
        )
        assert not reference_safe(*late).exists
        assert reference_possible(*late).exists

    def test_depth_bound_definition_7(self):
        nested = ("f",), {"f": parse_regex("g"),
                          "g": parse_regex("a")}, parse_regex("a")
        assert not reference_safe(*nested, 1).exists
        assert reference_safe(*nested, 2).exists

    def test_empty_output_language_wins_vacuously(self):
        word, outputs, target, k = _scenario(
            "f", {"f": "empty"}, "b?"
        )
        # Invoking f admits no runs at all, so safety holds vacuously —
        # same convention as the marking game.
        assert reference_safe(word, outputs, target, k).exists

    def test_exactness_flag_on_star_free_outputs(self):
        word, outputs, target, k = _scenario(
            "f", {"f": "(a | b.c)"}, "(a | b.c)"
        )
        verdict = reference_safe(word, outputs, target, k)
        assert verdict.exists and verdict.exact

    def test_invocable_filter_freezes_calls(self):
        word, outputs, target, k = _scenario("f", {"f": "a"}, "a")
        assert reference_safe(word, outputs, target, k).exists
        frozen = reference_safe(
            word, outputs, target, k, invocable=lambda name: False
        )
        assert not frozen.exists

    def test_output_language_bound(self):
        assert output_language_bound(parse_regex("a.b?")) == 2
        assert output_language_bound(parse_regex("(a | b.c.d)")) == 3
        assert output_language_bound(parse_regex("a*")) is None
        assert output_language_bound(parse_regex("a{1,3}")) == 3
        assert output_language_bound(parse_regex("eps")) == 0

    def test_document_level_against_engine(self):
        from repro.rewriting.engine import RewriteEngine

        doc = newspaper.document()
        for schema, expected in (
            (newspaper.schema_star2(), True),
            (newspaper.schema_star3(), False),
        ):
            verdict = reference_can_rewrite(doc, schema, k=1, mode="safe")
            engine = RewriteEngine(schema, k=1, mode="safe")
            assert engine.can_rewrite(doc) is verdict.exists
            assert verdict.exists is expected


class TestFuzzer:
    def test_word_scenarios_are_deterministic(self):
        assert fuzz_word_scenario(7) == fuzz_word_scenario(7)
        assert fuzz_word_scenario(7) != fuzz_word_scenario(8)

    def test_document_scenarios_are_deterministic(self):
        first, second = fuzz_document_scenario(7), fuzz_document_scenario(7)
        assert first.document.to_xml() == second.document.to_xml()
        assert schema_to_dict(first.sender_schema) == schema_to_dict(
            second.sender_schema
        )
        assert (first.k, first.mode, first.flaky_period) == (
            second.k, second.mode, second.flaky_period
        )

    def test_word_outputs_are_star_free(self):
        for seed in range(50):
            scenario = fuzz_word_scenario(seed)
            for expr in scenario.output_types.values():
                assert output_language_bound(expr) is not None, seed

    def test_sampling_invoker_is_order_independent(self):
        scenario = fuzz_document_scenario(11)
        invoker = sampling_invoker(scenario.sender_schema, 42)
        calls = [fc for _p, fc in scenario.document.function_nodes()]
        if not calls:
            pytest.skip("seed 11 generated no embedded calls")
        forward = [invoker(fc) for fc in calls]
        backward = [invoker(fc) for fc in reversed(calls)]
        assert forward == list(reversed(backward))


class TestDifferentialRunner:
    def test_matrix_has_expected_members(self):
        assert [config.name for config in DEFAULT_MATRIX] == [
            "baseline", "workers-4", "eager-game", "traced", "resilient",
            "shared-cache", "streamed",
        ]
        assert SELF_TEST_MATRIX[-1].name == "mutant"

    def test_mutant_is_the_only_divergence(self):
        scenario = fuzz_document_scenario(1)
        found = run_document_scenario(scenario, SELF_TEST_MATRIX)
        assert found and all(f.config == "mutant" for f in found)
        assert all(f.aspect == "xml" for f in found)

    @pytest.mark.parametrize("lossy", ["drop-namespace", "drop-escape"])
    def test_round_trip_check_catches_a_lossy_serializer(
        self, monkeypatch, lossy
    ):
        # The running example keeps TimeOut intensional (with its
        # namespaceURI); its title carries a character that needs escaping.
        from repro.doc import xml_io
        from repro.doc.builder import el

        document = newspaper.document()
        scenario = DocumentScenario(
            seed=0, k=1, mode="safe",
            sender_schema=newspaper.schema_star(),
            exchange_schema=newspaper.schema_star2(),
            document=document.splice((0,), (el("title", "Salt & Pepper"),)),
        )
        assert run_document_scenario(scenario) == []
        if lossy == "drop-escape":
            monkeypatch.setattr(xml_io, "escape", lambda text: text)
        else:
            serialize = xml_io._serialize

            def dropping_namespaces(node, depth, lines, pretty):
                serialize(node, depth, lines, pretty)
                lines[:] = [
                    re.sub(r' namespaceURI="[^"]*"', "", line)
                    for line in lines
                ]

            monkeypatch.setattr(xml_io, "_serialize", dropping_namespaces)
        found = run_document_scenario(scenario)
        assert any(f.config == "round-trip" for f in found), found

    def test_round_trip_check_skips_text_bearing_outputs(self):
        # Some fuzzed answers put text among the caller's siblings; such
        # an output is off wire normal form and its bytes need not (and
        # here do not) rebuild it, which is no disagreement.
        from repro.doc.document import Document
        from repro.errors import ReproError
        from repro.schema.validate import InstanceChecker

        lossy = normal = 0
        for seed in range(40):
            scenario = fuzz_document_scenario(seed)
            baseline = run_config(scenario, DEFAULT_MATRIX[0])
            if not baseline.ok:
                continue
            _report, wire_normal = InstanceChecker(
                scenario.exchange_schema
            ).receive(baseline.document.root)
            assert round_trip_disagreements(
                seed, baseline, wire_normal
            ) == []
            if wire_normal:
                normal += 1
                continue
            try:
                reparsed = Document.from_xml(baseline.xml).root
            except ReproError:
                reparsed = None
            if reparsed != baseline.document.root:
                lossy += 1
        assert lossy and normal

    def test_receiver_check_catches_a_stream_skipping_the_reading_rule(
        self, monkeypatch
    ):
        # Fuzzed text answers put mixed content into some outputs: the
        # receiver cannot parse those bytes, so the streamed verdict must
        # refuse them too; a stream that reads each word as it is
        # accepts them.
        from repro.stream import enforce

        seeds = [
            seed for seed in range(40)
            if fuzz_document_scenario(seed).mode != "possible"
        ]
        for seed in seeds:
            assert run_document_scenario(fuzz_document_scenario(seed)) == []
        monkeypatch.setattr(
            enforce, "read_word", lambda label, children, word: word
        )
        found = [
            disagreement for seed in seeds
            for disagreement in run_document_scenario(
                fuzz_document_scenario(seed)
            )
        ]
        assert found
        assert {(f.config, f.aspect, f.expected, f.got) for f in found} == {
            ("receiver", "streamed", "False", "True")
        }

    def test_receiver_check_catches_a_stream_skipping_kept_calls(
        self, monkeypatch
    ):
        # The enforcer reads g's signature from the sender and keeps the
        # call; the receiver (the exchange schema alone) does not declare
        # g, so every path must refuse, the stream by checking the call
        # it kept.
        from repro.doc.builder import call, el
        from repro.doc.document import Document
        from repro.doc.nodes import FunctionCall
        from repro.schema.model import SchemaBuilder
        from repro.stream.enforce import _StreamDriver

        scenario = DocumentScenario(
            seed=0, k=1, mode="safe",
            sender_schema=SchemaBuilder().element("r", "g")
            .element("x", "data").function("g", "eps", "x").root("r")
            .build(strict=False),
            exchange_schema=SchemaBuilder().element("r", "g | x")
            .element("x", "data").root("r").build(strict=False),
            document=Document(el("r", call("g"))),
        )
        assert run_document_scenario(scenario) == []
        check = _StreamDriver._receive_tree
        monkeypatch.setattr(
            _StreamDriver, "_receive_tree",
            lambda driver, node: (
                None if type(node) is FunctionCall else check(driver, node)
            ),
        )
        found = run_document_scenario(scenario)
        assert [(f.config, f.aspect) for f in found] == [
            ("receiver", "streamed")
        ]

    def test_flaky_resilient_config_matches_baseline(self):
        # Find a scenario with a fault schedule and embedded calls: the
        # resilient member must absorb the injected faults and still be
        # byte-identical to the plain baseline.
        for seed in range(100):
            scenario = fuzz_document_scenario(seed)
            if scenario.flaky_period and any(
                True for _ in scenario.document.function_nodes()
            ):
                assert run_document_scenario(scenario) == []
                baseline = run_config(scenario, DEFAULT_MATRIX[0])
                resilient = run_config(scenario, DEFAULT_MATRIX[4])
                assert resilient.xml == baseline.xml
                return
        pytest.fail("no flaky scenario in the first 100 seeds")

    def test_word_self_check_flags_inverted_reference(self):
        scenario = fuzz_word_scenario(2)
        found, exact = run_word_scenario(scenario, invert_reference=True)
        assert exact and found

    def test_run_seed_accumulates(self):
        report = run_seed(0)
        report = run_seed(1, report=report)
        assert report.scenarios == 4
        assert report.word_scenarios == report.document_scenarios == 2
        assert report.ok


class TestCorpusSerialization:
    def test_regex_source_round_trips(self):
        for source in (
            "a", "data", "eps", "empty", "a.b?", "(a | b)*",
            "(a.b | c){2,4}", "a+", "(a | eps).b",
        ):
            expr = parse_regex(source)
            assert parse_regex(regex_source(expr)) == expr, source

    def test_schema_round_trips(self):
        schema = newspaper.schema_star2()
        data = schema_to_dict(schema)
        back = schema_from_dict(data)
        assert schema_to_dict(back) == data

    def test_word_entry_round_trips(self):
        scenario = fuzz_word_scenario(5)
        entry = word_entry(scenario, note="n")
        back = word_scenario_from_entry(entry)
        assert back == scenario
        assert word_entry(back, note="n") == entry

    def test_document_entry_round_trips(self):
        scenario = fuzz_document_scenario(5)
        entry = document_entry(scenario, note="n")
        back = document_scenario_from_entry(entry)
        assert document_entry(back, note="n") == entry
        assert back.document.to_xml() == scenario.document.to_xml()


class TestShrinking:
    def test_word_shrinking_reaches_a_small_core(self):
        scenario = WordScenario(
            seed=0, k=2,
            word=("a", "b", "q1", "c", "a"),
            output_types={"q1": parse_regex("(a | b.c)")},
            target=parse_regex("a.b.c"),
        )

        def fails(candidate):
            return "q1" in candidate.word

        small = shrink_word_scenario(scenario, fails)
        assert fails(small)
        assert small.word == ("q1",)
        assert small.k == 1

    def test_document_shrinking_prunes_subtrees(self):
        scenario = fuzz_document_scenario(9)

        def fails(candidate):
            return candidate.document.size() >= 1

        small = shrink_document_scenario(scenario, fails)
        assert small.document.size() <= 2
        assert small.flaky_period in (0, scenario.flaky_period)

    def test_shrinking_never_returns_a_passing_scenario(self):
        scenario = fuzz_word_scenario(3)

        def fails(candidate):
            return len(candidate.word) >= 2

        small = shrink_word_scenario(scenario, fails)
        assert fails(small)
        assert len(small.word) == 2
