"""Unit tests for safe rewriting (Figure 3): analysis and execution."""

import pytest

from repro.doc import call, el, text
from repro.errors import NoSafeRewritingError, RewriteExecutionError
from repro.regex.parser import parse_regex
from repro.rewriting.plan import DEPENDS, INVOKE, KEEP
from repro.rewriting.safe import analyze_safe, execute_safe

WORD = ("title", "date", "Get_Temp", "TimeOut")
R2 = parse_regex("title.date.temp.(TimeOut | exhibit*)")
R3 = parse_regex("title.date.temp.exhibit*")
R1 = parse_regex("title.date.(Get_Temp | temp).(TimeOut | exhibit*)")


def children():
    return (
        el("title", "The Sun"),
        el("date", "04/10/2002"),
        call("Get_Temp", el("city", "Paris")),
        call("TimeOut", text("exhibits")),
    )


def good_invoker(fc):
    if fc.name == "Get_Temp":
        return (el("temp", "15"),)
    if fc.name == "TimeOut":
        return (el("exhibit", el("title", "P"), el("date", "d")),)
    raise AssertionError(fc.name)


class TestPaperExamples:
    def test_safe_into_star2(self, newspaper_outputs):
        analysis = analyze_safe(WORD, newspaper_outputs, R2, k=1)
        assert analysis.exists

    def test_decisions_match_figure_6(self, newspaper_outputs):
        analysis = analyze_safe(WORD, newspaper_outputs, R2, k=1)
        decisions = analysis.preview_decisions()
        assert [(d.function, d.action) for d in decisions] == [
            ("Get_Temp", INVOKE),
            ("TimeOut", KEEP),
        ]

    def test_not_safe_into_star3(self, newspaper_outputs):
        analysis = analyze_safe(WORD, newspaper_outputs, R3, k=1)
        assert not analysis.exists

    def test_already_instance_is_safe_with_zero_calls(self, newspaper_outputs):
        analysis = analyze_safe(WORD, newspaper_outputs, R1, k=1)
        assert analysis.exists
        decisions = analysis.preview_decisions()
        assert all(d.action == KEEP for d in decisions)

    def test_figure_6_marking_statistics(self, newspaper_outputs):
        analysis = analyze_safe(WORD, newspaper_outputs, R2, k=1)
        assert not analysis.is_marked(analysis.initial)
        assert analysis.stats.marked_nodes > 0  # the p6 region is bad


class TestExecution:
    def test_execution_invokes_exactly_the_plan(self, newspaper_outputs):
        analysis = analyze_safe(WORD, newspaper_outputs, R2, k=1)
        new_children, log = execute_safe(analysis, children(), good_invoker)
        assert [n.label if hasattr(n, "label") else n.name for n in new_children] == [
            "title", "date", "temp", "TimeOut",
        ]
        assert log.invoked == ["Get_Temp"]

    def test_execution_result_matches_target(self, newspaper_outputs):
        from repro.doc.nodes import symbol_of
        from repro.regex.ops import matches

        analysis = analyze_safe(WORD, newspaper_outputs, R2, k=1)
        new_children, _log = execute_safe(analysis, children(), good_invoker)
        assert matches(R2, [symbol_of(n) for n in new_children])

    def test_unsafe_analysis_refuses_execution(self, newspaper_outputs):
        analysis = analyze_safe(WORD, newspaper_outputs, R3, k=1)
        with pytest.raises(NoSafeRewritingError):
            execute_safe(analysis, children(), good_invoker)

    def test_preview_refuses_when_unsafe(self, newspaper_outputs):
        analysis = analyze_safe(WORD, newspaper_outputs, R3, k=1)
        with pytest.raises(NoSafeRewritingError):
            analysis.preview_decisions()

    def test_contract_violating_service_detected(self, newspaper_outputs):
        analysis = analyze_safe(WORD, newspaper_outputs, R2, k=1)

        def lying_invoker(fc):
            if fc.name == "Get_Temp":
                return (el("performance"),)  # not a temp!
            return good_invoker(fc)

        with pytest.raises(RewriteExecutionError):
            execute_safe(analysis, children(), lying_invoker)

    def test_cost_accounting(self, newspaper_outputs):
        analysis = analyze_safe(WORD, newspaper_outputs, R2, k=1)
        _new, log = execute_safe(
            analysis, children(), good_invoker,
            cost_of=lambda name: 7.5 if name == "Get_Temp" else 1.0,
        )
        assert log.cost == 7.5


class TestEdgeCases:
    def test_empty_word_into_nullable_target(self):
        analysis = analyze_safe((), {}, parse_regex("a*"), k=1)
        assert analysis.exists
        new, log = execute_safe(analysis, (), good_invoker)
        assert new == () and not log.records

    def test_empty_word_into_non_nullable_target(self):
        analysis = analyze_safe((), {}, parse_regex("a"), k=1)
        assert not analysis.exists

    def test_plain_word_mismatch(self):
        analysis = analyze_safe(("a",), {}, parse_regex("b"), k=1)
        assert not analysis.exists

    def test_k_zero_disables_invocation(self, newspaper_outputs):
        analysis = analyze_safe(WORD, newspaper_outputs, R2, k=0)
        assert not analysis.exists  # Get_Temp must be invoked but cannot be

    def test_invoking_forced_even_when_kept_form_invalid(self):
        # f -> a, target = a: must invoke.
        analysis = analyze_safe(("f",), {"f": parse_regex("a")},
                                parse_regex("a"), k=1)
        assert analysis.exists
        new, log = execute_safe(analysis, (call("f"),), lambda fc: (el("a"),))
        assert log.invoked == ["f"]

    def test_output_type_with_choice_both_accepted(self):
        # f -> a|b, target (a|b): safe; whatever comes back is fine.
        analysis = analyze_safe(
            ("f",), {"f": parse_regex("a | b")}, parse_regex("a | b"), k=1
        )
        assert analysis.exists
        for symbol in ("a", "b"):
            new, _ = execute_safe(
                analysis, (call("f"),), lambda fc, s=symbol: (el(s),)
            )
            assert new[0].label == symbol

    def test_star_output_consumed(self):
        analysis = analyze_safe(
            ("f",), {"f": parse_regex("a*")}, parse_regex("a*"), k=1
        )
        assert analysis.exists
        new, _ = execute_safe(
            analysis, (call("f"),), lambda fc: (el("a"), el("a"), el("a"))
        )
        assert len(new) == 3

    def test_empty_output_forest(self):
        analysis = analyze_safe(
            ("f",), {"f": parse_regex("a*")}, parse_regex("a*"), k=1
        )
        new, log = execute_safe(analysis, (call("f"),), lambda fc: ())
        assert new == ()
        assert log.records[0].output_symbols == ()

    def test_nested_invocation_depth_2(self):
        outputs = {"f": parse_regex("g"), "g": parse_regex("a")}
        analysis = analyze_safe(("f",), outputs, parse_regex("a"), k=2)
        assert analysis.exists

        def invoker(fc):
            return (call("g"),) if fc.name == "f" else (el("a"),)

        new, log = execute_safe(analysis, (call("f"),), invoker)
        assert [n.label for n in new] == ["a"]
        assert log.invoked == ["f", "g"]
        assert [r.depth for r in log.records] == [1, 2]

    def test_nested_depth_insufficient(self):
        outputs = {"f": parse_regex("g"), "g": parse_regex("a")}
        analysis = analyze_safe(("f",), outputs, parse_regex("a"), k=1)
        assert not analysis.exists

    def test_depends_decision_reported(self):
        # After invoking f (output a|b), keeping or invoking g depends on
        # what f returned: target = (a.g) | (b.c) — after `a` keep g,
        # after `b` invoke g (g -> c).
        outputs = {"f": parse_regex("a | b"), "g": parse_regex("c")}
        target = parse_regex("(a.g) | (b.c)")
        analysis = analyze_safe(("f", "g"), outputs, target, k=1)
        assert analysis.exists
        decisions = analysis.preview_decisions()
        assert decisions[0].action == INVOKE
        assert decisions[1].action == DEPENDS

    def test_wildcard_target_accepts_anything(self):
        analysis = analyze_safe(
            ("x", "f"), {"f": parse_regex("a")}, parse_regex("any*"), k=1
        )
        assert analysis.exists
        decisions = analysis.preview_decisions()
        assert decisions[0].action == KEEP

    def test_adversarial_wildcard_output(self):
        # f may return ANY label; target demands exactly `a` — unsafe.
        analysis = analyze_safe(
            ("f",), {"f": parse_regex("any")}, parse_regex("a"), k=1
        )
        assert not analysis.exists
        # But target any accepts whatever comes: safe (keep or invoke).
        analysis2 = analyze_safe(
            ("f",), {"f": parse_regex("any")}, parse_regex("any"), k=1
        )
        assert analysis2.exists

    def test_function_letter_appears_multiple_times(self):
        outputs = {"f": parse_regex("a")}
        analysis = analyze_safe(("f", "f"), outputs, parse_regex("a.f"), k=1)
        assert analysis.exists
        decisions = analysis.preview_decisions()
        assert [d.action for d in decisions] == [INVOKE, KEEP]


class TestAmbiguousOutputTypes:
    """``b*.b`` has two ``b`` edges out of each non-final Glushkov state;
    the executor must pick the one the rest of the answer completes."""

    WORD = ("q0",)
    TARGET = parse_regex("b*")

    def outputs(self):
        return {"q0": parse_regex("b*.b")}

    @pytest.mark.parametrize("solver", ["eager", "lazy"])
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_every_conforming_answer_executes(self, solver, length):
        from repro.rewriting.lazy import analyze_safe_lazy

        analyze = analyze_safe if solver == "eager" else analyze_safe_lazy
        analysis = analyze(self.WORD, self.outputs(), self.TARGET, k=1)
        assert analysis.exists
        answer = tuple(el("b") for _ in range(length))
        out, log = execute_safe(analysis, (call("q0"),), lambda _fc: answer)
        assert out == answer
        assert log.invoked == ["q0"]

    def test_non_conforming_answer_still_fails(self):
        analysis = analyze_safe(self.WORD, self.outputs(), self.TARGET, k=1)
        with pytest.raises(RewriteExecutionError, match="does not complete"):
            execute_safe(analysis, (call("q0"),), lambda _fc: ())

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_enforcer_materializes_the_call(self, length):
        from repro.axml.enforcement import SchemaEnforcer
        from repro.doc.document import Document
        from repro.schema.model import SchemaBuilder

        receiver = SchemaBuilder().element("r", "b*").element("b", "").build()
        sender = (
            SchemaBuilder().element("r", "q0").element("b", "")
            .function("q0", "data", "b*.b").build()
        )
        enforcer = SchemaEnforcer(
            target_schema=receiver, sender_schema=sender, k=1, mode="safe"
        )
        document = Document(el("r", call("q0", text("x"))))
        outcome = enforcer.enforce_document(
            document, lambda _fc: tuple(el("b") for _ in range(length))
        )
        assert outcome.ok, outcome.error
        assert outcome.document.to_xml() == Document(
            el("r", *(el("b") for _ in range(length)))
        ).to_xml()
