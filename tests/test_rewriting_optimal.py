"""Unit tests for cost-optimal safe strategies (Figure 3, step 23)."""

import math

import pytest

from repro.automata.bitset import iter_bits
from repro.doc import call, el
from repro.errors import NoSafeRewritingError, ServiceFault
from repro.regex.parser import parse_regex
from repro.rewriting.optimal import (
    execute_safe_optimal,
    strategy_values,
)
from repro.rewriting.safe import analyze_safe, execute_safe


def greedy_suboptimal_problem():
    """w = f.g.h, R = (f.b.c)|(a.g.h): greedy pays 2, optimal pays 1."""
    word = ("f", "g", "h")
    outputs = {
        "f": parse_regex("a"),
        "g": parse_regex("b"),
        "h": parse_regex("c"),
    }
    target = parse_regex("(f.b.c) | (a.g.h)")
    return word, outputs, target


def invoker(fc):
    return ({"f": el("a"), "g": el("b"), "h": el("c")}[fc.name],)


class TestStrategyValues:
    def test_values_on_the_witness(self):
        word, outputs, target = greedy_suboptimal_problem()
        analysis = analyze_safe(word, outputs, target, k=1)
        assert analysis.exists
        values = strategy_values(analysis)
        assert values[analysis.initial] == 1.0  # invoke f only

    def test_zero_cost_when_already_conformant(self):
        analysis = analyze_safe(("a", "b"), {}, parse_regex("a.b"), k=1)
        values = strategy_values(analysis)
        assert values[analysis.initial] == 0.0

    def test_forced_invocations_counted(self):
        analysis = analyze_safe(
            ("f", "f"), {"f": parse_regex("a")}, parse_regex("a.a"), k=1
        )
        values = strategy_values(analysis)
        assert values[analysis.initial] == 2.0

    def test_custom_costs(self):
        word, outputs, target = greedy_suboptimal_problem()
        analysis = analyze_safe(word, outputs, target, k=1)
        # Make f expensive: invoking g and h (1 each) becomes optimal.
        values = strategy_values(
            analysis, cost_of=lambda name: 10.0 if name == "f" else 1.0
        )
        assert values[analysis.initial] == 2.0

    def test_marked_nodes_are_infinite(self):
        word, outputs, target = greedy_suboptimal_problem()
        analysis = analyze_safe(word, outputs, target, k=1)
        values = strategy_values(analysis)
        marked = [
            (q, p)
            for q, mask in enumerate(analysis.marked)
            for p in iter_bits(mask)
        ]
        assert marked
        for node in marked:
            assert values.get(node, math.inf) == math.inf


class TestOptimalExecution:
    def test_beats_greedy_on_the_witness(self):
        word, outputs, target = greedy_suboptimal_problem()
        analysis = analyze_safe(word, outputs, target, k=1)
        children = (call("f"), call("g"), call("h"))

        _greedy_out, greedy_log = execute_safe(analysis, children, invoker)
        _optimal_out, optimal_log = execute_safe_optimal(
            analysis, children, invoker
        )
        assert len(greedy_log) == 2  # keeps f, then must invoke g and h
        assert len(optimal_log) == 1  # invokes f, keeps g and h
        assert optimal_log.invoked == ["f"]

    def test_optimal_result_conforms(self):
        from repro.doc.nodes import symbol_of
        from repro.regex.ops import matches

        word, outputs, target = greedy_suboptimal_problem()
        analysis = analyze_safe(word, outputs, target, k=1)
        children = (call("f"), call("g"), call("h"))
        new_children, _log = execute_safe_optimal(analysis, children, invoker)
        assert matches(target, [symbol_of(n) for n in new_children])

    def test_respects_cost_model(self):
        word, outputs, target = greedy_suboptimal_problem()
        analysis = analyze_safe(word, outputs, target, k=1)
        children = (call("f"), call("g"), call("h"))
        _out, log = execute_safe_optimal(
            analysis, children, invoker,
            cost_of=lambda name: 10.0 if name == "f" else 1.0,
        )
        assert sorted(log.invoked) == ["g", "h"]

    def test_agrees_with_greedy_on_paper_example(self, newspaper_outputs):
        word = ("title", "date", "Get_Temp", "TimeOut")
        target = parse_regex("title.date.temp.(TimeOut | exhibit*)")
        analysis = analyze_safe(word, newspaper_outputs, target, k=1)
        children = (
            el("title", "t"), el("date", "d"),
            call("Get_Temp", el("city", "P")), call("TimeOut", el("city", "x")),
        )

        def news_invoker(fc):
            if fc.name == "Get_Temp":
                return (el("temp", "15"),)
            return (el("exhibit", el("title", "T"), el("date", "d")),)

        _out, log = execute_safe_optimal(analysis, children, news_invoker)
        assert log.invoked == ["Get_Temp"]

    def test_refuses_unsafe(self, newspaper_outputs):
        word = ("title", "date", "Get_Temp", "TimeOut")
        target = parse_regex("title.date.temp.exhibit*")
        analysis = analyze_safe(word, newspaper_outputs, target, k=1)
        with pytest.raises(NoSafeRewritingError):
            execute_safe_optimal(analysis, (), invoker)

    def test_adversarial_outputs_stay_within_bound(self):
        """The value is a worst-case bound: any conforming adversary pays
        at most values[initial]."""
        word = ("f", "g")
        outputs = {"f": parse_regex("a | b"), "g": parse_regex("c")}
        target = parse_regex("(a.c) | (b.g)")
        analysis = analyze_safe(word, outputs, target, k=1)
        values = strategy_values(analysis)
        bound = values[analysis.initial]

        for f_answer in ("a", "b"):
            def adversary(fc, f_answer=f_answer):
                return (el(f_answer),) if fc.name == "f" else (el("c"),)

            _out, log = execute_safe_optimal(
                analysis, (call("f"), call("g")), adversary
            )
            assert log.cost <= bound

    def test_records_carry_the_invokers_clock(self):
        """Invocations are timed like the greedy executor's: on the
        invoker's own clock when it carries one."""

        class TickingInvoker:
            def __init__(self):
                self.clock = self
                self.ticks = 0.0

            def now(self):
                self.ticks += 0.25
                return self.ticks

            def __call__(self, fc):
                return invoker(fc)

        word, outputs, target = greedy_suboptimal_problem()
        analysis = analyze_safe(word, outputs, target, k=1)
        children = (call("f"), call("g"), call("h"))
        _out, log = execute_safe_optimal(analysis, children, TickingInvoker())
        _out, greedy_log = execute_safe(analysis, children, TickingInvoker())
        assert [(r.function, r.elapsed) for r in log.records] == [("f", 0.25)]
        assert all(r.elapsed == 0.25 for r in greedy_log.records)

    def test_fault_is_annotated_with_the_function(self):
        """A fault on a call the strategy must invoke names the function,
        so the engine can re-plan without it."""

        def faulty(fc):
            raise ServiceFault("%s is down" % fc.name)

        word, outputs, target = greedy_suboptimal_problem()
        analysis = analyze_safe(word, outputs, target, k=1)
        with pytest.raises(ServiceFault) as info:
            execute_safe_optimal(
                analysis, (call("f"), call("g"), call("h")), faulty
            )
        assert getattr(info.value, "function", None) == "f"


class TestWalk:
    def test_walks_leave_no_reference_cycles(self):
        """Both executors' walks are freed by reference counting alone:
        a cycle would keep each walk's output alive until the next
        collection, which raises the streaming pass's memory peak."""
        import gc

        word, outputs, target = greedy_suboptimal_problem()
        analysis = analyze_safe(word, outputs, target, k=1)
        children = (call("f"), call("g"), call("h"))
        gc.collect()
        gc.disable()
        try:
            for execute in (execute_safe, execute_safe_optimal):
                execute(analysis, children, invoker)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestAmbiguousOutputTypes:
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_b_star_b_answers_execute(self, length):
        analysis = analyze_safe(
            ("q0",), {"q0": parse_regex("b*.b")}, parse_regex("b*"), k=1
        )
        answer = tuple(el("b") for _ in range(length))
        out, log = execute_safe_optimal(
            analysis, (call("q0"),), lambda _fc: answer
        )
        assert out == answer
        assert log.invoked == ["q0"]
