"""Unit tests for the lazy variant (Section 7 / Figure 12)."""

import random

import pytest

from repro.regex.parser import parse_regex
from repro.rewriting.lazy import analyze_safe_lazy
from repro.rewriting.safe import analyze_safe
from repro.workloads.generators import (
    chain_problem,
    det_target_problem,
    nondet_target_problem,
    random_word_problem,
    wide_problem,
)

WORD = ("title", "date", "Get_Temp", "TimeOut")
R2 = parse_regex("title.date.temp.(TimeOut | exhibit*)")
R3 = parse_regex("title.date.temp.exhibit*")


class TestAgreementWithEager:
    def test_paper_examples(self, newspaper_outputs):
        for target, expected in ((R2, True), (R3, False)):
            eager = analyze_safe(WORD, newspaper_outputs, target, k=1)
            lazy = analyze_safe_lazy(WORD, newspaper_outputs, target, k=1)
            assert eager.exists == lazy.exists == expected

    @pytest.mark.parametrize("seed", range(25))
    def test_random_problems(self, seed):
        problem = random_word_problem(random.Random(seed))
        eager = analyze_safe(problem.word, problem.output_types, problem.target)
        lazy = analyze_safe_lazy(
            problem.word, problem.output_types, problem.target
        )
        assert eager.exists == lazy.exists

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_chain_problems_all_depths(self, k):
        problem = chain_problem(3)
        eager = analyze_safe(problem.word, problem.output_types, problem.target, k=k)
        lazy = analyze_safe_lazy(
            problem.word, problem.output_types, problem.target, k=k
        )
        assert eager.exists == lazy.exists == (k >= 3)

    @pytest.mark.parametrize("width", [1, 3, 6])
    @pytest.mark.parametrize("safe", [True, False])
    def test_wide_problems(self, width, safe):
        problem = wide_problem(width, safe=safe)
        lazy = analyze_safe_lazy(problem.word, problem.output_types, problem.target)
        assert lazy.exists is safe

    def test_extensional_problems(self):
        for maker in (nondet_target_problem, det_target_problem):
            problem = maker(4)
            lazy = analyze_safe_lazy(
                problem.word, problem.output_types, problem.target
            )
            assert lazy.exists is True


class TestPruning:
    def test_explores_no_more_than_eager(self, newspaper_outputs):
        for target in (R2, R3):
            eager = analyze_safe(WORD, newspaper_outputs, target, k=1)
            lazy = analyze_safe_lazy(WORD, newspaper_outputs, target, k=1)
            assert lazy.stats.product_explored <= eager.stats.product_explored

    def test_sink_pruning_helps_on_figure_6(self, newspaper_outputs):
        eager = analyze_safe(WORD, newspaper_outputs, R2, k=1)
        lazy = analyze_safe_lazy(WORD, newspaper_outputs, R2, k=1)
        assert lazy.stats.product_explored < eager.stats.product_explored

    def test_unsafe_answer_marks_the_initial_node(self, newspaper_outputs):
        lazy = analyze_safe_lazy(WORD, newspaper_outputs, R3, k=1)
        assert lazy.exists is False
        assert lazy.is_marked(lazy.initial)


class TestLazyExecution:
    def test_winning_strategy_usable(self, newspaper_outputs):
        from repro.doc import call, el, text
        from repro.rewriting.safe import execute_safe

        analysis = analyze_safe_lazy(WORD, newspaper_outputs, R2, k=1)
        children = (
            el("title", "t"), el("date", "d"),
            call("Get_Temp", el("city", "Paris")),
            call("TimeOut", text("k")),
        )

        def invoker(fc):
            return (el("temp", "15"),)

        new, log = execute_safe(analysis, children, invoker)
        assert log.invoked == ["Get_Temp"]

    def test_preview_decisions_work_on_lazy(self, newspaper_outputs):
        analysis = analyze_safe_lazy(WORD, newspaper_outputs, R2, k=1)
        decisions = analysis.preview_decisions()
        assert [(d.function, d.action) for d in decisions] == [
            ("Get_Temp", "invoke"), ("TimeOut", "keep"),
        ]
