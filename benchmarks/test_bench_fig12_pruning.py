"""E7 — Figure 12: the lazy variant's sink-node and marked-node pruning.

The paper: the lazy construction "saves a lot of unnecessary computation
in practice" while having "the same worst-case complexity".  We verify,
on the paper's own example and on random problems, that the lazy solver
(a) always agrees with the eager one and (b) expands strictly fewer
product nodes when sinks are reachable — and we time both.
"""

import random

from benchmarks.conftest import WORD, newspaper_outputs, print_series
from repro.regex.parser import parse_regex
from repro.rewriting.lazy import analyze_safe_lazy
from repro.rewriting.safe import analyze_safe
from repro.workloads.generators import random_word_problem

TARGET2 = parse_regex("title.date.temp.(TimeOut | exhibit*)")
TARGET3 = parse_regex("title.date.temp.exhibit*")


def test_pruning_on_the_papers_example():
    outputs = newspaper_outputs()
    rows = [("target", "eager explored", "lazy explored", "agree")]
    for name, target in (("(**)", TARGET2), ("(***)", TARGET3)):
        eager = analyze_safe(WORD, outputs, target, k=1)
        lazy = analyze_safe_lazy(WORD, outputs, target, k=1)
        rows.append(
            (name, eager.stats.product_explored, lazy.stats.product_explored,
             eager.exists == lazy.exists)
        )
        assert eager.exists == lazy.exists
        assert lazy.stats.product_explored <= eager.stats.product_explored
    print_series("E7 lazy pruning (Figure 12)", rows)
    # On (**) the sink region behind p6 is pruned: strictly fewer nodes.
    assert rows[1][2] < rows[1][1]


def test_agreement_on_random_problems():
    saved = []
    for seed in range(40):
        problem = random_word_problem(random.Random(seed), n_calls=4, n_plain=4)
        eager = analyze_safe(problem.word, problem.output_types, problem.target)
        lazy = analyze_safe_lazy(
            problem.word, problem.output_types, problem.target
        )
        assert eager.exists == lazy.exists
        saved.append(eager.stats.product_explored - lazy.stats.product_explored)
    assert all(delta >= 0 for delta in saved)
    print_series(
        "E7 random problems",
        [("problems", 40), ("total nodes saved by pruning", sum(saved))],
    )


def test_pruning_helps_on_narrow_targets():
    """Sink pruning kicks in when the target rejects some outputs —
    exactly the (**) situation of Figure 12."""
    from repro.workloads.generators import wide_problem

    total_saved = 0
    for width in (2, 4, 8):
        problem = wide_problem(width, safe=False)  # outputs b|c, target b^n
        eager = analyze_safe(problem.word, problem.output_types, problem.target)
        lazy = analyze_safe_lazy(
            problem.word, problem.output_types, problem.target
        )
        assert eager.exists == lazy.exists
        total_saved += (
            eager.stats.product_explored - lazy.stats.product_explored
        )
    assert total_saved > 0
    print_series(
        "E7 narrow targets", [("total nodes saved", total_saved)]
    )


def test_eager_time(benchmark):
    outputs = newspaper_outputs()
    benchmark(lambda: analyze_safe(WORD, outputs, TARGET2, k=1))


def test_lazy_time(benchmark):
    outputs = newspaper_outputs()
    benchmark(lambda: analyze_safe_lazy(WORD, outputs, TARGET2, k=1))


def test_lazy_time_on_unsafe(benchmark):
    outputs = newspaper_outputs()
    analysis = benchmark(
        lambda: analyze_safe_lazy(WORD, outputs, TARGET3, k=1)
    )
    assert not analysis.exists
