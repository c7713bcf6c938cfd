"""E5 — Figures 7+8: no safe rewriting into schema (***).

Regenerates the product A_w^1 x comp((***)) and verifies the paper's
conclusion: both fork options of both fork nodes are marked, hence the
initial state is marked and no safe rewriting exists — "the invocation
of TimeOut may return performance elements".
"""

from benchmarks.conftest import WORD, newspaper_outputs, print_series
from repro.errors import NoSafeRewritingError
from repro.regex.parser import parse_regex
from repro.rewriting.safe import analyze_safe

TARGET = parse_regex("title.date.temp.exhibit*")


def test_initial_state_marked_as_in_figure_8():
    analysis = analyze_safe(WORD, newspaper_outputs(), TARGET, k=1)
    assert not analysis.exists
    assert analysis.is_marked(analysis.initial)
    print_series(
        "E5 safe rewriting into (***) (Figures 7-8)",
        [("exists", analysis.exists),
         ("initial marked", analysis.is_marked(analysis.initial)),
         ("product nodes", analysis.stats.product_nodes),
         ("marked", analysis.stats.marked_nodes)],
    )


def test_both_fork_options_marked():
    """Figure 8: nodes [q2,p2] and [q3,p3] have both options marked."""
    analysis = analyze_safe(WORD, newspaper_outputs(), TARGET, k=1)
    expansion = analysis.expansion
    # Walk the base word to the fork nodes and inspect their options.
    comp = analysis.comp
    p = comp.initial
    for position, symbol in enumerate(WORD[:2]):
        p = comp.step(p, symbol)
    # At q2 with complement state after title.date: the Get_Temp fork.
    fork_get_temp = [
        e for e in expansion.edges_from(2) if str(e.guard) == "Get_Temp"
    ][0]
    keep = (fork_get_temp.target, comp.step(p, "Get_Temp"))
    invoke_edge = expansion.edge(fork_get_temp.invoke_edge)
    invoke = (invoke_edge.target, p)
    # Figure 8: BOTH options of [q2,p2] are marked — keeping Get_Temp can
    # never produce temp, and invoking it only leads to the TimeOut fork
    # whose two options are marked in turn (performance may come back).
    assert analysis.is_marked(keep)
    assert analysis.is_marked(invoke)

    # The TimeOut fork [q3,p3]: both options marked as well.
    p3 = comp.step(p, "temp")
    fork_timeout = [
        e for e in expansion.edges_from(3) if str(e.guard) == "TimeOut"
    ][0]
    keep_to = (fork_timeout.target, comp.step(p3, "TimeOut"))
    invoke_to_edge = expansion.edge(fork_timeout.invoke_edge)
    invoke_to = (invoke_to_edge.target, p3)
    assert analysis.is_marked(keep_to)
    assert analysis.is_marked(invoke_to)


def test_no_plan_extractable():
    analysis = analyze_safe(WORD, newspaper_outputs(), TARGET, k=1)
    try:
        analysis.preview_decisions()
        raise AssertionError("expected NoSafeRewritingError")
    except NoSafeRewritingError:
        pass


def test_unsafe_detection_time(benchmark):
    outputs = newspaper_outputs()
    analysis = benchmark(lambda: analyze_safe(WORD, outputs, TARGET, k=1))
    assert not analysis.exists
