"""A table-driven corpus of word-rewriting problems with known answers.

Each case pins the expected outcome of safe (LTR), possible, and — where
interesting — the RTL direction and the optimal worst-case cost.  All
solvers must agree with the table *and* with each other; the corpus is
the first place to add a regression when a bug is found.
"""

import math
import os

import pytest

from repro.regex.parser import parse_regex
from repro.rewriting.direction import RTL, analyze_safe_directed
from repro.rewriting.lazy import analyze_safe_lazy
from repro.rewriting.optimal import strategy_values
from repro.rewriting.possible import analyze_possible
from repro.rewriting.safe import analyze_safe


class Case:
    def __init__(self, name, word, outputs, target, k=1,
                 safe=None, possible=None, rtl_safe=None, cost=None):
        self.name = name
        self.word = tuple(word.split(".")) if word else ()
        self.outputs = {
            fname: parse_regex(expr) for fname, expr in outputs.items()
        }
        self.target = parse_regex(target)
        self.k = k
        self.safe = safe
        self.possible = possible
        self.rtl_safe = rtl_safe
        self.cost = cost


CORPUS = [
    # -- plain words, no calls -------------------------------------------
    Case("identity", "a.b", {}, "a.b", safe=True, possible=True, cost=0),
    Case("mismatch", "a.b", {}, "b.a", safe=False, possible=False,
         rtl_safe=False),
    Case("empty-into-star", "", {}, "a*", safe=True, possible=True, cost=0),
    Case("empty-into-atom", "", {}, "a", safe=False, possible=False),
    Case("longer-than-target", "a.a.a", {}, "a{1,2}", safe=False,
         possible=False),
    # -- single calls -----------------------------------------------------
    Case("forced-invoke", "f", {"f": "a"}, "a", safe=True, possible=True,
         cost=1),
    Case("forced-keep", "f", {"f": "a"}, "f", safe=True, possible=True,
         cost=0),
    Case("either-works", "f", {"f": "a"}, "f | a", safe=True, possible=True,
         cost=0),
    Case("adversarial-choice", "f", {"f": "a | b"}, "a", safe=False,
         possible=True, rtl_safe=False),
    Case("adversarial-covered", "f", {"f": "a | b"}, "a | b", safe=True,
         possible=True, cost=1),
    Case("empty-output-ok", "f", {"f": "a*"}, "a*", safe=True,
         possible=True),
    Case("output-disjoint", "f", {"f": "a"}, "b", safe=False,
         possible=False, rtl_safe=False),
    Case("star-output-into-bounded", "f", {"f": "a*"}, "a{1,2}",
         safe=False, possible=True),
    # -- sequencing -------------------------------------------------------
    Case("two-calls-both-forced", "f.g", {"f": "a", "g": "b"}, "a.b",
         safe=True, possible=True, cost=2),
    Case("mixed-keep-invoke", "f.g", {"f": "a", "g": "b"}, "a.g",
         safe=True, possible=True, cost=1),
    Case("call-stretches-word", "f", {"f": "a.a.a"}, "a.a.a",
         safe=True, possible=True, cost=1),
    # Keeping gives f.a, invoking gives a.a.a — neither fits a.a.
    Case("call-cannot-fit", "f.a", {"f": "a.a"}, "a.a",
         safe=False, possible=False, rtl_safe=False),
    Case("call-kept-fits-prefix", "f.a", {"f": "a.a"}, "f.a",
         safe=True, possible=True, cost=0),
    # -- depth ------------------------------------------------------------
    Case("depth-1-insufficient", "f", {"f": "g", "g": "a"}, "a", k=1,
         safe=False, possible=False),
    Case("depth-2-sufficient", "f", {"f": "g", "g": "a"}, "a", k=2,
         safe=True, possible=True, cost=2),
    Case("k-zero-freezes", "f", {"f": "a"}, "a", k=0, safe=False,
         possible=False),
    Case("k-zero-identity", "f", {"f": "a"}, "f", k=0, safe=True,
         possible=True, cost=0),
    # -- knowledge ordering (direction-sensitive) -------------------------
    Case("needs-late-knowledge", "f.g",
         {"f": "c", "g": "a | b"}, "(c.a) | (f.b)",
         safe=False, possible=True, rtl_safe=True),
    Case("needs-early-knowledge", "f.g",
         {"f": "a | b", "g": "c"}, "(a.c) | (b.g)",
         safe=True, possible=True, rtl_safe=False, cost=2),
    # -- recursion at the boundary -----------------------------------------
    Case("unbounded-handles-never-safe", "f",
         {"f": "a*.f?"}, "a*", k=4, safe=False, possible=True),
    Case("self-feeding-but-closing", "f",
         {"f": "a | f"}, "a", k=3, safe=False, possible=True),
    # -- nondeterministic targets ------------------------------------------
    Case("nondet-target-safe", "a.a", {}, "(a|b)*.a", safe=True,
         possible=True, cost=0),
    Case("nondet-target-with-call", "f.a", {"f": "a | b"}, "(a|b)*.a",
         safe=True, possible=True),
]


@pytest.mark.parametrize("case", CORPUS, ids=lambda c: c.name)
class TestCorpus:
    def test_safe_matches_table(self, case):
        if case.safe is None:
            return
        analysis = analyze_safe(case.word, case.outputs, case.target, case.k)
        assert analysis.exists is case.safe, case.name

    def test_lazy_agrees_with_eager(self, case):
        eager = analyze_safe(case.word, case.outputs, case.target, case.k)
        lazy = analyze_safe_lazy(case.word, case.outputs, case.target, case.k)
        assert eager.exists == lazy.exists, case.name

    def test_possible_matches_table(self, case):
        if case.possible is None:
            return
        analysis = analyze_possible(
            case.word, case.outputs, case.target, case.k
        )
        assert analysis.exists is case.possible, case.name

    def test_safe_implies_possible(self, case):
        safe = analyze_safe(case.word, case.outputs, case.target, case.k)
        if safe.exists:
            assert analyze_possible(
                case.word, case.outputs, case.target, case.k
            ).exists, case.name

    def test_rtl_matches_table(self, case):
        if case.rtl_safe is None:
            return
        analysis = analyze_safe_directed(
            case.word, case.outputs, case.target, case.k, direction=RTL
        )
        assert analysis.exists is case.rtl_safe, case.name

    def test_optimal_cost_matches_table(self, case):
        if case.cost is None:
            return
        analysis = analyze_safe(case.word, case.outputs, case.target, case.k)
        assert analysis.exists, case.name
        values = strategy_values(analysis)
        assert values[analysis.initial] == case.cost, case.name


# ---------------------------------------------------------------------------
# The reference interpreter against the table (independent oracle)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", CORPUS, ids=lambda case: case.name)
class TestReferenceInterpreterOnCorpus:
    """The conformance reference interpreter must reproduce the table.

    Exact verdicts (star-free outputs) are hard requirements; bounded
    verdicts on starred outputs are only checked for the safe ⇒ possible
    implication.
    """

    def test_reference_safe_matches_table(self, case):
        from repro.conformance.reference import reference_safe

        if case.safe is None:
            return
        verdict = reference_safe(case.word, case.outputs, case.target, case.k)
        if verdict.exact:
            assert verdict.exists is case.safe, case.name

    def test_reference_possible_matches_table(self, case):
        from repro.conformance.reference import reference_possible

        if case.possible is None:
            return
        verdict = reference_possible(
            case.word, case.outputs, case.target, case.k
        )
        if verdict.exact:
            assert verdict.exists is case.possible, case.name


# ---------------------------------------------------------------------------
# The JSON corpus: every frozen entry must replay clean
# ---------------------------------------------------------------------------

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def _corpus_entries():
    from repro.conformance.corpus import corpus_paths

    return corpus_paths(CORPUS_DIR)


@pytest.mark.parametrize(
    "path", _corpus_entries(), ids=lambda path: os.path.basename(path)
)
class TestJsonCorpusReplay:
    """Replay every ``tests/corpus/*.json`` entry through the harness.

    Each entry is a once-interesting scenario (paper examples, fuzzed
    regressions) frozen with its full data — schemas, document, knobs —
    so replays survive generator changes.  A failing replay means a
    solver or an engine configuration drifted.
    """

    def test_entry_replays_without_disagreement(self, path):
        from repro.conformance.corpus import load_entry, replay_entry

        entry = load_entry(path)
        disagreements = replay_entry(entry)
        assert disagreements == [], "\n".join(
            str(d) for d in disagreements
        )

    def test_entry_round_trips_through_serialization(self, path):
        from repro.conformance.corpus import (
            document_entry,
            document_scenario_from_entry,
            edit_entry,
            edit_scenario_from_entry,
            load_entry,
            word_entry,
            word_scenario_from_entry,
        )

        entry = load_entry(path)
        if entry["kind"] == "word":
            scenario = word_scenario_from_entry(entry)
            again = word_entry(scenario, note=entry.get("note", ""))
        elif entry["kind"] == "edits":
            scenario = edit_scenario_from_entry(entry)
            again = edit_entry(scenario, note=entry.get("note", ""))
        else:
            scenario = document_scenario_from_entry(entry)
            again = document_entry(scenario, note=entry.get("note", ""))
        assert again == entry


def test_json_corpus_is_seeded():
    # The shipped corpus starts at ten entries and only ever grows.
    assert len(_corpus_entries()) >= 10
