"""The bitset automata core against independent references.

Three layers of cross-validation, mirroring how the core is wired in:

- **Construction identity** — ``bit_minimize(bit_determinize(nfa))``
  viewed back as a dict DFA must be *byte-identical* to
  ``minimize_hopcroft(determinize(nfa))``.  The compilation cache's
  ``target_dfa``/``complement`` views lean on this: analyses hand
  executors and renderers dict views whose state numbering matches the
  dict pipeline.
- **Decision procedures** — ``bit_subset``/``bit_intersects`` and the
  antichain inclusion check must agree with a plain pair search over
  the dict DFAs on a fuzzed corpus (500 seeded pairs for the antichain).
- **Solvers** — safe/lazy/possible verdicts must match the reference
  interpreter (:mod:`repro.conformance.reference`) on fuzzed word
  problems, with the lazy exploration bound intact.

The compact expansion view the game runs on is pinned last: slotted
edges, shared empty rows, and an allocation bound.
"""

from __future__ import annotations

import pickle

import pytest

from repro.automata.bitset import (
    BitDFA,
    antichain_language_subset,
    bit_complement,
    bit_determinize,
    bit_intersects,
    bit_minimize,
    bit_subset,
    from_dfa,
    iter_bits,
)
from repro.automata.dfa import complement, complete, determinize, minimize_hopcroft
from repro.automata.glushkov import glushkov_nfa
from repro.automata.ops import intersects, language_subset
from repro.automata.symbols import Alphabet, regex_symbols
from repro.compile import DISABLED
from repro.conformance.fuzzer import fuzz_word_scenario
from repro.conformance.reference import reference_possible, reference_safe
from repro.obs.memory import traced_peak
from repro.regex.parser import parse_regex
from repro.rewriting.bitgame import PNodeBitSet, _ExpansionView
from repro.rewriting.expansion import build_expansion
from repro.rewriting.lazy import analyze_safe_lazy
from repro.rewriting.possible import analyze_possible
from repro.rewriting.safe import alternatives, analyze_safe, problem_alphabet

#: Representative sources: paper examples, bounded repeats, wildcards,
#: nullable languages, and the empty language.
SOURCES = [
    "a",
    "a.b.c",
    "a*",
    "(a | b)*.c",
    "a?.b?",
    "a{0,3}.b",
    "(a.b){1,2}",
    "(any*).a",
    "any",
    "title.date.temp.(TimeOut | exhibit*)",
    "(exhibit.performance?){0,8}",
    "a.b{2,2}",
]

ALPHABET = Alphabet.closure(
    {"a", "b", "c", "title", "date", "temp", "TimeOut", "exhibit",
     "performance", "#data"}
)


def _sources():
    return [parse_regex(source) for source in SOURCES]


def _dict_pipeline(regex, alphabet):
    return minimize_hopcroft(determinize(glushkov_nfa(regex), alphabet))


def _bit_pipeline(regex, alphabet):
    return bit_minimize(bit_determinize(glushkov_nfa(regex), alphabet))


def _reachable_pairs(left, right):
    """Completed operands and their reachable state pairs (plain BFS)."""
    left, right = complete(left), complete(right)
    start = (left.initial, right.initial)
    seen = {start}
    stack = [start]
    while stack:
        l, r = stack.pop()
        for symbol in left.alphabet:
            pair = (left.transitions[l][symbol], right.transitions[r][symbol])
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return left, right, seen


def _reference_subset(left, right):
    left, right, pairs = _reachable_pairs(left, right)
    return not any(
        l in left.accepting and r not in right.accepting for l, r in pairs
    )


def _reference_intersects(left, right):
    left, right, pairs = _reachable_pairs(left, right)
    return any(l in left.accepting and r in right.accepting for l, r in pairs)


# ---------------------------------------------------------------------------
# Construction identity
# ---------------------------------------------------------------------------


class TestPipelineIdentity:
    @pytest.mark.parametrize("source", SOURCES)
    def test_minimized_view_is_byte_identical(self, source):
        regex = parse_regex(source)
        reference = _dict_pipeline(regex, ALPHABET)
        view = _bit_pipeline(regex, ALPHABET).to_dfa()
        assert view.initial == reference.initial
        assert view.accepting == reference.accepting
        assert view.transitions == reference.transitions
        assert view.alphabet.symbols == reference.alphabet.symbols

    @pytest.mark.parametrize("source", SOURCES)
    def test_complement_view_is_byte_identical(self, source):
        regex = parse_regex(source)
        reference = complement(_dict_pipeline(regex, ALPHABET))
        view = bit_complement(_bit_pipeline(regex, ALPHABET)).to_dfa()
        assert view.initial == reference.initial
        assert view.accepting == reference.accepting
        assert view.transitions == reference.transitions

    def test_fuzzed_targets_roundtrip(self):
        """The identity holds on 60 fuzzer-drawn targets, not just the pins."""
        for seed in range(60):
            scenario = fuzz_word_scenario(seed)
            alphabet = Alphabet.closure(regex_symbols(scenario.target))
            reference = _dict_pipeline(scenario.target, alphabet)
            view = _bit_pipeline(scenario.target, alphabet).to_dfa()
            assert view.transitions == reference.transitions, (
                "seed %d: bitset pipeline diverged from dict pipeline" % seed
            )
            assert view.accepting == reference.accepting

    @pytest.mark.parametrize("source", SOURCES)
    def test_from_dfa_preserves_language(self, source):
        regex = parse_regex(source)
        reference = _dict_pipeline(regex, ALPHABET)
        bd = from_dfa(reference)
        for seed in range(8):
            scenario = fuzz_word_scenario(seed)
            word = tuple(ALPHABET.canon(s) for s in scenario.word)
            assert bd.accepts(word) == reference.accepts(word)

    def test_pickle_roundtrip_drops_caches(self):
        bd = _bit_pipeline(parse_regex("(a | b)*.c"), ALPHABET)
        bd.pred()  # populate the lazy predecessor cache
        clone = pickle.loads(pickle.dumps(bd))
        assert clone == bd
        assert clone.to_dfa().transitions == bd.to_dfa().transitions


# ---------------------------------------------------------------------------
# Decision procedures
# ---------------------------------------------------------------------------


class TestDecisionProcedures:
    def _pairs(self):
        compiled = [(s, _dict_pipeline(parse_regex(s), ALPHABET)) for s in SOURCES]
        for left_source, left in compiled:
            for right_source, right in compiled:
                yield left_source, left, right_source, right

    def test_bit_subset_matches_reference(self):
        for ls, left, rs, right in self._pairs():
            expected = _reference_subset(left, right)
            assert bit_subset(from_dfa(left), from_dfa(right)) == expected, (
                "subset(%s, %s)" % (ls, rs)
            )

    def test_bit_intersects_matches_reference(self):
        for ls, left, rs, right in self._pairs():
            expected = _reference_intersects(left, right)
            assert bit_intersects(from_dfa(left), from_dfa(right)) == expected, (
                "intersects(%s, %s)" % (ls, rs)
            )

    def test_ops_match_reference(self):
        """`language_subset`/`intersects` answer like the pair search."""
        for ls, left, rs, right in self._pairs():
            assert language_subset(left, right) == _reference_subset(left, right)
            assert intersects(left, right) == _reference_intersects(left, right)

    def test_antichain_cross_validation_500_seeds(self):
        """Antichain inclusion vs the reference pair search on 500 pairs.

        Each seeded pair draws two fuzzer targets (stars included); the
        right side stays a Glushkov NFA for the antichain — no subset
        construction, no complement — yet the verdict must match the
        pair search over both minimized dict DFAs on every pair.
        """
        disagreements = []
        for seed in range(500):
            left_regex = fuzz_word_scenario(seed).target
            right_regex = fuzz_word_scenario(seed + 10_000).target
            alphabet = Alphabet.closure(
                regex_symbols(left_regex), regex_symbols(right_regex)
            )
            expected = _reference_subset(
                _dict_pipeline(left_regex, alphabet),
                _dict_pipeline(right_regex, alphabet),
            )
            got = antichain_language_subset(
                _bit_pipeline(left_regex, alphabet),
                glushkov_nfa(right_regex),
                alphabet,
            )
            if got != expected:
                disagreements.append(seed)
        assert not disagreements, (
            "antichain disagreed with the pair search on seeds %r"
            % disagreements[:10]
        )

    def test_antichain_counterexample_direction(self):
        """A strict superset on the left must come back ``False``."""
        left = parse_regex("a*")
        right = parse_regex("a{0,3}")
        alphabet = Alphabet.closure({"a"})
        assert not antichain_language_subset(
            _bit_pipeline(left, alphabet), glushkov_nfa(right), alphabet
        )
        assert antichain_language_subset(
            _bit_pipeline(right, alphabet), glushkov_nfa(left), alphabet
        )


# ---------------------------------------------------------------------------
# Solvers against the reference interpreter
# ---------------------------------------------------------------------------


class TestSolverAgreement:
    def _analyses(self, scenario):
        args = (scenario.word, scenario.output_types, scenario.target)
        return (
            analyze_safe(*args, k=scenario.k),
            analyze_safe_lazy(*args, k=scenario.k),
            analyze_possible(*args, k=scenario.k),
        )

    @pytest.mark.parametrize("seed", range(0, 40))
    def test_verdicts_match_reference(self, seed):
        scenario = fuzz_word_scenario(seed)
        args = (scenario.word, scenario.output_types, scenario.target,
                scenario.k)
        ref_safe = reference_safe(*args)
        ref_possible = reference_possible(*args)
        # Fuzzed output types are star-free: the reference is exhaustive.
        assert ref_safe.exact and ref_possible.exact
        safe, lazy, possible = self._analyses(scenario)
        assert safe.exists == ref_safe.exists
        assert lazy.exists == ref_safe.exists
        assert possible.exists == ref_possible.exists
        # The lazy solver never explores more than the eager one.
        assert lazy.stats.product_explored <= safe.stats.product_explored

    @pytest.mark.parametrize("seed", range(0, 40))
    def test_eager_and_lazy_strategies_agree(self, seed):
        """Both markings agree wherever the executor can walk.

        The executor only visits nodes reached from the initial node
        through unmarked ones; on that region ``is_marked`` must
        coincide, so plans and previews match.
        """
        scenario = fuzz_word_scenario(seed)
        safe, lazy, _possible = self._analyses(scenario)
        region = {safe.initial}
        stack = [safe.initial]
        while stack:
            node = stack.pop()
            assert lazy.is_marked(node) == safe.is_marked(node), node
            if safe.is_marked(node):
                continue
            for alt in alternatives(safe.expansion, safe, node):
                for succ in alt.options:
                    if succ not in region:
                        region.add(succ)
                        stack.append(succ)
        if safe.exists:
            assert lazy.preview_decisions() == safe.preview_decisions()


# ---------------------------------------------------------------------------
# The PNodeBitSet view
# ---------------------------------------------------------------------------


class TestPNodeBitSet:
    def _set(self):
        return PNodeBitSet({0: 0b101, 2: 0b10})

    def test_membership(self):
        nodes = self._set()
        assert (0, 0) in nodes
        assert (0, 2) in nodes
        assert (2, 1) in nodes
        assert (0, 1) not in nodes
        assert (1, 0) not in nodes

    def test_len_and_iter(self):
        nodes = self._set()
        assert len(nodes) == 3
        assert sorted(nodes) == [(0, 0), (0, 2), (2, 1)]

    def test_bool_and_mask(self):
        assert self._set()
        assert not PNodeBitSet({})
        assert not PNodeBitSet({4: 0})
        assert self._set().mask(0) == 0b101
        assert self._set().mask(7) == 0


class TestIterBits:
    def test_enumerates_set_bits(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b1)) == [0]
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        big = (1 << 200) | (1 << 63) | 1
        assert list(iter_bits(big)) == [0, 63, 200]


# ---------------------------------------------------------------------------
# The compact expansion view
# ---------------------------------------------------------------------------


class TestCompactView:
    """Expansions and their mask views stay in the compile cache for as
    long as their word does, one pair per distinct word; these pin the
    layout that keeps that footprint small."""

    OUTPUTS = {
        "Get_Temp": parse_regex("temp"),
        "TimeOut": parse_regex("(exhibit | performance)*"),
        "Deep": parse_regex("(exhibit.Deep?){0,4}"),
    }
    TARGET = parse_regex(
        "title.date.(temp.(TimeOut | (exhibit.performance?){0,16}))*"
        ".(exhibit | Deep?)*"
    )
    WORD = ("title", "date") + ("Get_Temp", "TimeOut", "Deep") * 20

    def _expansion(self):
        return build_expansion(self.WORD, self.OUTPUTS, 2,
                               compile_cache=DISABLED)

    def _alphabet(self):
        return problem_alphabet(self.WORD, self.OUTPUTS, self.TARGET)

    def test_edges_are_slotted(self):
        edge = self._expansion().edges[0]
        with pytest.raises(AttributeError):
            edge.__dict__

    def test_rows_are_tuples_and_empty_rows_shared(self):
        view = _ExpansionView(self._expansion(), self._alphabet())
        for name in _ExpansionView.__slots__[1:]:
            rows = getattr(view, name)
            assert len(rows) == view.n_states
            assert all(type(row) is tuple for row in rows), name
            assert len({id(row) for row in rows if not row}) <= 1, name

    def test_view_allocation_stays_bounded(self):
        expansion = self._expansion()
        alphabet = self._alphabet()
        _view, peak = traced_peak(lambda: _ExpansionView(expansion, alphabet))
        # Tuple rows with one shared empty row measure about 660 bytes a
        # state here; nine lists per state measured about 990.
        assert peak < 800 * expansion.n_states, (
            "allocated %d bytes for %d states" % (peak, expansion.n_states)
        )
