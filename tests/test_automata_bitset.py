"""The bitset automata core against independent references.

Three layers of cross-validation, mirroring how the core is wired in:

- **Construction identity** — ``bit_minimize(bit_determinize(nfa))``
  viewed back as a dict DFA must be *byte-identical* to
  ``minimize_hopcroft(determinize(nfa))``: the canonical numbering the
  Section 6 signature check's ``==`` on minimized automata leans on.
- **Decision procedures** — ``bit_subset``/``bit_intersects``, ``==``
  on minimized automata and the antichain inclusion check must agree
  with the dict-DFA oracle on a fuzzed corpus (500 seeded pairs for the
  antichain).
- **Solvers** — safe/lazy/possible verdicts must match the reference
  interpreter (:mod:`repro.conformance.reference`) on fuzzed word
  problems, with the lazy exploration bound intact.

The compact expansion view the game runs on is pinned last: slotted
edges, shared empty rows, and an allocation bound.
"""

from __future__ import annotations

import pickle
import random

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
from repro.automata.ops import (
    WordSampler, intersects, language_equal, language_subset,
)
from repro.automata.symbols import Alphabet, regex_symbols
from repro.compile import DISABLED
from repro.conformance.fuzzer import fuzz_word_scenario
from repro.conformance.reference import reference_possible, reference_safe
from repro.obs.memory import traced_peak
from repro.regex.parser import parse_regex
from repro.rewriting.bitgame import _ExpansionView
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

    def test_minimal_equality_is_language_equality(self):
        """Two minimized automata over one alphabet are ``==`` exactly
        when their languages are equal, on the pinned sources, on
        syntactic variants of one language and on fuzzed target pairs."""
        variants = [
            ("a | b", "b | a"),
            ("(a.b){1,2}", "a.b.(a.b)?"),
            ("a*", "(a*)*"),
            ("a?.b?", "(a.b) | a | b | eps"),
            ("(any*).a", "any*.a"),
        ]
        sources = [(ls, rs) for ls in SOURCES for rs in SOURCES] + variants
        targets = [fuzz_word_scenario(seed).target for seed in range(40)]
        regexes = [(parse_regex(ls), parse_regex(rs)) for ls, rs in sources]
        regexes += [(l, r) for l in targets[:20] for r in targets[20:]]
        regexes += [(t, t) for t in targets]
        for left, right in regexes:
            alphabet = Alphabet.closure(
                ALPHABET.symbols, regex_symbols(left), regex_symbols(right)
            )
            expected = language_equal(
                _dict_pipeline(left, alphabet), _dict_pipeline(right, alphabet)
            )
            got = _bit_pipeline(left, alphabet) == _bit_pipeline(right, alphabet)
            assert got == expected, "%s == %s" % (left, right)
        assert any(
            l != r and language_equal(
                _dict_pipeline(l, ALPHABET), _dict_pipeline(r, ALPHABET)
            )
            for l, r in regexes
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
# The word sampler
# ---------------------------------------------------------------------------


def _reference_sample(dfa, rng, stop_probability=0.4, max_length=24,
                      weight=None):
    """The dict-DFA walk :class:`WordSampler` reproduces draw for draw."""
    reverse = {}
    for source, row in dfa.transitions.items():
        for target in row.values():
            reverse.setdefault(target, set()).add(source)
    distance = {state: 0 for state in dfa.accepting}
    frontier = list(dfa.accepting)
    while frontier:
        following = []
        for state in frontier:
            for previous in reverse.get(state, ()):
                if previous not in distance:
                    distance[previous] = distance[state] + 1
                    following.append(previous)
        frontier = following
    if dfa.initial not in distance:
        raise ValueError("cannot sample from an empty language")
    word, state = [], dfa.initial
    while True:
        if state in dfa.accepting and (
            len(word) >= max_length or rng.random() < stop_probability
        ):
            return tuple(word)
        viable = [
            (symbol, target)
            for symbol, target in sorted(dfa.transitions.get(state, {}).items())
            if target in distance
        ]
        if not viable:
            return tuple(word)
        if len(word) >= max_length:
            symbol, state = min(viable, key=lambda item: distance[item[1]])
        elif weight is None:
            symbol, state = rng.choice(viable)
        else:
            weights = [max(1e-9, float(weight(s))) for s, _t in viable]
            symbol, state = rng.choices(viable, weights=weights, k=1)[0]
        word.append(symbol)


class TestWordSampler:
    def test_minimized_sampler_matches_the_dict_walk(self):
        """On the cached minimized automaton the sampler draws the same
        words as the unminimized dict DFA, RNG state included — wildcard
        draws over the whole alphabet too."""
        regexes = _sources() + [
            expr
            for seed in range(30)
            for expr in fuzz_word_scenario(seed).output_types.values()
        ]
        weights = (None, lambda symbol: 5.0 if symbol < "c" else 1.0)
        for regex in regexes:
            alphabet = Alphabet.closure(ALPHABET.symbols, regex_symbols(regex))
            reference = determinize(glushkov_nfa(regex), alphabet)
            sampler = WordSampler(DISABLED.bit_target_dfa(regex, alphabet))
            for seed in range(6):
                for weight, max_length in zip(weights, (24, 3)):
                    ours, theirs = random.Random(seed), random.Random(seed)
                    for _ in range(4):
                        try:
                            expected = _reference_sample(
                                reference, theirs, 0.3, max_length, weight
                            )
                        except ValueError:
                            with pytest.raises(ValueError):
                                sampler.sample(ours, 0.3, max_length, weight)
                            break
                        got = sampler.sample(ours, 0.3, max_length, weight)
                        assert got == expected, regex
                    assert ours.getstate() == theirs.getstate(), regex


class TestChunkTables:
    def test_tables_fold_like_a_bit_by_bit_union(self):
        """``tables[c][b]`` is the union of ``singles[8c + i]`` over the
        set bits ``i`` of ``b``; bytes past a short last chunk are 0."""
        rng = random.Random(7)
        for n in (1, 3, 8, 9, 13, 40):
            singles = [rng.getrandbits(n) for _ in range(n)]
            tables = BitDFA._chunk_tables(singles)
            assert len(tables) == (n + 7) // 8
            for chunk, entries in enumerate(tables):
                assert len(entries) == 256
                for byte in range(256):
                    expected = 0
                    for bit in iter_bits(byte):
                        if 8 * chunk + bit < n:
                            expected |= singles[8 * chunk + bit]
                    if byte >> min(8, n - 8 * chunk):
                        expected = 0
                    assert entries[byte] == expected, (n, chunk, byte)
            mask = rng.getrandbits(n)
            folded = 0
            for state in iter_bits(mask):
                folded |= singles[state]
            assert BitDFA._fold(tables, mask) == folded


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
