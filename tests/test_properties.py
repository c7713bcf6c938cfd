"""Property-based tests (hypothesis) for the core invariants.

Strategies generate random regexes, words and word-rewriting problems;
the properties pin down the relationships the paper's theory promises:

- the Glushkov/DFA pipeline agrees with the Brzozowski reference matcher;
- complementation really complements; minimization preserves language;
- the lazy game solver agrees with the eager one everywhere;
- safe rewriting implies possible rewriting;
- executing a safe plan yields a word in the target language for *any*
  type-conforming service behaviour.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.automata.bitset import from_dfa
from repro.automata.dfa import complement, complete, minimize
from repro.automata.ops import language_equal, regex_to_dfa, sample_word
from repro.automata.symbols import Alphabet
from repro.doc import Document, call, el
from repro.doc.nodes import symbol_of
from repro.regex import ast
from repro.regex.ops import matches
from repro.regex.parser import parse_regex
from repro.rewriting.lazy import analyze_safe_lazy
from repro.rewriting.possible import analyze_possible
from repro.rewriting.safe import analyze_safe, execute_safe

SYMBOLS = ["a", "b", "c"]


def regexes(symbols=tuple(SYMBOLS), max_leaves=6):
    """A strategy producing random regex ASTs over a small alphabet."""
    leaves = st.sampled_from([ast.atom(s) for s in symbols] + [ast.EPSILON])

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda p: ast.seq(*p)),
            st.tuples(children, children).map(lambda p: ast.alt(*p)),
            children.map(ast.star),
            children.map(ast.plus),
            children.map(ast.opt),
            st.tuples(children, st.integers(0, 2), st.integers(0, 2)).map(
                lambda t: ast.repeat(t[0], min(t[1], t[2]), max(t[1], t[2]))
            ),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def words(max_len=5):
    return st.lists(st.sampled_from(SYMBOLS), max_size=max_len).map(tuple)


class TestAutomataAgainstReference:
    @given(regexes(), words())
    @settings(max_examples=200, deadline=None)
    def test_dfa_agrees_with_derivative_matcher(self, regex, word):
        dfa = regex_to_dfa(regex, Alphabet.closure(SYMBOLS))
        assert dfa.accepts(word) == matches(regex, word)

    @given(regexes(), words())
    @settings(max_examples=150, deadline=None)
    def test_complement_flips_membership(self, regex, word):
        dfa = regex_to_dfa(regex, Alphabet.closure(SYMBOLS))
        assert complement(dfa).accepts(word) != dfa.accepts(word)

    @given(regexes())
    @settings(max_examples=100, deadline=None)
    def test_minimize_preserves_language(self, regex):
        dfa = regex_to_dfa(regex, Alphabet.closure(SYMBOLS))
        assert language_equal(dfa, minimize(dfa))

    @given(regexes())
    @settings(max_examples=100, deadline=None)
    def test_minimize_is_no_bigger(self, regex):
        dfa = regex_to_dfa(regex, Alphabet.closure(SYMBOLS))
        assert minimize(dfa).n_states <= complete(dfa).n_states

    @given(regexes(), st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_sampled_words_are_accepted(self, regex, seed):
        dfa = regex_to_dfa(regex, Alphabet.closure(SYMBOLS))
        from repro.automata.ops import is_empty

        if is_empty(dfa):
            return
        word = sample_word(from_dfa(dfa), random.Random(seed))
        assert dfa.accepts(word)

    @given(regexes(), words())
    @settings(max_examples=100, deadline=None)
    def test_str_parse_roundtrip_preserves_semantics(self, regex, word):
        reparsed = parse_regex(str(regex))
        assert matches(reparsed, word) == matches(regex, word)


def word_problems():
    """Random word-rewriting problems with known-consistent pieces."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, 4))
        word = []
        output_types = {}
        for i in range(n):
            if draw(st.booleans()):
                word.append(draw(st.sampled_from(SYMBOLS)))
            else:
                name = "q%d" % i
                out = draw(regexes(max_leaves=3))
                output_types[name] = out
                word.append(name)
        target = draw(regexes(max_leaves=5))
        k = draw(st.integers(0, 2))
        return tuple(word), output_types, target, k

    return build()


class TestRewritingInvariants:
    @given(word_problems())
    @settings(max_examples=120, deadline=None)
    def test_lazy_agrees_with_eager(self, problem):
        word, output_types, target, k = problem
        eager = analyze_safe(word, output_types, target, k=k)
        lazy = analyze_safe_lazy(word, output_types, target, k=k)
        assert eager.exists == lazy.exists

    @given(word_problems())
    @settings(max_examples=120, deadline=None)
    def test_safe_implies_possible(self, problem):
        word, output_types, target, k = problem
        if analyze_safe(word, output_types, target, k=k).exists:
            assert analyze_possible(word, output_types, target, k=k).exists

    @given(word_problems(), st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_safe_execution_always_lands_in_target(self, problem, seed):
        """The heart of Definition 5: whatever conforming outputs the
        services return, executing the winning strategy produces a word
        of the target language."""
        word, output_types, target, k = problem
        analysis = analyze_safe(word, output_types, target, k=k)
        if not analysis.exists:
            return
        rng = random.Random(seed)
        alphabet = Alphabet.closure(
            SYMBOLS, output_types.keys(),
            *(list(output_types) for _ in (1,)),
        )

        def adversarial_invoker(fc):
            out_type = output_types[fc.name]
            dfa = regex_to_dfa(
                out_type, Alphabet.closure(SYMBOLS, output_types.keys())
            )
            out_word = sample_word(
                from_dfa(dfa), rng, stop_probability=0.5, max_length=6
            )
            forest = []
            for symbol in out_word:
                if symbol in output_types:
                    forest.append(call(symbol))
                else:
                    forest.append(el(symbol))
            return tuple(forest)

        children = tuple(
            call(s) if s in output_types else el(s) for s in word
        )
        new_children, _log = execute_safe(analysis, children, adversarial_invoker)
        result_word = [symbol_of(n) for n in new_children]
        assert matches(target, result_word), (word, result_word, str(target))


class TestDocumentRoundTrip:
    @st.composite
    @staticmethod
    def documents(draw, depth=0):
        label = draw(st.sampled_from(["a", "b", "c"]))
        if depth >= 2:
            return el(label, draw(st.text("xyz ", max_size=5)).strip() or "v")
        children = draw(
            st.lists(
                st.one_of(
                    TestDocumentRoundTrip.documents(depth=depth + 1),
                    st.builds(
                        call,
                        st.sampled_from(["F", "G"]),
                        TestDocumentRoundTrip.documents(depth=depth + 1),
                    ),
                ),
                max_size=3,
            )
        )
        return el(label, *children)

    @given(documents())
    @settings(max_examples=100, deadline=None)
    def test_xml_roundtrip(self, root):
        document = Document(root)
        assert Document.from_xml(document.to_xml()) == document
