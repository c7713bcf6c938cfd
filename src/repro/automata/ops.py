"""Language-level operations on automata.

The dict-DFA operations — :func:`regex_to_dfa`, emptiness, inclusion,
equivalence and word enumeration — are the test suite's oracle; the run
time decides inclusion on cached
:class:`~repro.automata.bitset.BitDFA` artifacts with
:func:`~repro.automata.bitset.bit_subset` directly.
:class:`WordSampler` draws the simulated services' answers (seeded words
of declared output types) from a minimized ``BitDFA``.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

from repro.automata.bitset import (
    BitDFA, bit_intersects, bit_subset, from_dfa, iter_bits,
)
from repro.automata.dfa import DFA, determinize
from repro.automata.glushkov import glushkov_nfa
from repro.automata.symbols import Alphabet, regex_symbols
from repro.obs import context as obs
from repro.regex.ast import Regex


def regex_to_dfa(r: Regex, alphabet: Optional[Alphabet] = None) -> DFA:
    """Compile a regex to a DFA over the given (or inferred) alphabet."""
    if alphabet is None:
        alphabet = Alphabet.closure(regex_symbols(r))
    return determinize(glushkov_nfa(r), alphabet)


def is_empty(dfa: DFA) -> bool:
    """True iff the DFA's language is empty."""
    seen = set()
    stack = [dfa.initial]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        if state in dfa.accepting:
            return False
        stack.extend(dfa.transitions.get(state, {}).values())
    return True


def intersects(left: DFA, right: DFA) -> bool:
    """True iff the two languages share at least one word.

    An early-exit pair search over flat transition tables
    (:func:`repro.automata.bitset.bit_intersects`) — no product
    automaton is materialized.
    """
    with obs.tracer().span(
        "product", op="bitset", left_states=left.n_states,
        right_states=right.n_states,
    ):
        return bit_intersects(from_dfa(left), from_dfa(right))


def language_subset(left: DFA, right: DFA) -> bool:
    """True iff ``lang(left) ⊆ lang(right)``.

    The complement is never built: an early-exit pair search fails on
    the first reachable pair accepting on the left but not on the right.
    (For inclusion against a *nondeterministic* automaton, see
    :func:`repro.automata.bitset.antichain_language_subset` — cached as
    ``CompilationCache.antichain_subset`` — which also skips the subset
    construction.)
    """
    with obs.tracer().span(
        "product", op="bitset", left_states=left.n_states,
        right_states=right.n_states,
    ):
        return bit_subset(from_dfa(left), from_dfa(right))


def language_equal(left: DFA, right: DFA) -> bool:
    """True iff the two automata define the same language."""
    return language_subset(left, right) and language_subset(right, left)


def shortest_words(dfa: DFA, limit: int = 10) -> Iterator[Tuple[str, ...]]:
    """Yield up to ``limit`` accepted words in length-then-lexical order."""
    emitted = 0
    frontier: List[Tuple[Tuple[str, ...], int]] = [((), dfa.initial)]
    seen = {((), dfa.initial)}
    while frontier and emitted < limit:
        next_frontier: List[Tuple[Tuple[str, ...], int]] = []
        for word, state in frontier:
            if state in dfa.accepting:
                yield word
                emitted += 1
                if emitted >= limit:
                    return
            for symbol in sorted(dfa.transitions.get(state, {})):
                target = dfa.transitions[state][symbol]
                entry = (word + (symbol,), target)
                if entry not in seen:
                    seen.add(entry)
                    next_frontier.append(entry)
        frontier = next_frontier


def sample_word(
    dfa: BitDFA,
    rng: random.Random,
    stop_probability: float = 0.4,
    max_length: int = 24,
    weight=None,
) -> Tuple[str, ...]:
    """Sample a random accepted word, used by the service simulator.

    The walk prefers to stop once it stands on an accepting state (with
    probability ``stop_probability``) and falls back to the shortest
    accepted completion when ``max_length`` is hit, so sampling always
    terminates with a valid word.

    ``weight`` optionally maps each symbol to a positive sampling weight
    (default 1.0 each); the instance generator uses it to bias documents
    toward — or away from — intensional content.

    Raises ValueError when the language is empty.  Callers that sample
    one DFA many times keep its :class:`WordSampler` instead.
    """
    return WordSampler(dfa).sample(rng, stop_probability, max_length, weight)


class WordSampler:
    """A :class:`BitDFA` prepared for repeated :func:`sample_word` walks.

    The distance-to-accepting table, each state's viable moves (sorted by
    symbol, dead ends dropped) and its closest-to-accepting move are
    computed once; :meth:`sample` then only draws from the RNG, making
    exactly the draws :func:`sample_word` makes.  The draws depend only
    on the language and the alphabet (a wildcard offers every symbol of
    it), never on the state numbering, so a minimized automaton draws
    the same words as any other one for the language.  Immutable after
    construction, so one sampler may serve many threads.
    """

    __slots__ = ("initial", "accepting", "empty", "moves", "closest")

    def __init__(self, dfa: BitDFA):
        distance = _distance_to_accepting(dfa)
        self.initial = dfa.initial
        self.accepting = dfa.accepting
        self.empty = distance[dfa.initial] is None
        self.moves = {}
        self.closest = {}
        for state in range(dfa.n):
            viable = tuple(
                (symbol, row[state])
                for symbol, row in zip(dfa.symbols, dfa.delta)
                if distance[row[state]] is not None
            )
            if viable:
                self.moves[state] = viable
                self.closest[state] = min(
                    viable, key=lambda item: distance[item[1]]
                )

    def sample(
        self,
        rng: random.Random,
        stop_probability: float = 0.4,
        max_length: int = 24,
        weight=None,
    ) -> Tuple[str, ...]:
        """One accepted word; see :func:`sample_word`."""
        if self.empty:
            raise ValueError("cannot sample from an empty language")
        word: List[str] = []
        state = self.initial
        while True:
            if (self.accepting >> state) & 1 and (
                len(word) >= max_length or rng.random() < stop_probability
            ):
                return tuple(word)
            viable = self.moves.get(state)
            if viable is None:
                return tuple(word)  # accepting with no live successors
            if len(word) >= max_length:
                # Head straight for the closest accepting state.
                symbol, state = self.closest[state]
            elif weight is None:
                symbol, state = rng.choice(viable)
            else:
                weights = [max(1e-9, float(weight(s))) for s, _t in viable]
                symbol, state = rng.choices(viable, weights=weights, k=1)[0]
            word.append(symbol)


def _distance_to_accepting(dfa: BitDFA) -> List[Optional[int]]:
    """BFS distance from each state to the nearest accepting state
    (None where no accepting state is reachable)."""
    pred = dfa.pred()
    distance: List[Optional[int]] = [None] * dfa.n
    frontier = list(iter_bits(dfa.accepting))
    for state in frontier:
        distance[state] = 0
    while frontier:
        next_frontier = []
        for state in frontier:
            sources = 0
            for row in pred:
                sources |= row[state]
            for previous in iter_bits(sources):
                if distance[previous] is None:
                    distance[previous] = distance[state] + 1
                    next_frontier.append(previous)
        frontier = next_frontier
    return distance
