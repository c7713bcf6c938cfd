"""Finite-state machinery behind the rewriting algorithms.

The paper's algorithms (Figures 3 and 9) manipulate finite automata built
from the regular expressions of schemas:

- :mod:`repro.automata.symbols` — alphabets over labels and function
  names, with the ``OTHER`` catch-all that keeps *complete* automata
  finite even though the universe of labels is unbounded;
- :mod:`repro.automata.glushkov` — the position (Glushkov) automaton,
  which is deterministic exactly for one-unambiguous expressions (the
  class XML Schema enforces);
- :mod:`repro.automata.nfa` / :mod:`repro.automata.dfa` — nondeterministic
  and deterministic automata with the standard constructions the paper
  relies on: subset construction, completion, complementation and
  minimization;
- :mod:`repro.automata.ops` — dict-DFA emptiness, inclusion, equivalence
  and word enumeration (the tests' oracle), and the service simulator's
  word sampler;
- :mod:`repro.automata.bitset` — the flat, integer-indexed encoding
  everything at run time reads: the games and their executors, the
  inclusion and equivalence checks, the instance checker and the word
  sampler (state sets as int bitsets, antichain inclusion); dict DFAs
  remain the figure renderer's input and the tests' oracle.
"""

from repro.automata.bitset import (
    BitDFA,
    antichain_language_subset,
    bit_complement,
    bit_determinize,
    bit_intersects,
    bit_minimize,
    bit_subset,
    from_dfa,
)
from repro.automata.dfa import (
    DFA,
    complement,
    complete,
    determinize,
    minimize,
    minimize_hopcroft,
    widen_alphabet,
)
from repro.automata.glushkov import glushkov_nfa
from repro.automata.nfa import NFA
from repro.automata.ops import (
    intersects,
    is_empty,
    language_equal,
    language_subset,
    sample_word,
    shortest_words,
)
from repro.automata.dot import dfa_to_dot, expansion_to_dot, product_to_dot
from repro.automata.symbols import (
    ANY_PLACEHOLDER,
    DATA,
    OTHER,
    Alphabet,
    class_matches,
    concretize_class,
)

__all__ = [
    "DFA",
    "NFA",
    "glushkov_nfa",
    "determinize",
    "complete",
    "complement",
    "minimize",
    "minimize_hopcroft",
    "widen_alphabet",
    "is_empty",
    "intersects",
    "language_subset",
    "language_equal",
    "shortest_words",
    "sample_word",
    "DATA",
    "OTHER",
    "ANY_PLACEHOLDER",
    "Alphabet",
    "class_matches",
    "concretize_class",
    "dfa_to_dot",
    "expansion_to_dot",
    "product_to_dot",
    "BitDFA",
    "from_dfa",
    "bit_determinize",
    "bit_minimize",
    "bit_complement",
    "bit_subset",
    "bit_intersects",
    "antichain_language_subset",
]
