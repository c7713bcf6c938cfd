"""Seeded instance generation from schemas.

Several parts of the system need to *produce* documents that conform to a
type expression:

- the simulated services must return output instances of their declared
  output types (including adversarial corner cases),
- the Section 6 compatibility check and the benchmarks need random
  instances of whole schemas,
- the tests cross-check the validator against generated instances.

Generation is seeded (deterministic per :class:`random.Random`) and is
guaranteed to terminate: a pre-computed minimal-instance-size fixpoint
detects labels with no finite instances and steers the generator toward
cheapest completions once the depth budget runs out.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.automata.ops import WordSampler
from repro.automata.symbols import DATA, OTHER, Alphabet
from repro.compile import context as compile_context
from repro.doc.document import Document
from repro.doc.nodes import Element, FunctionCall, Node, Text
from repro.errors import SchemaError
from repro.regex.ast import (
    Alt,
    AnySymbol,
    Atom,
    Empty,
    Epsilon,
    Regex,
    Repeat,
    Seq,
    Star,
)
from repro.schema.model import Schema

#: Vocabulary for random data leaves.
_WORDS = (
    "Paris", "London", "15", "April", "The Sun", "Picasso", "18C",
    "04/10/2002", "rain", "42", "exhibits", "news",
)

#: Label used to materialize wildcard (`any`) positions.
_WILDCARD_LABEL = "any-element"


def min_word_cost(expr: Regex, cost: Dict[str, float], default: float = 1.0) -> float:
    """Minimal total symbol cost over all words of ``lang(expr)``.

    Computed structurally on the regex — no automaton needed; ``math.inf``
    means the language is empty or requires symbols with infinite cost.
    """
    if isinstance(expr, Epsilon):
        return 0.0
    if isinstance(expr, Empty):
        return math.inf
    if isinstance(expr, Atom):
        return cost.get(expr.symbol, default)
    if isinstance(expr, AnySymbol):
        return default
    if isinstance(expr, Seq):
        return sum(min_word_cost(item, cost, default) for item in expr.items)
    if isinstance(expr, Alt):
        return min(min_word_cost(option, cost, default) for option in expr.options)
    if isinstance(expr, Star):
        return 0.0
    if isinstance(expr, Repeat):
        if expr.low == 0:
            return 0.0
        return expr.low * min_word_cost(expr.item, cost, default)
    raise TypeError("unknown regex node %r" % (expr,))


def cheapest_word(expr: Regex, cost: Dict[str, float], default: float = 1.0) -> Tuple[str, ...]:
    """An accepted word achieving :func:`min_word_cost`.

    Wildcard positions materialize as :data:`~repro.automata.symbols.OTHER`.
    Raises :class:`ValueError` when the language admits no finite-cost word.
    """
    if isinstance(expr, Epsilon):
        return ()
    if isinstance(expr, Empty):
        raise ValueError("empty language has no words")
    if isinstance(expr, Atom):
        if cost.get(expr.symbol, default) == math.inf:
            raise ValueError("symbol %r has no finite instance" % expr.symbol)
        return (expr.symbol,)
    if isinstance(expr, AnySymbol):
        return (OTHER,)
    if isinstance(expr, Seq):
        word: Tuple[str, ...] = ()
        for item in expr.items:
            word += cheapest_word(item, cost, default)
        return word
    if isinstance(expr, Alt):
        best = min(expr.options, key=lambda o: min_word_cost(o, cost, default))
        return cheapest_word(best, cost, default)
    if isinstance(expr, Star):
        return ()
    if isinstance(expr, Repeat):
        if expr.low == 0:
            return ()
        return cheapest_word(expr.item, cost, default) * expr.low
    raise TypeError("unknown regex node %r" % (expr,))


def min_instance_sizes(schema: Schema) -> Dict[str, float]:
    """Fixpoint: minimal node count of an instance subtree per symbol.

    Data leaves and undeclared symbols cost 1; a declared label costs one
    plus the cheapest children word; a function node costs one plus the
    cheapest parameter word.  ``math.inf`` marks symbols with no finite
    instance (e.g. ``tau(a) = a``).
    """
    sizes: Dict[str, float] = {DATA: 1.0, OTHER: 1.0}
    for label in schema.label_types:
        sizes[label] = math.inf
    for name in schema.functions:
        sizes[name] = math.inf
    for name in schema.patterns:
        sizes[name] = math.inf

    changed = True
    while changed:
        changed = False
        for label, expr in schema.label_types.items():
            candidate = 1.0 + min_word_cost(expr, sizes)
            if candidate < sizes[label]:
                sizes[label] = candidate
                changed = True
        for name, signature in schema.functions.items():
            candidate = 1.0 + min_word_cost(signature.input_type, sizes)
            if candidate < sizes[name]:
                sizes[name] = candidate
                changed = True
        for name, pattern in schema.patterns.items():
            admitted = [
                f
                for f, sig in schema.functions.items()
                if pattern.admits(f, sig)
            ]
            candidate = min((sizes[f] for f in admitted), default=math.inf)
            if candidate < sizes[name]:
                sizes[name] = candidate
                changed = True
    return sizes


class SchemaSampler:
    """The schema-constant half of instance generation, compiled once.

    Holds the minimal-instance-size fixpoint, the schema's closed
    alphabet, its callable names and a memo of one :class:`WordSampler`
    per content model (the ambient compile cache's minimized
    ``BitDFA`` over this alphabet, plus its distance table), so a
    generator built from it (:meth:`generator`) only draws from its RNG.
    The memo is keyed by expression identity (the schema's content
    models are fixed objects); its values are deterministic, so a
    racing duplicate build is harmless and many threads may share one
    sampler while each call keeps its own generator and RNG.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self.sizes = min_instance_sizes(schema)
        self.alphabet = Alphabet.closure(schema.alphabet_symbols())
        self.callable_names = frozenset(schema.functions) | frozenset(
            schema.patterns
        )
        self._samplers: Dict[int, Tuple[Regex, WordSampler]] = {}

    def generator(
        self, rng: random.Random, max_depth: int = 8
    ) -> "InstanceGenerator":
        """An :class:`InstanceGenerator` drawing from ``rng`` over this
        sampler's compiled state."""
        return InstanceGenerator(self.schema, rng, max_depth, sampler=self)

    def word_sampler(self, expr: Regex) -> WordSampler:
        """The memoized sampler of one content model's words."""
        entry = self._samplers.get(id(expr))
        if entry is not None:
            return entry[1]
        sampler = WordSampler(
            compile_context.cache().bit_target_dfa(
                self._desugared(expr), self.alphabet
            )
        )
        # The entry pins ``expr``, so its id cannot be reused meanwhile.
        return self._samplers.setdefault(id(expr), (expr, sampler))[1]

    def _desugared(self, expr: Regex) -> Regex:
        """Expand pattern atoms to declared candidate functions."""
        from repro.regex.ast import alt, atom
        from repro.schema.model import _substitute

        expansion = {}
        for pattern in self.schema.patterns.values():
            matching = sorted(
                name
                for name, sig in self.schema.functions.items()
                if pattern.admits(name, sig)
            )
            expansion[pattern.name] = alt(*(atom(n) for n in matching))
        return _substitute(expr, expansion)


class InstanceGenerator:
    """Seeded generator of schema instances.

    Args:
        schema: the schema to generate instances of.
        rng: the random source; pass a seeded ``random.Random`` for
            reproducible documents.
        max_depth: soft depth budget — below it, children words are
            sampled uniformly-ish from the type DFA; past it the generator
            switches to cheapest completions so generation terminates.
        function_probability: when a sampled word offers both a function
            and a data alternative this biases nothing by itself — it is
            used when *choosing* candidates for pattern atoms.
        sampler: the schema's compiled :class:`SchemaSampler` to share;
            None compiles a private one.
    """

    def __init__(
        self,
        schema: Schema,
        rng: Optional[random.Random] = None,
        max_depth: int = 8,
        call_bias: float = 1.0,
        sampler: Optional[SchemaSampler] = None,
    ):
        self.schema = schema
        self.rng = rng or random.Random(0)
        self.max_depth = max_depth
        #: Relative weight of function-name symbols when sampling content
        #: words: > 1 biases documents toward intensional content, < 1
        #: toward materialized data, 0 avoids calls wherever a choice
        #: exists.
        self.call_bias = call_bias
        if sampler is None:
            sampler = SchemaSampler(schema)
        self._sampler = sampler
        self.sizes = sampler.sizes

    # -- public API -----------------------------------------------------

    def document(self, root_label: Optional[str] = None) -> Document:
        """A random instance with the given (or schema's) root label."""
        label = root_label or self.schema.root
        if label is None:
            raise SchemaError("no root label given and the schema declares none")
        return Document(self.element(label, depth=0))

    def element(self, label: str, depth: int = 0) -> Element:
        """A random instance subtree for a declared label."""
        expr = self.schema.type_of(label)
        if expr is None:
            raise SchemaError("label %r is not declared" % label)
        if self.sizes.get(label, math.inf) == math.inf:
            raise SchemaError("label %r has no finite instances" % label)
        return Element(label, self.forest(expr, depth + 1))

    def function_node(self, name: str, depth: int = 0) -> FunctionCall:
        """A random call node with parameters matching ``tau_in(name)``."""
        input_type = self.schema.input_type(name)
        if input_type is None:
            raise SchemaError("function %r is not declared" % name)
        return FunctionCall(name, self.forest(input_type, depth + 1))

    def output_forest(self, name: str, depth: int = 0) -> Tuple[Node, ...]:
        """A random output instance of a declared function.

        This is what the simulated services return when invoked.
        """
        output_type = self.schema.output_type(name)
        if output_type is None:
            raise SchemaError("function %r is not declared" % name)
        return self.forest(output_type, depth)

    def forest(self, expr: Regex, depth: int = 0) -> Tuple[Node, ...]:
        """A random forest whose root symbols form a word of ``lang(expr)``."""
        word = self._sample_children_word(expr, depth)
        return tuple(self._node_for(symbol, depth) for symbol in word)

    # -- internals --------------------------------------------------------

    def _sample_children_word(self, expr: Regex, depth: int) -> Sequence[str]:
        if depth >= self.max_depth:
            return cheapest_word(expr, self.sizes)
        weight = None
        if self.call_bias != 1.0:
            callable_names = self._sampler.callable_names

            def weight(symbol: str) -> float:
                if symbol in callable_names:
                    return self.call_bias
                return 1.0
        return self._sampler.word_sampler(expr).sample(self.rng, weight=weight)

    def _node_for(self, symbol: str, depth: int) -> Node:
        if symbol == DATA:
            return Text(self.rng.choice(_WORDS))
        if symbol == OTHER:
            return Element(_WILDCARD_LABEL)
        if symbol in self.schema.functions:
            return self.function_node(symbol, depth)
        if symbol in self.schema.patterns:
            pattern = self.schema.patterns[symbol]
            admitted = sorted(
                name
                for name, sig in self.schema.functions.items()
                if pattern.admits(name, sig)
            )
            if not admitted:
                raise SchemaError(
                    "pattern %r admits no declared function" % symbol
                )
            return self.function_node(self.rng.choice(admitted), depth)
        if symbol in self.schema.label_types:
            return self.element(symbol, depth)
        # Undeclared symbol (lenient schemas): an empty element.
        return Element(symbol)
