"""The schema model: ``s = (L, F, P, tau)``.

``tau`` maps each label to a regular expression over ``L ∪ F ∪ P`` (or to
the ``data`` keyword, which we uniformly encode as the reserved ``#data``
atom), and maps each function name or pattern to a signature — a pair of
such expressions (Definition 2, extended with patterns per Section 2.1).

The paper's running example (*)::

    schema = (
        SchemaBuilder()
        .element("newspaper",
                 "title.date.(Get_Temp | temp).(TimeOut | exhibit*)")
        .element("title", "data")
        .element("date", "data")
        .element("temp", "data")
        .element("city", "data")
        .element("exhibit", "title.(Get_Date | date)")
        .function("Get_Temp", "city", "temp")
        .function("TimeOut", "data", "(exhibit | performance)*")
        .function("Get_Date", "title", "date")
        .root("newspaper")
        .build(strict=False)   # (*) leaves `performance` undeclared
    )
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Set, Union

from repro.automata.symbols import DATA
from repro.errors import SchemaError
from repro.regex.ast import Alt, AnySymbol, Atom, Regex, alt, atom
from repro.regex.ops import regex_alphabet
from repro.regex.parser import parse_regex

RegexLike = Union[str, Regex]


def _coerce(expr: RegexLike) -> Regex:
    return parse_regex(expr) if isinstance(expr, str) else expr


@dataclass(frozen=True)
class FunctionSignature:
    """A function's input and output types (``tau_in``, ``tau_out``)."""

    input_type: Regex
    output_type: Regex

    def __str__(self) -> str:
        return "%s -> %s" % (self.input_type, self.output_type)


#: Pattern-signature matching modes.
EXACT = "exact"  # Definition's literal reading: signatures are equal
SUBSUME = "subsume"  # Section 2.1's wildcard reading: languages included


@dataclass(frozen=True)
class FunctionPattern:
    """A set of functions: a name predicate plus a required signature.

    A concrete function belongs to the pattern iff the predicate accepts
    its name *and* its signature matches the required one (Section 2.1).
    Two matching modes realize the paper's two readings:

    - ``"exact"`` (default): "its signature is the same as the required
      one" — structural equality of the type expressions;
    - ``"subsume"``: the wildcard combination — "the temperature is
      obtained from an arbitrary function that returns a correct temp
      element, but may take any argument" is the pattern
      ``any* -> temp``, which must admit ``city -> temp``; here the
      function's input and output languages must be *included* in the
      pattern's.

    The predicate models Web services like the paper's ``UDDIF`` (is the
    service registered in this UDDI directory?) and ``InACL`` (does the
    client have access rights?).
    """

    name: str
    signature: FunctionSignature
    predicate: Callable[[str], bool] = field(compare=False, default=lambda _n: True)
    match: str = EXACT

    def admits(self, function_name: str, signature: Optional[FunctionSignature]) -> bool:
        """True iff a function with this name/signature matches the pattern."""
        if not self.predicate(function_name):
            return False
        if signature is None:
            return False
        if self.match == EXACT:
            return signature == self.signature
        return self._subsumes(signature)

    def _subsumes(self, signature: FunctionSignature) -> bool:
        from repro.automata.bitset import bit_subset
        from repro.automata.symbols import Alphabet, regex_symbols
        from repro.compile import context as compile_context

        cc = compile_context.cache()
        for theirs, ours in (
            (signature.input_type, self.signature.input_type),
            (signature.output_type, self.signature.output_type),
        ):
            alphabet = Alphabet.closure(
                regex_symbols(theirs), regex_symbols(ours)
            )
            if not bit_subset(
                cc.bit_target_dfa(theirs, alphabet),
                cc.bit_target_dfa(ours, alphabet),
            ):
                return False
        return True


@dataclass(frozen=True)
class Schema:
    """An intensional document schema ``(L, F, P, tau)``.

    ``label_types`` is ``tau`` restricted to labels, ``functions`` holds
    the signatures, ``patterns`` the function-pattern definitions, and
    ``root`` the optional distinguished root label of Definition 6.
    """

    label_types: Dict[str, Regex]
    functions: Dict[str, FunctionSignature] = field(default_factory=dict)
    patterns: Dict[str, FunctionPattern] = field(default_factory=dict)
    root: Optional[str] = None

    # -- tau accessors ------------------------------------------------

    def type_of(self, label: str) -> Optional[Regex]:
        """``tau(label)`` or None when the label is not declared."""
        return self.label_types.get(label)

    def signature_of(self, name: str) -> Optional[FunctionSignature]:
        """The signature of a declared function or pattern, if any."""
        if name in self.functions:
            return self.functions[name]
        if name in self.patterns:
            return self.patterns[name].signature
        return None

    def input_type(self, name: str) -> Optional[Regex]:
        """``tau_in(name)`` for a function or pattern."""
        signature = self.signature_of(name)
        return signature.input_type if signature else None

    def output_type(self, name: str) -> Optional[Regex]:
        """``tau_out(name)`` for a function or pattern."""
        signature = self.signature_of(name)
        return signature.output_type if signature else None

    # -- derived vocabulary --------------------------------------------

    def labels(self) -> FrozenSet[str]:
        """The set ``L``."""
        return frozenset(self.label_types)

    def function_names(self) -> FrozenSet[str]:
        """The set ``F``."""
        return frozenset(self.functions)

    def pattern_names(self) -> FrozenSet[str]:
        """The set ``P``."""
        return frozenset(self.patterns)

    def alphabet_symbols(self) -> FrozenSet[str]:
        """Every symbol the schema mentions anywhere (labels, functions,
        patterns, atoms inside type expressions, plus ``#data``)."""
        symbols: Set[str] = {DATA}
        symbols.update(self.label_types)
        symbols.update(self.functions)
        symbols.update(self.patterns)
        for expr in self.label_types.values():
            symbols.update(regex_alphabet(expr))
        for signature in self.functions.values():
            symbols.update(regex_alphabet(signature.input_type))
            symbols.update(regex_alphabet(signature.output_type))
        for pattern in self.patterns.values():
            symbols.update(regex_alphabet(pattern.signature.input_type))
            symbols.update(regex_alphabet(pattern.signature.output_type))
        return frozenset(symbols)

    # -- pattern handling ----------------------------------------------

    def matching_patterns(
        self, function_name: str, signature: Optional[FunctionSignature]
    ) -> FrozenSet[str]:
        """Names of the patterns a concrete function belongs to."""
        return frozenset(
            pattern.name
            for pattern in self.patterns.values()
            if pattern.admits(function_name, signature)
        )

    def desugar_patterns(
        self,
        candidates: Iterable[str],
        signature_lookup: Callable[[str], Optional[FunctionSignature]],
    ) -> "Schema":
        """Replace pattern atoms by the concrete functions that match them.

        ``candidates`` is the closed set of function names that can ever
        appear during the rewriting at hand (names in the document plus
        every function declared by the sender schema ``s0``); since no
        other function can materialize, substituting each pattern atom by
        the alternation of its matching candidates is exact.  Patterns
        that match no candidate become the empty language.
        """
        expansion: Dict[str, Regex] = {}
        for pattern in self.patterns.values():
            matching = sorted(
                name
                for name in set(candidates)
                if pattern.admits(name, signature_lookup(name))
            )
            expansion[pattern.name] = alt(*(atom(name) for name in matching))

        new_labels = {
            label: _substitute(expr, expansion)
            for label, expr in self.label_types.items()
        }
        new_functions = dict(self.functions)
        # Matched candidate functions inherit the pattern's signature if
        # they were not already declared (they come from s0).
        for pattern in self.patterns.values():
            for name in set(candidates):
                if pattern.admits(name, signature_lookup(name)):
                    new_functions.setdefault(name, pattern.signature)
        return Schema(new_labels, new_functions, {}, self.root)

    def with_root(self, root: str) -> "Schema":
        """A copy with the distinguished root label set."""
        if root not in self.label_types:
            raise SchemaError("root label %r is not declared" % root)
        return replace(self, root=root)


def _substitute(expr: Regex, expansion: Dict[str, Regex]) -> Regex:
    """Replace pattern-name atoms inside ``expr`` by their expansions."""
    from repro.regex.ast import Empty, Epsilon, Repeat, Seq, Star, seq, star, Repeat as Rep

    if isinstance(expr, Atom):
        return expansion.get(expr.symbol, expr)
    if isinstance(expr, (Epsilon, Empty, AnySymbol)):
        return expr
    if isinstance(expr, Seq):
        return seq(*(_substitute(item, expansion) for item in expr.items))
    if isinstance(expr, Alt):
        return alt(*(_substitute(option, expansion) for option in expr.options))
    if isinstance(expr, Star):
        return star(_substitute(expr.item, expansion))
    if isinstance(expr, Repeat):
        from repro.regex.ast import repeat

        return repeat(_substitute(expr.item, expansion), expr.low, expr.high)
    raise TypeError("unknown regex node %r" % (expr,))


class SchemaBuilder:
    """Fluent construction of schemas with consistency checking.

    ``build(strict=True)`` verifies that every atom appearing in a type
    expression is a declared label, function, pattern or ``#data``;
    ``strict=False`` tolerates undeclared atoms (the paper's schema (*)
    mentions ``performance`` without declaring it).
    """

    def __init__(self):
        self._labels: Dict[str, Regex] = {}
        self._functions: Dict[str, FunctionSignature] = {}
        self._patterns: Dict[str, FunctionPattern] = {}
        self._root: Optional[str] = None

    def element(self, label: str, content: RegexLike) -> "SchemaBuilder":
        """Declare ``tau(label) = content``."""
        if label in self._labels:
            raise SchemaError("label %r declared twice" % label)
        self._labels[label] = _coerce(content)
        return self

    def function(
        self, name: str, input_type: RegexLike, output_type: RegexLike
    ) -> "SchemaBuilder":
        """Declare a function with ``tau_in`` / ``tau_out``."""
        if name in self._functions or name in self._patterns:
            raise SchemaError("function %r declared twice" % name)
        self._functions[name] = FunctionSignature(
            _coerce(input_type), _coerce(output_type)
        )
        return self

    def pattern(
        self,
        name: str,
        input_type: RegexLike,
        output_type: RegexLike,
        predicate: Callable[[str], bool] = lambda _n: True,
        match: str = EXACT,
    ) -> "SchemaBuilder":
        """Declare a function pattern (Section 2.1).

        ``match="subsume"`` admits any function whose signature languages
        are included in the pattern's — required when the pattern uses
        wildcards ("may take any argument").
        """
        if name in self._functions or name in self._patterns:
            raise SchemaError("pattern %r collides with another declaration" % name)
        if match not in (EXACT, SUBSUME):
            raise SchemaError("unknown pattern match mode %r" % match)
        signature = FunctionSignature(_coerce(input_type), _coerce(output_type))
        self._patterns[name] = FunctionPattern(name, signature, predicate, match)
        return self

    def root(self, label: str) -> "SchemaBuilder":
        """Set the distinguished root label (Definition 6)."""
        self._root = label
        return self

    def build(self, strict: bool = True) -> Schema:
        """Finalize; raises :class:`SchemaError` on inconsistencies."""
        if self._root is not None and self._root not in self._labels:
            raise SchemaError("root label %r is not declared" % self._root)
        schema = Schema(
            dict(self._labels), dict(self._functions), dict(self._patterns), self._root
        )
        if strict:
            declared = (
                schema.labels()
                | schema.function_names()
                | schema.pattern_names()
                | {DATA}
            )
            undeclared: Set[str] = set()
            for expr in list(self._labels.values()) + [
                t
                for sig in self._functions.values()
                for t in (sig.input_type, sig.output_type)
            ] + [
                t
                for pat in self._patterns.values()
                for t in (pat.signature.input_type, pat.signature.output_type)
            ]:
                undeclared |= set(regex_alphabet(expr)) - declared
            if undeclared:
                raise SchemaError(
                    "type expressions mention undeclared symbols: %s"
                    % ", ".join(sorted(undeclared))
                )
        return schema
