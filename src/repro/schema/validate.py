"""Instance validation (Definition 3).

A document ``t`` is an instance of schema ``s`` iff for every data node
with label ``l`` the symbols of its children form a word of
``lang(tau(l))``, and for every function node with name ``f`` they form a
word of ``lang(tau_in(f))``.  Pattern atoms in the type expressions match
any concrete function the pattern admits.

:class:`InstanceChecker` is the one implementation of that check, shared
by :func:`validate`, the Schema Enforcement module, the streaming driver
and incremental sessions.  :func:`validate` returns a report carrying
every violation (with its path), rather than failing on the first one —
the Schema Enforcement module reports all problems of a rejected
exchange at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.automata.bitset import BitDFA
from repro.automata.glushkov import glushkov_nfa
from repro.automata.symbols import Alphabet, class_matches, regex_symbols
from repro.compile import context as compile_context
from repro.doc.nodes import (
    Element,
    Node,
    Text,
    children_of,
    iter_subtree,
    symbol_of,
)
from repro.doc.paths import Path, child_word, iter_nodes
from repro.obs import context as obs
from repro.obs.metrics import record_work
from repro.regex.ast import Regex, alt, atom
from repro.schema.model import FunctionSignature, Schema, _substitute


@dataclass(frozen=True)
class Violation:
    """One reason a document fails to be an instance of a schema."""

    path: Path
    symbol: str
    kind: str  # "undeclared-label" | "undeclared-function" | "content" | "input"
    message: str

    def __str__(self) -> str:
        where = "/" + "/".join(str(i) for i in self.path) if self.path else "/"
        return "%s at %s: %s" % (self.kind, where, self.message)


@dataclass
class ValidationReport:
    """The outcome of validating one document against one schema."""

    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff the document is an instance of the schema."""
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


class InstanceChecker:
    """Definition 3, compiled once per (target, sender) schema pair.

    Each content model compiles, on first use, to the minimal ``BitDFA``
    of its resolved form from the compile cache (``None``: the ambient
    one): every target-schema pattern atom ``P`` becomes
    ``P | f1 | … | fn`` over the functions and patterns either schema
    declares that ``P`` admits.  A symbol outside the DFA's alphabet
    folds to ``OTHER``, which only wildcards accept — exactly how an
    unknown name meets atoms, wildcards and patterns.  The Glushkov NFA
    run of :func:`diagnose_word` only explains failed words.
    """

    def __init__(self, schema: Schema, sender_schema: Optional[Schema] = None,
                 compile_cache=None):
        self.schema = schema
        self.sender_schema = sender_schema
        self.compile_cache = compile_cache
        self._resolution: Optional[Dict[str, Regex]] = None
        self._dfas: Dict[int, Tuple[Regex, BitDFA]] = {}

    def signature_of(self, name: str) -> Optional[FunctionSignature]:
        """The target's signature, else the sender's.

        Section 4 assumes common functions have the same definitions in
        both schemas (they come from the same WSDL descriptions); the
        sender schema fills in functions the target does not declare.
        """
        signature = self.schema.signature_of(name)
        if signature is None and self.sender_schema is not None:
            signature = self.sender_schema.signature_of(name)
        return signature

    def word_ok(self, word: Sequence[str], expr: Regex) -> bool:
        """Does a children word belong to ``lang(expr)``, patterns included?"""
        entry = self._dfas.get(id(expr))
        if entry is None or entry[0] is not expr:
            resolved = expr
            if self.schema.patterns:
                resolved = _substitute(expr, self._patterns())
            cache = self.compile_cache
            if cache is None:
                cache = compile_context.cache()
            entry = (expr, cache.bit_target_dfa(
                resolved, Alphabet.closure(regex_symbols(resolved))
            ))
            self._dfas[id(expr)] = entry
        return entry[1].accepts(word)

    def _patterns(self) -> Dict[str, Regex]:
        """Each pattern name's resolution, computed on first use."""
        if self._resolution is None:
            names = set(self.schema.functions) | set(self.schema.patterns)
            if self.sender_schema is not None:
                names |= set(self.sender_schema.functions)
                names |= set(self.sender_schema.patterns)
            self._resolution = {
                pattern.name: alt(atom(pattern.name), *(
                    atom(name) for name in sorted(names)
                    if pattern.admits(name, self.signature_of(name))
                ))
                for pattern in self.schema.patterns.values()
            }
        return self._resolution

    def _type_of(self, node: Node) -> Optional[Regex]:
        """``tau`` of an element or ``tau_in`` of a call (None: undeclared)."""
        if isinstance(node, Element):
            return self.schema.type_of(node.label)
        signature = self.signature_of(node.name)
        return None if signature is None else signature.input_type

    def local_ok(self, node: Node, strict: bool = True) -> bool:
        """Definition 3 at one node; undeclared symbols fail iff ``strict``."""
        if isinstance(node, Text):
            return True
        expr = self._type_of(node)
        if expr is None:
            return not strict
        return self.word_ok(tuple(map(symbol_of, children_of(node))), expr)

    def ok(self, root: Node, strict: bool = True) -> bool:
        """Is the subtree an instance?  Iterative (any depth), stopping at
        the first failing node; one ``check`` work record per walk."""
        verdict = True
        words = 0
        for node in iter_subtree(root):
            if isinstance(node, Text):
                continue
            words += 1
            if not self.local_ok(node, strict):
                verdict = False
                break
        record_work(obs.metrics(), "check", {"words": words})
        return verdict

    def forest_ok(self, forest: Sequence[Node], expr: Regex) -> bool:
        """Is the forest's root word in ``lang(expr)`` and every tree an
        instance (undeclared symbols unconstrained)?"""
        return self.word_ok(tuple(map(symbol_of, forest)), expr) and all(
            self.ok(tree, strict=False) for tree in forest
        )

    def validate(self, root: Node, strict: bool = True) -> ValidationReport:
        """Every violation under ``root``, in document order; only the
        nodes that failed are diagnosed."""
        report = ValidationReport()
        words = 0
        for path, node in iter_nodes(root):
            if isinstance(node, Text):
                continue
            words += 1
            if not self.local_ok(node, strict):
                report.violations.append(self._violation(path, node))
        diagnoses = sum(
            v.kind in ("content", "input") for v in report.violations
        )
        record_work(
            obs.metrics(), "check", {"words": words, "diagnoses": diagnoses}
        )
        return report

    def _violation(self, path: Path, node: Node) -> Violation:
        element = isinstance(node, Element)
        symbol = node.label if element else node.name
        expr = self._type_of(node)
        if expr is None:
            if element:
                return Violation(
                    path, symbol, "undeclared-label",
                    "element label %r is not declared by the schema" % symbol,
                )
            return Violation(
                path, symbol, "undeclared-function",
                "function %r has no declared signature" % symbol,
            )
        word = child_word(node)
        template = (
            "children word %s does not match %s (%s)" if element
            else "parameters %s do not match input type %s (%s)"
        )
        diagnosis = diagnose_word(word, expr, self.schema, self.sender_schema)
        return Violation(
            path, symbol, "content" if element else "input",
            template % (".".join(word) or "eps", expr,
                        diagnosis.message(word)),
        )


def word_matches(
    word: Sequence[str],
    expr: Regex,
    schema: Schema,
    sender_schema: Optional[Schema] = None,
) -> bool:
    """Does a children word belong to ``lang(expr)``, patterns included?

    The word contains concrete symbols (labels, function names, ``#data``)
    while ``expr`` may contain pattern atoms; a pattern atom matches any
    function name it admits.
    """
    return InstanceChecker(schema, sender_schema).word_ok(word, expr)


@dataclass(frozen=True)
class WordDiagnosis:
    """Where and why a children word failed to match a content model.

    ``position`` is the index of the offending symbol (== len(word) when
    the word ended too early); ``expected`` lists the symbols (or
    pattern/wildcard descriptions) acceptable at that point.
    """

    ok: bool
    position: int = -1
    found: Optional[str] = None
    expected: Tuple[str, ...] = ()

    def message(self, word: Sequence[str]) -> str:
        if self.ok:
            return "matches"
        expected = " or ".join(self.expected) if self.expected else "nothing"
        if self.position >= len(word):
            return "word ends too early; expected %s" % expected
        return "unexpected %r at position %d; expected %s" % (
            self.found, self.position, expected
        )


def diagnose_word(
    word: Sequence[str],
    expr: Regex,
    schema: Schema,
    sender_schema: Optional[Schema] = None,
) -> WordDiagnosis:
    """Explain why a children word fails a content model (or confirm it):
    an NFA run in which a pattern atom matches any function it admits."""
    lookup = InstanceChecker(schema, sender_schema).signature_of
    nfa = glushkov_nfa(expr)

    def guard_matches(guard, symbol: str) -> bool:
        if class_matches(guard, symbol):
            return True
        if isinstance(guard, str) and guard in schema.patterns:
            return schema.patterns[guard].admits(symbol, lookup(symbol))
        return False

    def expected_at(states) -> Tuple[str, ...]:
        from repro.regex.ast import AnySymbol

        found = set()
        for state in states:
            for guard, _target in nfa.edges_from(state):
                if isinstance(guard, AnySymbol):
                    found.add("any element")
                else:
                    found.add(str(guard))
        return tuple(sorted(found))

    current = {nfa.initial}
    for position, symbol in enumerate(word):
        following = set()
        for state in current:
            for guard, target in nfa.edges_from(state):
                if guard_matches(guard, symbol):
                    following.add(target)
        if not following:
            return WordDiagnosis(
                False, position, symbol, expected_at(current)
            )
        current = following
    if current & nfa.accepting:
        return WordDiagnosis(True)
    return WordDiagnosis(False, len(word), None, expected_at(current))



def validate(
    document_or_node,
    schema: Schema,
    sender_schema: Optional[Schema] = None,
    strict: bool = True,
) -> ValidationReport:
    """Check Definition 3 over a document (or bare node).

    With ``strict`` (the default) every element label must be declared by
    the schema and every function must have a signature in either schema;
    with ``strict=False`` undeclared symbols are unconstrained, which is
    the literal reading of Definition 3.
    """
    root: Node = getattr(document_or_node, "root", document_or_node)
    return InstanceChecker(schema, sender_schema).validate(root, strict)


def is_instance(
    document_or_node,
    schema: Schema,
    sender_schema: Optional[Schema] = None,
    strict: bool = True,
) -> bool:
    """Shorthand: True iff :func:`validate` reports no violations."""
    root: Node = getattr(document_or_node, "root", document_or_node)
    return InstanceChecker(schema, sender_schema).ok(root, strict)


def _is_forest_instance(forest, function_name, side, schema, sender_schema):
    checker = InstanceChecker(schema, sender_schema)
    signature = checker.signature_of(function_name)
    if signature is None:
        return False
    return checker.forest_ok(forest, getattr(signature, side))


def is_input_instance(
    forest: Sequence[Node],
    function_name: str,
    schema: Schema,
    sender_schema: Optional[Schema] = None,
) -> bool:
    """Is a forest a valid input instance of ``function_name``?

    Definition 3's dual of the output case: the root symbols must form a
    word of ``tau_in(f)`` and every parameter tree must itself be an
    instance of the schema.
    """
    return _is_forest_instance(
        forest, function_name, "input_type", schema, sender_schema
    )


def is_output_instance(
    forest: Sequence[Node],
    function_name: str,
    schema: Schema,
    sender_schema: Optional[Schema] = None,
) -> bool:
    """Is a forest a valid output instance of ``function_name``?

    Definition 3: the root symbols must form a word of ``tau_out(f)`` and
    every tree must itself be an instance of the schema.
    """
    return _is_forest_instance(
        forest, function_name, "output_type", schema, sender_schema
    )
