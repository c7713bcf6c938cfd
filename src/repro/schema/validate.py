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
from repro.automata.symbols import DATA, Alphabet, class_matches, regex_symbols
from repro.compile import context as compile_context
from repro.doc.nodes import (
    Element,
    FunctionCall,
    IdentityMemo,
    Node,
    Text,
    children_of,
    iter_subtree,
    symbol_of,
)
from repro.doc.paths import Path
from repro.errors import DocumentParseError
from repro.obs import context as obs
from repro.obs.metrics import record_work
from repro.regex.ast import Regex, alt, atom
from repro.schema.model import FunctionSignature, Schema, _substitute


@dataclass(frozen=True)
class Violation:
    """One reason a document fails to be an instance of a schema."""

    #: Where, or None where no position is known: a streamed word (its
    #: position is not final when it closes) or a reply the receiver
    #: cannot parse.
    path: Optional[Path]
    symbol: str
    #: "undeclared-label" | "undeclared-function" | "content" | "input",
    #: or "unparseable" (the parser's refusal: there is no tree).
    kind: str
    message: str

    def __str__(self) -> str:
        if self.path is None:
            return "%s: %s" % (self.kind, self.message)
        where = "/" + "/".join(str(i) for i in self.path)
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
            cache = self.compile_cache
            if cache is None:
                cache = compile_context.cache()
            resolved = expr
            if self.schema.patterns:
                resolved = cache.intern(_substitute(expr, self._patterns()))
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
        return self.first_failure(root, strict) is None

    def first_failure(self, root: Node, strict: bool = True
                      ) -> Optional[Node]:
        """:meth:`ok`'s walk: the first failing node (None: an instance)."""
        failure = None
        words = 0
        for node in iter_subtree(root):
            if isinstance(node, Text):
                continue
            words += 1
            if not self.local_ok(node, strict):
                failure = node
                break
        record_work(obs.metrics(), "check", {"words": words})
        return failure

    def forest_ok(self, forest: Sequence[Node], expr: Regex) -> bool:
        """Is the forest's root word in ``lang(expr)`` and every tree an
        instance (undeclared symbols unconstrained)?"""
        return self.word_ok(tuple(map(symbol_of, forest)), expr) and all(
            self.ok(tree, strict=False) for tree in forest
        )

    def validate(self, root: Node, strict: bool = True) -> ValidationReport:
        """Every violation under ``root``, in document order; only the
        nodes that failed are diagnosed."""
        return self._walk(root, strict, False)[0]

    def receive(self, root: Node, memo: Optional[IdentityMemo] = None
                ) -> Tuple[ValidationReport, bool]:
        """The verdict of the peer holding this checker on what it reads
        from the serialization of ``root``, reached without parsing.

        Each element's children word is read as the tree builder reads it
        back (:func:`repro.stream.builder.read_word`), and paths number
        the nodes the receiver reads.  Mixed content is the parser's
        refusal: the first one in document order becomes the only,
        pathless, ``unparseable`` violation.  Also returns whether those
        bytes rebuild ``root`` itself (wire normal form: every text
        stripped, and a text child of an element non-blank and its only
        child); the report is then :meth:`validate`'s.

        ``memo`` (a session's, for this checker alone) holds, by node
        identity, each subtree with nodes below its root that an earlier
        call accepted, with whether it is in wire normal form: such a
        subtree is not walked again, and is added to ``memo.reused``.
        Verdict and paths depend on the subtree alone, and only accepted
        subtrees are held, so the report is the one a full walk reaches.
        """
        return self._walk(root, True, True, memo)

    def _walk(self, root: Node, strict: bool, read: bool,
              memo: Optional[IdentityMemo] = None
              ) -> Tuple[ValidationReport, bool]:
        """:meth:`validate`, or with ``read`` :meth:`receive`: one
        iterative pre-order walk; one ``check`` work record.

        With ``memo``, ``normal`` is each walked node's own flag until
        the node's word is checked (a leaf) or its subtree is walked: a
        node with nodes below it pushes an end mark under them, popped
        once they are walked, which holds the subtree if the walk found
        no violation since the node was entered, and restores the flag
        of the nodes before it.
        """
        if read:
            from repro.stream.builder import read_word
        violations: List[Violation] = []
        normal = True
        words = 0
        reused = 0
        stack: list = [((), root)] if type(root) is not Text else []
        while stack:
            path, node = stack.pop()
            if path is None:
                if type(node) is Violation:  # the builder refuses here,
                    violations = [node]      # in event order
                    break
                node, mark, outer = node  # memo only: a subtree ends
                if len(violations) == mark:
                    memo.put(node, normal)
                normal = outer and normal
                continue
            if memo is not None:
                held = memo.get(node)
                if held is not None:
                    reused += 1
                    normal = normal and held
                    continue
                mark, outer, normal = len(violations), normal, True
            call = type(node) is FunctionCall
            kids = node.params if call else node.children
            word = tuple(map(symbol_of, kids))
            if read and DATA in word:
                if call:
                    normal = normal and all(
                        type(kid) is not Text or kid.value == kid.value.strip()
                        for kid in kids
                    )
                else:
                    value = kids[0].value if len(kids) == 1 else ""
                    normal = normal and bool(value) and value == value.strip()
                    try:
                        seen = read_word(node.label, kids, word)
                    except DocumentParseError as exc:
                        # Refused at the first tag after the first
                        # non-blank text, once the subtrees before that
                        # text are read.
                        stack.append((None, Violation(
                            None, node.label, "unparseable", str(exc)
                        )))
                        first = next(
                            index for index, kid in enumerate(kids)
                            if type(kid) is Text and kid.value.strip()
                        )
                        lead = [kid for kid in kids[:first]
                                if type(kid) is not Text]
                        stack.extend(
                            (path + (index,), lead[index])
                            for index in range(len(lead) - 1, -1, -1)
                        )
                        continue
                    if seen is not word:  # texts vanished
                        word = seen
                        kids = [kid for kid in kids if type(kid) is not Text]
            words += 1
            expr = self._type_of(node)
            if not (not strict if expr is None else self.word_ok(word, expr)):
                violations.append(self.violation(path, node, word))
            if memo is not None:
                if word.count(DATA) == len(word):  # a leaf: one word
                    normal = outer and normal
                else:
                    stack.append((None, (node, mark, outer)))
            for index in range(len(kids) - 1, -1, -1):
                kid = kids[index]
                if type(kid) is not Text:
                    stack.append((path + (index,), kid))
        if memo is not None:
            memo.reused += reused
        diagnoses = sum(v.kind in ("content", "input") for v in violations)
        record_work(
            obs.metrics(), "check", {"words": words, "diagnoses": diagnoses}
        )
        return ValidationReport(violations), normal

    def violation(self, path: Optional[Path], node: Node,
                  word: Sequence[str]) -> Violation:
        """Why ``node``, whose children word is ``word``, fails Definition
        3 (the word is diagnosed when the symbol is declared)."""
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
        return self.mismatch(path, symbol, word, expr, element)

    def mismatch(self, path: Optional[Path], symbol: str,
                 word: Sequence[str], expr: Regex,
                 element: bool = True) -> Violation:
        """Why ``word``, the children word (parameters, unless
        ``element``) of ``symbol``, is not in ``lang(expr)``."""
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
