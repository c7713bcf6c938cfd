"""The Section 6 compatibility check, via representative documents.

For every label ``l`` of the sender schema reachable from the root, we
synthesize a fresh *virtual function* ``g_l`` whose output type is the
sender's content model ``tau0(l)``, and test whether the one-letter word
``g_l`` safely rewrites into the receiver's content model ``tau(l)`` at
depth ``k + 1`` (one level is consumed by the virtual call itself).  The
adversary expanding ``g_l`` enumerates exactly the children words an
``l``-element may have, with the remaining ``k`` levels available to
rewrite them — so the per-label tests together decide Definition 6.

The check is conservative on two counts, both documented in DESIGN.md:
labels are collected by reachability through *all* type positions
(including parameters of calls that a rewriting might remove), and
functions shared by both schemas are required to agree on signatures
(the standing assumption of Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.automata.symbols import DATA, OTHER, Alphabet, regex_symbols
from repro.compile import context as compile_context
from repro.errors import SchemaError
from repro.regex.ast import Regex
from repro.regex.ops import regex_alphabet
from repro.rewriting.lazy import analyze_safe_lazy
from repro.rewriting.safe import analyze_safe
from repro.schema.model import Schema
from repro.schema.patterns import InvocationPolicy, allow_all

#: Name given to the virtual function representing a label's instances.
VIRTUAL = "__virtual__"


def _shield_wildcards(expr: Regex) -> Regex:
    """Exclude the virtual function from every wildcard in a target type.

    Keeping the virtual call must never be a winning option — it is a
    stand-in for the label's children word, not a real node — so ``any``
    atoms in the receiver's types are not allowed to match it.
    """
    from repro.regex.ast import (
        Alt, AnySymbol, Atom, Empty, Epsilon, Repeat, Seq, Star,
        alt, repeat, seq, star,
    )

    if isinstance(expr, AnySymbol):
        return AnySymbol(expr.exclude | {VIRTUAL})
    if isinstance(expr, (Atom, Epsilon, Empty)):
        return expr
    if isinstance(expr, Seq):
        return seq(*(_shield_wildcards(item) for item in expr.items))
    if isinstance(expr, Alt):
        return alt(*(_shield_wildcards(option) for option in expr.options))
    if isinstance(expr, Star):
        return star(_shield_wildcards(expr.item))
    if isinstance(expr, Repeat):
        return repeat(_shield_wildcards(expr.item), expr.low, expr.high)
    raise TypeError("unknown regex node %r" % (expr,))


def _extensional(expr: Regex, output_types: Dict[str, Regex]) -> bool:
    """No wildcards, no symbol with a known signature: rewriting is inert.

    Instances of such a type contain no call an expansion could touch, so
    "every children word safely rewrites into the target" collapses to
    plain language inclusion — decidable by the antichain search without
    playing the game.  Wildcards disqualify because an instance may put
    an invocable call where the wildcard stands.
    """
    from repro.regex.ast import (
        Alt, AnySymbol, Atom, Empty, Epsilon, Repeat, Seq, Star,
    )

    if isinstance(expr, AnySymbol):
        return False
    if isinstance(expr, Atom):
        return expr.symbol not in output_types
    if isinstance(expr, (Epsilon, Empty)):
        return True
    if isinstance(expr, Seq):
        return all(_extensional(item, output_types) for item in expr.items)
    if isinstance(expr, Alt):
        return all(_extensional(option, output_types) for option in expr.options)
    if isinstance(expr, (Star, Repeat)):
        return _extensional(expr.item, output_types)
    return False


def _signatures_equivalent(sender_sig, receiver_sig, cc) -> bool:
    """Language-level signature agreement (Section 4's assumption).

    Structural equality is too strict: ``a | b`` and ``b | a`` declare
    the same service.  Compare input and output types as languages: the
    compilation cache's minimized automata are canonically numbered, so
    over one alphabet they are equal exactly when their languages are.
    """
    for ours, theirs in (
        (sender_sig.input_type, receiver_sig.input_type),
        (sender_sig.output_type, receiver_sig.output_type),
    ):
        alphabet = Alphabet.closure(regex_symbols(ours), regex_symbols(theirs))
        minimal = cc.bit_target_dfa(ours, alphabet)
        if minimal != cc.bit_target_dfa(theirs, alphabet):
            return False
    return True


@dataclass(frozen=True)
class LabelCheck:
    """Outcome of the per-label safe-rewriting test."""

    label: str
    safe: bool
    reason: str = ""

    def __str__(self) -> str:
        status = "safe" if self.safe else "NOT safe"
        suffix = " (%s)" % self.reason if self.reason else ""
        return "%s: %s%s" % (self.label, status, suffix)


@dataclass
class SchemaCompatReport:
    """The outcome of :func:`schema_safely_rewrites`."""

    compatible: bool
    checks: List[LabelCheck] = field(default_factory=list)
    signature_conflicts: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.compatible

    def failed(self) -> List[LabelCheck]:
        """The labels whose instances may fail to rewrite."""
        return [check for check in self.checks if not check.safe]

    def __str__(self) -> str:
        lines = ["compatible" if self.compatible else "NOT compatible"]
        lines.extend("  " + str(check) for check in self.checks)
        lines.extend("  signature conflict: " + c for c in self.signature_conflicts)
        return "\n".join(lines)


def reachable_labels(schema: Schema, root: str) -> Tuple[Set[str], Set[str]]:
    """Labels and functions reachable from the root label.

    Reachability follows element content models, function input *and*
    output types, and pattern signatures — an over-approximation of what
    can occur in an instance.
    """
    labels: Set[str] = set()
    functions: Set[str] = set()
    queue = [root]
    seen: Set[str] = set()
    while queue:
        symbol = queue.pop()
        if symbol in seen or symbol in (DATA, OTHER):
            continue
        seen.add(symbol)
        expressions: List[Regex] = []
        if symbol in schema.label_types:
            labels.add(symbol)
            expressions.append(schema.label_types[symbol])
        elif schema.signature_of(symbol) is not None:
            functions.add(symbol)
            signature = schema.signature_of(symbol)
            expressions.extend([signature.input_type, signature.output_type])
        for expr in expressions:
            queue.extend(regex_alphabet(expr))
    return labels, functions


def schema_safely_rewrites(
    sender: Schema,
    receiver: Schema,
    root: Optional[str] = None,
    k: int = 1,
    policy: Optional[InvocationPolicy] = None,
    lazy: bool = True,
    compile_cache=None,
) -> SchemaCompatReport:
    """Does every instance of ``sender`` safely rewrite into ``receiver``?

    Implements Definition 6 via the virtual-function reduction.  The
    paper's worked claim — schema (*) safely rewrites into (**) but not
    into (***) — is benchmark E12.

    Args:
        sender: the sender's schema ``s0``.
        receiver: the agreed exchange schema ``s``.
        root: the distinguished root label (defaults to ``sender.root``).
        k: the depth bound for rewriting each label's children word.
        policy: the invocable/non-invocable partition.
        lazy: use the lazy game solver.
        compile_cache: the shared automata compilation cache (``None`` =
            the ambient one) — repeated checks against one receiver
            reuse its compiled minimized DFAs and complements.
    """
    root = root or sender.root
    if root is None:
        raise SchemaError("no root label given and the sender declares none")
    if root not in sender.label_types:
        raise SchemaError("root label %r is not declared by the sender" % root)
    policy = policy or allow_all()
    analyze = analyze_safe_lazy if lazy else analyze_safe
    cc = compile_cache if compile_cache is not None else compile_context.cache()

    report = SchemaCompatReport(compatible=True)

    labels, functions = reachable_labels(sender, root)

    # Standing assumption of Section 4: shared functions must agree —
    # checked up to language equivalence, not syntax.
    for name in sorted(functions):
        sender_sig = sender.signature_of(name)
        receiver_sig = receiver.signature_of(name)
        if (
            receiver_sig is not None
            and sender_sig != receiver_sig
            and not _signatures_equivalent(sender_sig, receiver_sig, cc)
        ):
            report.signature_conflicts.append(
                "%s: sender %s vs receiver %s" % (name, sender_sig, receiver_sig)
            )
            report.compatible = False

    # Output types available during any rewriting: all known signatures.
    output_types: Dict[str, Regex] = {}
    for source in (sender, receiver):
        for name in source.function_names():
            output_types.setdefault(name, source.signature_of(name).output_type)

    def invocable(name: str) -> bool:
        if name == VIRTUAL:
            return True
        return policy.is_invocable(name)

    for label in sorted(labels):
        target = receiver.type_of(label)
        if target is None:
            report.checks.append(
                LabelCheck(
                    label,
                    False,
                    "label not declared by the receiver (instances containing "
                    "it cannot validate)",
                )
            )
            report.compatible = False
            continue
        if receiver.patterns:
            candidates = sorted(set(output_types) | set(functions))
            helper = Schema({"__t__": target}, {}, dict(receiver.patterns))

            def _sig(name: str):
                sig = sender.signature_of(name)
                return sig if sig is not None else receiver.signature_of(name)

            target = helper.desugar_patterns(candidates, _sig).label_types["__t__"]
        problem_outputs = dict(output_types)
        sender_type = sender.label_types[label]
        problem_outputs[VIRTUAL] = sender_type
        shielded = _shield_wildcards(target)
        if _extensional(sender_type, problem_outputs):
            # Rewriting cannot touch instances of this label, so the
            # game degenerates to inclusion of the content models.  The
            # receiver side stays a Glushkov NFA: the antichain search
            # decides inclusion with no subset construction and no
            # complement at all.
            alphabet = Alphabet.closure(
                regex_symbols(sender_type), regex_symbols(shielded)
            )
            safe = cc.antichain_subset(sender_type, shielded, alphabet)
        else:
            analysis = analyze(
                (VIRTUAL,),
                problem_outputs,
                shielded,
                k=k + 1,
                invocable=invocable,
                compile_cache=cc,
            )
            safe = analysis.exists
        reason = "" if safe else (
            "some children word of %r cannot be safely rewritten into %s"
            % (label, receiver.type_of(label))
        )
        report.checks.append(LabelCheck(label, safe, reason))
        report.compatible = report.compatible and safe

    return report
