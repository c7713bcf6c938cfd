"""Canonical fingerprints for embedded service calls.

Deduplicating in-flight invocations, replaying prefetched results, and
deriving reproducible per-call backoff jitter all need one notion of
"the same call": same function, same SOAP coordinates, same parameters
after normalization.  :func:`call_fingerprint` provides it as an exact
canonical string (no hashing, so distinct calls can never collide), and
:func:`fingerprint_digest` compresses it for display and metric labels.

Normalization follows the document model's own equality: element
attributes are already stored sorted (see :class:`repro.doc.nodes.Element`),
so two calls whose parameter forests are equal as trees fingerprint
identically regardless of how they were built.
"""

from __future__ import annotations

import hashlib

from repro.doc.nodes import Element, FunctionCall, Node, Text, children_of


def _canonical(root: Node) -> str:
    """An unambiguous s-expression for one parameter subtree, built on
    an explicit stack of nodes and literal pieces (any depth)."""
    out, stack = [], [root]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        if isinstance(item, Text):
            out.append("t:%r" % (item.value,))
            continue
        if isinstance(item, Element):
            attrs = ";".join("%r=%r" % pair for pair in item.attributes)
            out.append("e:%r[%s](" % (item.label, attrs))
        elif isinstance(item, FunctionCall):
            out.append("f:%r@%r#%r(" % (item.name, item.endpoint,
                                        item.namespace))
        else:
            raise TypeError("not a document node: %r" % (item,))
        stack.append(")")
        for index, kid in reversed(list(enumerate(children_of(item)))):
            stack.extend((kid, ",") if index else (kid,))
    return "".join(out)


def call_fingerprint(call: FunctionCall) -> str:
    """The exact canonical identity of one call: ``(function, args)``.

    Two :class:`FunctionCall` nodes get the same fingerprint iff they
    name the same operation at the same endpoint/namespace with
    tree-equal parameter forests.
    """
    return _canonical(call)


def fingerprint_digest(fingerprint: str, length: int = 12) -> str:
    """A short, stable digest of a fingerprint (for labels and logs)."""
    return hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()[:length]
