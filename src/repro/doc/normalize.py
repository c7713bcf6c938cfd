"""Wire normalization: make node paths survive an XML round-trip.

The diff/edit machinery addresses nodes by *paths* — tuples of child
indices.  For a path computed on one side of an exchange to address the
same node on the other side, ``parse(serialize(t))`` must reproduce the
exact child lists of ``t``.  The serialization of :mod:`repro.doc.xml_io`
is faithful for trees in *wire normal form* but silently perturbs three
shapes the in-memory model admits:

- a whitespace-only :class:`~repro.doc.nodes.Text` child disappears on
  re-parse (the parser strips and ignores empty text), shifting the
  indices of every later sibling;
- a text value with leading/trailing whitespace comes back stripped, so
  the node compares unequal even though its *path* still resolves;
- mixed content (a non-blank text among element/call siblings, or
  several adjacent text children) either fails to parse or collapses
  into a single merged leaf, again renumbering siblings.

:func:`normalize_node` puts a tree into wire normal form — drops
whitespace-only text children, strips the surviving text values, and
rejects the genuinely unserializable mixed-content shapes with a typed
:class:`~repro.errors.DocumentError` — so that afterwards

    ``parse(serialize(t)) == t``  and every path of ``t`` addresses the
    same node before and after the round-trip.

The incremental enforcement sessions (:mod:`repro.incremental`) and the
gateway's edit-script mode normalize every document and edited fragment
at ingestion, which is what makes client-computed edit paths stable.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.doc.document import Document
from repro.doc.nodes import Element, FunctionCall, Node, Text, children_of
from repro.errors import DocumentError


class UnserializableDocumentError(DocumentError):
    """The tree has no faithful XML serialization (mixed content)."""


def normalize_node(node: Node) -> Node:
    """The wire normal form of a subtree (see module docstring).

    Idempotent; raises :class:`UnserializableDocumentError` for mixed
    content the ``int:`` syntax cannot carry.  Returns ``node`` itself
    (same object) when it is already normal, so normalization preserves
    structural sharing — an already-normal subtree keeps its identity.
    Iterative post-order: any depth, and errors surface in post-order.
    """
    # Frames: [node, its children, next child index, normalized children].
    frames = [[node, children_of(node), 0, []]]
    while True:
        frame = frames[-1]
        parent, kids, index, normal = frame
        if index < len(kids):
            frame[2] = index + 1
            child = kids[index]
            # A blank text child of an element would vanish on re-parse,
            # so it is dropped.  int:param wraps each parameter
            # individually, so a Text parameter round-trips even when
            # empty — its value is only stripped.
            if (isinstance(parent, Element) and isinstance(child, Text)
                    and not child.value.strip()):
                continue
            frames.append([child, children_of(child), 0, []])
            continue
        frames.pop()
        result = _rebuilt(parent, kids, normal)
        if not frames:
            return result
        frames[-1][3].append(result)


def _rebuilt(node: Node, kids: Tuple[Node, ...], normal: List[Node]) -> Node:
    """``node`` over its normalized children (itself when unchanged)."""
    if isinstance(node, Text):
        stripped = node.value.strip()
        return node if stripped == node.value else Text(stripped)
    if isinstance(node, Element):
        texts = sum(1 for child in normal if isinstance(child, Text))
        if texts and len(normal) > 1:
            raise UnserializableDocumentError(
                "mixed content under <%s> does not survive an XML "
                "round-trip (%d text node(s) among %d children)"
                % (node.label, texts, len(normal))
            )
    elif not isinstance(node, FunctionCall):
        raise TypeError("not a document node: %r" % (node,))
    if len(normal) == len(kids) and all(
        new is old for new, old in zip(normal, kids)
    ):
        return node
    if isinstance(node, Element):
        return Element(node.label, tuple(normal), node.attributes)
    return FunctionCall(
        node.name, tuple(normal), node.endpoint, node.namespace
    )


def normalize_document(document: Document) -> Document:
    """Wire normal form of a whole document.

    The root must be an element or a function call — a bare text root
    has no XML serialization at all.
    """
    if isinstance(document.root, Text):
        raise UnserializableDocumentError(
            "a text-only root cannot be serialized as a document"
        )
    root = normalize_node(document.root)
    return document if root is document.root else Document(root)


def is_wire_normal(node: Node) -> bool:
    """True iff :func:`normalize_node` would return ``node`` unchanged.

    Such a tree survives the XML round-trip: its bytes parse back to an
    equal tree.  One walk that builds nothing (the gateway runs it on
    every reply): every text value is stripped, and a text child of an
    element is non-blank and that element's only child.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Text):
            if node.value.strip() != node.value:
                return False
        elif isinstance(node, Element):
            kids = node.children
            for child in kids:
                if isinstance(child, Text) and (
                    len(kids) > 1 or not child.value
                ):
                    return False
            stack.extend(kids)
        elif isinstance(node, FunctionCall):
            stack.extend(node.params)
        else:
            raise TypeError("not a document node: %r" % (node,))
    return True
