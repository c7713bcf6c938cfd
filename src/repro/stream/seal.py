"""Sealed nodes: already-enforced subtrees flowing through the engine.

A :class:`SealedElement` is produced by the streaming driver when an
element closes: its children word has been rewritten and its serialized
form (the *chunk*) is final.  Sealing carries two facts through the
surrounding rewrite:

- ``enforced = True`` — the engine's descend stage skips the subtree
  (it was enforced at close time; re-descending would redo the work and
  double-count cache lookups);
- ``chunk`` — the pretty-printed lines of the subtree at its absolute
  depth, reused verbatim when the parent emits, so serialization work
  is O(1) per already-sealed child.

A sealed element whose bytes have already been written upstream is
*hollow* (``chunk is None``, no children): only its label remains, which
is all the parent's children word needs.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.doc.nodes import Element, Node, normal_element


class SealedElement(Element):
    """An element whose subtree is already enforced (and serialized)."""

    __slots__ = ("chunk",)

    enforced = True

    def __init__(
        self,
        label: str,
        children: Tuple[Node, ...] = (),
        attributes: Tuple[Tuple[str, str], ...] = (),
        chunk: Optional[str] = None,
    ):
        super().__init__(label, children, attributes)
        _set_chunk(self, chunk)

    def __eq__(self, other):
        if isinstance(other, Element):
            return (self.label, self.children, self.attributes) == (
                other.label, other.children, other.attributes,
            )
        return NotImplemented

    __hash__ = Element.__hash__

    def hollow(self) -> "SealedElement":
        """Drop the chunk and children once the bytes are written."""
        return sealed(self.label, self.attributes, None)


_set_chunk = SealedElement.__dict__["chunk"].__set__


def sealed(label: str, attributes: Tuple[Tuple[str, str], ...],
           chunk: Optional[str]) -> SealedElement:
    """A childless :class:`SealedElement` over a label and attributes the
    tree builder already normalized, built as
    :func:`~repro.doc.nodes.normal_element` builds an element: without
    re-running ``Element.__post_init__``."""
    node = normal_element(label, (), attributes, SealedElement)
    _set_chunk(node, chunk)
    return node
