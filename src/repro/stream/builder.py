"""Event-driven construction of simple-model document trees.

:class:`TreeBuilder` is the one parser of the Active XML syntax: both
:func:`repro.doc.xml_io.node_from_xml` and the streaming driver of
:mod:`repro.stream.enforce` run it.  Its open, close and text steps are
expat's handlers (:mod:`repro.stream.parser`), one call per tag.  It
holds only the root-to-cursor spine of open frames, so documents nested
far beyond the recursion limit parse fine.

``int:fun``, ``int:params`` and ``int:param`` get frames of their own,
which enforce the Section 7 syntax as the events arrive:

- ``int:fun`` needs a ``methodName``, holds at most one ``int:params``,
  and ``int:params`` holds only ``int:param``;
- text directly under ``int:fun`` or ``int:params`` is ignored;
- an ``int:param`` holds one tree or its leading text (text after its
  tree is ignored);
- anywhere else, character data must form a whole leaf, and namespaced
  elements and attributes are refused.

A violation of these rules raises :class:`DocumentParseError` at the
event that proves it, so a document with several reports the first one
in event order, on every path.  (A name the node model refuses, such as
``methodName="#data"``, is reported when its call closes.)  The hooks a
subclass overrides fire only outside call subtrees: a call's parameters
are built as plain nodes and the call joins its parent whole, as one
child.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.automata.symbols import DATA
from repro.doc.names import FUN_TAG, PARAM_TAG, PARAMS_TAG
from repro.doc.nodes import FunctionCall, Node, Text, normal_element
from repro.errors import DocumentParseError
from repro.stream.parser import Source, clark, feed

_MIXED = "mixed content under <%s> is not part of the simple model"


def read_word(label: str, children: Sequence[Node],
              word: Tuple[str, ...]) -> Tuple[str, ...]:
    """The children word the builder reads back from the serialization of
    an element ``label`` whose ``children`` have the symbols ``word``.

    The serializer puts each child on a line of its own, and
    :meth:`TreeBuilder._flush_text` reads the lines back by this rule:

    - blank texts vanish;
    - a non-blank text beside any other child is mixed content, which
      the builder refuses (:class:`DocumentParseError`, its message);
    - texts alone read as one ``#data``.

    A call's parameters read as they are: each ``int:param`` keeps its
    own tree.  Returns ``word`` itself when it holds no text.
    """
    if DATA not in word:
        return word
    if len(word) == 1:
        return word if children[0].value.strip() else ()
    kept = []
    text = False
    for child, symbol in zip(children, word):
        if type(child) is not Text:
            kept.append(symbol)
        elif child.value.strip():
            text = True
        else:
            continue
        if text and kept:
            raise DocumentParseError(_MIXED % label)
    return (DATA,) if text else tuple(kept)


class Frame:
    """One open element on the builder's spine.

    ``text`` is the element's leading character data (the parser
    coalesces it into one piece).  An ``int:fun`` frame's ``children``
    stay ``None`` until its ``int:params`` closes and hands over the
    parameters.
    """

    __slots__ = ("label", "attrs", "children", "text")

    def __init__(self, label: str, attrs: dict):
        self.label = label
        self.attrs = attrs
        self.children: Optional[List[Node]] = []
        self.text = ""


class TreeBuilder:
    """Simple-model builder with per-element close hooks.

    :meth:`parse` runs a source through expat with this builder's steps
    as its handlers.  Subclasses override :meth:`enter_element`,
    :meth:`close_element` and :meth:`child_closed`; the enforcement
    driver rewrites each frame's children word inside
    :meth:`close_element`.
    """

    def __init__(self):
        self._stack: List[Frame] = []
        self._calls = 0  # open int:fun frames; hooks fire only at 0
        self._result: Optional[Node] = None
        self._text: List[str] = []  # character data since the last tag
        self._names: dict = {}  # expat's names -> interned Clark names

    # -- hooks -------------------------------------------------------------

    def enter_element(self, frame: Frame) -> None:
        """Called right after an element frame is opened."""

    def close_element(
        self, frame: Frame, attributes: Tuple[Tuple[str, str], ...]
    ) -> Node:
        """Build the node for a closing element (children are final)."""
        return normal_element(frame.label, tuple(frame.children), attributes)

    def child_closed(self, node: Node) -> None:
        """Called after a completed child joined its parent (or the root)."""

    # -- the steps expat calls ----------------------------------------------

    def parse(self, source: Source) -> Node:
        """Build the tree of one source (a string, bytes or chunks)."""
        for _chunk in feed(source, self._open, self._close, self._text.append):
            pass
        if self._result is None:
            raise DocumentParseError("malformed XML: no element found")
        return self._result

    def _name(self, name: str) -> str:
        label = self._names.get(name)
        if label is None:
            label = self._names[name] = clark(name)
        return label

    def _flush_text(self) -> None:
        """Hand the text since the last tag to the open frame, dropping it
        where the frame cannot keep it (under ``int:fun``/``int:params``,
        or after a first child, where it must be blank): the text rule
        :func:`read_word` states on trees."""
        parts = self._text
        value = parts[0] if len(parts) == 1 else "".join(parts)
        parts.clear()
        stack = self._stack
        if not stack:
            return  # text outside the root element is ignored
        frame = stack[-1]
        label = frame.label
        if label == FUN_TAG or label == PARAMS_TAG:
            return
        if not frame.children:
            frame.text = value
        elif label != PARAM_TAG and value.strip():
            raise DocumentParseError(_MIXED % label)

    def _open(self, name: str, attrs: dict) -> None:
        if self._text:
            self._flush_text()
        tag = self._names.get(name) or self._name(name)
        if attrs:
            attrs = {self._name(key): value for key, value in attrs.items()}
        stack = self._stack
        parent = stack[-1].label if stack else None
        if parent == FUN_TAG:
            if tag != PARAMS_TAG:
                raise DocumentParseError(
                    "int:fun may only contain int:params, found %r" % tag
                )
            if stack[-1].children is not None:
                raise DocumentParseError(
                    "int:fun may contain at most one int:params"
                )
        elif parent == PARAMS_TAG:
            if tag != PARAM_TAG:
                raise DocumentParseError(
                    "int:params may only contain int:param, found %r" % tag
                )
        else:
            if parent is not None:
                frame = stack[-1]
                if frame.text.strip():
                    raise DocumentParseError(
                        "mixed content inside int:param"
                        if parent == PARAM_TAG else _MIXED % parent
                    )
                frame.text = ""
            if tag == FUN_TAG:
                if not attrs.get("methodName"):
                    raise DocumentParseError(
                        "int:fun requires a methodName attribute"
                    )
            elif tag == PARAMS_TAG or tag == PARAM_TAG:
                raise DocumentParseError(
                    "%s may only appear directly under int:fun" % tag
                )
            elif tag.startswith("{"):
                raise DocumentParseError(
                    "unsupported namespaced element %r" % tag
                )
        opened = Frame(tag, attrs)
        stack.append(opened)
        if tag == FUN_TAG:
            opened.children = None
            self._calls += 1
        elif not self._calls:
            self.enter_element(opened)

    def _close(self, _name: str) -> None:
        if self._text:
            self._flush_text()
        stack = self._stack
        frame = stack.pop()
        label = frame.label
        children = frame.children
        if label == PARAMS_TAG:
            stack[-1].children = children
            return
        if label == FUN_TAG:
            attrs = frame.attrs
            try:
                node: Node = FunctionCall(
                    attrs["methodName"],
                    tuple(children or ()),
                    endpoint=attrs.get("endpointURL"),
                    namespace=attrs.get("namespaceURI"),
                )
            except ValueError as exc:  # a reserved name such as "#data"
                raise DocumentParseError(str(exc)) from None
            self._calls -= 1
        elif label == PARAM_TAG:
            if len(children) > 1:
                raise DocumentParseError(
                    "int:param must wrap exactly one tree (found %d)"
                    % len(children)
                )
            node = children[0] if children else Text(frame.text.strip())
        else:
            if not children:
                leading = frame.text.strip()
                if leading:
                    children.append(Text(leading))
            attrs = frame.attrs
            if attrs:
                attributes = tuple(sorted(attrs.items()))
                for key, _value in attributes:
                    if key.startswith("{"):
                        raise DocumentParseError(
                            "namespaced attribute %r is not supported" % key
                        )
            else:
                attributes = ()
            if self._calls:
                node = normal_element(label, tuple(children), attributes)
            else:
                node = self.close_element(frame, attributes)
        if stack:
            stack[-1].children.append(node)
        else:
            self._result = node
        if not self._calls:
            self.child_closed(node)

    @property
    def depth(self) -> int:
        """Open-frame count (the spine length)."""
        return len(self._stack)
