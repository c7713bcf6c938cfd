"""Node types of the intensional document tree.

Following Definition 1, the labeling function maps nodes to
``L ∪ F ∪ D``: element labels, function names, or data values (the latter
on leaves only).  We realize the three cases as three immutable node
classes; :func:`symbol_of` recovers the *symbol* a node contributes to
its parent's children word — the alphabet the schema regexes range over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Set, Tuple, Union

from repro.automata.symbols import DATA, intern_symbol


@dataclass(frozen=True, slots=True)
class Text:
    """A leaf carrying an atomic data value from ``D``."""

    value: str

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class Element:
    """A data node: an element label from ``L`` with ordered children.

    ``attributes`` extends the paper's simple model toward full XML
    (Section 2.1, "XML and XML Schema"): they are carried, serialized
    and compared, but the schema language does not constrain them — the
    simple model types element *content* only.  Stored as a sorted tuple
    of (name, value) pairs so elements stay hashable and attribute order
    never affects equality.
    """

    label: str
    children: Tuple["Node", ...] = ()
    attributes: Tuple[Tuple[str, str], ...] = ()

    #: Class-level flag; sealed stream nodes (already enforced) override it
    #: so the engine's descend pass can skip their subtrees.
    enforced = False

    def __post_init__(self):
        if not self.label or self.label.startswith("#"):
            raise ValueError("invalid element label %r" % (self.label,))
        object.__setattr__(self, "label", intern_symbol(self.label))
        normalized = tuple(
            (intern_symbol(name), value)
            for name, value in sorted(self.attributes)
        )
        object.__setattr__(self, "attributes", normalized)
        names = [name for name, _value in normalized]
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute on <%s>" % self.label)

    def get_attribute(self, name: str, default: Optional[str] = None):
        """The value of one attribute, or ``default``."""
        for key, value in self.attributes:
            if key == name:
                return value
        return default

    def __str__(self) -> str:
        attrs = "".join(
            ' %s="%s"' % (name, value) for name, value in self.attributes
        )
        if not self.children:
            return "<%s%s/>" % (self.label, attrs)
        inner = " ".join(str(child) for child in self.children)
        return "<%s%s> %s </%s>" % (self.label, attrs, inner, self.label)


@dataclass(frozen=True, slots=True)
class FunctionCall:
    """A function node: an embedded service call with parameter subtrees.

    ``name`` is the function name from ``F``; in the implementation it is
    complemented by the SOAP triple (endpoint URL, method name, namespace
    URI) carried in the XML serialization.  ``params`` are the children
    subtrees passed to the service when the call is materialized.
    """

    name: str
    params: Tuple["Node", ...] = ()
    endpoint: Optional[str] = None
    namespace: Optional[str] = None

    def __post_init__(self):
        if not self.name or self.name.startswith("#"):
            raise ValueError("invalid function name %r" % (self.name,))
        object.__setattr__(self, "name", intern_symbol(self.name))

    def __str__(self) -> str:
        inner = ", ".join(str(param) for param in self.params)
        return "%s(%s)" % (self.name, inner)


_set_label = Element.__dict__["label"].__set__
_set_children = Element.__dict__["children"].__set__
_set_attributes = Element.__dict__["attributes"].__set__


def normal_element(label: str, children: Tuple["Node", ...],
                   attributes: Tuple[Tuple[str, str], ...],
                   kind: type = Element) -> Element:
    """An :class:`Element` (or subclass ``kind``) whose fields are already
    what ``__post_init__`` makes them (valid interned label, attributes
    sorted by interned name, none twice), built without its checks: the
    tree builder, the stream driver's seals and :func:`with_children`
    use it, every other caller ``Element(...)``."""
    node = object.__new__(kind)
    _set_label(node, label)
    _set_children(node, children)
    _set_attributes(node, attributes)
    return node


#: Any node of an intensional document tree.
Node = Union[Text, Element, FunctionCall]

#: An ordered sequence of sibling trees — what a function call returns.
Forest = Tuple[Node, ...]


def symbol_of(node: Node) -> str:
    """The symbol a node contributes to its parent's children word.

    Data leaves contribute the reserved :data:`~repro.automata.symbols.DATA`
    symbol; elements contribute their label; function nodes their name.
    """
    kind = type(node)
    if kind is Element:
        return node.label
    if kind is Text:
        return DATA
    if kind is FunctionCall:
        return node.name
    if isinstance(node, Element):
        return node.label
    raise TypeError("not a document node: %r" % (node,))


def children_of(node: Node) -> Tuple[Node, ...]:
    """The ordered children (or parameters) of a node; leaves have none."""
    if isinstance(node, Element):
        return node.children
    if isinstance(node, FunctionCall):
        return node.params
    return ()


def _same_forest(a: Tuple[Node, ...], b: Tuple[Node, ...]) -> bool:
    return a is b or (
        len(a) == len(b) and all(x is y for x, y in zip(a, b))
    )


def with_children(node: Node, children: Tuple[Node, ...]) -> Node:
    """A copy of ``node`` with its children (or parameters) replaced.

    When every child is (identically) unchanged the original node is
    returned, so rebuilt spines share structure with their source tree.
    """
    kids = tuple(children)
    if isinstance(node, Element):
        if _same_forest(kids, node.children):
            return node
        return normal_element(node.label, kids, node.attributes)
    if isinstance(node, FunctionCall):
        if _same_forest(kids, node.params):
            return node
        return FunctionCall(node.name, kids, node.endpoint, node.namespace)
    if kids:
        raise ValueError("data leaves cannot have children")
    return node


def iter_subtree(node: Node) -> Iterator[Node]:
    """Yield ``node`` and every descendant, pre-order (iteratively)."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        kids = children_of(current)
        if kids:
            stack.extend(reversed(kids))


def tree_size(node: Node) -> int:
    """Number of nodes in the subtree rooted at ``node``."""
    return sum(1 for _ in iter_subtree(node))


def tree_depth(node: Node) -> int:
    """Height of the subtree rooted at ``node`` (a leaf has depth 1)."""
    deepest = 0
    stack = [(node, 1)]
    while stack:
        current, depth = stack.pop()
        if depth > deepest:
            deepest = depth
        for child in children_of(current):
            stack.append((child, depth + 1))
    return deepest


def count_function_nodes(node: Node) -> int:
    """How many function nodes appear in the subtree (intensional size)."""
    return sum(1 for n in iter_subtree(node) if isinstance(n, FunctionCall))


def is_extensional(node: Node) -> bool:
    """True iff the subtree contains no function node (fully materialized)."""
    return count_function_nodes(node) == 0


class IdentityMemo:
    """A cache keyed by node identity, validated against the node object.

    Entries hold the node itself (keeping ``id()`` stable and unique for
    the memo's lifetime) plus a value.  Structural sharing
    (:func:`with_children`) makes an unedited subtree *the same object*
    across edits, which makes this an exact, O(1) invalidation scheme: a
    spine rebuilt by an edit has fresh ids and simply misses.
    """

    def __init__(self):
        self._entries: Dict[int, Tuple[Node, object]] = {}
        #: Hits counted by a user that reports them (the serializer and
        #: the receiver's walk count the subtrees they reuse).
        self.reused = 0

    def get(self, node: Node):
        entry = self._entries.get(id(node))
        if entry is not None and entry[0] is node:
            return entry[1]
        return None

    def put(self, node: Node, value) -> None:
        self._entries[id(node)] = (node, value)

    def retain(self, live: Set[int]) -> None:
        """Drop every entry whose node is not in ``live`` (node ids).

        An entry keeps its node alive, so a live node's id cannot belong
        to another entry: keeping the ids in ``live`` is exact.
        """
        self._entries = {
            key: entry for key, entry in self._entries.items() if key in live
        }

    def __len__(self) -> int:
        return len(self._entries)
