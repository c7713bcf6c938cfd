"""XML (de)serialization in the Active XML syntax of Section 7.

Function nodes are represented by ``int:fun`` elements in the namespace
``http://www.activexml.com/ns/int``; the SOAP coordinates are carried by
the ``endpointURL`` / ``methodName`` / ``namespaceURI`` attributes, and
parameters sit inside ``int:params`` / ``int:param`` wrappers — exactly
the paper's example document::

    <newspaper xmlns:int="http://www.activexml.com/ns/int">
      <title> The Sun </title>
      <int:fun endpointURL="http://www.forecast.com/soap"
               methodName="Get_Temp" namespaceURI="urn:xmethods-weather">
        <int:params><int:param><city>Paris</city></int:param></int:params>
      </int:fun>
      ...
    </newspaper>

Mixed content is restricted to the paper's simple model: character data
is allowed only where it forms a whole leaf (whitespace around child
elements is ignored).

Both directions are iterative.  Parsing feeds the expat event stream of
:mod:`repro.stream.parser` to :class:`repro.stream.builder.TreeBuilder`,
the same builder the streaming driver extends, so whole documents, edit
fragments, SOAP payloads and streamed documents are checked by one set
of rules and fail with the same message.  Serialization drives an
explicit stack.
"""

from __future__ import annotations

from itertools import groupby, islice
from typing import List, Optional, Tuple
from xml.sax.saxutils import escape, quoteattr

from repro.doc.document import Document
from repro.doc.names import INT_NS
from repro.doc.nodes import Element, FunctionCall, IdentityMemo, Node, Text

__all__ = [
    "INT_NS",
    "document_from_xml",
    "document_to_xml",
    "document_wire",
    "node_from_xml",
    "node_to_xml",
]


_XML_DECLARATION = '<?xml version="1.0"?>\n'


def node_to_xml(
    node: Node, indent: int = 0, pretty: bool = True,
    declare_ns: bool = False,
) -> str:
    """Serialize one node (and subtree) to an XML fragment.

    With ``declare_ns`` the ``int:`` namespace is declared on the
    fragment's root tag, making the fragment parseable standalone even
    when it contains (or is) a function call.
    """
    lines: List[str] = []
    _serialize(node, indent, lines, pretty)
    joiner = "\n" if pretty else ""
    body = joiner.join(lines)
    return _declare_int_ns(body) if declare_ns else body


def _declare_int_ns(body: str) -> str:
    import re

    match = re.match(r"<[A-Za-z_][\w.\-]*(?::[\w.\-]+)?", body)
    if match:
        body = (
            body[: match.end()]
            + ' xmlns:int="%s"' % INT_NS
            + body[match.end():]
        )
    return body


def document_to_xml(document: Document, pretty: bool = True) -> str:
    """Serialize a document, declaring the ``int:`` namespace on the root."""
    body = _declare_int_ns(node_to_xml(document.root, pretty=pretty))
    return _XML_DECLARATION + body


def document_wire(document: Document,
                  memo: Optional[IdentityMemo] = None) -> Tuple[str, int]:
    """``document_to_xml(document)``, and how many lines this call
    formatted: every line, or with ``memo`` only the lines of the nodes
    it did not hold.

    The memo keeps, by node identity, each multi-line node's depth and
    own lines (each run of them joined into one string), with its
    multi-line children's lines held by reference, so the text it holds
    never nests: it is at most one reply's.  A node it holds at the same
    depth is not formatted again; one reached at another depth is, and
    its entry is replaced.  Nodes it reused are added to
    ``memo.reused``.
    """
    lines: List[str] = []
    if memo is None:
        _serialize(document.root, 0, lines, True)
        formatted = len(lines)
    else:
        formatted = _serialize(document.root, 0, lines, True, memo)
        lines = _flatten(lines)
    return _XML_DECLARATION + _declare_int_ns("\n".join(lines)), formatted


def _serialize(node: Node, depth: int, lines: List[str], pretty: bool,
               memo: Optional[IdentityMemo] = None) -> Optional[int]:
    """Append the lines of ``node``, at ``depth``, to ``lines``.

    With ``memo`` (pretty output only) each multi-line node's lines go to
    a list of their own, ``[depth, *lines]``, which its parent's list
    holds in place of them (:func:`document_wire`): ``lines`` nests,
    :func:`_flatten` reads it in order, and the call returns how many
    lines it formatted.
    """
    stack: list = [(node, depth)]
    start = len(lines)
    out = lines
    formatted = 0  # the lines of the lists this call filled (memo only)
    reused = 0
    while stack:
        item = stack.pop()
        if isinstance(item, str):  # a deferred closing line
            out.append(item)
            continue
        node, depth = item
        pad = "  " * depth if pretty else ""
        if isinstance(node, Text):
            out.append(pad + escape(node.value))
            continue
        if isinstance(node, Element):
            attrs = "".join(
                " %s=%s" % (name, quoteattr(value))
                for name, value in node.attributes
            )
            if not node.children:
                out.append("%s<%s%s/>" % (pad, node.label, attrs))
                continue
            if len(node.children) == 1 and isinstance(node.children[0], Text):
                out.append(
                    "%s<%s%s>%s</%s>"
                    % (pad, node.label, attrs,
                       escape(node.children[0].value), node.label)
                )
                continue
            head = "%s<%s%s>" % (pad, node.label, attrs)
        elif isinstance(node, FunctionCall):
            attrs = ["methodName=%s" % quoteattr(node.name)]
            if node.endpoint:
                attrs.insert(0, "endpointURL=%s" % quoteattr(node.endpoint))
            if node.namespace:
                attrs.append("namespaceURI=%s" % quoteattr(node.namespace))
            head = "%s<int:fun %s>" % (pad, " ".join(attrs))
        elif type(node) is list:  # (parent's list, 0): a node's lines end
            formatted += _join_runs(out)
            out = node
            continue
        else:
            raise TypeError("not a document node: %r" % (node,))
        # A multi-line node.
        if memo is not None:
            own = memo.get(node)
            if own is not None and own[0] == depth:
                out.append(own)
                reused += 1
                continue
            own = [depth]
            memo.put(node, own)
            out.append(own)
            stack.append((out, 0))
            out = own
        out.append(head)
        if type(node) is not FunctionCall:
            stack.append("%s</%s>" % (pad, node.label))
            for child in reversed(node.children):
                stack.append((child, depth + 1))
            continue
        stack.append("%s</int:fun>" % pad)
        if node.params:
            stack.append("%s  </int:params>" % pad)
            for param in reversed(node.params):
                stack.append("%s    </int:param>" % pad)
                stack.append((param, depth + 3))
                stack.append("%s    <int:param>" % pad)
            stack.append("%s  <int:params>" % pad)
    if memo is not None:
        memo.reused += reused
        return formatted + sum(type(line) is str for line in lines[start:])
    return None


def _join_runs(own: list) -> int:
    """Join each run of lines in a filled memo list into one string, in
    place; returns how many lines there were."""
    joined = own[:1]
    count = 0
    for kind, run in groupby(islice(own, 1, None), type):
        if kind is list:
            joined.extend(run)
        else:
            run = list(run)
            count += len(run)
            joined.append("\n".join(run))
    own[:] = joined
    return count


def _flatten(pieces: list) -> List[str]:
    """The lines of a memo-mode :func:`_serialize` output, in order."""
    lines: List[str] = []
    stack = [iter(pieces)]
    while stack:
        for piece in stack[-1]:
            if type(piece) is list:
                stack.append(islice(piece, 1, None))  # past the depth
                break
            lines.append(piece)
        else:
            stack.pop()
    return lines


def document_from_xml(source: str) -> Document:
    """Parse an Active XML document from its XML serialization."""
    return Document(node_from_xml(source))


def node_from_xml(source: str) -> Node:
    """Parse a single XML fragment into a document node."""
    from repro.stream.builder import TreeBuilder

    return TreeBuilder().parse(source)
