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

from typing import List
from xml.sax.saxutils import escape, quoteattr

from repro.doc.document import Document
from repro.doc.names import INT_NS
from repro.doc.nodes import Element, FunctionCall, Node, Text

__all__ = [
    "INT_NS",
    "document_from_xml",
    "document_to_xml",
    "node_from_xml",
    "node_to_xml",
]


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
    return '<?xml version="1.0"?>\n' + body


def _serialize(node: Node, depth: int, lines: List[str], pretty: bool) -> None:
    stack: list = [(node, depth)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):  # a deferred closing line
            lines.append(item)
            continue
        node, depth = item
        pad = "  " * depth if pretty else ""
        if isinstance(node, Text):
            lines.append(pad + escape(node.value))
            continue
        if isinstance(node, Element):
            attrs = "".join(
                " %s=%s" % (name, quoteattr(value))
                for name, value in node.attributes
            )
            if not node.children:
                lines.append("%s<%s%s/>" % (pad, node.label, attrs))
            elif len(node.children) == 1 and isinstance(node.children[0], Text):
                lines.append(
                    "%s<%s%s>%s</%s>"
                    % (pad, node.label, attrs,
                       escape(node.children[0].value), node.label)
                )
            else:
                lines.append("%s<%s%s>" % (pad, node.label, attrs))
                stack.append("%s</%s>" % (pad, node.label))
                for child in reversed(node.children):
                    stack.append((child, depth + 1))
            continue
        if isinstance(node, FunctionCall):
            attrs = ["methodName=%s" % quoteattr(node.name)]
            if node.endpoint:
                attrs.insert(0, "endpointURL=%s" % quoteattr(node.endpoint))
            if node.namespace:
                attrs.append("namespaceURI=%s" % quoteattr(node.namespace))
            lines.append("%s<int:fun %s>" % (pad, " ".join(attrs)))
            stack.append("%s</int:fun>" % pad)
            if node.params:
                stack.append("%s  </int:params>" % pad)
                for param in reversed(node.params):
                    stack.append("%s    </int:param>" % pad)
                    stack.append((param, depth + 3))
                    stack.append("%s    <int:param>" % pad)
                stack.append("%s  <int:params>" % pad)
            continue
        raise TypeError("not a document node: %r" % (node,))


def document_from_xml(source: str) -> Document:
    """Parse an Active XML document from its XML serialization."""
    return Document(node_from_xml(source))


def node_from_xml(source: str) -> Node:
    """Parse a single XML fragment into a document node."""
    from repro.stream.builder import TreeBuilder

    return TreeBuilder().parse(source)
