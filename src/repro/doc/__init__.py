"""Intensional XML documents (Definition 1 of the paper).

An intensional document is an ordered labeled tree with two kinds of
internal structure:

- *data nodes*: elements labeled from ``L`` with ordered children, and
  leaves carrying atomic data values from ``D``;
- *function nodes*: embedded Web-service calls labeled from ``F``, whose
  children subtrees are the call's parameters.

Nodes are immutable; rewriting steps (Definition 4) produce new trees via
the path-based splicing helpers in :mod:`repro.doc.paths`.  The XML
serialization (the ``int:`` namespace syntax of Section 7) lives in
:mod:`repro.doc.xml_io`.
"""

from repro.doc.nodes import Element, FunctionCall, Node, Text, symbol_of
from repro.doc.builder import call, el, text
from repro.doc.document import Document
from repro.doc.paths import (
    child_word,
    find_function_nodes,
    get_node,
    iter_nodes,
    replace_at,
    splice_at,
)
from repro.doc.xml_io import document_from_xml, document_to_xml, node_from_xml, node_to_xml
from repro.doc.diff import Edit, diff_documents, diff_forests
from repro.doc.normalize import (
    UnserializableDocumentError,
    normalize_document,
    normalize_node,
)

__all__ = [
    "Node",
    "Element",
    "Text",
    "FunctionCall",
    "symbol_of",
    "el",
    "text",
    "call",
    "Document",
    "get_node",
    "iter_nodes",
    "replace_at",
    "splice_at",
    "child_word",
    "find_function_nodes",
    "document_to_xml",
    "document_from_xml",
    "node_to_xml",
    "node_from_xml",
    "Edit",
    "diff_documents",
    "diff_forests",
    "UnserializableDocumentError",
    "normalize_document",
    "normalize_node",
]
