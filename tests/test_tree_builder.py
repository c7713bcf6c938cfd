"""The front end: expat calls the tree builder's steps directly.

Builder-made nodes skip ``Element.__post_init__`` (their fields are
already normal), so these tests check that they equal nodes built with
``Element(...)`` and share the same interned strings, and that
whitespace-only text is dropped only where the simple model could not
keep it, whatever the chunking.
"""

import pytest

from repro.axml.enforcement import SchemaEnforcer
from repro.compile.cache import CompilationCache
from repro.doc.document import Document
from repro.doc.names import INT_NS
from repro.doc.nodes import Element, FunctionCall, Text, iter_subtree
from repro.doc.xml_io import node_from_xml
from repro.errors import DocumentParseError
from repro.schema import SchemaBuilder
from repro.workloads import magazine, newspaper

NS = ' xmlns:int="%s"' % INT_NS
CHUNKINGS = [None, 61, 7, 1]


def _rebuilt(node):
    """The same tree built bottom-up through the checking constructors."""
    built = {}
    for current in reversed(list(iter_subtree(node))):
        if isinstance(current, Element):
            built[id(current)] = Element(
                str(current.label),
                tuple(built[id(child)] for child in current.children),
                tuple((str(k), v) for k, v in reversed(current.attributes)),
            )
        elif isinstance(current, FunctionCall):
            built[id(current)] = FunctionCall(
                current.name,
                tuple(built[id(child)] for child in current.params),
                current.endpoint, current.namespace,
            )
        else:
            built[id(current)] = current
    return built[id(node)]


class TestBuilderMadeNodes:
    @pytest.mark.parametrize("xml", [
        newspaper.document().to_xml(),
        magazine.document(5).to_xml(),
        '<m><a z="1" b="2" k="3"><t>x</t></a><a k="4"/></m>',
    ], ids=["newspaper", "magazine", "attributes"])
    def test_equal_to_checked_nodes(self, xml):
        parsed = node_from_xml(xml)
        assert parsed == _rebuilt(parsed)
        assert type(parsed) is Element

    def test_attributes_are_sorted_and_names_interned(self):
        root = node_from_xml('<m><a z="1" b="2"/><c b="3"/></m>')
        first, second = root.children
        assert first.attributes == (("b", "2"), ("z", "1"))
        assert first.attributes[0][0] is second.attributes[0][0]
        checked = Element("a" + "", attributes=(("z", "1"), ("b", "2")))
        assert checked == first
        assert checked.label is first.label
        assert checked.attributes[0][0] is first.attributes[0][0]

    def test_labels_are_shared_with_checked_nodes(self):
        root = node_from_xml("<magazine><article/></magazine>")
        checked = Element("maga" + "zine")
        assert root.label is checked.label
        assert root.children[0].label is Element("arti" + "cle").label

    def test_expat_refuses_duplicate_attributes(self):
        with pytest.raises(DocumentParseError, match="duplicate attribute"):
            node_from_xml('<a k="1" k="2"/>')


class TestWhitespace:
    def test_blank_text_param_is_empty_text(self):
        call = node_from_xml(
            '<int:fun%s methodName="F"><int:params>'
            "<int:param>  </int:param></int:params></int:fun>" % NS
        )
        assert call.params == (Text(""),)

    def test_leaf_text_is_stripped(self):
        assert node_from_xml("<title> The Sun </title>") == Element(
            "title", (Text("The Sun"),)
        )

    def test_whitespace_between_children_is_dropped(self):
        root = node_from_xml("<a>\n  <b/>\n  <c/>\n</a>")
        assert root == Element("a", (Element("b"), Element("c")))

    @pytest.mark.parametrize("chunk_size", CHUNKINGS)
    def test_text_after_a_child_is_mixed_content_at_every_chunking(
        self, chunk_size
    ):
        xml = "<a>\n  <b/>\n  junk\n</a>"
        schema = SchemaBuilder().element("a", "b").element("b", "").root(
            "a"
        ).build()
        enforcer = SchemaEnforcer(schema, schema,
                                  compile_cache=CompilationCache())
        source = xml if chunk_size is None else [
            xml[i:i + chunk_size] for i in range(0, len(xml), chunk_size)
        ]
        with pytest.raises(DocumentParseError) as caught:
            enforcer.enforce_stream(source, lambda fc: (), lambda _t: None)
        assert str(caught.value) == (
            "mixed content under <a> is not part of the simple model"
        )
        with pytest.raises(DocumentParseError) as dom:
            Document.from_xml(xml)
        assert str(dom.value) == str(caught.value)
