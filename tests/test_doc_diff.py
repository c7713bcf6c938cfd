"""Unit tests for structural document diffing."""

import pytest

from repro import Document, call, el, text
from repro.doc.diff import diff_documents, diff_forests
from repro.workloads import newspaper


class TestDiff:
    def test_equal_documents_have_no_edits(self, doc):
        assert diff_documents(doc, doc) == []

    def test_text_change(self):
        a = Document(el("a", el("t", "old")))
        b = Document(el("a", el("t", "new")))
        edits = diff_documents(a, b)
        assert len(edits) == 1
        assert edits[0].kind == "replaced"
        assert edits[0].path == (0, 0)
        assert "old" in edits[0].detail and "new" in edits[0].detail

    def test_label_change_is_one_edit(self):
        a = Document(el("a", el("x", el("deep"))))
        b = Document(el("a", el("y", el("deep"))))
        edits = diff_documents(a, b)
        assert [e.kind for e in edits] == ["replaced"]

    def test_attribute_change(self):
        a = Document(el("a", attrs={"v": "1"}))
        b = Document(el("a", attrs={"v": "2"}))
        edits = diff_documents(a, b)
        assert [e.kind for e in edits] == ["attributes"]

    def test_insertion_does_not_cascade(self):
        a = Document(el("a", el("x"), el("y"), el("z")))
        b = Document(el("a", el("x"), el("new"), el("y"), el("z")))
        edits = diff_documents(a, b)
        assert [e.kind for e in edits] == ["inserted"]
        assert edits[0].path == (1,)

    def test_materialization_diff(self, registry, schema_star):
        """Rewriting Figure 2.a into (**) shows as one call removed and
        one temp element inserted."""
        from repro import RewriteEngine

        engine = RewriteEngine(newspaper.schema_star2(), schema_star, k=1)
        result = engine.rewrite(newspaper.document(), registry.make_invoker())
        edits = diff_documents(newspaper.document(), result.document)
        assert len(edits) == 1
        assert edits[0].kind == "replaced"
        assert edits[0].path == (2,)
        assert "Get_Temp" in edits[0].detail and "temp" in edits[0].detail

    def test_call_rename(self):
        a = Document(el("a", call("f", text("x"))))
        b = Document(el("a", call("g", text("x"))))
        edits = diff_documents(a, b)
        assert [e.kind for e in edits] == ["replaced"]

    def test_call_params_descend(self):
        a = Document(el("a", call("f", el("city", "Paris"))))
        b = Document(el("a", call("f", el("city", "Lyon"))))
        edits = diff_documents(a, b)
        assert edits[0].kind == "params"
        assert any(e.path == (0, 0, 0) for e in edits)

    def test_node_kind_change(self):
        a = Document(el("a", el("x")))
        b = Document(el("a", call("x")))
        edits = diff_documents(a, b)
        assert len(edits) == 1 and edits[0].kind == "replaced"

    def test_forest_diff(self):
        edits = diff_forests((el("x"),), (el("x"), el("y")))
        assert [e.kind for e in edits] == ["inserted"]
        assert edits[0].path == (1,)

    def test_edit_rendering(self):
        a = Document(el("a", el("t", "1")))
        b = Document(el("a"))
        edits = diff_documents(a, b)
        assert str(edits[0]).startswith("removed at /0")


class TestPathRoundTrip:
    """Diff paths must address the same nodes after serialize → parse.

    The parser drops whitespace-only text children and strips text
    values, so a diff computed on the raw in-memory tree could hand out
    paths that shift or dangle on the other side of an exchange.
    ``diff_documents`` normalizes both trees first (wire normal form),
    making every returned path round-trip stable.
    """

    def test_whitespace_text_child_does_not_shift_paths(self):
        from repro.doc.paths import get_node

        a = Document(el("a", text("   "), el("x"), el("y")))
        b = Document(el("a", text("   "), el("x"), el("z")))
        edits = diff_documents(a, b)
        assert [e.kind for e in edits] == ["replaced"]
        # The whitespace-only leaf disappears on re-parse; the path must
        # be computed as if it were never there.
        assert edits[0].path == (1,)
        round_tripped = Document.from_xml(a.to_xml())
        target = get_node(round_tripped.root, edits[0].path)
        assert target == el("y")

    def test_padded_text_values_compare_round_trip_equal(self):
        a = Document(el("a", el("t", "  v  ")))
        b = Document(el("a", el("t", "v")))
        # After a round-trip both sides carry the stripped value; the
        # diff must agree there is nothing to report.
        assert diff_documents(a, b) == []
        assert diff_documents(Document.from_xml(a.to_xml()), b) == []

    def test_raw_mode_still_sees_in_memory_differences(self):
        a = Document(el("a", el("t", "  v  ")))
        b = Document(el("a", el("t", "v")))
        edits = diff_documents(a, b, normalize=False)
        assert [e.kind for e in edits] == ["replaced"]

    def test_unserializable_mixed_content_is_typed(self):
        from repro.doc.normalize import UnserializableDocumentError

        a = Document(el("a", text("words"), el("x")))
        with pytest.raises(UnserializableDocumentError):
            diff_documents(a, a)

    def test_every_diff_path_resolves_after_round_trip(self):
        from repro.doc.paths import get_node

        a = Document(el(
            "a", text("  "), el("x", el("k", " 1 ")), text(" "), el("y"),
        ))
        b = Document(el("a", el("x", el("k", "2")), el("y"), el("z")))
        edits = diff_documents(a, b)
        assert edits  # text change plus insertion
        round_tripped = Document.from_xml(a.to_xml())
        for edit in edits:
            if edit.kind == "inserted":
                continue  # addresses the right-hand document
            get_node(round_tripped.root, edit.path)  # must not raise


_SHAPES = [
    el("a", el("t", "v"), call("f", el("p", "1"), text("")), el("x")),
    el("a", el("t", " v ")),
    el("a", text(""), el("x")),
    el("a", text("")),
    el("a", text("  ")),
    el("a", text("w"), el("x")),
    el("a", text("w"), text("u")),
    call("f", text(" ")),
    el("a", call("f", el("p", text("w"), el("q")))),
]


@pytest.mark.parametrize("node", _SHAPES, ids=str)
def test_receive_finds_wire_normal_form_as_normalize_does(node):
    # The receiver's walk decides, beside its verdict, whether a
    # document's bytes rebuild it: exactly when normalization is the
    # identity.
    from repro.doc.normalize import (
        UnserializableDocumentError, normalize_node,
    )
    from repro.schema import SchemaBuilder
    from repro.schema.validate import InstanceChecker

    try:
        unchanged = normalize_node(node) is node
    except UnserializableDocumentError:
        unchanged = False
    checker = InstanceChecker(SchemaBuilder().build(strict=False))
    assert checker.receive(node)[1] is unchanged
    if unchanged:
        # A wire-normal document's bytes rebuild it.
        assert Document.from_xml(Document(node).to_xml()).root == node
