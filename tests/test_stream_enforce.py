"""Single-pass streaming enforcement against the DOM pipeline.

The invariant under test everywhere: for any input and any deterministic
invoker, ``enforce_stream`` writes **byte-identical** output to the
parse → rewrite → serialize path, with the same receipt (calls, cache
hits/misses, conformance verdict) — while holding only the root-to-
cursor spine plus one buffered sibling run.
"""

import pytest

from repro.axml.enforcement import SchemaEnforcer
from repro.doc.builder import call, el, text
from repro.doc.document import Document
from repro.doc.nodes import FunctionCall
from repro.rewriting.engine import RewriteEngine
from repro.stream.enforce import stream_rewrite
from repro.workloads import newspaper
from tests.conftest import build_registry


def _stream(enforcer, xml, invoker, chunk_size=7):
    """Feed `xml` in small chunks; return (outcome, collected bytes)."""
    chunks = [xml[i:i + chunk_size] for i in range(0, len(xml), chunk_size)]
    parts = []
    outcome = enforcer.enforce_stream(iter(chunks), invoker, parts.append)
    return outcome, "".join(parts)


class TestByteIdentity:
    def test_rewrite_matches_dom_bytes_and_receipt(
        self, doc, schema_star, schema_star2, registry
    ):
        dom = SchemaEnforcer(schema_star2, schema_star)
        dom_outcome = dom.enforce_document(doc, registry.make_invoker())
        assert dom_outcome.ok and dom_outcome.calls_made == 1

        streamed = SchemaEnforcer(schema_star2, schema_star)
        outcome, xml = _stream(
            streamed, doc.to_xml(), registry.make_invoker()
        )
        assert outcome.ok
        assert xml == dom_outcome.document.to_xml()
        assert outcome.calls_made == dom_outcome.calls_made
        assert outcome.cache_hits == dom_outcome.cache_hits
        assert outcome.cache_misses == dom_outcome.cache_misses
        assert outcome.already_conformant is False

    def test_conformant_document_streams_unchanged(
        self, doc, schema_star, registry
    ):
        enforcer = SchemaEnforcer(schema_star, schema_star)
        outcome, xml = _stream(
            enforcer, doc.to_xml(), registry.make_invoker()
        )
        assert outcome.ok and outcome.already_conformant
        assert outcome.calls_made == 0
        assert xml == doc.to_xml()

    def test_error_carries_the_dom_message(
        self, doc, schema_star, schema_star3, registry
    ):
        dom = SchemaEnforcer(schema_star3, schema_star)  # safe mode
        dom_outcome = dom.enforce_document(doc, registry.make_invoker())
        assert not dom_outcome.ok

        streamed = SchemaEnforcer(schema_star3, schema_star)
        outcome, _partial = _stream(
            streamed, doc.to_xml(), registry.make_invoker()
        )
        assert not outcome.ok
        assert outcome.error == dom_outcome.error

    def test_malformed_input_raises_like_from_xml(self, schema_star, registry):
        from repro.errors import DocumentParseError

        enforcer = SchemaEnforcer(schema_star, schema_star)
        with pytest.raises(DocumentParseError, match="malformed XML"):
            enforcer.enforce_stream(
                "<newspaper><title>", registry.make_invoker(),
                lambda s: None,
            )


class TestModes:
    def test_possible_mode_is_rejected(self, doc, schema_star2, schema_star):
        enforcer = SchemaEnforcer(schema_star2, schema_star, mode="possible")
        with pytest.raises(ValueError, match="safe/auto"):
            enforcer.enforce_stream(doc.to_xml(), lambda fc: (), lambda s: None)

    def test_auto_mode_streams(self, doc, schema_star, schema_star2, registry):
        enforcer = SchemaEnforcer(schema_star2, schema_star, mode="auto")
        outcome, xml = _stream(
            enforcer, doc.to_xml(), registry.make_invoker()
        )
        dom = SchemaEnforcer(schema_star2, schema_star, mode="auto")
        dom_outcome = dom.enforce_document(doc, registry.make_invoker())
        assert outcome.ok
        assert xml == dom_outcome.document.to_xml()


class TestBoundedBuffering:
    """Output leaves before input ends; buffers track one sibling run."""

    def _magazine(self, articles):
        kids = []
        for i in range(articles):
            kids.append(el("article",
                           el("title", "t%d" % i),
                           el("date", "d%d" % i)))
        return Document(el("magazine", *kids))

    def _schema(self):
        from repro.schema.model import SchemaBuilder

        return (
            SchemaBuilder()
            .element("magazine", "article*")
            .element("article", "title.date")
            .element("title", "data")
            .element("date", "data")
            .root("magazine")
            .build()
        )

    def test_emission_interleaves_with_parsing(self):
        schema = self._schema()
        engine = RewriteEngine(schema, schema)
        doc = self._magazine(50)
        writes = []
        result = stream_rewrite(
            engine, doc.to_xml(), lambda fc: (), writes.append
        )
        assert "".join(writes) == doc.to_xml()
        # Settled articles leave as they close: many incremental writes,
        # and never more than a couple of articles buffered at once.
        assert len(writes) > 50
        assert result.peak_buffered <= 3
        assert result.peak_depth == 3  # magazine > article > title

    def test_pending_call_buffers_only_the_suffix(self, registry):
        # A function child blocks emission of what follows it, but the
        # prefix before the call still streams out eagerly.
        from repro.schema.model import SchemaBuilder

        schema = (
            SchemaBuilder()
            .element("magazine", "article*")
            .element("article", "title.date")
            .element("title", "data")
            .element("date", "data")
            .element("city", "data")
            .element("temp", "data")
            .function("Get_Temp", "city", "temp")
            .root("magazine")
            .build()
        )
        target = (
            SchemaBuilder()
            .element("magazine", "article*.temp")
            .element("article", "title.date")
            .element("title", "data")
            .element("date", "data")
            .element("city", "data")
            .element("temp", "data")
            .function("Get_Temp", "city", "temp")
            .root("magazine")
            .build()
        )
        articles = [
            el("article", el("title", "t%d" % i), el("date", "d"))
            for i in range(20)
        ]
        doc = Document(el(
            "magazine", *articles,
            call("Get_Temp", el("city", "Paris"),
                 endpoint="http://www.forecast.com/soap",
                 namespace="urn:xmethods-weather"),
        ))
        engine = RewriteEngine(target, schema)
        writes = []
        result = stream_rewrite(
            engine, doc.to_xml(), registry.make_invoker(), writes.append
        )
        dom_engine = RewriteEngine(target, schema)
        dom = dom_engine.rewrite(doc, registry.make_invoker())
        assert "".join(writes) == dom.document.to_xml()
        assert result.calls_made == 1
        # The 20 settled articles streamed while the call was pending.
        assert len(writes) > 20


class TestCli:
    @pytest.fixture
    def files(self, tmp_path):
        from repro.xschema.writer import schema_to_xschema

        doc_path = tmp_path / "doc.xml"
        doc_path.write_text(newspaper.document().to_xml())
        star = tmp_path / "star.xsd"
        star.write_text(schema_to_xschema(newspaper.schema_star()))
        star2 = tmp_path / "star2.xsd"
        star2.write_text(schema_to_xschema(newspaper.schema_star2()))
        return {"doc": str(doc_path), "star": str(star),
                "star2": str(star2), "dir": tmp_path}

    def test_stream_matches_per_call_dom_run(self, files, capsys):
        from repro.cli import main

        out_dom = files["dir"] / "dom.xml"
        out_stream = files["dir"] / "stream.xml"
        assert main([
            "rewrite", files["doc"], files["star"], files["star2"],
            "--seed", "7", "-o", str(out_dom),
        ]) == 0
        assert main([
            "rewrite", files["doc"], files["star"], files["star2"],
            "--seed", "7", "--stream", "-o", str(out_stream),
        ]) == 0
        assert out_stream.read_text() == out_dom.read_text()

    def test_one_sampler_at_every_worker_count(self, files, capsys):
        # One worker, two workers and the stream sample each call alike:
        # the same bytes for one seed.
        from repro.cli import main

        outputs = []
        for name, flags in (("one", ["--workers", "1"]),
                            ("two", ["--workers", "2"]),
                            ("stream", ["--stream"])):
            out = files["dir"] / ("%s.xml" % name)
            assert main([
                "rewrite", files["doc"], files["star"], files["star2"],
                "--seed", "7", "-o", str(out), *flags,
            ]) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1] == outputs[2]
        assert "<temp>" in outputs[0]

    def test_stream_refuses_possible_mode(self, files, capsys):
        from repro.cli import main

        code = main([
            "rewrite", files["doc"], files["star"], files["star2"],
            "--stream", "--mode", "possible",
        ])
        assert code == 2
        assert "safe/auto" in capsys.readouterr().err

    def test_stream_failure_removes_partial_output(self, files, tmp_path):
        from repro.cli import main
        from repro.xschema.writer import schema_to_xschema

        star3 = tmp_path / "star3.xsd"
        star3.write_text(schema_to_xschema(newspaper.schema_star3()))
        out = tmp_path / "partial.xml"
        code = main([
            "rewrite", files["doc"], files["star"], str(star3),
            "--stream", "-o", str(out),
        ])
        assert code == 1
        assert not out.exists()

    def test_stream_parse_failure_removes_partial_output(self, files, tmp_path):
        from repro.cli import main

        broken = tmp_path / "broken.xml"
        broken.write_text("<newspaper><title>")
        out = tmp_path / "partial.xml"
        code = main([
            "rewrite", str(broken), files["star"], files["star2"],
            "--stream", "-o", str(out),
        ])
        assert code == 2
        assert not out.exists()
