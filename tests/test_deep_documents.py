"""Documents nested far beyond the recursion limit enforce on every path.

The rewrite driver, the prefetch planner and call fingerprints all keep
their own stacks, so a document that needs a call 10,000 levels down,
or whose only call takes a 10,000-deep parameter, gives the same bytes
and receipt on the DOM, session-open, stream and ``workers=4`` paths,
at the interpreter's default recursion limit.  Trees are compared by
the digest of their serialized bytes (pretty-printed, a 10,000-deep
chain is 200 MB): dataclass ``==`` itself recurses.
"""

import hashlib
import sys

import pytest

from repro.axml.enforcement import SchemaEnforcer
from repro.compile.cache import CompilationCache
from repro.doc.document import Document
from repro.doc.names import INT_NS
from repro.doc.nodes import Element, FunctionCall, Text
from repro.exec.fingerprint import call_fingerprint
from repro.incremental.session import full_receipt
from repro.schema import SchemaBuilder
from repro.services.responders import sampling_invoker

DEPTH = 10_000
NS = ' xmlns:int="%s"' % INT_NS


def _call_at_the_bottom():
    """``a`` nested DEPTH deep above one call ``F`` that must run."""
    sender = (
        SchemaBuilder().element("a", "a | F").element("x", "data")
        .function("F", "data", "x").root("a").build()
    )
    receiver = (
        SchemaBuilder().element("a", "a | x").element("x", "data")
        .root("a").build()
    )
    xml = (
        "<a%s>" % NS + "<a>" * (DEPTH - 1)
        + '<int:fun methodName="F"><int:params><int:param>v'
        "</int:param></int:params></int:fun>"
        + "</a>" * DEPTH
    )
    return sender, receiver, xml


def _deep_parameter():
    """One call ``G`` that must run, on a DEPTH-deep parameter."""
    builder = (
        SchemaBuilder().element("r", "y | G").element("y", "data")
        .element("p", "p?").function("G", "p", "y").root("r")
    )
    sender = builder.build()
    receiver = (
        SchemaBuilder().element("r", "y").element("y", "data")
        .element("p", "p?").root("r").build()
    )
    xml = (
        '<r%s><int:fun methodName="G"><int:params><int:param>' % NS
        + "<p>" * DEPTH + "</p>" * DEPTH
        + "</int:param></int:params></int:fun></r>"
    )
    return sender, receiver, xml


def _receipt(outcome):
    """:func:`full_receipt` without the bytes, which a stream sends on."""
    receipt = full_receipt(outcome)
    del receipt["xml"]
    return receipt


def _digest(outcome):
    return hashlib.sha256(outcome.document.to_xml().encode()).hexdigest()


def _paths(sender, receiver, xml):
    """``(path, receipt, output digest)`` for each enforcement path."""
    invoker = sampling_invoker(sender, 3)
    enforcer = SchemaEnforcer(receiver, sender,
                              compile_cache=CompilationCache())
    dom = enforcer.enforce_document(Document.from_xml(xml), invoker)
    yield "dom", _receipt(dom), _digest(dom)
    session = enforcer.session(Document.from_xml(xml), invoker).enforce()
    yield "session", _receipt(session), _digest(session)
    sink = hashlib.sha256()
    streamed = enforcer.enforce_stream(
        xml, invoker, lambda text: sink.update(text.encode())
    )
    yield "stream", _receipt(streamed), sink.hexdigest()
    parallel = SchemaEnforcer(receiver, sender, workers=4,
                              compile_cache=CompilationCache())
    pooled = parallel.enforce_document(Document.from_xml(xml), invoker)
    yield "workers=4", _receipt(pooled), _digest(pooled)


@pytest.mark.parametrize("case", [_call_at_the_bottom, _deep_parameter],
                         ids=["call-at-the-bottom", "deep-parameter"])
def test_every_path_enforces_alike(case):
    assert DEPTH > sys.getrecursionlimit()
    paths = _paths(*case())
    _path, first, output = next(paths)
    assert first["ok"] and first["calls_made"] == 1, first["error"]
    for path, receipt, digest in paths:
        assert receipt == first, path
        assert digest == output, path


def test_the_deep_parameter_is_kept_and_the_call_answered():
    _sender, _receiver, xml = _deep_parameter()
    sender, receiver, _xml = _deep_parameter()
    enforcer = SchemaEnforcer(receiver, sender,
                              compile_cache=CompilationCache())
    outcome = enforcer.enforce_document(
        Document.from_xml(xml), sampling_invoker(sender, 3)
    )
    assert outcome.ok
    (answer,) = outcome.document.root.children
    assert answer.label == "y"


class TestCallFingerprints:
    """Pinned strings: the fingerprint seeds per-call sampling and
    jitter and keys the session's answer cache, so it must not move."""

    @pytest.mark.parametrize("call,expected", [
        (FunctionCall("Get_Temp", (Text("Paris"),)),
         "f:'Get_Temp'@None#None(t:'Paris')"),
        (FunctionCall(
            "Get_Temp", (Element("city", (Text("Paris"),)),),
            endpoint="http://www.forecast.com/soap",
            namespace="urn:xmethods-weather",
        ),
         "f:'Get_Temp'@'http://www.forecast.com/soap'"
         "#'urn:xmethods-weather'(e:'city'[](t:'Paris'))"),
        (FunctionCall("F", (
            Element("a", (Text("x'y"), Element("b")),
                    (("k", "v"), ("id", "1"))),
            Text(""),
        )),
         "f:'F'@None#None(e:'a'['id'='1';'k'='v']"
         "(t:\"x'y\",e:'b'[]()),t:'')"),
        (FunctionCall("Outer", (
            FunctionCall("Inner", (Element("p", (FunctionCall("Deep"),)),)),
            Text("t"),
        )),
         "f:'Outer'@None#None(f:'Inner'@None#None"
         "(e:'p'[](f:'Deep'@None#None())),t:'t')"),
        (FunctionCall("Empty"), "f:'Empty'@None#None()"),
    ], ids=["text", "attributes-free-element", "attributes", "nested-call",
            "no-parameters"])
    def test_pinned(self, call, expected):
        assert call_fingerprint(call) == expected

    def test_a_deep_parameter_fingerprints(self):
        param = Element("p")
        for _ in range(DEPTH - 1):
            param = Element("p", (param,))
        fingerprint = call_fingerprint(FunctionCall("G", (param,)))
        assert fingerprint == (
            "f:'G'@None#None(" + "e:'p'[](" * DEPTH + ")" * DEPTH + ")"
        )
