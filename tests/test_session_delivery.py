"""A session's delivery step equals the one-shot delivery step.

:meth:`EnforcementSession.deliver` serializes the session's enforced
document and checks it with the receiver's checker through two identity
memos — each multi-line node's own lines, and the receiver's verdict on
each subtree it accepted — so after an edit only the rebuilt spine is
formatted and checked.  On every pass its wire text, UTF-8 size, report
(paths included) and wire-normal flag are :func:`deliver`'s on the same
document, across sweeps, refusals, nodes reached at two depths and
documents thousands of levels deep; its memo holds at most one reply's
text; and the gateway delivers through it under the session's lock.
"""

import asyncio

import pytest

from perfbench.library import Library
from perfbench.run import WORKLOADS
from repro.axml.delivery import deliver
from repro.axml.enforcement import SchemaEnforcer
from repro.compile import CompilationCache
from repro.conformance.differential import EDIT_MATRIX, run_edit_config
from repro.conformance.fuzzer import fuzz_edit_scenario
from repro.doc.builder import call, el
from repro.doc.document import Document
from repro.doc.nodes import Element, IdentityMemo, Text
from repro.doc.xml_io import document_wire
from repro.gateway import GatewayClient
from repro.gateway.loadgen import direct_enforcement
from repro.incremental.edits import (
    apply_edits,
    delete,
    insert,
    replace,
    script_from_json,
    script_to_json,
)
from repro.incremental.session import EnforcementSession
from repro.obs.context import observing
from repro.obs.metrics import MetricsRegistry, work_snapshot
from repro.obs.trace import Tracer
from repro.schema.model import SchemaBuilder
from repro.schema.patterns import allow_all, allow_only
from repro.schema.validate import InstanceChecker
from tests.test_gateway_incremental import (
    DOCUMENT_XML,
    RECEIVER_XSD,
    SENDER_XSD,
    make_gateway,
)

LINES = 'repro_work_total{counter="lines",stage="serialize"}'
WORDS = 'repro_work_total{counter="words",stage="check"}'


def memo_text(session: EnforcementSession) -> int:
    """Characters of text the session's line memo holds."""
    return sum(
        len(piece) for _node, own in session._lines._entries.values()
        for piece in own if type(piece) is str
    )


def plain(session: EnforcementSession, checker):
    return deliver(session.enforced, checker).observed()


class TestStorms:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("workload", ["digest", "gateway"])
    def test_every_pass_delivers_as_deliver(self, workload, seed,
                                            monkeypatch):
        # perfbench's storms: digest inserts and deletes call units, the
        # magazine retitles articles and re-points their calls.  The
        # receiver is the gateway's: its own schema alone.
        sweeps = []
        sweep = EnforcementSession._sweep

        def counting(session):
            sweeps.append(session)
            sweep(session)

        monkeypatch.setattr(EnforcementSession, "_sweep", counting)
        work = WORKLOADS[workload](seed)
        library = Library(work.library)
        checker = InstanceChecker(library.receiver, None, library.cache)
        session, first = library.open_session()
        assert first.ok
        storm = work.storm()
        for step in range(501):
            if step:
                outcome = library.apply(session, next(storm))
                assert outcome.ok, (step, outcome.error)
            ours = session.deliver(checker).observed()
            assert ours == plain(session, checker), step
        assert ours[2] == "valid"
        # The first pass's sweep, and the deliveries' own.
        assert len(sweeps) >= 3


def _refusing_enforcer():
    """The enforcer admits ``b`` where the receiver admits only ``a``."""
    target = (
        SchemaBuilder().element("r", "s*").element("s", "(a | b)*")
        .element("a", "data").element("b", "data").root("r").build()
    )
    receiver = (
        SchemaBuilder().element("r", "s*").element("s", "a*")
        .element("a", "data").root("r").build()
    )
    enforcer = SchemaEnforcer(target, target,
                              compile_cache=CompilationCache())
    return enforcer, InstanceChecker(receiver)


class TestRefusals:
    def test_a_refusing_edit_gets_delivers_report(self):
        enforcer, checker = _refusing_enforcer()
        document = Document(el(
            "r", el("s", el("a", "1")), el("s", el("a", "2"), el("a", "3")),
        ))
        session = enforcer.session(document, lambda _fc: ())
        assert session.enforce().ok
        assert session.deliver(checker).report.ok
        assert session.apply([insert((1, 1), el("b", "x"))]).ok
        expected = plain(session, checker)
        assert "content at /1: " in expected[2]
        assert "undeclared-label at /1/1: " in expected[2]
        # Delivered twice: nothing refused was memoized.
        assert session.deliver(checker).observed() == expected
        assert session.deliver(checker).observed() == expected
        assert session.apply([delete((1, 1))]).ok
        accepted = session.deliver(checker)
        assert accepted.report.ok
        assert accepted.observed() == plain(session, checker)

    def test_another_checker_starts_a_fresh_verdict_memo(self):
        enforcer, checker = _refusing_enforcer()
        document = Document(el("r", el("s", el("b", "1"))))
        session = enforcer.session(document, lambda _fc: ())
        assert session.enforce().ok
        lenient = InstanceChecker(enforcer.target_schema)
        assert session.deliver(lenient).report.ok
        refused = session.deliver(checker)
        assert not refused.report.ok
        assert refused.observed() == plain(session, checker)

    def test_mixed_content_is_refused_where_deliver_refuses_it(self):
        # Trees sharing subtrees, some holding text among elements: the
        # memoized walk reaches the walk's verdict on each, and the
        # memoized serializer its bytes.
        checker = InstanceChecker(
            SchemaBuilder().element("r", "(s | data)*")
            .element("s", "(a | data)*").element("a", "data")
            .root("r").build()
        )
        shared = el("s", el("a", "1"), el("a", "2"))
        trees = [
            el("r", shared, el("s", el("a", "3"))),
            el("r", shared, el("s", el("a", "3"), Text("mixed"))),
            el("r", shared, Text("x"), el("s")),
            el("r", el("s", shared.children[0], Text(" ")), shared),
            el("r", shared, el("s", el("a", "3"))),
        ]
        lines, verdicts = IdentityMemo(), IdentityMemo()
        for tree in trees:
            ours = deliver(Document(tree), checker, lines, verdicts)
            assert ours.observed() == deliver(
                Document(tree), checker
            ).observed(), tree
        assert lines.reused and verdicts.reused


class TestDepths:
    def test_a_node_at_two_depths_serializes_as_to_xml(self):
        shared = el("p", el("q", "1"), call("g", el("q", "2")))
        document = Document(el("r", shared, el("s", shared), shared))
        memo = IdentityMemo()
        for _ in range(3):
            wire, _lines = document_wire(document, memo)
            assert wire == document.to_xml()

    def test_one_answer_at_two_depths_in_a_session(self):
        # Both calls f() have one fingerprint: the session's caching
        # invoker splices one answer forest at depth 1 and at depth 2.
        sender = (
            SchemaBuilder().element("r", "(f | p).s.t?").element("s", "f | p")
            .element("p", "q*").element("q", "data").element("t", "data")
            .function("f", "eps", "p").root("r").build()
        )
        target = (
            SchemaBuilder().element("r", "p.s.t?").element("s", "p")
            .element("p", "q*").element("q", "data").element("t", "data")
            .root("r").build()
        )
        answer = (el("p", el("q", "1"), el("q", "2")),)
        enforcer = SchemaEnforcer(target, sender, policy=allow_only({"f"}),
                                  compile_cache=CompilationCache())
        session = enforcer.session(
            Document(el("r", call("f"), el("s", call("f")))),
            lambda _fc: answer,
        )
        checker = InstanceChecker(target)
        assert session.enforce().ok
        root = session.enforced.root
        assert root.children[0] is root.children[1].children[0]
        assert session.deliver(checker).observed() == plain(session, checker)
        for edit in ([insert((2,), el("t", "x"))], [delete((2,))],
                     [insert((2,), el("t", "y"))]):
            assert session.apply(edit).ok
            assert session.deliver(checker).observed() == plain(
                session, checker
            )


class TestDeepDocuments:
    """The documents the gateway's deep-document tests open."""

    def _delivered_once(self, target, sender, document, invoker,
                        policy=allow_all()):
        enforcer = SchemaEnforcer(target, sender, policy=policy,
                                  compile_cache=CompilationCache())
        session = enforcer.session(document, invoker)
        assert session.enforce().ok
        checker = InstanceChecker(target)
        delivery = session.deliver(checker)
        assert delivery.report.ok
        assert delivery.observed() == plain(session, checker)
        return session, delivery

    def test_a_3000_deep_chain(self):
        schema = SchemaBuilder().element("a", "a?").root("a").build()
        document = Document.from_xml("<a>" * 3000 + "</a>" * 3000)
        session, delivery = self._delivered_once(
            schema, schema, document, lambda _fc: ()
        )
        assert 0 < memo_text(session) <= len(delivery.wire)

    def test_a_2000_deep_chain_above_one_call(self):
        sender = (
            SchemaBuilder().element("a", "a | F").element("x", "data")
            .function("F", "data", "x").root("a").build()
        )
        receiver = (
            SchemaBuilder().element("a", "a | x").element("x", "data")
            .root("a").build()
        )
        document = Document.from_xml(
            '<a xmlns:int="http://www.activexml.com/ns/int">'
            + "<a>" * 1999
            + '<int:fun methodName="F"><int:params><int:param>v'
            "</int:param></int:params></int:fun>"
            + "</a>" * 2000
        )
        session, delivery = self._delivered_once(
            receiver, sender, document, lambda _fc: (el("x", "w"),),
            policy=allow_only({"F"}),
        )
        assert 0 < memo_text(session) <= len(delivery.wire)


class TestVisibility:
    def test_lines_formatted_and_subtrees_reused(self):
        work = WORKLOADS["gateway"](1)
        library = Library(work.library)
        checker = InstanceChecker(library.receiver, None, library.cache)
        session, _first = library.open_session()
        storm = work.storm()
        registry, tracer = MetricsRegistry(), Tracer()
        with observing(tracer, registry):
            deliver(session.enforced, checker)
            full = work_snapshot(registry)
            session.deliver(checker)  # cold: every line is formatted
            cold = work_snapshot(registry)
            library.apply(session, next(storm))
            before = work_snapshot(registry)
            session.deliver(checker)
            after = work_snapshot(registry)
        assert cold[LINES] - full[LINES] == full[LINES] > 0
        lines = after[LINES] - before[LINES]
        words = after[WORDS] - before[WORDS]
        assert 0 < lines < full[LINES] / 20
        assert 0 < words < full[WORDS] / 20
        last = {span.name: span.attributes for span in tracer.finished()}
        assert last["transfer.serialize"]["lines"] == lines
        assert last["transfer.serialize"]["reused"] > 0
        assert last["transfer.validate"]["reused"] > 0

    def test_the_edit_oracle_compares_deliveries(self, monkeypatch):
        # A session delivery that drifts from deliver is a disagreement
        # of the 'delivery' aspect.
        session_deliver = EnforcementSession.deliver

        def drifting(session, checker):
            delivery = session_deliver(session, checker)
            delivery.wire += " "
            return delivery

        scenario = fuzz_edit_scenario(0)
        found, _receipts = run_edit_config(scenario, EDIT_MATRIX[0])
        assert found == []
        monkeypatch.setattr(EnforcementSession, "deliver", drifting)
        found, _receipts = run_edit_config(scenario, EDIT_MATRIX[0])
        assert found
        assert all(f.aspect.endswith(":delivery") for f in found)


class TestGatewaySessions:
    def test_concurrent_edits_on_one_session(self):
        # Pairs of scripts on one document race through the pool; each
        # reply is the full path's enforcement of the document its pass
        # saw, in the order the passes ran.
        harness = make_gateway()
        scripts = [
            (script_to_json([replace((0,), Element(
                "title", (Text("Title %d" % index),)))]),
             script_to_json([replace((1,), Element(
                 "date", (Text("0%d/10/2002" % index),)))]))
            for index in range(4)
        ]
        try:
            async def go():
                clients = [GatewayClient(harness.host, harness.port)
                           for _ in range(2)]
                try:
                    opened = await clients[0].open_session(
                        "alice", "bob", "doc-1", DOCUMENT_XML, seed=42
                    )
                    assert opened.status == 200, opened.body
                    rounds = []
                    for pair in scripts:
                        rounds.append((pair, await asyncio.gather(*(
                            client.apply_edits("alice", "bob", "doc-1",
                                               script)
                            for client, script in zip(clients, pair)
                        ))))
                    return rounds
                finally:
                    for client in clients:
                        await client.close()

            rounds = asyncio.run(go())
        finally:
            harness.stop()
        document = Document.from_xml(DOCUMENT_XML)
        for pair, replies in rounds:
            assert all(reply.status == 200 for reply in replies)
            payloads = [reply.json() for reply in replies]
            ordered = sorted(zip(payloads, pair),
                             key=lambda item: item[0]["passes"])
            for payload, script in ordered:
                document, _ = apply_edits(document, script_from_json(script))
                assert payload["accepted"] is True
                assert payload["document"] == direct_enforcement(
                    SENDER_XSD, RECEIVER_XSD, document.to_xml(), seed=42
                )
