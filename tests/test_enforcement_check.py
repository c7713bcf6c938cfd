"""The engine checks what it writes: one verdict on every path.

The enforcer's final check is made where the rewrite engine writes the
output — each children word written, each call the output keeps, whole
— so the DOM, session, stream and forest paths reach one verdict, with
one text, on a document that rewriting cannot make conformant.

The kept-call scenario: the sender declares ``r = f | g``, ``f: eps ->
g`` and ``g: a -> x``; the receiver, which is the target, declares
``r = g`` and ``g: b -> x``.  The document ``<r>`` holds one call ``f``,
answered with ``g(<a>1</a>)``.  The safe game guarantees the word ``g``
it is played on, not the parameters inside the call the answer carries,
so the kept ``g`` fails the receiver's input type.
"""

import pytest

from repro.axml.enforcement import SchemaEnforcer
from repro.compile import CompilationCache
from repro.doc.builder import call, el
from repro.doc.document import Document
from repro.errors import RewriteError
from repro.obs.context import observing
from repro.obs.metrics import MetricsRegistry, work_snapshot
from repro.obs.trace import NULL_TRACER
from repro.regex.parser import parse_regex
from repro.rewriting import engine as engine_module
from repro.rewriting.engine import RewriteEngine
from repro.schema.model import SchemaBuilder
from repro.schema.patterns import allow_only
from repro.workloads import newspaper

#: The one text every path reports on the kept-call scenario.
KEPT_CALL_ERROR = (
    "rewriting produced a non-conformant document: input: parameters a "
    "do not match input type b (unexpected 'a' at position 0; expected b)"
)


def kept_call_scenario():
    """(sender schema, receiver schema, document, invoker) of the
    kept-call scenario; the invoker answers every call ``f`` alike."""
    sender = (
        SchemaBuilder().element("r", "f | g").element("a", "data")
        .element("b", "data").element("x", "data")
        .function("f", "eps", "g").function("g", "a", "x")
        .root("r").build(strict=False)
    )
    receiver = (
        SchemaBuilder().element("r", "g").element("a", "data")
        .element("b", "data").element("x", "data")
        .function("g", "b", "x").root("r").build(strict=False)
    )
    answer = (call("g", el("a", "1")),)
    return sender, receiver, Document(el("r", call("f"))), lambda _fc: answer


def _enforcer(sender, receiver):
    return SchemaEnforcer(
        receiver, sender, policy=allow_only({"f"}),
        compile_cache=CompilationCache(),
    )


def _four_paths(enforcer, document, invoker, forest, target, only=None):
    """The outcomes of the DOM, session, stream and forest paths (or of
    the one path named ``only``)."""
    sink = []
    paths = {
        "dom": lambda: enforcer.enforce_document(document, invoker),
        "session": lambda: enforcer.session(document, invoker).enforce(),
        "stream": lambda: enforcer.enforce_stream(
            document.to_xml(), invoker, sink.append
        ),
        "forest": lambda: enforcer.enforce_forest(forest, target, invoker),
    }
    return {path: run() for path, run in paths.items()
            if only in (None, path)}


class TestKeptCall:
    def test_every_library_path_fails_with_one_text(self):
        sender, receiver, document, invoker = kept_call_scenario()
        outcomes = _four_paths(
            _enforcer(sender, receiver), document, invoker,
            (call("f"),), parse_regex("g"),
        )
        for path, outcome in outcomes.items():
            assert not outcome.ok, path
            assert outcome.error == KEPT_CALL_ERROR, path
            assert outcome.document is None and outcome.forest is None
        # The document paths list no calls, as for any rewrite error.
        for path in ("dom", "session", "stream"):
            assert outcomes[path].calls_made == 0, path

    def test_a_call_under_a_call_is_not_checked_where_it_is_written(self):
        # The answer's g sits in the parameters of a call h the sender
        # invokes: its parameters never reach the receiver, so they are
        # not checked, and the rewrite succeeds.
        *_, answer_f = kept_call_scenario()
        sender = (
            SchemaBuilder().element("r", "x").element("a", "data")
            .element("b", "data").element("x", "data")
            .function("f", "eps", "g").function("g", "a", "x")
            .function("h", "g", "x").root("r").build(strict=False)
        )
        receiver = (
            SchemaBuilder().element("r", "x").element("a", "data")
            .element("b", "data").element("x", "data")
            .function("g", "b", "x").function("h", "g", "x")
            .root("r").build(strict=False)
        )
        document = Document(el("r", call("h", call("f"))))

        def invoker(fc):
            return answer_f(fc) if fc.name == "f" else (el("x", "2"),)

        enforcer = SchemaEnforcer(
            receiver, sender, policy=allow_only({"f", "h"}),
            compile_cache=CompilationCache(),
        )
        outcome = enforcer.enforce_document(document, invoker)
        assert outcome.ok, outcome.error
        assert outcome.log.invoked == ["f", "h"]
        assert enforcer.checker.ok(outcome.document.root)

    def test_a_session_replay_is_checked_where_it_is_written(self):
        # One answer element of f reaches the output twice: first in the
        # parameters of h, which is invoked (nothing there is checked),
        # then in the root's word, keeping a call k whose parameters
        # carry f2's answer g(<a>1</a>).  The session's memo must not
        # replay the unchecked subtree where the output is checked.
        sender = (
            SchemaBuilder().element("r", "(h | f)*").element("e", "k")
            .element("a", "data").element("x", "data")
            .function("f", "eps", "e").function("f2", "eps", "g")
            .function("g", "a", "x").function("k", "g", "x")
            .function("h", "e", "x").root("r").build(strict=False)
        )
        receiver = (
            SchemaBuilder().element("r", "(x | e)*").element("e", "k")
            .element("b", "data").element("x", "data")
            .function("g", "b", "x").function("k", "g", "x")
            .function("h", "e", "x").root("r").build(strict=False)
        )
        answers = {
            "f": (el("e", call("k", call("f2"))),),
            "f2": (call("g", el("a", "1")),),
            "h": (el("x", "2"),),
        }
        document = Document(el("r", call("h", call("f")), call("f")))
        enforcer = SchemaEnforcer(
            receiver, sender, policy=allow_only({"f", "f2", "h"}),
            compile_cache=CompilationCache(),
        )

        def invoker(fc):
            return answers[fc.name]

        dom = enforcer.enforce_document(document, invoker)
        session = enforcer.session(document, invoker).enforce()
        assert session.error == dom.error == KEPT_CALL_ERROR


class TestLyingSolver:
    """A solver whose executed word is not the one it promised is caught
    where the engine writes, on every path."""

    @pytest.fixture
    def lying(self, monkeypatch):
        execute_safe = engine_module.execute_safe

        def drop_last(analysis, children, invoker, log, cost_of):
            result, plan = execute_safe(
                analysis, children, invoker, log, cost_of
            )
            return result[:-1], plan

        monkeypatch.setattr(engine_module, "execute_safe", drop_last)

    def test_every_library_path_fails_with_one_text(self, lying):
        width = 3
        enforcer = SchemaEnforcer(
            newspaper.wide_schema_star2(width),
            newspaper.wide_schema_star(width),
            compile_cache=CompilationCache(),
        )
        document = newspaper.wide_document(width)

        def invoker(_fc):
            return (el("temp", "15"),)

        forest = document.root.children
        target = enforcer.target_schema.type_of("newspaper")
        outcomes = _four_paths(enforcer, document, invoker, forest, target)
        word = "title.date.temp.temp"
        expected = (
            "rewriting produced a non-conformant document: content: "
            "children word %s does not match %s (word ends too early; "
            "expected temp)" % (word, target)
        )
        for path, outcome in outcomes.items():
            assert not outcome.ok, path
            assert outcome.error == expected, path


class TestCheckWork:
    def test_a_failing_pass_counts_the_words_it_checked(self):
        # The verify walk, the kept call's walk and the words the engine
        # wrote before the kept call failed (the stream also checks each
        # word as it closes; the forest path has no verify walk).
        sender, receiver, document, invoker = kept_call_scenario()
        enforcer = _enforcer(sender, receiver)
        words = {}
        for path in ("dom", "session", "stream", "forest"):
            registry = MetricsRegistry()
            with observing(NULL_TRACER, registry):
                outcome = _four_paths(
                    enforcer, document, invoker, (call("f"),),
                    parse_regex("g"), only=path,
                )[path]
            assert outcome.error == KEPT_CALL_ERROR, path
            words[path] = sum(
                value for key, value in work_snapshot(registry).items()
                if 'stage="check"' in key and 'counter="words"' in key
            )
        assert words == {"dom": 3, "session": 3, "stream": 4, "forest": 2}

    def test_an_engine_alone_builds_its_own_checker_once(self):
        sender, receiver, document, invoker = kept_call_scenario()
        engine = RewriteEngine(receiver, sender, policy=allow_only({"f"}),
                               compile_cache=CompilationCache())
        with pytest.raises(RewriteError) as first:
            engine.rewrite(document, invoker)
        checker = engine.checker
        with pytest.raises(RewriteError) as second:
            engine.rewrite(document, invoker)
        assert engine.checker is checker
        assert str(first.value) == str(second.value) == KEPT_CALL_ERROR

    def test_an_enforcer_hands_its_checker_to_every_engine(self):
        sender, receiver, _document, _invoker = kept_call_scenario()
        enforcer = _enforcer(sender, receiver)
        assert enforcer._engine().checker is enforcer.checker
        session = enforcer.session(Document(el("r")), lambda fc: ())
        assert session._engine.checker is enforcer.checker

    def test_a_session_walks_a_replayed_kept_call_once(self, monkeypatch):
        # Retitling re-writes the root's word; the TimeOut call it keeps
        # is replayed unchanged by the memo, so it is not walked again.
        from repro.incremental.edits import replace
        from repro.schema.validate import InstanceChecker

        enforcer = SchemaEnforcer(
            newspaper.schema_star2(), newspaper.schema_star(),
            compile_cache=CompilationCache(),
        )
        session = enforcer.session(
            newspaper.document(), lambda _fc: (el("temp", "15"),)
        )
        first = session.enforce()
        assert first.ok and "TimeOut" in first.document.to_xml()
        walks = []
        first_failure = InstanceChecker.first_failure

        def walking(checker, node, strict=True):
            walks.append(node)
            return first_failure(checker, node, strict)

        monkeypatch.setattr(InstanceChecker, "first_failure", walking)
        outcome = session.apply([replace((0,), el("title", "The Moon"))])
        assert outcome.ok, outcome.error
        assert walks == []
