"""The compiled Definition 3 checker against the NFA diagnosis.

:class:`InstanceChecker` decides every instance check in the library;
the Glushkov NFA run (:func:`diagnose_word`) only explains failures.
These tests hold the two to the same verdict on generated content
models — wildcards with exclusions, EXACT and SUBSUME patterns with
predicates, pattern names used as call names, symbols outside every
alphabet, ``#data`` and bounded repeats — and on the differential
fuzzer's document scenarios, where ``validate``, the checker walk and
the incremental ``ConformanceMemo`` must agree.  They also pin that
warm enforcement passes compile nothing per word.
"""

import random
import sys

from repro.automata.symbols import DATA
from repro.axml.enforcement import SchemaEnforcer
from repro.compile.cache import CompilationCache
from repro.conformance.fuzzer import fuzz_document_scenario
from repro.doc import Document, call, el
from repro.doc.nodes import Element, FunctionCall, Text
from repro.incremental.edits import replace
from repro.incremental.session import ConformanceMemo
from repro.obs.context import observing
from repro.obs.metrics import MetricsRegistry, work_snapshot
from repro.obs.trace import NULL_TRACER
from repro.regex.ast import AnySymbol, alt, atom, repeat, seq, star
from repro.schema import SchemaBuilder, validate
from repro.schema.model import EXACT, SUBSUME
from repro.schema.validate import InstanceChecker, diagnose_word
from repro.workloads import newspaper

LABELS = ("a", "b", "c")
FUNCTIONS = ("f", "g")
PATTERNS = ("P", "Q")
#: Declared by the sender schema only (a function and a pattern).
SENDER_NAMES = ("h", "R")
#: Declared nowhere: outside every alphabet a checker compiles.
STRANGERS = ("zz", "x9")
ATOMS = LABELS + FUNCTIONS + PATTERNS + SENDER_NAMES + ("zz", DATA)
WORD_SYMBOLS = ATOMS + STRANGERS
SIGNATURE_TYPES = ("a", "b", "a.b", "data", "a*", "(a | b)")


def _any_name(_name):
    return True


def _not_g(name):
    return name != "g"


def _short(name):
    return len(name) == 1


def _initial_in_fhp(name):
    return name[:1] in ("f", "h", "P")


PREDICATES = (_any_name, _not_g, _short, _initial_in_fhp)


def random_regex(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if rng.random() < 0.15:
            excluded = rng.sample(WORD_SYMBOLS, rng.randint(0, 3))
            return AnySymbol(frozenset(excluded))
        return atom(rng.choice(ATOMS))
    parts = [random_regex(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    if roll < 0.55:
        return seq(*parts)
    if roll < 0.75:
        return alt(*parts)
    if roll < 0.85:
        return star(parts[0])
    low = rng.randint(0, 2)
    high = None if rng.random() < 0.3 else low + rng.randint(0, 2)
    return repeat(parts[0], low, high)


def random_schema_pair(rng):
    """A target schema with patterns and a sender filling in names."""
    builder = SchemaBuilder()
    for label in LABELS:
        builder.element(label, rng.choice(("data", "a?", "b*")))
    for name in FUNCTIONS:
        builder.function(
            name, rng.choice(SIGNATURE_TYPES), rng.choice(SIGNATURE_TYPES)
        )
    for name in PATTERNS:
        match = rng.choice((EXACT, SUBSUME))
        input_type = rng.choice(SIGNATURE_TYPES + ("any*", "(a | b)*"))
        builder.pattern(
            name, input_type, rng.choice(SIGNATURE_TYPES),
            rng.choice(PREDICATES), match,
        )
    target = builder.build(strict=False)
    sender_builder = (
        SchemaBuilder()
        .function("h", rng.choice(SIGNATURE_TYPES), rng.choice(SIGNATURE_TYPES))
        .pattern("R", rng.choice(SIGNATURE_TYPES), rng.choice(SIGNATURE_TYPES))
    )
    if rng.random() < 0.5:
        # A redeclaration the target's signature must win over.
        sender_builder.function("f", "data", "b")
    return target, sender_builder.build(strict=False)


def sample_word(rng, expr):
    """A word of ``lang(expr)`` read literally (patterns as their atom)."""
    from repro.regex.ast import Alt, Atom, Empty, Epsilon, Repeat, Seq, Star

    if isinstance(expr, Atom):
        return [expr.symbol]
    if isinstance(expr, AnySymbol):
        return [rng.choice(WORD_SYMBOLS)]
    if isinstance(expr, (Epsilon, Empty)):
        return []
    if isinstance(expr, Seq):
        return [s for item in expr.items for s in sample_word(rng, item)]
    if isinstance(expr, Alt):
        return sample_word(rng, rng.choice(expr.options))
    if isinstance(expr, Star):
        count = rng.randint(0, 2)
    else:
        assert isinstance(expr, Repeat)
        high = expr.high if expr.high is not None else expr.low + 2
        count = rng.randint(expr.low, high)
    return [s for _ in range(count) for s in sample_word(rng, expr.item)]


def words_for(rng, expr):
    member = sample_word(rng, expr)
    mutated = list(member)
    if mutated:
        mutated[rng.randrange(len(mutated))] = rng.choice(WORD_SYMBOLS)
    noise = [rng.choice(WORD_SYMBOLS) for _ in range(rng.randint(0, 5))]
    return (tuple(member), tuple(mutated), tuple(noise), ())


class TestCompiledAgreesWithDiagnosis:
    def test_word_ok_equals_diagnose_word_on_generated_models(self):
        rng = random.Random(20030609)
        cache = CompilationCache()
        models = 0
        accepted = rejected = 0
        for _ in range(100):
            target, sender = random_schema_pair(rng)
            checker = InstanceChecker(target, sender, cache)
            for _ in range(21):
                expr = random_regex(rng, 3)
                models += 1
                for word in words_for(rng, expr):
                    expected = diagnose_word(word, expr, target, sender).ok
                    assert checker.word_ok(word, expr) == expected, (
                        expr, word
                    )
                    accepted += expected
                    rejected += not expected
        assert models >= 2000
        # Both verdicts are exercised in bulk.
        assert accepted > 1000 and rejected > 1000

    def test_pattern_name_as_call_name(self):
        schema = newspaper.pattern_schema()
        checker = InstanceChecker(schema, None, CompilationCache())
        expr = schema.type_of("newspaper")
        # Forecast's own signature matches itself: the pattern name is a
        # legal call name, as is any admitted function.
        for name in ("Forecast", "Get_Temp"):
            word = ("title", "date", name, "TimeOut")
            assert checker.word_ok(word, expr)
            assert diagnose_word(word, expr, schema).ok
        word = ("title", "date", "Get_Date", "TimeOut")
        assert not checker.word_ok(word, expr)
        assert not diagnose_word(word, expr, schema).ok

    def test_target_signature_wins_over_the_sender(self):
        target = (
            SchemaBuilder()
            .element("r", "P")
            .function("f", "a", "b")
            .pattern("P", "a", "b")
            .build(strict=False)
        )
        sender = SchemaBuilder().function("f", "data", "b").build(strict=False)
        checker = InstanceChecker(target, sender, CompilationCache())
        assert checker.word_ok(("f",), target.type_of("r"))
        assert diagnose_word(("f",), target.type_of("r"), target, sender).ok

    def test_unknown_symbol_meets_only_wildcards(self):
        wildcard = star(AnySymbol(frozenset({"b"})))
        schema = SchemaBuilder().element("a", wildcard).build(strict=False)
        checker = InstanceChecker(schema, None, CompilationCache())
        expr = schema.type_of("a")
        assert checker.word_ok(("zz", DATA, "a"), expr)
        assert not checker.word_ok(("zz", "b"), expr)


def _scenario_pairs(scenario):
    yield scenario.exchange_schema, scenario.sender_schema
    yield scenario.exchange_schema, None
    yield scenario.sender_schema, None


class TestDocumentScenariosAgree:
    def test_validate_walk_and_memo_agree(self):
        verdicts = set()
        for seed in range(80):
            scenario = fuzz_document_scenario(seed)
            root = scenario.document.root
            for schema, sender in _scenario_pairs(scenario):
                checker = InstanceChecker(schema, sender, CompilationCache())
                expected = validate(scenario.document, schema, sender).ok
                assert checker.ok(root) == expected, seed
                assert ConformanceMemo(checker).ok(root) == expected, seed
                lenient = validate(
                    scenario.document, schema, sender, strict=False
                ).ok
                assert checker.ok(root, strict=False) == lenient, seed
                verdicts.add(expected)
        assert verdicts == {True, False}


class TestStrictCallsNeedASignature:
    def test_pattern_admitted_name_without_signature_is_undeclared(self):
        # "Forecast" admits every name by predicate, but a pattern admits
        # only functions with a signature; Mystery has none anywhere.
        schema = newspaper.pattern_schema()
        document = Document(el(
            "newspaper", el("title", "t"), el("date", "d"),
            call("Mystery", el("city", "Paris")),
        ))
        report = validate(document, schema)
        kinds = [(v.kind, v.symbol) for v in report.violations]
        assert ("undeclared-function", "Mystery") in kinds
        lenient = validate(document, schema, strict=False)
        assert all(v.kind != "undeclared-function" for v in lenient.violations)


def _constant_temp(_call):
    return (el("temp", "15"),)


class TestNoPerWordCompilation:
    def test_warm_passes_build_no_glushkov_automata(self, monkeypatch):
        width = 8
        enforcer = SchemaEnforcer(
            newspaper.wide_schema_star2(width),
            newspaper.wide_schema_star(width),
            compile_cache=CompilationCache(),
        )
        document = newspaper.wide_document(width)
        xml = document.to_xml()
        session = enforcer.session(document, _constant_temp)
        retitle = [replace((0,), el("title", "The Moon"))]

        def passes():
            dom = enforcer.enforce_document(document, _constant_temp)
            assert dom.ok and dom.calls_made == width
            sink = []
            stream = enforcer.enforce_stream(xml, _constant_temp, sink.append)
            assert stream.ok and "".join(sink)
            assert session.apply(retitle).ok

        assert session.enforce().ok
        passes()  # warm every cache
        builds = []
        from repro.automata.glushkov import glushkov_nfa

        def counting(expr):
            builds.append(expr)
            return glushkov_nfa(expr)

        for module in list(sys.modules.values()):
            if getattr(module, "glushkov_nfa", None) is glushkov_nfa:
                monkeypatch.setattr(module, "glushkov_nfa", counting)
        passes()
        assert builds == []


class TestCheckWorkCounters:
    def test_one_record_per_walk_or_pass(self, monkeypatch):
        from repro.incremental import session as session_module
        from repro.stream import enforce as stream_module

        validate_module = sys.modules["repro.schema.validate"]

        records = []

        def recording(registry, stage, counters, **labels):
            if stage == "check":
                records.append(dict(counters))

        for module in (validate_module, stream_module, session_module):
            monkeypatch.setattr(module, "record_work", recording)
        width = 6
        enforcer = SchemaEnforcer(
            newspaper.wide_schema_star2(width),
            newspaper.wide_schema_star(width),
            compile_cache=CompilationCache(),
        )
        document = newspaper.wide_document(width)
        assert enforcer.enforce_document(document, _constant_temp).ok
        # The verify walk stops at the root's word; the post-rewrite
        # check walks newspaper, title, date and every temp: one record
        # each.
        assert len(records) == 2
        assert records[0] == {"words": 1}
        assert records[1] == {"words": 3 + width, "diagnoses": 0}
        records.clear()
        sink = []
        assert enforcer.enforce_stream(
            document.to_xml(), _constant_temp, sink.append
        ).ok
        # One walk per closed call (the call and its city), then one
        # record for the pass: title, date and newspaper, each checked
        # before and after its word is rewritten.
        assert records == [{"words": 2}] * width + [{"words": 6}]
        records.clear()
        assert enforcer.session(document, _constant_temp).enforce().ok
        assert len(records) == 1

    def test_counters_reach_the_registry(self):
        registry = MetricsRegistry()
        schema = newspaper.schema_star2()
        with observing(NULL_TRACER, registry):
            report = validate(newspaper.document(), schema)
        assert not report.ok
        work = work_snapshot(registry)
        words = [v for k, v in work.items()
                 if 'stage="check"' in k and 'counter="words"' in k]
        diagnoses = [v for k, v in work.items()
                     if 'stage="check"' in k and 'counter="diagnoses"' in k]
        assert words and words[0] > 0
        assert diagnoses == [float(len(report.violations))]


_TEXTS = ("", " ", "v", " w ", "x\ny", "&<")


def _random_tree(rng, depth):
    """An element over a, b, c whose children mix elements, texts and
    calls ``f`` (a text, an element or a call per parameter)."""
    children = []
    for _ in range(rng.randrange(4 if depth else 1)):
        roll = rng.random()
        if roll < 0.35 or not depth:
            children.append(Text(rng.choice(_TEXTS)))
        elif roll < 0.75:
            children.append(_random_tree(rng, depth - 1))
        else:
            params = [
                Text(rng.choice(_TEXTS)) if rng.random() < 0.5
                else _random_tree(rng, depth - 1)
                for _ in range(rng.randrange(3))
            ]
            children.append(FunctionCall("f", tuple(params)))
    return Element(rng.choice(LABELS), tuple(children))


class TestReceiveReadsAsTheParser:
    """``receive`` reaches, without parsing, the verdict the checker
    reaches on what ``Document.from_xml`` reads from the tree's bytes:
    the same report (paths of the tree read), the parser's first
    mixed-content refusal in document order, and ``validate``'s report
    when the tree is in wire normal form."""

    SCHEMA = (
        SchemaBuilder().element("a", "(b | c | f)*").element("b", "data")
        .element("c", "data.data | b*").function("f", "data | b", "c")
        .root("a").build(strict=False)
    )

    def test_random_trees(self):
        from repro.errors import DocumentParseError

        checker = InstanceChecker(self.SCHEMA)
        rng = random.Random(23)
        kinds = set()
        for _ in range(1500):
            root = _random_tree(rng, 3)
            report, normal = checker.receive(root)
            try:
                read = Document.from_xml(Document(root).to_xml()).root
            except DocumentParseError as exc:
                expected, rebuilt = "unparseable: %s" % exc, False
                kinds.add("unparseable")
            else:
                expected, rebuilt = str(checker.validate(read)), read == root
                kinds.add("valid" if expected == "valid" else "refused")
            assert str(report) == expected, root
            # Wire normal form: exactly the trees whose bytes rebuild them.
            assert normal is rebuilt, root
            if normal:
                kinds.add("normal")
                assert str(checker.validate(root)) == expected
        assert kinds == {"unparseable", "valid", "refused", "normal"}

    def test_first_refusal_in_document_order(self):
        # <b> is refused after <c>'s subtree is read, <c> before its own
        # children: the parser meets c's mixed content first.
        checker = InstanceChecker(self.SCHEMA)
        inner = el("c", "t", el("b", el("c"), "u"))
        root = el("a", el("b", inner, "late"))
        report, normal = checker.receive(root)
        assert not normal
        assert str(report) == (
            "unparseable: mixed content under <c> is not part of the "
            "simple model"
        )
