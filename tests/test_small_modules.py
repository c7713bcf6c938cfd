"""Unit tests for the small supporting modules.

Errors, invocation plans/logs, cost models, the alphabet machinery —
the plumbing every other module leans on.
"""

import pytest

from repro import errors
from repro.automata.symbols import (
    DATA,
    OTHER,
    Alphabet,
    class_matches,
    concretize_class,
)
from repro.regex.ast import AnySymbol
from repro.rewriting.cost import UNIT, CostModel
from repro.rewriting.plan import (
    Decision,
    InvocationLog,
    InvocationRecord,
)


class TestErrorHierarchy:
    def test_everything_is_a_repro_error(self):
        for name in (
            "RegexSyntaxError", "DocumentError", "DocumentParseError",
            "SchemaError", "ValidationError", "RewriteError",
            "NoSafeRewritingError", "NoPossibleRewritingError",
            "RewriteExecutionError", "ServiceError", "ServiceFault",
            "UnknownServiceError", "AccessDeniedError", "XMLSchemaIntError",
            "NondeterministicRegexError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name

    def test_rewrite_family(self):
        assert issubclass(errors.NoSafeRewritingError, errors.RewriteError)
        assert issubclass(errors.NoPossibleRewritingError, errors.RewriteError)
        assert issubclass(errors.RewriteExecutionError, errors.RewriteError)

    def test_service_fault_carries_code(self):
        fault = errors.ServiceFault("boom", fault_code="Client")
        assert fault.fault_code == "Client"

    def test_regex_error_carries_position(self):
        error = errors.RegexSyntaxError("bad", text="a.%", position=2)
        assert error.position == 2 and error.text == "a.%"

    def test_validation_error_carries_violations(self):
        error = errors.ValidationError("invalid", violations=[1, 2])
        assert error.violations == [1, 2]


class TestInvocationLog:
    def test_ordering_and_rendering(self):
        log = InvocationLog()
        log.add("Get_Temp", 1, ("temp",), 2.0)
        log.add("TimeOut", 1, ("exhibit", "exhibit"), 1.0)
        assert log.invoked == ["Get_Temp", "TimeOut"]
        assert log.cost == 3.0
        assert len(log) == 2
        rendered = str(log)
        assert "Get_Temp -> [temp] depth=1" in rendered
        assert "exhibit.exhibit" in rendered

    def test_backtracked_flagging(self):
        log = InvocationLog()
        log.add("f", 2, ("a",))
        log.mark_backtracked(0)
        assert log.records[0].backtracked
        assert log.useful == []
        assert "(backtracked)" in str(log)

    def test_empty_log(self):
        assert str(InvocationLog()) == "no calls"

    def test_decision_rendering(self):
        assert str(Decision(2, "Get_Temp", "invoke")) == "invoke Get_Temp@2"

    def test_record_rendering_empty_output(self):
        record = InvocationRecord("f", 1, ())
        assert "[]" in str(record)


class TestCostModel:
    def test_defaults(self):
        assert UNIT.cost_of("anything") == 1.0
        assert not UNIT.is_side_effect_free("anything")

    def test_overrides(self):
        model = CostModel(default_cost=2.0).with_cost("f", 9.0)
        assert model.cost_of("f") == 9.0
        assert model.cost_of("g") == 2.0

    def test_side_effect_free(self):
        model = UNIT.with_side_effect_free(["f"])
        assert model.is_side_effect_free("f")
        assert model.is_cheap("f")  # side-effect free => cheap
        assert not model.is_cheap("g")

    def test_cheap_by_threshold(self):
        model = CostModel().with_cost("g", 0.0)
        assert model.is_cheap("g", threshold=0.0)
        assert not model.is_cheap("h", threshold=0.5)
        assert CostModel(default_cost=0.4).is_cheap("h", threshold=0.5)


class TestAlphabet:
    def test_closure_always_contains_other(self):
        alphabet = Alphabet.closure({"a"}, {"b"})
        assert OTHER in alphabet
        assert set("ab") <= alphabet.symbols

    def test_canon_folds_unknown(self):
        alphabet = Alphabet.closure({"a"})
        assert alphabet.canon("a") == "a"
        assert alphabet.canon("zzz") == OTHER
        assert alphabet.canon_word(("a", "zzz")) == ("a", OTHER)

    def test_iteration_sorted(self):
        alphabet = Alphabet.closure({"b", "a"})
        assert list(alphabet) == sorted(alphabet.symbols)
        assert len(alphabet) == 3

    def test_class_matches(self):
        assert class_matches("a", "a")
        assert not class_matches("a", "b")
        assert class_matches(AnySymbol(), "whatever")
        assert not class_matches(AnySymbol(frozenset({"x"})), "x")

    def test_concretize(self):
        alphabet = Alphabet.closure({"a", "b"})
        assert concretize_class("a", alphabet) == frozenset({"a"})
        assert concretize_class("zzz", alphabet) == frozenset()
        wild = concretize_class(AnySymbol(frozenset({"a"})), alphabet)
        assert wild == frozenset({"b", OTHER})

    def test_data_symbol_is_reserved(self):
        assert DATA.startswith("#")
        assert OTHER.startswith("#")


class TestInputInstance:
    def test_symmetry_with_output(self, schema_star):
        from repro.doc import el
        from repro.schema.validate import is_input_instance

        assert is_input_instance(
            (el("city", "Paris"),), "Get_Temp", schema_star
        )
        assert not is_input_instance(
            (el("date", "x"),), "Get_Temp", schema_star
        )
        assert not is_input_instance((), "NoSuch", schema_star)


class TestWsdlSignatureResolution:
    def test_pattern_signature_from_wsdl(self):
        from repro import Service, constant_responder, el, parse_regex
        from repro.schema.model import FunctionSignature
        from repro.services.wsdl import service_to_wsdl
        from repro.xschema import compile_xschema, parse_xschema

        svc = Service("http://weather", "urn:w")
        svc.add_operation(
            "Get_Temp",
            FunctionSignature(parse_regex("city"), parse_regex("temp")),
            constant_responder((el("temp", "1"),)),
        )
        wsdl_text = service_to_wsdl(svc)
        source = """
        <schema xmlns="http://www.w3.org/2001/XMLSchema">
          <element name="city" type="string"/>
          <element name="temp" type="string"/>
          <element name="page"><complexType><sequence>
            <functionPattern ref="Forecast"/>
          </sequence></complexType></element>
          <functionPattern id="Forecast"
                           WSDLSignature="http://weather?wsdl#Get_Temp"/>
        </schema>"""
        compiled = compile_xschema(
            parse_xschema(source), wsdl_loader=lambda loc: wsdl_text
        )
        signature = compiled.patterns["Forecast"].signature
        assert str(signature) == "city -> temp"

    def test_missing_loader_rejected(self):
        from repro.errors import XMLSchemaIntError
        from repro.xschema import compile_xschema, parse_xschema

        source = """
        <schema xmlns="http://www.w3.org/2001/XMLSchema">
          <functionPattern id="P" WSDLSignature="somewhere#op"/>
        </schema>"""
        with pytest.raises(XMLSchemaIntError):
            compile_xschema(parse_xschema(source))

    def test_unknown_operation_rejected(self):
        from repro import Service
        from repro.errors import XMLSchemaIntError
        from repro.services.wsdl import service_to_wsdl
        from repro.xschema import compile_xschema, parse_xschema

        wsdl_text = service_to_wsdl(Service("http://empty", "urn:e"))
        source = """
        <schema xmlns="http://www.w3.org/2001/XMLSchema">
          <functionPattern id="P" WSDLSignature="http://empty#nope"/>
        </schema>"""
        with pytest.raises(XMLSchemaIntError):
            compile_xschema(
                parse_xschema(source), wsdl_loader=lambda loc: wsdl_text
            )


class TestWeightedSampling:
    def test_weight_steers_choices(self):
        import random

        from repro.automata.bitset import from_dfa
        from repro.automata.ops import regex_to_dfa, sample_word
        from repro.regex.parser import parse_regex

        dfa = from_dfa(regex_to_dfa(parse_regex("(a | b){8,8}")))
        rng = random.Random(3)
        heavy_a = sample_word(
            dfa, rng, weight=lambda s: 100.0 if s == "a" else 1.0
        )
        assert heavy_a.count("a") >= 6
        rng = random.Random(3)
        heavy_b = sample_word(
            dfa, rng, weight=lambda s: 100.0 if s == "b" else 1.0
        )
        assert heavy_b.count("b") >= 6

    def test_zero_weight_avoided_when_possible(self):
        import random

        from repro.automata.bitset import from_dfa
        from repro.automata.ops import regex_to_dfa, sample_word
        from repro.regex.parser import parse_regex

        dfa = from_dfa(regex_to_dfa(parse_regex("(a | b)*")))
        for seed in range(10):
            word = sample_word(
                dfa, random.Random(seed), weight=lambda s: 0.0 if s == "b" else 1.0
            )
            assert "b" not in word
