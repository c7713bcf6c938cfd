"""One parser, one message per fault.

``Document.from_xml``, ``node_from_xml`` and ``enforce_stream`` all build
their trees with :class:`repro.stream.builder.TreeBuilder`.  The corpus
below injects one Section 7 syntax fault at a time into the newspaper of
Figure 2 and a three-article magazine, at several positions (calls and
their parameters included), and pins the text of each message on both
paths.  The multi-fault documents then check that the DOM and streaming
paths report the same first violation, whether the stream gets the whole
text or chunks of any size.
"""

import random
import re
import xml.etree.ElementTree as ET

import pytest

from repro.axml.enforcement import SchemaEnforcer
from repro.compile.cache import CompilationCache
from repro.doc.document import Document
from repro.doc.names import INT_NS
from repro.errors import DocumentParseError
from repro.workloads import magazine, newspaper

MIXED = "mixed content under <%s> is not part of the simple model"
NS = ' xmlns:x="urn:x"'

BASES = {
    "newspaper": (newspaper.document().to_xml(), newspaper.schema_star()),
    "magazine": (magazine.document(3).to_xml(), magazine.schemas()[0]),
}


def _label(line):
    match = re.match(r"\s*<([\w:.\-]+)", line)
    return match.group(1) if match else None


def _anchors(lines):
    """Line indices by role in a pretty-printed document.

    ``open``: the start line of a plain element with element children;
    ``leaf``: a plain element on one line (``<a>text</a>``);
    ``child``: a plain element's last line, with its plain parent;
    ``fun``, ``params``, ``params_end``: the call wrapper lines;
    ``tree_param``/``text_param``: the line inside an ``int:param``.
    """
    found = {key: [] for key in (
        "open", "leaf", "child", "fun", "params", "params_end",
        "tree_param", "text_param",
    )}
    stack = []
    for index, line in enumerate(lines):
        body = line.strip()
        label = _label(body)
        parent = stack[-1] if stack else None
        if body.startswith("</"):
            closed = stack.pop()
            if closed == "int:params":
                found["params_end"].append(index)
            elif not closed.startswith("int:") and stack:
                if not stack[-1].startswith("int:"):
                    found["child"].append((index, stack[-1]))
            continue
        if label is None:  # the XML declaration, or a text line
            if parent == "int:param":
                found["text_param"].append(index)
            continue
        if parent == "int:param":
            found["tree_param"].append(index)
        if "</" in body:
            found["leaf"].append((index, label))
            if not parent.startswith("int:"):
                found["child"].append((index, parent))
            continue
        if label == "int:fun":
            found["fun"].append(index)
        elif label == "int:params":
            found["params"].append(index)
        elif not label.startswith("int:"):
            found["open"].append((index, label))
        stack.append(label)
    return found


def _spread(items):
    """First, middle and last."""
    picks = [items[0], items[len(items) // 2], items[-1]] if items else []
    return list(dict.fromkeys(picks))


def _insert_after(lines, index, text):
    return lines[:index + 1] + [text] + lines[index + 1:]


def _replaced(lines, index, text):
    return lines[:index] + [text] + lines[index + 1:]


def _expat_message(xml):
    try:
        ET.fromstring(xml)
    except ET.ParseError as exc:
        return "malformed XML: %s" % exc
    raise AssertionError("expected malformed XML")


def _faults(lines):
    """(kind, anchor line, faulty lines, message) for one base document.

    Each fault rewrites its anchor line or inserts one line after it;
    a message of None is expat's, and the text ends early only for
    the ``malformed-xml`` truncations.
    """
    found = _anchors(lines)
    attribute = "namespaced attribute '{urn:x}k' is not supported"
    element = "unsupported namespaced element '{urn:x}e'"
    for index, label in _spread(found["open"]):
        yield ("leading-text", index, _insert_after(lines, index, "junk"),
               MIXED % label)
        yield ("namespaced-element", index,
               _insert_after(lines, index, "<x:e%s/>" % NS), element)
        wrapper = "int:params" if index % 2 else "int:param"
        yield ("wrapper-outside-fun", index,
               _insert_after(lines, index, "<%s/>" % wrapper),
               "{%s}%s may only appear directly under int:fun"
               % (INT_NS, wrapper[4:]))
        yield ("namespaced-attribute", index, _replaced(
            lines, index,
            lines[index].replace("<" + label, "<%s%s x:k='v'" % (label, NS), 1),
        ), attribute)
    for index, label in _spread(found["leaf"]):
        line = lines[index]
        yield ("leading-text", index,
               _replaced(lines, index, line.replace("</", "<x/></", 1)),
               MIXED % label)
        yield ("namespaced-attribute", index, _replaced(
            lines, index,
            line.replace("<" + label, "<%s%s x:k='v'" % (label, NS), 1),
        ), attribute)
        yield ("malformed-xml", index, _replaced(
            lines, index, line.replace("</%s>" % label, "</zz>", 1)
        ), None)
        yield ("malformed-xml", index,
               _replaced(lines, index, line.replace(">", "> & ", 1)), None)
    for index, parent in _spread(found["child"]):
        yield ("trailing-text", index, _insert_after(lines, index, "tail"),
               MIXED % parent)
    for index in _spread(found["fun"]):
        yield ("fun-without-methodName", index, _replaced(
            lines, index, re.sub(r' methodName="[^"]*"', "", lines[index])
        ), "int:fun requires a methodName attribute")
        yield ("fun-child", index, _insert_after(lines, index, "<wrong/>"),
               "int:fun may only contain int:params, found 'wrong'")
    for index in _spread(found["params_end"]):
        yield ("two-params", index,
               _insert_after(lines, index, "<int:params/>"),
               "int:fun may contain at most one int:params")
    for index in _spread(found["params"]):
        yield ("params-child", index, _insert_after(lines, index, "<wrong/>"),
               "int:params may only contain int:param, found 'wrong'")
    for index in _spread(found["tree_param"]):
        yield ("mixed-param", index - 1,
               _insert_after(lines, index - 1, "junk"),
               "mixed content inside int:param")
        yield ("param-with-3-trees", index,
               _insert_after(lines, index, "<b/><c/>"),
               "int:param must wrap exactly one tree (found 3)")
    for index in _spread(found["text_param"]):
        yield ("namespaced-element", index,
               _replaced(lines, index, "<x:e%s/>" % NS), element)
    for index in _spread([i for i, _ in found["open"]][1:] + found["fun"]):
        yield ("malformed-xml", index, lines[:index + 1], None)


def _corpus():
    cases = []
    for base, (xml, _schema) in BASES.items():
        for kind, index, changed, message in _faults(xml.split("\n")):
            faulty = "\n".join(changed)
            if message is None:
                message = _expat_message(faulty)
            cases.append(pytest.param(
                base, faulty, message,
                id="%s-%s-line%d-%d" % (base, kind, index, len(cases)),
            ))
    return cases


CORPUS = _corpus()


def _stream_message(base, xml, chunk_size=None):
    _xml, schema = BASES[base]
    enforcer = SchemaEnforcer(schema, schema, compile_cache=CompilationCache())
    source = xml if chunk_size is None else [
        xml[i:i + chunk_size] for i in range(0, len(xml), chunk_size)
    ]
    with pytest.raises(DocumentParseError) as caught:
        enforcer.enforce_stream(source, magazine.invoker, lambda _text: None)
    return str(caught.value)


def test_corpus_covers_every_fault_kind_on_both_bases():
    kinds = {case.id.split("-line")[0] for case in CORPUS}
    expected = {
        "leading-text", "trailing-text", "fun-without-methodName",
        "fun-child", "two-params", "params-child", "mixed-param",
        "param-with-3-trees", "wrapper-outside-fun", "namespaced-element",
        "namespaced-attribute", "malformed-xml",
    }
    assert kinds == {
        "%s-%s" % (base, kind) for base in BASES for kind in expected
    }
    assert len(CORPUS) > 80


class TestSingleFaults:
    @pytest.mark.parametrize("base,xml,message", CORPUS)
    def test_dom_and_stream_give_the_pinned_message(self, base, xml, message):
        with pytest.raises(DocumentParseError) as caught:
            Document.from_xml(xml)
        assert str(caught.value) == message
        assert _stream_message(base, xml, chunk_size=61) == message


def _multi_fault(rng, base):
    """2-3 faults at distinct anchors, applied bottom-up; sometimes the
    text is cut short after the topmost one (the truncating faults are
    left to that cut)."""
    xml, _schema = BASES[base]
    original = xml.split("\n")
    candidates = [
        fault for fault in _faults(original)
        if len(fault[2]) >= len(original)
    ]
    count = rng.choice((2, 3))
    chosen = {}
    for _kind, anchor, changed, _message in rng.sample(
        candidates, len(candidates)
    ):
        chosen.setdefault(anchor, changed)
        if len(chosen) == count:
            break
    lines = list(original)
    for anchor in sorted(chosen, reverse=True):
        # The fault rewrote its anchor line, or inserted one line after
        # it: splice that window in.
        changed = chosen[anchor]
        added = len(changed) - len(original)
        lines[anchor:anchor + 1] = changed[anchor:anchor + 1 + added]
    if rng.random() < 0.5:
        top = min(chosen)
        lines = lines[:rng.randrange(top + 2, len(lines))]
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(40))
def test_multi_fault_documents_fail_alike_on_both_paths(seed):
    # Malformed XML among the faults: expat stops at it, and the events
    # it delivered before, in the same chunk, must still be checked.
    rng = random.Random(seed)
    base = rng.choice(sorted(BASES))
    xml = _multi_fault(rng, base)
    with pytest.raises(DocumentParseError) as caught:
        Document.from_xml(xml)
    for chunk_size in (None, 61, 7, 1):
        assert _stream_message(base, xml, chunk_size) == str(caught.value), (
            chunk_size
        )


def test_a_reserved_method_name_is_a_parse_error():
    # The node model refuses names starting with "#"; outside input
    # carrying one must fail as a parse error, not a ValueError.
    xml = '<a xmlns:int="%s"><int:fun methodName="#data"/></a>' % INT_NS
    with pytest.raises(DocumentParseError) as caught:
        Document.from_xml(xml)
    assert str(caught.value) == "invalid function name '#data'"
