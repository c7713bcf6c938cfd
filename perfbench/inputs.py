"""Seeded workload inputs, emitted in wire form only.

Every generator here returns what a remote peer would send: XML
Schema_int text, Active XML document text, and edit scripts in the JSON
wire format of ``repro.incremental.edits.script_to_json``.  Nothing is
built with the program's own object model, so the inputs stay fixed
when the program changes.  The same seed always yields byte-identical
inputs.

Three input families:

- the E26/E27 **magazine**: ``magazine = article*`` where every article
  is ``title.date.(Get_Temp|temp).(TimeOut|exhibit*)`` on the sender
  side and the receiver requires ``temp``;
- the **digest**: ``digest = issue*`` where each issue is a long word
  of call units; the receiver bounds its literal tails with
  ``(exhibit.performance?){0,16}`` and is enforced at depth ``k = 2``;
- the Figure 2 **newspaper** under schemas (*) and (**).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Sequence, Tuple

INT_NS = "http://www.activexml.com/ns/int"

FORECAST = ("http://www.forecast.com/soap", "urn:xmethods-weather")
TIMEOUT = ("http://www.timeout.com/paris", "urn:timeout-program")
ARCHIVE = ("http://www.archive.org/deep", "urn:deep-archive")

CITIES = ("Paris", "Lyon", "Nice", "Lille", "Nantes", "Rennes", "Dijon",
          "Brest", "Tours", "Metz", "Caen", "Reims", "Toulon", "Angers")
WORDS = ("sun", "opera", "salon", "river", "garden", "gallery", "market",
         "harbour", "theatre", "museum", "bridge", "station", "library")


# ---------------------------------------------------------------------------
# A tiny Active XML writer (indented like the program's own serializer)
# ---------------------------------------------------------------------------


def el(tag: str, *children) -> tuple:
    """An element; a single ``str`` child is its data leaf."""
    return ("el", tag, children)


def fun(name: str, coordinates: Tuple[str, str], *params) -> tuple:
    """An ``int:fun`` call; a ``str`` param is a data parameter."""
    return ("fun", name, coordinates, params)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _write(node: tuple, depth: int, out: List[str], pretty: bool) -> None:
    pad = "  " * depth if pretty else ""
    if node[0] == "el":
        _kind, tag, children = node
        if len(children) == 1 and isinstance(children[0], str):
            out.append("%s<%s>%s</%s>" % (pad, tag, _escape(children[0]), tag))
            return
        out.append("%s<%s>" % (pad, tag))
        for child in children:
            _write(child, depth + 1, out, pretty)
        out.append("%s</%s>" % (pad, tag))
        return
    _kind, name, (endpoint, namespace), params = node
    inner = "  " * (depth + 1) if pretty else ""
    out.append('%s<int:fun endpointURL="%s" methodName="%s" namespaceURI="%s">'
               % (pad, endpoint, name, namespace))
    out.append("%s<int:params>" % inner)
    for param in params:
        if isinstance(param, str):
            out.append("%s<int:param>%s</int:param>" % (inner + "  " if pretty
                                                        else "", _escape(param)))
        else:
            out.append("%s<int:param>" % (inner + "  " if pretty else ""))
            _write(param, depth + 3, out, pretty)
            out.append("%s</int:param>" % (inner + "  " if pretty else ""))
    out.append("%s</int:params>" % inner)
    out.append("%s</int:fun>" % pad)


def document_xml(root: tuple) -> str:
    """A whole document: declaration, ``int`` namespace on the root."""
    out: List[str] = []
    _write(root, 0, out, pretty=True)
    out[0] = out[0].replace(">", ' xmlns:int="%s">' % INT_NS, 1)
    return '<?xml version="1.0"?>\n' + "\n".join(out) + "\n"


def fragment_xml(node: tuple) -> str:
    """A standalone wire fragment (``int`` declared when it is a call)."""
    out: List[str] = []
    _write(node, 0, out, pretty=False)
    text = "".join(out)
    if node[0] == "fun":
        text = text.replace("<int:fun ", '<int:fun xmlns:int="%s" ' % INT_NS, 1)
    return text


# ---------------------------------------------------------------------------
# XML Schema_int text
# ---------------------------------------------------------------------------

_XS_HEAD = '<schema xmlns="http://www.w3.org/2001/XMLSchema" root="%s">'


def _data(name: str) -> str:
    return '  <element name="%s" type="string"/>' % name


def _complex(name: str, model: str) -> str:
    return ('  <element name="%s">\n    <complexType>\n%s\n    </complexType>\n'
            '  </element>' % (name, model))


def _function(name: str, param: str, result: str) -> str:
    return ('  <function id="%s" methodName="%s">\n    <params>\n      <param>'
            '%s</param>\n    </params>\n    <return>%s</return>\n  </function>'
            % (name, name, param, result))


def _schema(root: str, parts: Sequence[str]) -> str:
    return "\n".join([_XS_HEAD % root, *parts, "</schema>"]) + "\n"


_TEMP_OR_CALL = ('<choice><function ref="Get_Temp"/><element ref="temp"/>'
                 '</choice>')
_TIMEOUT_OR_EXHIBITS = ('<choice><function ref="TimeOut"/><element ref="exhibit"'
                        ' minOccurs="0" maxOccurs="unbounded"/></choice>')
_GET_TEMP = _function("Get_Temp", '<element ref="city"/>',
                      '<element ref="temp"/>')


def magazine_schemas() -> Tuple[str, str]:
    """(sender, receiver) XML Schema_int text of the E26/E27 magazine."""

    def schema(temp: str) -> str:
        return _schema("magazine", [
            _complex("magazine", '      <sequence><element ref="article" '
                     'minOccurs="0" maxOccurs="unbounded"/></sequence>'),
            _complex("article", '      <sequence><element ref="title"/>'
                     '<element ref="date"/>%s%s</sequence>'
                     % (temp, _TIMEOUT_OR_EXHIBITS)),
            _complex("exhibit", '      <sequence><element ref="title"/>'
                     '<element ref="date"/></sequence>'),
            _data("title"), _data("date"), _data("temp"), _data("city"),
            _GET_TEMP,
            _function("TimeOut", "<data/>", '<element ref="exhibit" '
                      'minOccurs="0" maxOccurs="unbounded"/>'),
        ])

    return schema(_TEMP_OR_CALL), schema('<element ref="temp"/>')


#: ``(exhibit.performance?){0,16}`` — the receiver's bounded tail.
_BOUNDED_TAIL = ('<sequence minOccurs="0" maxOccurs="16"><element ref="exhibit"/>'
                 '<element ref="performance" minOccurs="0"/></sequence>')


def digest_schemas() -> Tuple[str, str]:
    """(sender, receiver) XML Schema_int text of the digest.

    Issue words are ``(head.tail)*.(exhibit|Deep)*`` with heads
    ``Get_Temp|temp`` and tails ``TimeOut`` or a literal
    ``(exhibit.performance?){0,16}`` run.  ``Deep`` answers
    ``(exhibit.Deep?){0,4}``, so at ``k = 2`` its output may hold
    another ``Deep``.
    """

    def schema(head: str) -> str:
        unit = ('<sequence minOccurs="0" maxOccurs="unbounded">%s<choice>'
                '<function ref="TimeOut"/>%s</choice></sequence>'
                % (head, _BOUNDED_TAIL))
        trail = ('<choice minOccurs="0" maxOccurs="unbounded"><element '
                 'ref="exhibit"/><function ref="Deep"/></choice>')
        return _schema("digest", [
            _complex("digest", '      <sequence><element ref="issue" '
                     'minOccurs="0" maxOccurs="unbounded"/></sequence>'),
            _complex("issue", "      <sequence>%s%s</sequence>"
                     % (unit, trail)),
            _complex("exhibit", '      <sequence><element ref="title"/>'
                     '<element ref="date"/></sequence>'),
            _complex("performance", '      <sequence><element ref="title"/>'
                     '</sequence>'),
            _data("title"), _data("date"), _data("temp"), _data("city"),
            _GET_TEMP,
            _function("TimeOut", "<data/>", '<choice minOccurs="0" maxOccurs='
                      '"unbounded"><element ref="exhibit"/><element '
                      'ref="performance"/></choice>'),
            _function("Deep", "<data/>", '<sequence minOccurs="0" maxOccurs='
                      '"4"><element ref="exhibit"/><function ref="Deep" '
                      'minOccurs="0"/></sequence>'),
        ])

    return schema(_TEMP_OR_CALL), schema('<element ref="temp"/>')


def newspaper_schemas() -> Tuple[str, str]:
    """(sender, receiver): the paper's schemas (*) and (**)."""

    def schema(temp: str) -> str:
        return _schema("newspaper", [
            _complex("newspaper", '      <sequence><element ref="title"/>'
                     '<element ref="date"/>%s%s</sequence>'
                     % (temp, _TIMEOUT_OR_EXHIBITS)),
            _complex("exhibit", '      <sequence><element ref="title"/><choice>'
                     '<function ref="Get_Date"/><element ref="date"/></choice>'
                     '</sequence>'),
            _data("title"), _data("date"), _data("temp"), _data("city"),
            _function("Get_Date", '<element ref="title"/>',
                      '<element ref="date"/>'),
            _GET_TEMP,
            _function("TimeOut", "<data/>", '<choice minOccurs="0" maxOccurs='
                      '"unbounded"><element ref="exhibit"/><element '
                      'ref="performance"/></choice>'),
        ])

    return schema(_TEMP_OR_CALL), schema('<element ref="temp"/>')


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


def _date(rng: random.Random) -> str:
    return "%02d/%02d/20%02d" % (rng.randint(1, 28), rng.randint(1, 12),
                                 rng.randint(0, 9))


def _get_temp(city: str) -> tuple:
    return fun("Get_Temp", FORECAST, el("city", city))


def _article(rng: random.Random, index: int) -> tuple:
    return el(
        "article",
        el("title", "%s-%d" % (rng.choice(WORDS), index)),
        el("date", _date(rng)),
        _get_temp("%s-%d" % (rng.choice(CITIES), index)),
        fun("TimeOut", TIMEOUT, "%s-%d" % (rng.choice(WORDS), index)),
    )


#: Articles of the gateway workload's magazine.
GATEWAY_ARTICLES = 50


def magazine_xml(seed: int, articles: int) -> str:
    """``articles`` intensional articles: each ``Get_Temp`` must be
    materialized for the receiver, each ``TimeOut`` may stay."""
    rng = random.Random("magazine|%d" % seed)
    return document_xml(el("magazine", *(_article(rng, i)
                                         for i in range(articles))))


def newspaper_xml() -> str:
    """The Figure 2 newspaper (fixed; requests vary only their seed)."""
    return document_xml(el(
        "newspaper",
        el("title", "The Sun"),
        el("date", "04/10/2002"),
        _get_temp("Paris"),
        fun("TimeOut", TIMEOUT, "exhibits"),
    ))


#: Issue word lengths: a fixed spread over 15..40 symbols.  An issue's
#: word is a function of its length alone, so every seed enforces the
#: same twenty distinct words (with its own values and edit storm) and
#: the analysis work does not move between seeds.
DIGEST_ISSUES = 20
DIGEST_MIN, DIGEST_MAX = 15, 40


def _digest_lengths() -> List[int]:
    span = DIGEST_MAX - DIGEST_MIN
    return [DIGEST_MIN + (span * i) // (DIGEST_ISSUES - 1)
            for i in range(DIGEST_ISSUES)]


def _issue_units(length: int) -> List[List[str]]:
    """One issue word of ``length`` symbols, as a list of units.

    Head/tail units come first, then 1-3 trailing ``Deep`` calls.
    """
    rng = random.Random("digest-word|%d" % length)
    deep = rng.randint(1, 3)
    units: List[List[str]] = []
    remaining = length - deep
    while remaining > 0:
        head = "Get_Temp" if rng.random() < 0.6 else "temp"
        if remaining == 1:
            tail: List[str] = []  # zero literal groups is a valid tail
        elif remaining == 2 or rng.random() < 0.45:
            tail = ["TimeOut"]
        else:
            tail = []
            for _ in range(rng.randint(1, min(4, (remaining - 1) // 2))):
                tail += (["exhibit", "performance"] if rng.random() < 0.5
                         else ["exhibit"])
        units.append([head] + tail)
        remaining -= 1 + len(tail)
    units.extend(["Deep"] for _ in range(deep))
    return units


def _symbol_node(symbol: str, rng: random.Random, tag: str) -> tuple:
    if symbol == "Get_Temp":
        return _get_temp("%s-%s" % (rng.choice(CITIES), tag))
    if symbol == "TimeOut":
        return fun("TimeOut", TIMEOUT, "%s-%s" % (rng.choice(WORDS), tag))
    if symbol == "Deep":
        return fun("Deep", ARCHIVE, "%s-%s" % (rng.choice(WORDS), tag))
    if symbol == "temp":
        return el("temp", str(rng.randint(-5, 35)))
    if symbol == "exhibit":
        return el("exhibit", el("title", "%s-%s" % (rng.choice(WORDS), tag)),
                  el("date", _date(rng)))
    if symbol == "performance":
        return el("performance", el("title", "%s-%s" % (rng.choice(WORDS),
                                                        tag)))
    raise ValueError("unknown digest symbol %r" % symbol)


def digest_plan() -> List[List[List[str]]]:
    """The digest's issues as unit lists (the same for every seed)."""
    return [_issue_units(length) for length in _digest_lengths()]


def digest_xml(seed: int) -> str:
    rng = random.Random("digest-values|%d" % seed)
    issues = []
    for i, units in enumerate(digest_plan()):
        children = [_symbol_node(symbol, rng, "%d.%d" % (i, j))
                    for j, symbol in enumerate(s for u in units for s in u)]
        issues.append(el("issue", *children))
    return document_xml(el("digest", *issues))


# ---------------------------------------------------------------------------
# Edit storms (JSON wire scripts, one script per yielded item)
# ---------------------------------------------------------------------------


def magazine_storm(seed: int, articles: int) -> Iterator[List[dict]]:
    """Endless storm alternating a retitle and a ``Get_Temp`` re-point."""
    rng = random.Random("magazine-storm|%d" % seed)
    step = 0
    while True:
        target = rng.randrange(articles)
        if step % 2 == 0:
            yield [{"op": "replace", "path": [target, 0],
                    "node": fragment_xml(el("title", "%s-r%d" % (
                        rng.choice(WORDS), step)))}]
        else:
            yield [{"op": "update-call", "path": [target, 2],
                    "params": [fragment_xml(el("city", "%s-r%d" % (
                        rng.choice(CITIES), step)))]}]
        step += 1


def digest_storm(seed: int) -> Iterator[List[dict]]:
    """Endless storm inserting and deleting whole call units.

    A call unit is a ``Get_Temp.TimeOut`` pair inserted before a head,
    or one ``Deep`` call appended to an issue.  The sites are visited in
    the seed's order, each once before any repeats, and each insert is
    followed by the delete of the same unit: every script changes one
    issue's word, alternating fresh words with words seen before.
    """
    rng = random.Random("digest-storm|%d" % seed)
    issues = digest_plan()
    sites = []
    for index, units in enumerate(issues):
        offset = 0
        for unit in units:
            if unit[0] != "Deep":
                sites.append((index, offset, "Get_Temp"))
            offset += len(unit)
        sites.append((index, offset, "Deep"))
    step = 0
    while True:
        rng.shuffle(sites)
        for index, offset, kind in sites:
            tag = "s%d" % step
            if kind == "Deep":
                symbols = [_symbol_node("Deep", rng, tag)]
            else:
                symbols = [_symbol_node("Get_Temp", rng, tag),
                           _symbol_node("TimeOut", rng, tag)]
            yield [{"op": "insert", "path": [index, offset + i],
                    "node": fragment_xml(node)}
                   for i, node in enumerate(symbols)]
            yield [{"op": "delete", "path": [index, offset]}
                   for _ in symbols]
            step += 1
