"""The one expat set-up of the Active XML front end.

:func:`feed` runs a source — a string, bytes, or an iterable of chunks —
through ``xml.parsers.expat`` configured as :mod:`xml.etree.ElementTree`
configures it (:func:`clark` gives the same ``{uri}local`` names), its
handlers called as expat reads: the tree builder
(:mod:`repro.stream.builder`) installs its steps, and :func:`iter_events`
is a thin adapter recording the same calls as events.  Character data
split by expat buffering, comments or CDATA boundaries is coalesced and
handed on when the next tag arrives, as ElementTree's ``.text`` /
``.tail``; text no later tag closed is never handed on.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Tuple, Union
from xml.parsers import expat

from repro.automata.symbols import intern_symbol
from repro.errors import DocumentParseError

#: Event kinds.
START = "start"
TEXT = "text"
END = "end"

Event = Tuple[str, str, Optional[dict]]
Source = Union[str, bytes, Iterable[Union[str, bytes]]]


def clark(name: str) -> str:
    """``uri}local`` (expat with ``}`` separator) → ``{uri}local``, interned."""
    return intern_symbol("{" + name if "}" in name else name)


def feed(source: Source, start: Callable[[str, dict], None],
         end: Callable[[str], None],
         characters: Callable[[str], None]) -> Iterator[None]:
    """Parse ``source``, calling ``start(name, attrs)``, ``end(name)`` and
    ``characters(data)`` with expat's raw names; yields after each chunk.

    A handler's exception propagates as it is, so the first fault in
    event order is reported at any chunking; malformed XML raises
    :class:`DocumentParseError` with the DOM parser's message.
    """
    parser = expat.ParserCreate(None, "}")
    parser.buffer_text = True
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = characters
    chunks = (source,) if isinstance(source, (str, bytes)) else source
    try:
        for chunk in chunks:
            parser.Parse(chunk, False)
            yield
        parser.Parse(b"", True)
    except expat.ExpatError as exc:
        raise DocumentParseError("malformed XML: %s" % exc) from exc


def iter_events(source: Source) -> Iterator[Event]:
    """Yield ``(kind, value, attrs)`` events for one XML document.

    ``kind`` is :data:`START` (value = Clark tag, attrs = dict),
    :data:`TEXT` (value = coalesced character data, attrs None) or
    :data:`END` (value = Clark tag, attrs None).  Malformed input raises
    :class:`DocumentParseError` after the events expat delivered before
    the fault.
    """
    events: list = []
    parts: list = []

    def tag(kind: str, name: str, attrs: Optional[dict]) -> None:
        if parts:
            events.append((TEXT, "".join(parts), None))
            parts.clear()
        events.append((kind, clark(name), attrs))

    def start(name: str, attrs: dict) -> None:
        tag(START, name, {clark(k): v for k, v in attrs.items()})

    try:
        for _chunk in feed(source, start, lambda name: tag(END, name, None),
                           parts.append):
            yield from events
            events.clear()
    except DocumentParseError:
        yield from events
        raise
    yield from events
