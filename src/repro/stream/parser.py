"""Event-based pull parsing over ``xml.parsers.expat``.

:func:`iter_events` turns an XML source — a string, bytes, or an
iterable of chunks — into a flat stream of ``(kind, value, attrs)``
events, holding only expat's internal buffers plus the text currently
being coalesced.  The namespace handling mirrors
:mod:`xml.etree.ElementTree` exactly (same expat configuration, same
Clark-notation ``{uri}local`` names, same error strings), so documents
accepted or rejected by the DOM path behave identically here.

Adjacent character data — split by expat buffering, comments, or CDATA
section boundaries — is coalesced into a single ``text`` event, matching
the ``.text`` / ``.tail`` coalescing of the ElementTree builder.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple, Union
from xml.parsers import expat

from repro.automata.symbols import intern_symbol
from repro.errors import DocumentParseError

#: Event kinds.
START = "start"
TEXT = "text"
END = "end"

Event = Tuple[str, str, Optional[dict]]
Source = Union[str, bytes, Iterator[Union[str, bytes]]]


def _clark(name: str) -> str:
    """``uri}local`` (expat with ``}`` separator) → ``{uri}local``."""
    return intern_symbol("{" + name if "}" in name else name)


def iter_events(source: Source) -> Iterator[Event]:
    """Yield ``(kind, value, attrs)`` events for one XML document.

    ``kind`` is :data:`START` (value = Clark tag, attrs = dict),
    :data:`TEXT` (value = coalesced character data, attrs None) or
    :data:`END` (value = Clark tag, attrs None).  Malformed input
    raises :class:`DocumentParseError` with the same message the DOM
    parser produces for the same document.
    """
    if isinstance(source, (str, bytes)):
        chunks: Iterator[Union[str, bytes]] = iter((source,))
    else:
        chunks = iter(source)

    parser = expat.ParserCreate(None, "}")
    parser.buffer_text = True

    events: list = []
    text_parts: list = []

    def flush_text() -> None:
        if text_parts:
            events.append((TEXT, "".join(text_parts), None))
            text_parts.clear()

    def handle_start(tag: str, attrs: dict) -> None:
        flush_text()
        events.append(
            (START, _clark(tag), {_clark(k): v for k, v in attrs.items()})
        )

    def handle_end(tag: str) -> None:
        flush_text()
        events.append((END, _clark(tag), None))

    parser.StartElementHandler = handle_start
    parser.EndElementHandler = handle_end
    parser.CharacterDataHandler = text_parts.append

    error: Optional[expat.ExpatError] = None
    try:
        for chunk in chunks:
            parser.Parse(chunk, False)
            if events:
                yield from events
                events.clear()
        parser.Parse(b"", True)
    except expat.ExpatError as exc:
        error = exc
    # The events expat delivered before an error come first, so the
    # first fault a document reports does not depend on its chunking.
    # Text no later tag closed is not among them.
    yield from events
    if error is not None:
        raise DocumentParseError("malformed XML: %s" % error) from error
