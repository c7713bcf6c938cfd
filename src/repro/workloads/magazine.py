"""The magazine: the newspaper of Figure 2 lifted under ``article*``.

Every ``article`` is the newspaper's body, and the receiver requires its
``Get_Temp`` materialized.  The incremental (E26) and streaming (E27)
benchmarks enforce it at growing sizes; :func:`invoker` answers each
call as a pure function of the call, so every path sees identical
services.
"""

from __future__ import annotations

from typing import Tuple

from repro.doc.builder import call, el, text
from repro.doc.document import Document
from repro.doc.nodes import Element, Forest, FunctionCall
from repro.schema.model import Schema, SchemaBuilder
from repro.workloads.newspaper import (
    FORECAST_ENDPOINT,
    FORECAST_NS,
    TIMEOUT_ENDPOINT,
    TIMEOUT_NS,
)


def schemas() -> Tuple[Schema, Schema]:
    """(sender, receiver): the newspaper pair lifted under ``article*``."""

    def base() -> SchemaBuilder:
        return (
            SchemaBuilder()
            .element("title", "data")
            .element("date", "data")
            .element("temp", "data")
            .element("city", "data")
            .element("exhibit", "title.date")
            .function("Get_Temp", "city", "temp")
            .function("TimeOut", "data", "exhibit*")
            .root("magazine")
            .element("magazine", "article*")
        )

    sender = base().element(
        "article", "title.date.(Get_Temp | temp).(TimeOut | exhibit*)"
    ).build()
    receiver = base().element(
        "article", "title.date.temp.(TimeOut | exhibit*)"
    ).build()
    return sender, receiver


def article(index: int) -> Element:
    """One intensional article whose ``Get_Temp`` must be materialized."""
    return el(
        "article",
        el("title", "article-%d" % index),
        el("date", "04/10/2002"),
        call(
            "Get_Temp",
            el("city", "city-%d" % index),
            endpoint=FORECAST_ENDPOINT,
            namespace=FORECAST_NS,
        ),
        call(
            "TimeOut",
            text("exhibits-%d" % index),
            endpoint=TIMEOUT_ENDPOINT,
            namespace=TIMEOUT_NS,
        ),
    )


def document(articles: int) -> Document:
    """A magazine of ``articles`` articles."""
    return Document(el("magazine", *[article(i) for i in range(articles)]))


def invoker(fc: FunctionCall) -> Forest:
    """Per-call deterministic services: each answer is a pure function
    of the call."""
    if fc.name == "Get_Temp":
        seed = fc.params[0].children[0].value if fc.params else "?"
        return (el("temp", "%d" % (sum(ord(c) for c in seed) % 40)),)
    if fc.name == "TimeOut":
        return (el("exhibit", el("title", "P"), el("date", "d")),)
    raise ValueError("unexpected call %r" % fc.name)
