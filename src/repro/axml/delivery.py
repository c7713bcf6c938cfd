"""The delivery step: what follows enforcement on every exchange path.

The sender serializes the enforced document; the receiver reads those
bytes and checks what it read with its own checker, trusting no sender
(Section 7's receiving side).  :func:`deliver` reaches that verdict in
one walk over the enforced tree, reading each children word as the tree
builder reads it back, so nothing is parsed.  :meth:`PeerNetwork.send
<repro.axml.network.PeerNetwork.send>` and the gateway's JSON and
edit-script routes run it; the streaming route reaches the same verdict
as elements close (:mod:`repro.stream.enforce`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.doc.document import Document
from repro.obs import context as obs
from repro.schema.validate import InstanceChecker, ValidationReport


@dataclass
class Delivery:
    """One enforced document as its receiver gets it."""

    document: Document
    wire: str
    #: UTF-8 bytes on the wire.
    size: int
    #: The receiver's verdict on what it reads from ``wire``.
    report: ValidationReport
    #: ``wire`` parses back to ``document`` itself (wire normal form).
    normal: bool

    @property
    def received(self) -> Document:
        """What the receiver reads: the enforced tree when its bytes
        rebuild it, else their parse (which fails on a refused reply
        with mixed content)."""
        return self.document if self.normal else Document.from_xml(self.wire)


def deliver(document: Document, checker: InstanceChecker) -> Delivery:
    """Serialize an enforced document; ``checker`` is the receiver's."""
    tracer = obs.tracer()
    with tracer.span("transfer.serialize") as span:
        wire = document.to_xml()
        size = len(wire.encode("utf-8"))
        span.set(bytes=size)
    with tracer.span("transfer.validate") as span:
        report, normal = checker.receive(document.root)
        span.set(accepted=report.ok)
    return Delivery(document, wire, size, report, normal)
