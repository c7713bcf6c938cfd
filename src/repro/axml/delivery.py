"""The delivery step: what follows enforcement on every exchange path.

The sender serializes the enforced document; the receiver reads those
bytes and checks what it read with its own checker, trusting no sender
(Section 7's receiving side).  :func:`deliver` reaches that verdict in
one walk over the enforced tree, reading each children word as the tree
builder reads it back, so nothing is parsed.  :meth:`PeerNetwork.send
<repro.axml.network.PeerNetwork.send>` and the gateway's JSON route run
it; the streaming route reaches the same verdict as elements close
(:mod:`repro.stream.enforce`), and an incremental session delivers
through memos of its own (:meth:`EnforcementSession.deliver
<repro.incremental.session.EnforcementSession.deliver>`), which the
gateway's edit-script route uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.doc.document import Document
from repro.doc.nodes import IdentityMemo
from repro.doc.xml_io import document_wire
from repro.obs import context as obs
from repro.obs.metrics import record_work
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
    #: Lines formatted for ``wire``: all of them, unless a memo held some.
    lines: int

    def observed(self) -> Tuple[str, int, str, bool]:
        """What a peer observes: the wire, its size, the report's text
        and whether the wire rebuilds the document."""
        return self.wire, self.size, str(self.report), self.normal

    @property
    def received(self) -> Document:
        """What the receiver reads: the enforced tree when its bytes
        rebuild it, else their parse (which fails on a refused reply
        with mixed content)."""
        return self.document if self.normal else Document.from_xml(self.wire)


def deliver(document: Document, checker: InstanceChecker,
            lines: Optional[IdentityMemo] = None,
            verdicts: Optional[IdentityMemo] = None) -> Delivery:
    """Serialize an enforced document; ``checker`` is the receiver's.

    ``lines`` and ``verdicts`` are a session's memos of what earlier
    deliveries formatted and the receiver accepted
    (:func:`~repro.doc.xml_io.document_wire`,
    :meth:`~repro.schema.validate.InstanceChecker.receive`); the
    delivery is the same with or without them.  The lines formatted are
    counted as ``serialize`` work, and each span carries the subtrees
    its memo reused.
    """
    tracer = obs.tracer()
    with tracer.span("transfer.serialize") as span:
        before = _reused(lines)
        wire, formatted = document_wire(document, lines)
        size = len(wire.encode("utf-8"))
        record_work(obs.metrics(), "serialize", {"lines": formatted})
        span.set(bytes=size, lines=formatted, reused=_reused(lines) - before)
    with tracer.span("transfer.validate") as span:
        before = _reused(verdicts)
        report, normal = checker.receive(document.root, verdicts)
        span.set(accepted=report.ok, reused=_reused(verdicts) - before)
    return Delivery(document, wire, size, report, normal, formatted)


def _reused(memo: Optional[IdentityMemo]) -> int:
    return 0 if memo is None else memo.reused
