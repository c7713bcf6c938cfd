"""An in-process network of Active XML peers.

Stands in for the SOAP transport between peers: documents travel as
serialized XML (so the exchange exercises the full parse/serialize
path), and every transfer is guarded by the exchange schema the two
peers agreed on (the scenario of Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.axml.delivery import deliver
from repro.axml.peer import AXMLPeer
from repro.errors import SchemaError, UnknownPeerError
from repro.obs import context as obs
from repro.schema.model import Schema
from repro.schema.validate import InstanceChecker
from repro.services.resilience import FaultReport


class TransferReceipt:
    """What happened during one document transfer.

    Beyond the paper's accounting (calls materialized, bytes on the
    wire), the receipt carries the resilience story of the exchange:
    how many retries and faults the sender's invocation layer absorbed,
    how often circuit breakers opened, which functions were degraded
    around, and — when the sending peer ran a resilient invoker — the
    full per-transfer :class:`FaultReport`.

    ``retries``/``faults``/``breaker_opens`` are *derived* from the
    attached :class:`FaultReport` whenever one is present, so the
    receipt can never disagree with the report it carries; the keyword
    arguments remain as fallbacks for report-less transfers.
    """

    def __init__(
        self,
        sender: str,
        receiver: str,
        document_name: str,
        calls_materialized: int,
        bytes_on_wire: int,
        accepted: bool,
        error: str = "",
        retries: int = 0,
        faults: int = 0,
        breaker_opens: int = 0,
        degraded_functions: Tuple[str, ...] = (),
        fault_report: Optional[FaultReport] = None,
        exec_report=None,
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.document_name = document_name
        self.calls_materialized = calls_materialized
        self.bytes_on_wire = bytes_on_wire
        self.accepted = accepted
        self.error = error
        self._retries = retries
        self._faults = faults
        self._breaker_opens = breaker_opens
        self._degraded_functions = tuple(degraded_functions)
        self.fault_report = fault_report
        #: The sender's :class:`repro.exec.ExecReport` when the exchange
        #: ran with a parallelism knob; None for sequential transfers.
        self.exec_report = exec_report

    @property
    def saved_round_trips(self) -> int:
        """Round-trips the sender's dedup/prefetch layer avoided."""
        if self.exec_report is None:
            return 0
        return self.exec_report.saved_round_trips

    @property
    def retries(self) -> int:
        if self.fault_report is not None:
            return self.fault_report.retries
        return self._retries

    @property
    def faults(self) -> int:
        if self.fault_report is not None:
            return self.fault_report.faults
        return self._faults

    @property
    def breaker_opens(self) -> int:
        if self.fault_report is not None:
            return self.fault_report.breaker_opens
        return self._breaker_opens

    @property
    def degraded_functions(self) -> Tuple[str, ...]:
        if self.fault_report is not None and self.fault_report.dead_functions:
            return tuple(sorted(self.fault_report.dead_functions))
        return self._degraded_functions

    def __repr__(self) -> str:
        return (
            "TransferReceipt(sender=%r, receiver=%r, document_name=%r, "
            "calls_materialized=%r, bytes_on_wire=%r, accepted=%r, "
            "error=%r, retries=%r, faults=%r, breaker_opens=%r, "
            "degraded_functions=%r)"
            % (
                self.sender, self.receiver, self.document_name,
                self.calls_materialized, self.bytes_on_wire, self.accepted,
                self.error, self.retries, self.faults, self.breaker_opens,
                self.degraded_functions,
            )
        )


@dataclass
class PeerNetwork:
    """Peers plus the exchange schemas they agreed on."""

    peers: Dict[str, AXMLPeer] = field(default_factory=dict)
    agreements: Dict[Tuple[str, str], Schema] = field(default_factory=dict)
    receipts: List[TransferReceipt] = field(default_factory=list)

    def add_peer(self, peer: AXMLPeer) -> "PeerNetwork":
        """Join a peer; existing peers become mutually callable."""
        for other in self.peers.values():
            other.know_peer(peer)
            peer.know_peer(other)
        self.peers[peer.name] = peer
        return self

    def agree(self, sender: str, receiver: str, schema: Schema) -> None:
        """Fix the data exchange schema for one direction (Figure 1)."""
        self._peer(sender)
        self._peer(receiver)
        self.agreements[(sender, receiver)] = schema

    def _peer(self, name: str) -> AXMLPeer:
        peer = self.peers.get(name)
        if peer is None:
            # Typed, never a raw KeyError: senders addressing a peer that
            # left (or never joined) get a catchable, explanatory error.
            raise UnknownPeerError(name, known=tuple(self.peers))
        return peer

    def send(
        self, sender: str, receiver: str, document_name: str,
        store_as: Optional[str] = None,
        parallelism: Optional[int] = None,
    ) -> TransferReceipt:
        """Transfer one document, enforcing the agreed schema.

        The sender's Schema Enforcement module materializes whatever the
        agreement requires; the receiver checks what it reads from the
        bytes before accepting (:func:`~repro.axml.delivery.deliver`:
        defense in depth — a receiver does not trust senders).

        ``parallelism`` lets the sender overlap independent service
        round-trips while materializing (see :mod:`repro.exec`); the
        delivered document is bit-identical at any setting.
        """
        source = self._peer(sender)
        target = self._peer(receiver)
        agreement = self.agreements.get((sender, receiver))
        if agreement is None:
            raise SchemaError(
                "no exchange schema agreed between %r and %r" % (sender, receiver)
            )

        with obs.tracer().span(
            "exchange", sender=sender, receiver=receiver,
            document=document_name,
        ) as span:
            receipt = self._transfer(
                source, target, sender, receiver, document_name, agreement,
                store_as, parallelism,
            )
            span.set(
                accepted=receipt.accepted,
                calls=receipt.calls_materialized,
                bytes=receipt.bytes_on_wire,
                retries=receipt.retries,
            )
        metrics = obs.metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_transfers_total", "Peer-to-peer document transfers"
            ).inc(accepted=str(receipt.accepted).lower())
            metrics.counter(
                "repro_transfer_bytes_total", "Document bytes on the wire"
            ).inc(receipt.bytes_on_wire)
        self.receipts.append(receipt)
        return receipt

    def _transfer(
        self,
        source: AXMLPeer,
        target: AXMLPeer,
        sender: str,
        receiver: str,
        document_name: str,
        agreement: Schema,
        store_as: Optional[str],
        parallelism: Optional[int] = None,
    ) -> TransferReceipt:
        """Enforce, then deliver: the receiver checks with *its own*
        vocabulary (the agreement plus its own schema for anything the
        agreement leaves open), never with the sender's claims."""
        outcome = source.prepare_outgoing(
            document_name, agreement, parallelism=parallelism
        )
        resilience = dict(
            degraded_functions=outcome.degraded_functions,
            fault_report=outcome.fault_report,
            exec_report=outcome.exec_report,
        )
        if not outcome.ok:
            return TransferReceipt(
                sender, receiver, document_name, outcome.calls_made, 0, False,
                error=outcome.error, **resilience,
            )
        delivery = deliver(
            outcome.document, InstanceChecker(agreement, target.schema)
        )
        accepted = delivery.report.ok
        if accepted:
            target.receive(store_as or document_name, delivery.received)
        return TransferReceipt(
            sender, receiver, document_name, outcome.calls_made,
            delivery.size, accepted,
            error="" if accepted else str(delivery.report), **resilience,
        )
