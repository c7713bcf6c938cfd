"""A simulated Web-service fabric (substitute for real SOAP services).

The paper's implementation calls real SOAP endpoints described by WSDL.
Offline, we substitute an in-process fabric that preserves everything the
algorithms observe:

- :mod:`repro.services.service` — endpoints hosting operations with
  declared signatures, per-call accounting (side effects, costs);
- :mod:`repro.services.registry` — a UDDI-like registry that routes
  function nodes to operations and provides the ``UDDIF`` predicate;
- :mod:`repro.services.soap` — SOAP-style envelopes: every simulated
  call round-trips through XML serialization, exercising the same
  code paths a network transport would;
- :mod:`repro.services.responders` — handler factories: seeded sampling
  from the declared output type, adversarial corner-case outputs,
  scripted sequences, and fault/latency/outage injection;
- :mod:`repro.services.resilience` — the resilient invocation layer:
  retries with seeded backoff, deadlines and budgets, per-endpoint
  circuit breakers, and per-exchange fault reports;
- :mod:`repro.services.predicates` / :mod:`repro.services.acl` — the
  ``UDDIF`` / ``InACL`` style predicates used by function patterns.
"""

from repro.services.service import CallRecord, Operation, Service
from repro.services.registry import ServiceRegistry
from repro.services.soap import SoapEnvelope, decode_request, encode_request
from repro.services.responders import (
    adversarial_responder,
    constant_responder,
    flaky_responder,
    latency_responder,
    outage_responder,
    sampling_invoker,
    sampling_responder,
    scripted_responder,
)
from repro.services.resilience import (
    CircuitBreaker,
    FaultReport,
    ResiliencePolicy,
    ResilientInvoker,
    SimulatedClock,
    WallClock,
    is_transient,
)
from repro.services.acl import AccessControlList
from repro.services.predicates import in_acl, uddif

__all__ = [
    "Service",
    "Operation",
    "CallRecord",
    "ServiceRegistry",
    "SoapEnvelope",
    "encode_request",
    "decode_request",
    "sampling_responder",
    "sampling_invoker",
    "adversarial_responder",
    "scripted_responder",
    "constant_responder",
    "flaky_responder",
    "latency_responder",
    "outage_responder",
    "ResilientInvoker",
    "ResiliencePolicy",
    "CircuitBreaker",
    "FaultReport",
    "SimulatedClock",
    "WallClock",
    "is_transient",
    "AccessControlList",
    "uddif",
    "in_acl",
]
