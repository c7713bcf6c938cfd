"""A UDDI-like service registry and the transport glue.

The registry maps function names (and endpoint URLs) to simulated
services, provides the ``UDDIF`` membership predicate for function
patterns, and builds *invokers* — the callables the rewriting engine
uses to materialize function nodes.  Invocations made through
:meth:`ServiceRegistry.make_invoker` round-trip through SOAP envelopes,
so the whole enforcement pipeline exercises serialization exactly like
the paper's peer-to-peer deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.doc.nodes import FunctionCall, Node
from repro.errors import AccessDeniedError, UnknownServiceError
from repro.obs import context as obs
from repro.schema.model import FunctionSignature
from repro.services.acl import AccessControlList
from repro.services.service import Operation, Service
from repro.services.soap import (
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    encode_fault,
    raise_if_fault,
)
from repro.errors import ServiceFault


@dataclass
class ServiceRegistry:
    """Routes function nodes to simulated services."""

    services: Dict[str, Service] = field(default_factory=dict)  # by endpoint
    by_operation: Dict[str, Service] = field(default_factory=dict)
    acl: Optional[AccessControlList] = None
    use_soap: bool = True  # round-trip through envelopes (the default)

    def register(self, service: Service) -> "ServiceRegistry":
        """Add a service; its operations become resolvable by name."""
        self.services[service.endpoint] = service
        for name in service.operations:
            self.by_operation[name] = service
        return self

    # -- resolution ---------------------------------------------------------

    def resolve(self, call: FunctionCall) -> Tuple[Service, Operation]:
        """The service and operation a function node refers to.

        Resolution prefers the node's ``endpointURL`` when present (the
        paper's function nodes carry the full SOAP triple), falling back
        to operation-name lookup.
        """
        service: Optional[Service] = None
        if call.endpoint:
            service = self.services.get(call.endpoint)
        if service is None:
            service = self.by_operation.get(call.name)
        if service is None:
            raise UnknownServiceError(
                "no registered service provides %r" % call.name
            )
        return service, service.operation(call.name)

    def signature_of(self, name: str) -> Optional[FunctionSignature]:
        """The WSDL-declared signature of an operation, if registered."""
        service = self.by_operation.get(name)
        if service is None:
            return None
        return service.operations[name].signature

    def knows(self, name: str) -> bool:
        """UDDIF: is the function registered here?"""
        return name in self.by_operation

    def uddif_predicate(self) -> Callable[[str], bool]:
        """The live registry-membership predicate for function patterns."""
        return self.knows

    # -- invocation -----------------------------------------------------------

    def invoke(
        self, call: FunctionCall, principal: Optional[str] = None
    ) -> Tuple[Node, ...]:
        """Invoke the service a function node refers to.

        Enforces the ACL when one is attached, then (by default) ships
        the parameters through a SOAP request envelope, executes the
        operation, and decodes the response envelope.
        """
        service, operation = self.resolve(call)
        if self.acl is not None and not self.acl.allows(principal, call.name):
            raise AccessDeniedError(
                "principal %r may not invoke %r" % (principal, call.name)
            )
        if not self.use_soap:
            return tuple(service.invoke(operation.name, call.params))

        request = encode_request(
            operation.name, call.namespace or service.namespace, call.params
        )
        response = self._serve(service, request)
        tracer = obs.tracer()
        if tracer.enabled:
            span = tracer.current()
            if span is not None:
                span.set(
                    endpoint=service.endpoint,
                    request_bytes=len(request.encode("utf-8")),
                    response_bytes=len(response.encode("utf-8")),
                )
        envelope = raise_if_fault(decode_response(response))
        return envelope.forest

    def _serve(self, service: Service, request_xml: str) -> str:
        """The "server side": decode, execute, encode (faults included)."""
        envelope = decode_request(request_xml)
        try:
            output = service.invoke(envelope.operation, envelope.forest)
        except ServiceFault as fault:
            return encode_fault(fault.fault_code, str(fault))
        return encode_response(envelope.operation, envelope.namespace, output)

    def make_invoker(
        self,
        principal: Optional[str] = None,
        resilience: Optional["ResiliencePolicy"] = None,
        clock=None,
    ) -> Callable[[FunctionCall], Tuple[Node, ...]]:
        """An invoker for :class:`repro.rewriting.RewriteEngine`.

        With a :class:`repro.services.resilience.ResiliencePolicy` the
        invoker is wrapped in a :class:`ResilientInvoker` — retries,
        deadlines and per-endpoint circuit breakers keyed by the
        registry's own resolution — and exposes its ``report``.
        """

        def invoker(call: FunctionCall) -> Tuple[Node, ...]:
            return self.invoke(call, principal)

        if resilience is None:
            # The resilient wrapper emits its own ``invoke`` span; give
            # the plain path one too so traces look the same either way.
            def traced(call: FunctionCall) -> Tuple[Node, ...]:
                tracer = obs.tracer()
                if not tracer.enabled:
                    return invoker(call)
                with tracer.span(
                    "invoke", function=call.name,
                    endpoint=call.endpoint or call.name,
                ) as span:
                    forest = invoker(call)
                    span.set(outcome="ok", outputs=len(forest))
                    return forest

            return traced

        from repro.services.resilience import ResilientInvoker

        def endpoint_of(call: FunctionCall) -> str:
            try:
                service, _operation = self.resolve(call)
            except UnknownServiceError:
                return call.endpoint or call.name
            return service.endpoint

        return ResilientInvoker(
            invoker, policy=resilience, endpoint_of=endpoint_of, clock=clock
        )

    # -- UDDI-style search (the conclusion's third extension) -----------------

    def find_providers(
        self,
        output_type,
        input_type=None,
        require_subset: bool = False,
    ) -> List[Tuple[Service, Operation]]:
        """Find operations by the *type* of information they provide.

        "The module may be extended to include search capabilities, e.g.,
        UDDI style search, to try to find services on the Web that
        provide some particular information."

        An operation matches when its declared output type shares a word
        with the requested type (or, with ``require_subset``, is wholly
        contained in it — the caller is then guaranteed every answer
        fits).  ``input_type`` additionally constrains what the caller
        must be able to supply.
        """
        from repro.automata.bitset import bit_intersects, bit_subset
        from repro.automata.symbols import Alphabet, regex_symbols
        from repro.compile import context as compile_context

        cc = compile_context.cache()
        matches: List[Tuple[Service, Operation]] = []
        for endpoint in sorted(self.services):
            service = self.services[endpoint]
            for name in sorted(service.operations):
                operation = service.operations[name]
                signature = operation.signature
                alphabet = Alphabet.closure(
                    regex_symbols(signature.output_type),
                    regex_symbols(output_type),
                )
                theirs = cc.bit_target_dfa(signature.output_type, alphabet)
                wanted = cc.bit_target_dfa(output_type, alphabet)
                type_ok = (
                    bit_subset(theirs, wanted)
                    if require_subset
                    else bit_intersects(theirs, wanted)
                )
                if not type_ok:
                    continue
                if input_type is not None:
                    in_alphabet = Alphabet.closure(
                        regex_symbols(signature.input_type),
                        regex_symbols(input_type),
                    )
                    if not bit_subset(
                        cc.bit_target_dfa(input_type, in_alphabet),
                        cc.bit_target_dfa(signature.input_type, in_alphabet),
                    ):
                        continue
                matches.append((service, operation))
        return matches

    # -- accounting -----------------------------------------------------------

    def total_calls(self) -> int:
        """Calls served across all registered services."""
        return sum(service.call_count() for service in self.services.values())

    def reset_accounting(self) -> None:
        """Reset call records on every service."""
        for service in self.services.values():
            service.reset_accounting()
