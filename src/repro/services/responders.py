"""Handler factories for simulated services.

The rewriting algorithms' guarantees are quantified over the outputs a
service *may* return, so the simulator must be able to produce:

- arbitrary type-conforming outputs (:func:`sampling_responder`, seeded;
  :func:`sampling_invoker` serves whole calls from per-call seeds),
- the *adversarial* corner cases that separate safe from possible
  rewritings — e.g. a ``TimeOut`` that returns ``performance`` elements
  (:func:`adversarial_responder` picks outputs maximizing rejection),
- fixed test fixtures (:func:`constant_responder`,
  :func:`scripted_responder`),
- infrastructure failures: :func:`flaky_responder` raises SOAP faults on
  a fixed cadence, :func:`outage_responder` scripts whole failure
  windows, and :func:`latency_responder` injects (simulated-clock)
  delays so the resilient layer's timeouts are testable end to end.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.doc.nodes import FunctionCall, Node
from repro.errors import ReproError, ServiceFault, TransientFault
from repro.exec.fingerprint import call_fingerprint
from repro.regex.ast import Regex
from repro.schema.generator import InstanceGenerator, SchemaSampler
from repro.schema.model import Schema
from repro.services.service import Handler


def constant_responder(forest: Sequence[Node]) -> Handler:
    """Always return the same forest (ignoring parameters)."""
    fixed = tuple(forest)

    def handler(_params: Sequence[Node]) -> Tuple[Node, ...]:
        return fixed

    return handler


def scripted_responder(
    script: Sequence[Sequence[Node]], repeat_last: bool = True
) -> Handler:
    """Return pre-scripted forests, one per call.

    Models real services whose answers change over time (the paper's
    temperature and stock-exchange examples: "two consecutive calls may
    return a different result").  After the script is exhausted, the
    last entry repeats (or a fault is raised with ``repeat_last=False``).
    """
    remaining: List[Tuple[Node, ...]] = [tuple(forest) for forest in script]
    if not remaining:
        raise ValueError("script must contain at least one response")
    state = {"index": 0}

    def handler(_params: Sequence[Node]) -> Tuple[Node, ...]:
        index = state["index"]
        if index >= len(remaining):
            if repeat_last:
                return remaining[-1]
            raise ServiceFault("scripted responder exhausted its script")
        state["index"] += 1
        return remaining[index]

    return handler


def sampling_responder(
    schema: Schema,
    function_name: str,
    seed: int = 0,
    max_depth: int = 4,
) -> Handler:
    """Sample a fresh output instance of the declared type on every call.

    This is the workhorse of the simulation: outputs vary per call (as
    Definition 4 allows — "we may replace two occurrences of the same
    function by two different output instances") while always conforming
    to ``tau_out``.
    """
    rng = random.Random(seed)
    generator = InstanceGenerator(schema, rng, max_depth=max_depth)

    def handler(_params: Sequence[Node]) -> Tuple[Node, ...]:
        return generator.output_forest(function_name)

    return handler


def sampling_invoker(
    schema: Union[Schema, SchemaSampler], seed: int, max_depth: int = 4
) -> Callable[[FunctionCall], Tuple[Node, ...]]:
    """Serve calls by sampling output instances of declared signatures.

    Deterministic per logical call at any concurrency: each call's
    output is drawn from an RNG re-derived from ``(seed, call
    fingerprint)`` (string seeding hashes deterministically, unlike
    ``hash()``), so answers depend on content, never on invocation
    order, worker count or retries.  The schema is compiled once into a
    :class:`~repro.schema.generator.SchemaSampler` shared by every call
    (scheduler threads included); a call only derives its RNG and draws.
    Pass a compiled sampler instead of the schema to share one across
    invokers, as the gateway does per registered peer.  This is the one
    per-call sampler behind the gateway, the CLI's ``rewrite --workers
    N`` and ``--stream``, and the conformance fuzzer.
    """
    if isinstance(schema, SchemaSampler):
        sampler, schema = schema, schema.schema
    else:
        sampler = SchemaSampler(schema)

    def invoker(call: FunctionCall) -> Tuple[Node, ...]:
        if schema.output_type(call.name) is None:
            raise ReproError(
                "no signature for %r in the sender schema" % call.name
            )
        rng = random.Random("%s|%s" % (seed, call_fingerprint(call)))
        return sampler.generator(rng, max_depth=max_depth).output_forest(
            call.name
        )

    return invoker


def adversarial_responder(
    schema: Schema,
    function_name: str,
    avoid: Sequence[str],
    seed: int = 0,
    max_depth: int = 4,
    attempts: int = 16,
) -> Handler:
    """Prefer outputs whose root symbols include one of ``avoid``.

    Used to demonstrate that possible rewritings really can fail: an
    adversarial ``TimeOut`` keeps answering with ``performance`` elements
    whenever its output type admits them.
    """
    rng = random.Random(seed)
    generator = InstanceGenerator(schema, rng, max_depth=max_depth)
    avoided = set(avoid)

    def handler(_params: Sequence[Node]) -> Tuple[Node, ...]:
        from repro.doc.nodes import symbol_of

        best: Optional[Tuple[Node, ...]] = None
        for _ in range(attempts):
            candidate = generator.output_forest(function_name)
            symbols = {symbol_of(node) for node in candidate}
            if symbols & avoided:
                return candidate
            if best is None:
                best = candidate
        return best if best is not None else ()

    return handler


def flaky_responder(inner: Handler, fail_every: int = 2) -> Handler:
    """Wrap a handler so every n-th call raises a SOAP fault.

    Exercises the enforcement module's fault propagation; ``fail_every=1``
    makes the service always fail.
    """
    if fail_every < 1:
        raise ValueError("fail_every must be >= 1")
    state = {"count": 0}

    def handler(params: Sequence[Node]) -> Sequence[Node]:
        state["count"] += 1
        if state["count"] % fail_every == 0:
            raise ServiceFault("simulated outage (call #%d)" % state["count"])
        return inner(params)

    return handler


def outage_responder(
    inner: Handler,
    outages: Sequence[Tuple[int, int]],
    fault_code: str = "Server.Transient",
) -> Handler:
    """Fail every call whose 1-based index falls in a scripted window.

    ``outages`` is a sequence of inclusive ``(first, last)`` call-number
    windows, e.g. ``[(3, 5), (9, 9)]`` — deterministic planned downtime,
    the scenario a circuit breaker exists for.  Faults are transient by
    default (the provider comes back); pass ``fault_code="Client"`` to
    script a permanent rejection instead.
    """
    windows = [(int(first), int(last)) for first, last in outages]
    for first, last in windows:
        if first < 1 or last < first:
            raise ValueError("outage windows must satisfy 1 <= first <= last")
    state = {"count": 0}

    def handler(params: Sequence[Node]) -> Sequence[Node]:
        state["count"] += 1
        number = state["count"]
        for first, last in windows:
            if first <= number <= last:
                raise TransientFault(
                    "scripted outage (call #%d in window %d-%d)"
                    % (number, first, last),
                    fault_code=fault_code,
                )
        return inner(params)

    return handler


def latency_responder(
    inner: Handler,
    delay,
    clock,
) -> Handler:
    """Advance ``clock`` by ``delay`` seconds before answering.

    ``delay`` is a float or a callable from the 1-based call index to a
    float (so latency spikes can be scripted).  Pass the same clock the
    :class:`repro.services.resilience.ResilientInvoker` uses and its
    per-call ``call_timeout`` will observe the injected latency — with a
    :class:`SimulatedClock`, instantly and deterministically.
    """
    state = {"count": 0}

    def handler(params: Sequence[Node]) -> Sequence[Node]:
        state["count"] += 1
        seconds = delay(state["count"]) if callable(delay) else delay
        clock.sleep(float(seconds))
        return inner(params)

    return handler
