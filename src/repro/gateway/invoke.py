"""Invokers the gateway materializes embedded calls with.

The gateway, like the CLI, has no live SOAP providers behind it: calls
are served by **per-call seeded sampling** from the sender's declared
signatures (:func:`~repro.services.responders.sampling_invoker`) — each
call's output is drawn from an RNG derived from ``(seed, call
fingerprint)``, so results depend on *content*, never on scheduling
order or worker count.  That is the property the load benchmark leans
on when it checks gateway responses byte-identical against the direct
library path.

A per-request deadline is enforced by :func:`deadline_guard`: the
wrapper re-checks the budget before every materialization, so a request
that blows its deadline mid-enforcement aborts with the typed 504 error
instead of burning the worker until completion.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.doc.nodes import FunctionCall, Node
from repro.gateway.errors import DeadlineExceededError
from repro.services.responders import sampling_invoker

__all__ = ["Invoker", "deadline_guard", "delayed", "sampling_invoker"]

#: ``FunctionCall -> forest``, same contract as the whole stack.
Invoker = Callable[[FunctionCall], Sequence[Node]]


def deadline_guard(
    inner: Invoker,
    clock,
    started_at: float,
    deadline: Optional[float],
) -> Invoker:
    """Abort materialization once a request's deadline has expired.

    The check runs *before* each call, so the guard adds no latency to
    conformant requests and a deadline hit surfaces as
    :class:`DeadlineExceededError` — which is not a service fault, so it
    passes through the enforcer's degrade-and-continue machinery and
    reaches the gateway as a hard 504.
    """
    if deadline is None:
        return inner

    def invoker(call: FunctionCall) -> Sequence[Node]:
        elapsed = clock.now() - started_at
        if elapsed > deadline:
            raise DeadlineExceededError(
                "deadline of %.3fs expired after %.3fs (before call to %r)"
                % (deadline, elapsed, call.name)
            )
        return inner(call)

    return invoker


def delayed(inner: Invoker, clock, delay: float) -> Invoker:
    """Add fixed per-call service latency (load experiments only)."""
    if delay <= 0:
        return inner

    def invoker(call: FunctionCall) -> Sequence[Node]:
        clock.sleep(delay)
        return inner(call)

    return invoker
