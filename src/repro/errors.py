"""Exception hierarchy for the intensional-XML exchange library.

Every error raised by this package derives from :class:`ReproError`, so
applications can catch the whole family with a single ``except`` clause
while still being able to distinguish parsing problems from rewriting
failures or service faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class RegexSyntaxError(ReproError):
    """A type expression could not be parsed.

    Raised by :func:`repro.regex.parse_regex` with the offending text and
    position recorded on the exception.
    """

    def __init__(self, message: str, text: str = "", position: int = -1):
        super().__init__(message)
        self.text = text
        self.position = position


class NondeterministicRegexError(ReproError):
    """A regex is not one-unambiguous where determinism was required.

    XML Schema enforces one-unambiguous (deterministic) content models;
    callers that require the polynomial fast path may ask the library to
    reject nondeterministic expressions instead of silently determinizing.
    """


class DocumentError(ReproError):
    """An intensional document is malformed (bad tree shape or labels)."""


class DocumentParseError(DocumentError):
    """The XML serialization of an intensional document could not be parsed."""


class SchemaError(ReproError):
    """A schema definition is inconsistent (unknown labels, bad signature...)."""


class UnknownPeerError(SchemaError):
    """A network operation names a peer that was never registered.

    Raised by :class:`repro.axml.network.PeerNetwork` (and the exchange
    gateway's registry) instead of a raw ``KeyError``, so callers can
    distinguish "wrong address" from every other schema problem.
    Carries the offending name and the names that *are* registered.
    """

    def __init__(self, name: str, known: tuple = ()):  # type: ignore[assignment]
        self.name = name
        self.known = tuple(sorted(known))
        hint = (
            " (registered: %s)" % ", ".join(self.known)
            if self.known
            else " (no peers registered)"
        )
        super().__init__("unknown peer %r%s" % (name, hint))


class ValidationError(ReproError):
    """A document is not an instance of a schema.

    Carries the list of individual violations so callers can report all of
    them at once rather than one at a time.
    """

    def __init__(self, message: str, violations: list | None = None):
        super().__init__(message)
        self.violations = list(violations or [])


class RewriteError(ReproError):
    """Base class for rewriting failures."""


class NoSafeRewritingError(RewriteError):
    """No k-depth left-to-right safe rewriting exists for the input."""


class NoPossibleRewritingError(RewriteError):
    """Not even a possible rewriting exists: ext(t) contains no instance."""


class RewriteExecutionError(RewriteError):
    """A rewriting plan failed during execution.

    For possible (non-safe) rewritings this signals that every backtracking
    branch was exhausted: the actual values returned by the services never
    matched an accepting path.
    """


class ServiceError(ReproError):
    """Base class for simulated Web-service failures."""


class ServiceFault(ServiceError):
    """The service raised a SOAP-style fault while executing."""

    def __init__(self, message: str, fault_code: str = "Server"):
        super().__init__(message)
        self.fault_code = fault_code


class TransientFault(ServiceFault):
    """A fault the provider may recover from — worth retrying.

    Timeouts, scripted outages, open circuit breakers and generic
    ``Server`` faults fall in this class; a resilient invoker retries
    them with backoff (:mod:`repro.services.resilience`).
    """

    def __init__(self, message: str, fault_code: str = "Server.Transient"):
        super().__init__(message, fault_code=fault_code)


class PermanentFault(ServiceFault):
    """A fault retrying cannot fix (bad parameters, unsupported call).

    ``Client`` faults are permanent by definition: the same request will
    be rejected again, so a resilient invoker fails fast instead of
    burning its retry budget.
    """

    def __init__(self, message: str, fault_code: str = "Client"):
        super().__init__(message, fault_code=fault_code)


class FunctionUnavailableError(PermanentFault):
    """A resilient invoker gave up on a function for this exchange.

    Raised after retries are exhausted, a permanent fault is observed,
    or a deadline/budget expires.  Carries the function name so the
    rewrite engine can degrade gracefully: in AUTO mode it re-analyzes
    the word treating the dead function as non-invocable (the legal
    rewriting partition of Section 2.1) instead of failing the document.
    """

    def __init__(self, function: str, endpoint: str = "", reason: str = ""):
        at = " at %s" % endpoint if endpoint else ""
        super().__init__(
            "function %r unavailable%s: %s" % (function, at, reason or "gave up"),
        )
        self.fault_code = "Server.Unavailable"
        self.function = function
        self.endpoint = endpoint
        self.reason = reason


class UnknownServiceError(ServiceError):
    """A function node refers to a service that is not in the registry."""


class AccessDeniedError(ServiceError):
    """The caller does not have the right to invoke the service (ACL)."""


class XMLSchemaIntError(ReproError):
    """An XML Schema_int document is malformed or uses unsupported features."""
