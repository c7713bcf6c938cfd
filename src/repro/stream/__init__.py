"""Streaming document pipeline: bounded-memory parse, enforce, emit.

The package holds the one expat set-up (:mod:`repro.stream.parser`),
the simple-model tree builder whose steps are its handlers, with a
per-element reduction hook (:mod:`repro.stream.builder`), and a
single-pass enforcement driver that rewrites children words as elements
close and emits enforced output while the tail of the input is still
being parsed (:mod:`repro.stream.enforce`).  See ``docs/STREAMING.md``
for the memory model and the event contract.
"""

import importlib

#: Each export's module, imported on first use: every document parse
#: runs the tree builder, and must not bring in the driver with it.
_EXPORTS = {
    "TreeBuilder": "repro.stream.builder",
    "StreamResult": "repro.stream.enforce",
    "stream_rewrite": "repro.stream.enforce",
    "iter_events": "repro.stream.parser",
    "SealedElement": "repro.stream.seal",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name)
        )
    return getattr(importlib.import_module(module), name)
