"""Streaming document pipeline: bounded-memory parse, enforce, emit.

The package holds the one expat set-up (:mod:`repro.stream.parser`),
the simple-model tree builder whose steps are its handlers, with a
per-element reduction hook (:mod:`repro.stream.builder`), and a
single-pass enforcement driver that rewrites children words as elements
close and emits enforced output while the tail of the input is still
being parsed (:mod:`repro.stream.enforce`).  See ``docs/STREAMING.md``
for the memory model and the event contract.
"""

from repro.stream.builder import TreeBuilder
from repro.stream.enforce import StreamResult, stream_rewrite
from repro.stream.parser import iter_events
from repro.stream.seal import SealedElement

__all__ = [
    "TreeBuilder",
    "StreamResult",
    "stream_rewrite",
    "iter_events",
    "SealedElement",
]
