"""Single-pass streaming enforcement: rewrite children words as
elements close, emit enforced output while the tail is still parsing.

The driver subclasses :class:`repro.stream.builder.TreeBuilder`.  At
each element close (outside ``int:fun`` subtrees) it runs the engine's
:meth:`~repro.rewriting.engine.RewriteEngine.rewrite_forest` over the
element's children — exactly the computation the DOM driver performs
for the same node, with the same analysis-cache keys and the same
error messages — then *seals* the element: the subtree is final and its
serialized chunk travels upward instead of the tree.  The engine's
descend stage skips sealed children (``node.enforced``), so each word
is rewritten exactly once, as in the DOM pass.

Memory: the driver holds the root-to-cursor spine of open frames plus
one children list per frame.  Children whose bytes have been emitted
are *hollowed* to their label; only subtrees buffered behind a pending
function call (whose expansion is unknown until the parent's word is
rewritten) stay resident.  Peak memory is O(depth + buffered siblings)
instead of O(document).

Emission: an element's start tag is written as soon as its final print
form is certain (any open child element, or ≥2 settled children, or one
settled non-text child force the multi-line form); settled children
stream out up to the first pending function call.  The accumulated
output is byte-identical to ``document_to_xml`` of the DOM result.

Guarantees and caveats (see ``docs/STREAMING.md``):

- ``safe`` and ``auto`` modes only.  Possible-mode execution may invoke
  services on already-conformant words, which would diverge from the
  DOM path's conformance short-circuit.
- On success, output bytes and receipts match the DOM path exactly
  (given a per-call-deterministic invoker).  On documents with several
  independent errors, the two paths may report a different error first
  (post-order close time versus top-down descend order), and partial
  output may already have been emitted when the error surfaces —
  callers must discard the sink's contents on error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple
from xml.sax.saxutils import escape

from repro.doc.nodes import (
    Element,
    FunctionCall,
    Node,
    Text,
    symbol_of,
    with_children,
)
from repro.doc.xml_io import _declare_int_ns
from repro.errors import RewriteError, SchemaError
from repro.obs import context as obs
from repro.obs.metrics import record_work
from repro.rewriting.engine import POSSIBLE, SAFE, RewriteEngine
from repro.rewriting.plan import InvocationLog
from repro.schema.validate import InstanceChecker
from repro.stream.builder import Frame, TreeBuilder
from repro.stream.parser import iter_events
from repro.stream.seal import SealedElement
from repro.stream.serialize import (
    XML_HEADER,
    LineWriter,
    attr_string,
    chunk_of,
    serialize_lines,
)


@dataclass
class StreamResult:
    """What one streaming rewrite did (the engine-level receipt)."""

    log: InvocationLog
    mode_used: str
    words_rewritten: int = 0
    product_nodes: int = 0
    degraded_functions: Tuple[str, ...] = ()
    cache_hits: int = 0
    cache_misses: int = 0
    #: Whether the *original* document was already an instance of the
    #: target schema (tracked incrementally, mirroring ``is_instance``).
    already_conformant: bool = True
    #: Peak open-frame depth and peak buffered-sibling count observed.
    peak_depth: int = 0
    peak_buffered: int = 0

    @property
    def calls_made(self) -> int:
        return len(self.log)


class _EmitState:
    """Per-open-frame emission bookkeeping."""

    __slots__ = ("depth", "writable", "start_emitted", "flushed")

    def __init__(self, depth: int, writable: bool):
        self.depth = depth
        self.writable = writable
        self.start_emitted = False
        self.flushed = 0  # children fully written to the sink


class _StreamDriver(TreeBuilder):
    """TreeBuilder subclass running close-time enforcement + emission."""

    def __init__(
        self,
        engine: RewriteEngine,
        invoker,
        write: Callable[[str], None],
        checker: InstanceChecker,
    ):
        super().__init__()
        self.engine = engine
        self.invoker = invoker
        self.checker = checker
        self.words_checked = 0
        self.log = InvocationLog()
        self.stats = {"words": 0, "product": 0, "mode": SAFE}
        self.writer = LineWriter(write)
        self.states: List[_EmitState] = []
        self.conformant = True
        self.peak_depth = 0
        self.peak_buffered = 0
        self._just_streamed = False  # last closed child's bytes already out

    # -- TreeBuilder hooks -------------------------------------------------

    def enter_element(self, frame: Frame) -> None:
        parent_state = self.states[-1] if self.states else None
        if parent_state is not None and parent_state.writable:
            if not parent_state.start_emitted:
                # An open child element guarantees the multi-line form.
                self._emit_start(parent_state, self._stack[-2])
            self._flush_prefix(parent_state, self._stack[-2])
        writable = parent_state is None or (
            parent_state.writable
            and parent_state.start_emitted
            and parent_state.flushed == len(self._stack[-2].children)
        )
        self.states.append(_EmitState(len(self.states), writable))
        if self.depth > self.peak_depth:
            self.peak_depth = self.depth

    def close_element(
        self, frame: Frame, attributes: Tuple[Tuple[str, str], ...]
    ) -> Node:
        state = self.states.pop()
        engine = self.engine
        content = engine.target_schema.type_of(frame.label)
        if content is None:
            raise SchemaError(
                "element label %r is not declared by the target schema"
                % frame.label
            )
        checker = self.checker
        if self.conformant:
            # Conformance of the original document, tracked as it closes.
            self.words_checked += 1
            self.conformant = checker.word_ok(
                tuple(map(symbol_of, frame.children)), content
            )
        rewritten = engine.rewrite_forest(
            frame.children, content, self.invoker, self.log, self.stats
        )
        new_word = tuple(symbol_of(child) for child in rewritten)
        self.words_checked += 1
        if not checker.word_ok(new_word, content):
            raise RewriteError(
                "rewriting produced a non-conformant document: "
                "children word %s does not match %s"
                % (".".join(new_word) or "eps", content)
            )
        pad = "  " * state.depth
        if state.start_emitted:
            for child in rewritten[state.flushed:]:
                self._emit_child(child, state.depth + 1)
            self.writer.line("%s</%s>" % (pad, frame.label))
            self._just_streamed = True
            return SealedElement(frame.label, (), attributes, None)
        chunk = self._assemble_chunk(frame.label, attributes, rewritten, state.depth)
        return SealedElement(frame.label, (), attributes, chunk)

    def child_closed(self, node: Node) -> None:
        if self.conformant and isinstance(node, FunctionCall):
            self.conformant = self.checker.ok(node)
        if not self.states:
            self._finish_root(node)
            return
        state = self.states[-1]
        frame = self._stack[-1]
        if self._just_streamed:
            # close_element wrote the child's bytes itself; skip it here.
            self._just_streamed = False
            state.flushed = len(frame.children)
            return
        buffered = len(frame.children) - state.flushed
        if buffered > self.peak_buffered:
            self.peak_buffered = buffered
        self._pump(state, frame)

    # -- emission ----------------------------------------------------------

    def _pump(self, state: _EmitState, frame: Frame) -> None:
        if not state.writable:
            return
        if not state.start_emitted:
            settled = 0
            for child in frame.children:
                if isinstance(child, FunctionCall):
                    break
                settled += 1
            if settled >= 2 or (
                settled == 1 and not isinstance(frame.children[0], Text)
            ):
                self._emit_start(state, frame)
            else:
                return
        self._flush_prefix(state, frame)

    def _emit_start(self, state: _EmitState, frame: Frame) -> None:
        attributes = tuple(sorted(frame.attrs.items()))
        line = "%s<%s%s>" % (
            "  " * state.depth, frame.label, attr_string(attributes)
        )
        if state.depth == 0:
            self.writer.line(XML_HEADER)
            line = _declare_int_ns(line)
        self.writer.line(line)
        state.start_emitted = True

    def _flush_prefix(self, state: _EmitState, frame: Frame) -> None:
        if not state.start_emitted:
            return
        children = frame.children
        while state.flushed < len(children):
            child = children[state.flushed]
            if isinstance(child, FunctionCall):
                break  # expansion unknown until this frame's word rewrites
            self._emit_child(child, state.depth + 1)
            if isinstance(child, SealedElement) and child.chunk is not None:
                children[state.flushed] = child.hollow()
            state.flushed += 1

    def _emit_child(self, child: Node, depth: int) -> None:
        chunk = getattr(child, "chunk", None)
        if chunk is not None:
            self.writer.line(chunk)
            return
        for line in serialize_lines(child, depth):
            self.writer.line(line)

    def _assemble_chunk(
        self,
        label: str,
        attributes: Tuple[Tuple[str, str], ...],
        children: Tuple[Node, ...],
        depth: int,
    ) -> str:
        pad = "  " * depth
        attrs = attr_string(attributes)
        if not children:
            return "%s<%s%s/>" % (pad, label, attrs)
        if len(children) == 1 and isinstance(children[0], Text):
            return "%s<%s%s>%s</%s>" % (
                pad, label, attrs, escape(children[0].value), label
            )
        parts = ["%s<%s%s>" % (pad, label, attrs)]
        for child in children:
            parts.append(chunk_of(child, depth + 1))
        parts.append("%s</%s>" % (pad, label))
        return "\n".join(parts)

    # -- root --------------------------------------------------------------

    def _finish_root(self, node: Node) -> None:
        if isinstance(node, FunctionCall):
            # Mirrors the engine's root FunctionCall branch: parameters
            # are rewritten toward the input type, the call itself stays.
            input_type = self.engine._input_type(node.name)
            if input_type is None:
                raise SchemaError(
                    "function %r has no declared signature in either schema"
                    % node.name
                )
            params = self.engine.rewrite_forest(
                node.params, input_type, self.invoker, self.log, self.stats
            )
            final = with_children(node, params)
            self.writer.line(XML_HEADER)
            self.writer.line(
                _declare_int_ns("\n".join(serialize_lines(final, 0)))
            )
            return
        chunk = getattr(node, "chunk", None)
        if chunk is not None:  # root sealed whole: never streamed early
            self.writer.line(XML_HEADER)
            self.writer.line(_declare_int_ns(chunk))
        self._just_streamed = False


def stream_rewrite(
    engine: RewriteEngine,
    source,
    invoker,
    write: Callable[[str], None],
) -> StreamResult:
    """Enforce one document from an XML source, streaming the output.

    ``source`` is a string, bytes, or an iterable of chunks; ``write``
    receives the serialized output incrementally (its concatenation is
    byte-identical to ``document_to_xml`` of the DOM rewrite).  Raises
    the same errors as :meth:`RewriteEngine.rewrite`
    (:class:`DocumentParseError` for malformed input, rewrite/schema
    errors when the guarantee cannot be met); on error the sink holds a
    partial prefix that must be discarded.
    """
    checker = InstanceChecker(
        engine.target_schema, engine.sender_schema, engine.compile_cache
    )
    return _stream_rewrite(engine, source, invoker, write, checker)


def _stream_rewrite(
    engine: RewriteEngine, source, invoker, write, checker: InstanceChecker
) -> StreamResult:
    """:func:`stream_rewrite` checking through ``checker`` (an
    enforcer's, so a pass compiles nothing)."""
    if engine.mode == POSSIBLE:
        raise ValueError(
            "streaming enforcement supports safe/auto modes only: "
            "possible-mode execution may invoke services on conformant "
            "words, diverging from the DOM path"
        )
    driver = _StreamDriver(engine, invoker, write, checker)
    hits_before, misses_before = engine.cache_stats
    with obs.tracer().span(
        "document", mode=engine.mode, k=engine.k, stream=True
    ) as span:
        for event in iter_events(source):
            driver.feed(event)
        driver.finish()
        hits, misses = engine.cache_stats
        result = StreamResult(
            log=driver.log,
            mode_used=driver.stats["mode"],
            words_rewritten=driver.stats["words"],
            product_nodes=driver.stats["product"],
            degraded_functions=tuple(sorted(driver.stats.get("dead", ()))),
            cache_hits=hits - hits_before,
            cache_misses=misses - misses_before,
            already_conformant=driver.conformant,
            peak_depth=driver.peak_depth,
            peak_buffered=driver.peak_buffered,
        )
        span.set(
            mode_used=result.mode_used,
            words=result.words_rewritten,
            calls=result.calls_made,
            conformant=result.already_conformant,
        )
    metrics = obs.metrics()
    record_work(metrics, "check", {"words": driver.words_checked})
    if metrics.enabled:
        metrics.counter(
            "repro_documents_rewritten_total", "Documents rewritten"
        ).inc(mode=result.mode_used)
    return result
