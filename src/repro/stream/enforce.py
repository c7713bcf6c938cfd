"""Single-pass streaming enforcement: rewrite children words as
elements close, emit enforced output while the tail is still parsing.

The driver subclasses :class:`repro.stream.builder.TreeBuilder`.  At
each element close (outside ``int:fun`` subtrees) it runs the engine's
:meth:`~repro.rewriting.engine.RewriteEngine.rewrite_forest` over the
element's children — exactly the computation the DOM driver performs
for the same node, with the same analysis-cache keys, the same check of
each word the engine writes (answers and kept calls included) and the
same error messages — then *seals* the element: the subtree is final and its
serialized chunk travels upward instead of the tree.  The engine's
descend stage skips sealed children (``node.enforced``), so each word
is rewritten exactly once, as in the DOM pass.

Memory: the driver holds the root-to-cursor spine of open frames plus
one children list per frame.  Children whose bytes have been emitted
are *hollowed* to their label; only subtrees buffered behind a pending
function call (whose expansion is unknown until the parent's word is
rewritten) stay resident.  Peak memory is O(depth + buffered siblings)
instead of O(document).

Receiver: handed the receiving peer's checker, the driver also reaches
that peer's verdict on what it reads, the one
:func:`repro.axml.delivery.deliver` reaches on the whole tree: each
closing word read as the tree builder reads the bytes back
(:func:`~repro.stream.builder.read_word`), and every subtree the word
brought in unsealed (answers, kept calls) walked whole.

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

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple
from xml.sax.saxutils import escape

from repro.doc.nodes import Element, FunctionCall, Node, Text, symbol_of
from repro.doc.xml_io import _declare_int_ns
from repro.errors import DocumentParseError, SchemaError
from repro.obs import context as obs
from repro.obs.metrics import record_work
from repro.rewriting.engine import POSSIBLE, SAFE, RewriteEngine
from repro.rewriting.plan import InvocationLog
from repro.schema.validate import InstanceChecker, ValidationReport, Violation
from repro.stream.builder import Frame, TreeBuilder, read_word
from repro.stream.seal import SealedElement, sealed
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
    #: The receiver's verdict on what it reads, when the pass was handed
    #: its checker: at most the first violation met, without a path.
    receiver_report: Optional[ValidationReport] = None

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
        receiver: Optional[InstanceChecker] = None,
    ):
        super().__init__()
        self.engine = engine
        self.invoker = invoker
        self.checker = engine.checker
        self.receiver = receiver
        self.refusal: Optional[Violation] = None
        #: Words the verify step and the receiver checked (the engine
        #: counts its own in ``stats["checked"]``).
        self.words_checked = 0
        self.log = InvocationLog()
        self.stats = {"words": 0, "product": 0, "mode": SAFE, "checked": 0}
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
        label = frame.label
        content = engine.target_schema.type_of(label)
        if content is None:
            raise SchemaError(
                "element label %r is not declared by the target schema"
                % label
            )
        children = tuple(frame.children)
        word = None
        if self.conformant:
            # Conformance of the original document, tracked as it closes.
            word = tuple(map(symbol_of, children))
            self.words_checked += 1
            self.conformant = self.checker.word_ok(word, content)
        rewritten = engine.rewrite_forest(
            children, content, self.invoker, self.log, self.stats
        )
        chunk = None
        if state.start_emitted:
            for child in rewritten[state.flushed:]:
                self._emit_child(child, state.depth + 1)
            self.writer.line("%s</%s>" % ("  " * state.depth, label))
            self._just_streamed = True
        else:
            chunk = self._assemble_chunk(label, attributes, rewritten,
                                         state.depth)
        node = sealed(label, attributes, chunk)
        if self.receiver is not None and self.refusal is None:
            if word is None or rewritten is not children:
                word = tuple(map(symbol_of, rewritten))
            self._receive(node, rewritten, word)
        return node

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

    # -- the receiver's verdict -------------------------------------------

    def _receive(self, node: Element, children: Tuple[Node, ...],
                 word: Tuple[str, ...]) -> None:
        """The receiver's check of one closing word, read as it reads the
        bytes, and of every subtree the rewrite brought in unsealed
        (answers and kept calls); the first violation met stands."""
        receiver = self.receiver
        self.words_checked += 1
        try:
            read = read_word(node.label, children, word)
        except DocumentParseError as exc:
            self.refusal = Violation(None, node.label, "unparseable", str(exc))
            return
        expr = receiver.schema.type_of(node.label)
        if expr is None or not receiver.word_ok(read, expr):
            self.refusal = receiver.violation(None, node, read)
            return
        for child in children:
            kind = type(child)
            if kind is Element or kind is FunctionCall:
                self._receive_tree(child)
                if self.refusal is not None:
                    return

    def _receive_tree(self, node: Node) -> None:
        report, _normal = self.receiver.receive(node)
        if not report.ok:
            self.refusal = replace(report.violations[0], path=None)

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
            # As in the DOM pass, a root call stays and its parameters
            # are rewritten toward its input type.
            final = self.engine.rewrite_node(
                node, self.invoker, self.log, self.stats
            )
            self.engine.check_kept(final)
            if self.receiver is not None:
                self._receive_tree(final)
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
    receiver: Optional[InstanceChecker] = None,
) -> StreamResult:
    """Enforce one document from an XML source, streaming the output.

    ``source`` is a string, bytes, or an iterable of chunks; ``write``
    receives the serialized output incrementally (its concatenation is
    byte-identical to ``document_to_xml`` of the DOM rewrite).  Raises
    the same errors as :meth:`RewriteEngine.rewrite`
    (:class:`DocumentParseError` for malformed input, rewrite/schema
    errors when the guarantee cannot be met or a written word fails the
    engine's check); on error the sink holds a partial prefix that must
    be discarded.  The verify step tracks conformance through the
    engine's checker (an enforcer's, so a pass compiles nothing).
    Handed the receiving peer's checker, the pass also reaches its
    verdict on what it reads (``receiver_report``), as the DOM delivery
    step (:func:`repro.axml.delivery.deliver`) does on the whole tree.
    """
    if engine.mode == POSSIBLE:
        raise ValueError(
            "streaming enforcement supports safe/auto modes only: "
            "possible-mode execution may invoke services on conformant "
            "words, diverging from the DOM path"
        )
    driver = _StreamDriver(engine, invoker, write, receiver)
    hits_before, misses_before = engine.cache_stats
    with obs.tracer().span(
        "document", mode=engine.mode, k=engine.k, stream=True
    ) as span:
        driver.parse(source)
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
        if receiver is not None:
            result.receiver_report = ValidationReport(
                [driver.refusal] if driver.refusal is not None else []
            )
        span.set(
            mode_used=result.mode_used,
            words=result.words_rewritten,
            calls=result.calls_made,
            conformant=result.already_conformant,
        )
    metrics = obs.metrics()
    record_work(metrics, "check", {
        "words": driver.words_checked + driver.stats["checked"]
    })
    if metrics.enabled:
        metrics.counter(
            "repro_documents_rewritten_total", "Documents rewritten"
        ).inc(mode=result.mode_used)
    return result
