"""Deterministic call-tree profiles aggregated from tracer spans.

A raw trace answers "what happened on this run"; a *profile* answers
"where did the time go".  :func:`profile_spans` folds a list of span
dicts (live from a :class:`~repro.obs.trace.Tracer` or re-read from
JSONL) into a call tree keyed by *name path*: every span with the same
ancestry of span names lands in the same :class:`ProfileNode`, which
accumulates

- ``count`` — how many spans folded into the node,
- ``inclusive`` — total wall time including children,
- ``exclusive`` — ``inclusive`` minus the inclusive time of *direct
  children*, i.e. time spent in the node's own code.

Exclusive times telescope: summed over a subtree they equal the root's
inclusive time exactly, so the flame-style rendering's numbers are
internally consistent (this is asserted to 1% by the CLI acceptance
test — the slack only absorbs float rounding).

Every node also gets a **phase** from its span name — the pipeline
stages of the paper's cost model::

    compile      glushkov NFA construction, k-depth expansion
    determinize  subset construction, completion, minimization, views
    product      A_w^k x complement(target) product walk
    game         the marking-game fixpoint (safe, lazy, possible)
    materialize  invocation, scheduling, serialization round-trips
    other        orchestration (exchange/document/node), validation, ...

``Profile.phases()`` attributes each node's *exclusive* time to its
phase, so phase totals also sum to the walked roots' inclusive time.

Determinism: profiles are pure functions of the span dicts — orderings
are by span id and name, nothing reads a clock — so a run under
``SimulatedClock`` profiles byte-identically every time.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

#: Ordered pipeline phases (rendering order).
PHASES = ("compile", "determinize", "product", "game", "materialize", "other")

#: Span names (exact) mapped to phases.
_EXACT_PHASES = {
    "product": "product",
    "game": "game",
    "subset": "determinize",
    "invoke": "materialize",
}

#: compile.<kind> span kinds that are determinization work, not parsing.
_DETERMINIZE_KINDS = {"bitdfa", "bitcomp", "subset"}


def phase_of(name: str) -> str:
    """The pipeline phase a span name belongs to."""
    exact = _EXACT_PHASES.get(name)
    if exact is not None:
        return exact
    if name.startswith("compile."):
        kind = name[len("compile."):]
        return "determinize" if kind in _DETERMINIZE_KINDS else "compile"
    if name.startswith("exec.") or name.startswith("transfer."):
        return "materialize"
    return "other"


class ProfileNode:
    """One name-path in the call tree, with aggregated timings."""

    __slots__ = ("name", "phase", "count", "inclusive", "exclusive",
                 "children")

    def __init__(self, name: str):
        self.name = name
        self.phase = phase_of(name)
        self.count = 0
        self.inclusive = 0.0
        self.exclusive = 0.0
        self.children: Dict[str, "ProfileNode"] = {}

    def child(self, name: str) -> "ProfileNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = ProfileNode(name)
        return node

    def sorted_children(self) -> List["ProfileNode"]:
        """Children hottest-first (ties broken by name for determinism)."""
        return sorted(
            self.children.values(), key=lambda n: (-n.inclusive, n.name)
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "phase": self.phase,
            "count": self.count,
            "inclusive": self.inclusive,
            "exclusive": self.exclusive,
            "children": [c.to_dict() for c in self.sorted_children()],
        }


class Profile:
    """The aggregated call-tree profile of one trace."""

    def __init__(self, roots: List[ProfileNode], total: float,
                 unfinished: int = 0):
        self.roots = roots
        self.total = total  #: summed inclusive time of the roots
        self.unfinished = unfinished  #: spans without an end time (skipped)

    # -- derived views -----------------------------------------------------

    def phases(self) -> Dict[str, float]:
        """Exclusive time attributed per phase; sums to :attr:`total`."""
        totals = {phase: 0.0 for phase in PHASES}

        def walk(node: ProfileNode) -> None:
            totals[node.phase] += node.exclusive
            for child in node.children.values():
                walk(child)

        for root in self.roots:
            walk(root)
        return totals

    def exclusive_sum(self) -> float:
        """Total exclusive time over every node (telescopes to total)."""
        return sum(self.phases().values())

    # -- export ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "total_seconds": self.total,
            "unfinished_spans": self.unfinished,
            "phases": self.phases(),
            "roots": [root.to_dict() for root in self.roots],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render(self, max_depth: Optional[int] = None) -> str:
        """The flame-style tree plus the per-phase attribution table."""
        lines: List[str] = []
        total = self.total or 1.0

        def emit(node: ProfileNode, prefix: str, is_last: bool,
                 is_root: bool, depth: int) -> None:
            if max_depth is not None and depth > max_depth:
                return
            connector = "" if is_root else ("└─ " if is_last else "├─ ")
            lines.append(
                "%s%s%s  incl=%s excl=%s calls=%d %5.1f%%  [%s]"
                % (
                    prefix, connector, node.name,
                    _seconds(node.inclusive), _seconds(node.exclusive),
                    node.count, 100.0 * node.inclusive / total, node.phase,
                )
            )
            child_prefix = prefix if is_root else (
                prefix + ("   " if is_last else "│  ")
            )
            kids = node.sorted_children()
            for index, kid in enumerate(kids):
                emit(kid, child_prefix, index == len(kids) - 1, False,
                     depth + 1)

        for index, root in enumerate(self.roots):
            emit(root, "", index == len(self.roots) - 1, True, 0)

        lines.append("")
        lines.append("phase attribution (exclusive time):")
        for phase, seconds in self.phases().items():
            lines.append(
                "  %-12s %s %5.1f%%"
                % (phase, _seconds(seconds), 100.0 * seconds / total)
            )
        lines.append("  %-12s %s" % ("total", _seconds(self.total)))
        if self.unfinished:
            lines.append("  (%d unfinished span(s) skipped)" % self.unfinished)
        return "\n".join(lines)


def _seconds(value: float) -> str:
    if value >= 1.0:
        return "%8.3fs " % value
    return "%8.3fms" % (value * 1000.0)


def profile_spans(spans: Sequence[dict]) -> Profile:
    """Fold span dicts into a :class:`Profile`.

    Spans whose parent is absent from the set (rotated out of the ring
    buffer, or explicitly rootless) are promoted to roots, mirroring
    :func:`repro.obs.trace.render_span_dicts`.  Unfinished spans are
    skipped and counted, never guessed at.
    """
    finished = [s for s in spans if s.get("duration") is not None]
    unfinished = len(spans) - len(finished)
    by_id = {span["span_id"]: span for span in finished}

    children: Dict[Optional[int], List[dict]] = {}
    for span in finished:
        parent = span.get("parent_id")
        if parent not in by_id:
            parent = None
        children.setdefault(parent, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda span: span["span_id"])

    roots_by_name: Dict[str, ProfileNode] = {}
    root_nodes: List[ProfileNode] = []
    total = 0.0

    def fold(span: dict, node: ProfileNode) -> None:
        duration = float(span["duration"])
        node.count += 1
        node.inclusive += duration
        kids = children.get(span["span_id"], [])
        child_time = 0.0
        for kid in kids:
            child_time += float(kid["duration"])
            fold(kid, node.child(kid["name"]))
        # Clamp: clock skew between threads can make children appear
        # longer than the parent; exclusive time is never negative.
        node.exclusive += max(0.0, duration - child_time)

    for span in children.get(None, []):
        name = span["name"]
        node = roots_by_name.get(name)
        if node is None:
            node = roots_by_name[name] = ProfileNode(name)
            root_nodes.append(node)
        total += float(span["duration"])
        fold(span, node)

    root_nodes.sort(key=lambda n: (-n.inclusive, n.name))
    return Profile(root_nodes, total, unfinished)


def profile_tracer(tracer) -> Profile:
    """Profile a live tracer's finished spans."""
    return profile_spans([span.to_dict() for span in tracer.finished()])
