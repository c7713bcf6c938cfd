"""Summary statistics and span accounting for the benchmark.

- :func:`percentile` reports a percentile only when at least ten
  samples lie beyond it; :func:`tail` picks the highest such percentile
  of a fixed ladder and always returns its sample count.
- :func:`self_times` turns a list of spans (dicts as written to JSONL)
  into per-layer self time under each root: a span's self time is its
  duration minus the part of its interval its children cover, so the
  self times of a root's subtree add up to the root's duration.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10

#: Tail percentiles tried from the highest down.
TAIL_LADDER = (0.999, 0.99, 0.9, 0.75, 0.5)


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q`` percentile (nearest rank), or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    ordered = sorted(samples)
    if not ordered:
        return None
    rank = max(1, math.ceil(q * len(ordered)))  # 1-based nearest rank
    value = ordered[rank - 1]
    beyond = sum(1 for sample in ordered[rank:] if sample > value)
    if beyond < MIN_BEYOND:
        return None
    return value


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """``(q, value, n)`` for the highest ladder percentile that has at
    least :data:`MIN_BEYOND` samples beyond it; None if none has."""
    for q in TAIL_LADDER:
        value = percentile(samples, q)
        if value is not None:
            return q, value, len(samples)
    return None


# ---------------------------------------------------------------------------
# Spans → layers
# ---------------------------------------------------------------------------

#: Span name (exact, or prefix ending in ".") → layer.  The ``bench.*``
#: spans are opened by the benchmark around public calls; the rest are
#: the program's own spans, which nest beneath them.
_LAYER_BY_NAME = {
    "bench.parse": "doc.parse",
    "bench.serialize": "doc.serialize",
    "bench.enforce": "schema.check",
    "enforce": "schema.check",
    "document": "rewriting.engine",
    "node": "rewriting.engine",
    "analysis": "rewriting.engine",
    "product": "rewriting.product",
    "game": "rewriting.game",
    "bench.invoke": "services.invoke",
    "bench.xschema": "xschema.compile",
    "bench.stream": "stream.pass",
    "bench.apply": "incremental",
    "bench.open": "incremental",
}
_LAYER_BY_PREFIX = (
    ("compile.", "compile.build"),
    ("incremental.", "incremental"),
    ("exec.", "exec"),
    ("bench.http.", "gateway.http"),
    ("bench.", "bench"),
)


def layer_of(span: dict) -> str:
    """The layer a span's self time is charged to."""
    name = span["name"]
    if name == "document" and span.get("attributes", {}).get("stream"):
        # Parse, check and emit inside the stream driver have no span
        # of their own; they stay in the driver's self time.
        return "stream.driver"
    layer = _LAYER_BY_NAME.get(name)
    if layer is not None:
        return layer
    for prefix, layer in _LAYER_BY_PREFIX:
        if name.startswith(prefix):
            return layer
    return "other"


def _covered(interval: Tuple[float, float],
             children: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    low, high = interval
    pieces = sorted((max(low, a), min(high, b)) for a, b in children)
    covered = 0.0
    cursor = low
    for a, b in pieces:
        if b <= cursor:
            continue
        a = max(a, cursor)
        if b > a:
            covered += b - a
            cursor = b
    return covered


def self_times(spans: Sequence[dict]) -> Dict[str, Dict[str, float]]:
    """Per-root-name layer self times: ``{root name: {layer: seconds}}``.

    A root is a span without a parent among ``spans``.  Every span's
    self time is charged to :func:`layer_of` under its root's name,
    and ``"_total"`` holds the summed root durations, so each root's
    layers add up to its ``_total``.
    """
    by_id = {span["span_id"]: span for span in spans}
    children: Dict[int, List[dict]] = defaultdict(list)
    for span in spans:
        parent = span.get("parent_id")
        if parent in by_id:
            children[parent].append(span)

    table: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        if span.get("parent_id") in by_id:
            continue
        root = table[span["name"]]
        root["_total"] += span["end"] - span["start"]
        stack = [span]
        while stack:
            node = stack.pop()
            kids = children.get(node["span_id"], ())
            covered = _covered((node["start"], node["end"]),
                               ((k["start"], k["end"]) for k in kids))
            root[layer_of(node)] += node["end"] - node["start"] - covered
            stack.extend(kids)
    return {name: dict(layers) for name, layers in table.items()}


def render_table(table: Dict[str, Dict[str, float]],
                 counts: Dict[str, int]) -> str:
    """A human per-layer table: seconds per operation and share."""
    lines = []
    for root in sorted(table):
        layers = table[root]
        total = layers["_total"]
        ops = max(1, counts.get(root, 1))
        lines.append("%s  (%d op(s), %.3f ms/op)"
                     % (root, ops, 1000.0 * total / ops))
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            if layer == "_total":
                continue
            lines.append("  %-22s %10.3f ms/op  %5.1f%%" % (
                layer, 1000.0 * seconds / ops,
                100.0 * seconds / total if total else 0.0))
    return "\n".join(lines)
