"""Counters, gauges and histograms for the exchange pipeline.

A :class:`MetricsRegistry` owns named metrics with optional labels and
exports them as Prometheus text format (``to_prometheus``), JSON Lines
(``to_jsonl`` / ``from_jsonl`` round-trip) and a human ``summary()``.
Everything is zero-dependency and deterministic: metrics are plain
dictionaries, export orders are sorted, and nothing reads a clock —
timing series are fed from span durations via :meth:`span_observer`
(see :func:`repro.obs.context.install`, which bridges a tracer's
profiling hook into the registry).

The default registry is :data:`NULL_METRICS`, a null object whose
``inc``/``set``/``observe`` do nothing, so uninstrumented runs pay only
a method call per site; hot loops can pre-check ``metrics.enabled``.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from itertools import accumulate
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from .quantile import DEFAULT_QUANTILES, QuantileSketch

#: Generic size buckets (product nodes, word lengths, bytes, ...).
SIZE_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
                1000.0, 2500.0, 5000.0, 10000.0)
#: Latency buckets in seconds (spans, rewrites, invocations).
TIME_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
                0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: A label set, normalized for use as a dict key.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: dict) -> LabelKey:
    if len(labels) == 1:  # the common case needs no sort
        ((name, value),) = labels.items()
        return ((str(name), str(value)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(key: LabelKey, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    return "{%s}" % ",".join(
        '%s="%s"' % (name, value.replace("\\", "\\\\").replace('"', '\\"'))
        for name, value in pairs
    )


class Counter:
    """A monotonically increasing value, optionally per label set.

    Updates are lock-protected: read-modify-write on a plain dict would
    lose increments under the concurrent scheduler's worker threads.
    """

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.values: Dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0, **labels) -> None:
        self._add(_label_key(labels), amount)

    def _add(self, key: LabelKey, amount: float = 1.0) -> None:
        """:meth:`inc` for a label set already normalized by the caller."""
        with self._lock:
            self.values[key] = self.values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self.values.get(_label_key(labels), 0.0)

    @property
    def total(self) -> float:
        """Sum over every label set."""
        return sum(self.values.values())

    def samples(self) -> Iterable[Tuple[str, float]]:
        for key in sorted(self.values):
            yield self.name + _format_labels(key), self.values[key]


class Gauge(Counter):
    """A value that can go up and down (breaker states, cache sizes)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self.values[_label_key(labels)] = float(value)


class Histogram:
    """Cumulative-bucket histogram, Prometheus-style.

    ``counts[key]`` has one slot per finite bucket bound **plus a final
    +Inf overflow slot** — an observation above every finite bound lands
    only there.  The +Inf slot is cumulative like the others, so it
    always equals ``totals[key]``; keeping it explicit means the bucket
    vector alone carries the full distribution (earlier versions derived
    +Inf from ``totals`` at export time, and over-max observations
    silently vanished from ``counts``).  An observation increments the
    one per-bucket tally ``bisect`` finds; ``counts`` accumulates the
    tallies when read.

    Each label set also feeds a streaming :class:`QuantileSketch` of
    the ``quantiles`` the histogram tracks (p50/p95/p99 by default),
    readable via :meth:`quantile` / :meth:`quantiles` and preserved
    through the JSONL round-trip.  ``quantiles=()`` tracks none: each
    observation then costs a bucket search and three additions instead
    of three P² updates.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Tuple[float, ...] = SIZE_BUCKETS,
                 quantiles: Tuple[float, ...] = DEFAULT_QUANTILES):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self.tracked = tuple(float(q) for q in quantiles)
        self._tallies: Dict[LabelKey, List[int]] = {}
        self.sums: Dict[LabelKey, float] = {}
        self.totals: Dict[LabelKey, int] = {}
        self.sketches: Dict[LabelKey, QuantileSketch] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, **labels) -> None:
        self._add(_label_key(labels), value)

    def _add(self, key: LabelKey, value: float) -> None:
        """:meth:`observe` for a label set already normalized by the
        caller."""
        with self._lock:
            tally = self._tallies.get(key)
            if tally is None:
                tally = self._tallies[key] = [0] * (len(self.buckets) + 1)
                self.sums[key] = 0.0
                self.totals[key] = 0
                self.sketches[key] = QuantileSketch(self.tracked)
            # The first bound >= value; past every bound, the +Inf slot.
            tally[bisect_left(self.buckets, value)] += 1
            self.sums[key] += value
            self.totals[key] += 1
            if self.tracked:
                self.sketches[key].observe(value)

    @property
    def counts(self) -> Dict[LabelKey, List[int]]:
        """The cumulative bucket counts of every label set."""
        with self._lock:
            return {key: list(accumulate(tally))
                    for key, tally in self._tallies.items()}

    def count(self, **labels) -> int:
        return self.totals.get(_label_key(labels), 0)

    def sum(self, **labels) -> float:
        return self.sums.get(_label_key(labels), 0.0)

    def quantile(self, q: float, **labels) -> Optional[float]:
        """The streaming estimate of quantile ``q`` for one label set."""
        sketch = self.sketches.get(_label_key(labels))
        if sketch is None:
            return None
        return sketch.quantile(q)

    def quantiles(self, **labels) -> Dict[float, Optional[float]]:
        """All tracked quantile estimates for one label set."""
        sketch = self.sketches.get(_label_key(labels))
        if sketch is None:
            return {q: None for q in self.tracked}
        return sketch.quantiles()

    def samples(self) -> Iterable[Tuple[str, float]]:
        counts = self.counts
        for key in sorted(counts):
            cumulative = counts[key]
            for bound, count in zip(self.buckets, cumulative):
                yield (
                    self.name + "_bucket"
                    + _format_labels(key, (("le", _format_value(bound)),)),
                    float(count),
                )
            yield (
                self.name + "_bucket" + _format_labels(key, (("le", "+Inf"),)),
                float(cumulative[-1]),
            )
            yield self.name + "_sum" + _format_labels(key), self.sums[key]
            yield self.name + "_count" + _format_labels(key), float(
                self.totals[key]
            )


class MetricsRegistry:
    """Named metrics with Prometheus / JSONL / human exports."""

    enabled = True

    def __init__(self):
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    # -- creation (memoized by name, safe to race) -------------------------

    def _get(self, name: str, factory, kind: str):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
            elif metric.kind != kind:
                raise ValueError(
                    "metric %r already registered as a %s" % (name, metric.kind)
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, lambda: Counter(name, help), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, lambda: Gauge(name, help), "gauge")

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Tuple[float, ...]] = None,
                  quantiles: Tuple[float, ...] = DEFAULT_QUANTILES,
                  ) -> Histogram:
        """The histogram ``name``; ``buckets`` and ``quantiles`` apply
        only when this call creates it."""
        return self._get(
            name,
            lambda: Histogram(name, help, buckets or SIZE_BUCKETS, quantiles),
            "histogram",
        )

    def get(self, name: str):
        """Look a metric up without creating it."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    # -- the tracer bridge -------------------------------------------------

    def span_observer(self) -> Callable:
        """A profiling hook feeding span durations into this registry.

        Installed on a :class:`repro.obs.trace.Tracer` it maintains
        ``repro_spans_total{name=...}`` and the
        ``repro_span_seconds{name=...}`` latency histogram — which is
        where rewrite latency, invocation latency and validation timing
        come from.

        It runs once per finished span, so it is kept cheap: each span
        name's label key is built once, and ``repro_span_seconds``
        tracks no quantiles.  Nothing reads them: the Prometheus text
        carries buckets, sum and count, and :meth:`summary` hides the
        quantiles of a histogram with more than one series.
        """
        spans = self.counter("repro_spans_total", "Finished spans by name")
        seconds = self.histogram(
            "repro_span_seconds", "Span wall time by name", TIME_BUCKETS,
            quantiles=(),
        )
        keys: Dict[str, LabelKey] = {}

        def observe(span) -> None:
            key = keys.get(span.name)
            if key is None:
                key = keys.setdefault(span.name,
                                      _label_key({"name": span.name}))
            spans._add(key)
            duration = span.duration
            if duration is not None:
                seconds._add(key, duration)

        return observe

    # -- export ------------------------------------------------------------

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append("# HELP %s %s" % (name, metric.help))
            lines.append("# TYPE %s %s" % (name, metric.kind))
            for sample, value in metric.samples():
                lines.append("%s %s" % (sample, _format_value(value)))
        return "\n".join(lines) + ("\n" if lines else "")

    def to_jsonl(self) -> str:
        """One JSON object per (metric, label set); see :meth:`from_jsonl`."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                counts = metric.counts
                for key in sorted(counts):
                    lines.append(json.dumps({
                        "name": name, "type": metric.kind,
                        "help": metric.help, "labels": dict(key),
                        "buckets": list(metric.buckets),
                        "counts": counts[key],
                        "sum": metric.sums[key], "count": metric.totals[key],
                        "sketch": metric.sketches[key].to_dict(),
                    }, sort_keys=True))
            else:
                for key in sorted(metric.values):
                    lines.append(json.dumps({
                        "name": name, "type": metric.kind,
                        "help": metric.help, "labels": dict(key),
                        "value": metric.values[key],
                    }, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_jsonl` output (round-trip)."""
        registry = cls()
        for line in text.splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            name, labels = record["name"], record["labels"]
            if record["type"] == "histogram":
                # Every series of a histogram tracks the same quantiles,
                # so its sketch also restores the histogram's set.
                sketch = (QuantileSketch.from_dict(record["sketch"])
                          if "sketch" in record else QuantileSketch())
                histogram = registry.histogram(
                    name, record.get("help", ""),
                    tuple(record["buckets"]), quantiles=sketch.tracked,
                )
                key = _label_key(labels)
                counts = list(record["counts"])
                if len(counts) == len(histogram.buckets):
                    # Legacy record without the explicit +Inf slot: the
                    # overflow bucket is cumulative, i.e. the total count.
                    counts.append(int(record["count"]))
                histogram._tallies[key] = [
                    now - before for before, now in zip([0] + counts, counts)
                ]
                histogram.sums[key] = record["sum"]
                histogram.totals[key] = record["count"]
                histogram.sketches[key] = sketch
            elif record["type"] == "gauge":
                registry.gauge(name, record.get("help", "")).set(
                    record["value"], **labels
                )
            else:
                registry.counter(name, record.get("help", "")).inc(
                    record["value"], **labels
                )
        return registry

    def summary(self) -> str:
        """A compact human rendering (totals, histogram count/mean)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                count = sum(metric.totals.values())
                total = sum(metric.sums.values())
                mean = total / count if count else 0.0
                line = (
                    "%s: count=%d sum=%s mean=%s"
                    % (name, count, _format_value(round(total, 6)),
                       _format_value(round(mean, 6)))
                )
                if len(metric.sketches) == 1:
                    # Quantiles cannot be aggregated across label sets,
                    # so only a single-series histogram shows them.
                    (sketch,) = metric.sketches.values()
                    estimates = sketch.quantiles()
                    if all(v is not None for v in estimates.values()):
                        line += "".join(
                            " p%g=%s" % (q * 100, _format_value(round(v, 6)))
                            for q, v in estimates.items()
                        )
                lines.append(line)
            else:
                for key in sorted(metric.values):
                    label_text = _format_labels(key)
                    lines.append(
                        "%s%s: %s"
                        % (name, label_text,
                           _format_value(metric.values[key]))
                    )
        return "\n".join(lines)


class _NullMetric:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    kind = "null"

    def inc(self, _amount: float = 1.0, **_labels) -> None:
        pass

    def set(self, _value: float, **_labels) -> None:
        pass

    def observe(self, _value: float, **_labels) -> None:
        pass

    def value(self, **_labels) -> float:
        return 0.0

    def count(self, **_labels) -> int:
        return 0

    def sum(self, **_labels) -> float:  # noqa: A003 - mirrors Histogram
        return 0.0

    def quantile(self, _q: float, **_labels) -> None:
        return None

    def quantiles(self, **_labels) -> Dict[float, None]:
        return {q: None for q in DEFAULT_QUANTILES}


_NULL_METRIC = _NullMetric()


class NullMetricsRegistry:
    """The null-object default registry: records nothing."""

    enabled = False

    def counter(self, name: str = "", help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str = "", help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str = "", help: str = "",
                  buckets=None, quantiles=DEFAULT_QUANTILES) -> _NullMetric:
        return _NULL_METRIC

    def get(self, _name: str) -> None:
        return None

    def names(self) -> List[str]:
        return []

    def span_observer(self) -> Callable:
        return lambda _span: None

    def to_prometheus(self) -> str:
        return ""

    def to_jsonl(self) -> str:
        return ""

    def summary(self) -> str:
        return ""


NULL_METRICS = NullMetricsRegistry()


#: The single counter carrying every algorithmic work figure.  Work
#: counters are *deterministic* — worklist pops, fixpoint iterations,
#: table builds — so equal inputs produce byte-equal values regardless of
#: machine speed, which is what lets `repro bench` detect regressions
#: without trusting wall-clock.
WORK_METRIC = "repro_work_total"


def record_work(registry, stage: str, counters: Mapping[str, float],
                **labels) -> None:
    """Report a batch of algorithmic work counters for one stage.

    Emits ``repro_work_total{stage=..., counter=..., **labels}`` on
    *registry* — one increment per (stage, counter) pair, called once
    per solve/build rather than per inner-loop step so the disabled-obs
    overhead stays amortized.  No-op on the null registry.
    """
    if not registry.enabled:
        return
    work = registry.counter(
        WORK_METRIC, "Deterministic algorithmic work by stage and counter"
    )
    for counter_name, amount in counters.items():
        if amount:
            work.inc(float(amount), stage=stage, counter=counter_name,
                     **labels)


def work_snapshot(registry) -> Dict[str, float]:
    """Flatten ``repro_work_total`` into ``{label-string: value}``.

    The keys are the Prometheus-style sample names (sorted), the values
    plain floats — exactly what a ``BENCH_*.json`` work-counter snapshot
    stores and what the trajectory differ compares.
    """
    work = registry.get(WORK_METRIC)
    if work is None:
        return {}
    return {sample: value for sample, value in work.samples()}
