"""Streaming quantile estimation: the P² algorithm (Jain & Chlamtac).

The gateway's admission control needs p50/p95/p99 latency, and the
metrics registry must stay zero-dependency, bounded and deterministic —
which rules out keeping every observation.  The P² ("piecewise
parabolic") estimator maintains **five markers** per tracked quantile:
the minimum, the maximum, the quantile itself, and the midpoints between
them.  Each observation shifts marker *positions* by one and then nudges
marker *heights* toward their desired positions with a parabolic
interpolation (falling back to linear when the parabola would leave the
bracketing heights).  Memory is O(1), update cost is a handful of float
operations, and — crucially for the trajectory runner — the estimate is
a pure function of the observation *sequence*: same stream, same
estimate, byte for byte.

Accuracy: for the first five observations the estimate is *exact* (the
buffer is sorted); afterwards the classic P² error bounds apply —
typically well under a percentile of drift on unimodal data
(``tests/test_obs_quantile.py`` checks against sorted-sample ground
truth on seeded uniform, exponential and lognormal streams).

:class:`QuantileSketch` bundles one :class:`P2Quantile` per tracked
quantile behind a single ``observe`` and serializes losslessly
(:meth:`QuantileSketch.to_dict` / :meth:`from_dict`), which is how
histogram sketches survive the metrics JSONL round-trip.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: What `MetricsRegistry` histograms track by default.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


def exact_quantile(ordered: Sequence[float], q: float) -> float:
    """The linearly interpolated quantile of an already *sorted* sample.

    This is the ground truth the sketch is judged against (and the exact
    answer returned while fewer than five observations have arrived).
    """
    if not ordered:
        raise ValueError("no observations")
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


class P2Quantile:
    """One streaming quantile estimate via the P² algorithm.

    Deterministic, O(1) memory, exact until five observations.
    """

    __slots__ = ("q", "count", "_initial", "_heights", "_positions",
                 "_desired", "_increments")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be strictly between 0 and 1")
        self.q = float(q)
        self.count = 0
        self._initial: List[float] = []  # first five observations, sorted
        self._heights: List[float] = []
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._increments: Tuple[float, ...] = (
            0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0
        )

    # -- updates -----------------------------------------------------------

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        if self.count <= 5:
            self._initial.append(value)
            self._initial.sort()
            if self.count == 5:
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                q = self.q
                self._desired = [
                    1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0
                ]
            return

        heights, positions = self._heights, self._positions
        # 1. Find the cell the observation falls into (extending the
        #    extreme markers when it falls outside them).
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        # 2. Shift the positions above the cell, advance the desired ones.
        for index in range(cell + 1, 5):
            positions[index] += 1.0
        for index in range(5):
            self._desired[index] += self._increments[index]
        # 3. Nudge the three interior markers toward their desired spots.
        for index in (1, 2, 3):
            drift = self._desired[index] - positions[index]
            if (drift >= 1.0 and positions[index + 1] - positions[index] > 1.0) or (
                drift <= -1.0 and positions[index - 1] - positions[index] < -1.0
            ):
                step = 1.0 if drift >= 1.0 else -1.0
                candidate = self._parabolic(index, step)
                if not heights[index - 1] < candidate < heights[index + 1]:
                    candidate = self._linear(index, step)
                heights[index] = candidate
                positions[index] += step

    def _parabolic(self, index: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[index] + step / (n[index + 1] - n[index - 1]) * (
            (n[index] - n[index - 1] + step)
            * (h[index + 1] - h[index])
            / (n[index + 1] - n[index])
            + (n[index + 1] - n[index] - step)
            * (h[index] - h[index - 1])
            / (n[index] - n[index - 1])
        )

    def _linear(self, index: int, step: float) -> float:
        h, n = self._heights, self._positions
        other = index + int(step)
        return h[index] + step * (h[other] - h[index]) / (n[other] - n[index])

    # -- reads -------------------------------------------------------------

    def value(self) -> Optional[float]:
        """The current estimate; None before the first observation."""
        if self.count == 0:
            return None
        if self.count <= 5:
            return exact_quantile(self._initial, self.q)
        return self._heights[2]

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "count": self.count,
            "initial": list(self._initial),
            "heights": list(self._heights),
            "positions": list(self._positions),
            "desired": list(self._desired),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "P2Quantile":
        estimator = cls(record["q"])
        estimator.count = int(record["count"])
        estimator._initial = [float(v) for v in record["initial"]]
        estimator._heights = [float(v) for v in record["heights"]]
        estimator._positions = [float(v) for v in record["positions"]]
        estimator._desired = [float(v) for v in record["desired"]]
        return estimator


class QuantileSketch:
    """A bundle of P² estimators sharing one observation stream."""

    __slots__ = ("_estimators",)

    def __init__(self, quantiles: Sequence[float] = DEFAULT_QUANTILES):
        self._estimators = {float(q): P2Quantile(q) for q in quantiles}

    @property
    def count(self) -> int:
        for estimator in self._estimators.values():
            return estimator.count
        return 0

    @property
    def tracked(self) -> Tuple[float, ...]:
        return tuple(self._estimators)

    def observe(self, value: float) -> None:
        for estimator in self._estimators.values():
            estimator.observe(value)

    def quantile(self, q: float) -> Optional[float]:
        """The estimate for one tracked quantile (KeyError otherwise)."""
        return self.quantiles()[float(q)]

    def quantiles(self) -> Dict[float, Optional[float]]:
        """Every tracked quantile's current estimate, sorted by q.

        Each P² estimator runs on its own, so on a nearly sorted stream a
        higher quantile's estimate can fall below a lower one's.  Each
        estimate is clamped to at least the one below it: the reported
        estimates never decrease as q increases.
        """
        estimates: Dict[float, Optional[float]] = {}
        floor = None
        for q in sorted(self._estimators):
            value = self._estimators[q].value()
            if value is not None:
                floor = value if floor is None else max(floor, value)
                value = floor
            estimates[q] = value
        return estimates

    def to_dict(self) -> dict:
        return {
            "quantiles": [
                self._estimators[q].to_dict() for q in sorted(self._estimators)
            ]
        }

    @classmethod
    def from_dict(cls, record: dict) -> "QuantileSketch":
        sketch = cls(quantiles=())
        for entry in record.get("quantiles", ()):
            estimator = P2Quantile.from_dict(entry)
            sketch._estimators[estimator.q] = estimator
        return sketch
