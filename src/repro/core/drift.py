"""Drift-aware BER estimation over data streams (paper: Future Extension).

The paper sketches, as future work, a feasibility study for stream-based
settings: estimate the BER over a sliding window of recent data and
detect *distributional drift on the level of the task itself* — i.e. a
change in achievable accuracy — independent of any trained model.

This module implements that sketch:

- :class:`SlidingWindowBER` maintains a window of (embedded feature,
  label) pairs and produces a Cover–Hart BER estimate of the recent
  distribution on demand, splitting the window into train/eval halves.
- :class:`PageHinkleyDetector` is a classic sequential change detector
  run over the stream of window estimates; a sustained upward shift in
  the estimated BER (the task getting harder — e.g. a noisier labeling
  source coming online) raises a drift alarm.
- :class:`DriftAwareMonitor` wires the two together.

The window is deliberately small (the paper notes small windows are
required for the estimate to reflect the *current* distribution), which
makes individual estimates noisy — exactly why a sequential detector,
not per-window thresholding, is used.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.estimators.cover_hart import cover_hart_lower_bound
from repro.exceptions import DataValidationError
from repro.knn.brute_force import BruteForceKNN


class SlidingWindowBER:
    """Cover–Hart BER estimate over the most recent window of a stream.

    Parameters
    ----------
    num_classes:
        ``C`` of the task.
    window_size:
        Number of most-recent samples retained.
    metric:
        Distance metric for the exact 1NN evaluation
        (:class:`~repro.knn.brute_force.BruteForceKNN`).
    eval_fraction:
        Fraction of the window held out as the evaluation split (the
        most recent samples, so the estimate reflects "now").
    compute_dtype:
        Compute precision for the 1NN evaluation ("float32"/"float64";
        ``None`` keeps the strict float64 path).  A monitor re-estimates
        on a hot loop, so the float32 path is the natural choice when
        the stream is high-volume.
    """

    def __init__(
        self,
        num_classes: int,
        window_size: int = 512,
        metric: str = "euclidean",
        eval_fraction: float = 0.25,
        compute_dtype=None,
    ):
        if num_classes < 2:
            raise DataValidationError("num_classes must be >= 2")
        if window_size < 8:
            raise DataValidationError("window_size must be >= 8")
        if not 0.0 < eval_fraction < 1.0:
            raise DataValidationError("eval_fraction must be in (0, 1)")
        self.num_classes = num_classes
        self.window_size = window_size
        self.metric = metric
        self.eval_fraction = eval_fraction
        self.compute_dtype = compute_dtype
        self._features: deque[np.ndarray] = deque(maxlen=window_size)
        self._labels: deque[int] = deque(maxlen=window_size)
        self._seen = 0

    @property
    def current_size(self) -> int:
        return len(self._labels)

    @property
    def total_seen(self) -> int:
        return self._seen

    @property
    def ready(self) -> bool:
        """True once the window holds enough samples for a split."""
        return self.current_size >= max(16, self.window_size // 4)

    def observe(self, features: np.ndarray, labels: np.ndarray) -> None:
        """Append a batch of stream samples (oldest entries fall out)."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
        if len(features) != len(labels):
            raise DataValidationError("features and labels length mismatch")
        if len(labels) and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise DataValidationError("label out of range")
        for row, label in zip(features, labels):
            self._features.append(row)
            self._labels.append(int(label))
        self._seen += len(labels)

    def estimate(self) -> float:
        """Cover–Hart BER estimate of the current window distribution.

        The oldest (1 - eval_fraction) of the window acts as the training
        split, the newest part as the evaluation split.
        """
        if not self.ready:
            raise DataValidationError(
                f"window holds {self.current_size} samples; "
                "need more before estimating"
            )
        features = np.stack(list(self._features))
        labels = np.array(self._labels)
        cut = int(len(labels) * (1.0 - self.eval_fraction))
        cut = min(max(cut, 2), len(labels) - 2)
        index = BruteForceKNN(
            metric=self.metric, dtype=self.compute_dtype
        ).fit(features[:cut], labels[:cut])
        error = index.error(features[cut:], labels[cut:], k=1)
        return cover_hart_lower_bound(error, self.num_classes)


class PageHinkleyDetector:
    """Page–Hinkley test for a sustained upward shift in a value stream.

    Standard formulation: track the cumulative deviation of observations
    from their running mean minus a drift allowance ``delta``; alarm when
    the deviation exceeds ``threshold`` above its running minimum.
    """

    def __init__(self, delta: float = 0.005, threshold: float = 0.1):
        if threshold <= 0:
            raise DataValidationError("threshold must be positive")
        self.delta = delta
        self.threshold = threshold
        self.reset()

    def reset(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._cumulative = 0.0
        self._minimum = 0.0

    @property
    def statistic(self) -> float:
        """Current test statistic (cumulative - running minimum)."""
        return self._cumulative - self._minimum

    def update(self, value: float) -> bool:
        """Feed one observation; returns True when drift is detected."""
        self._count += 1
        self._mean += (value - self._mean) / self._count
        self._cumulative += value - self._mean - self.delta
        self._minimum = min(self._minimum, self._cumulative)
        return self.statistic > self.threshold


@dataclass
class DriftEvent:
    """A raised drift alarm."""

    at_sample: int
    ber_estimate: float
    statistic: float


@dataclass
class DriftAwareMonitor:
    """Streamed feasibility monitor: windowed BER estimates + detector.

    Feed the stream through :meth:`observe`; every ``check_every``
    samples a fresh window estimate is produced and pushed through the
    Page–Hinkley detector.  A drift alarm means the *task* got harder —
    the signal the paper proposes for model-independent drift detection.
    """

    window: SlidingWindowBER
    detector: PageHinkleyDetector
    check_every: int = 128
    estimates: list[tuple[int, float]] = field(default_factory=list)
    events: list[DriftEvent] = field(default_factory=list)
    _since_check: int = 0

    def observe(self, features: np.ndarray, labels: np.ndarray) -> list[DriftEvent]:
        """Ingest a batch; returns any drift events raised by it.

        Large batches are split internally so that a check runs after
        every ``check_every`` stream samples — the monitor behaves the
        same whether the stream arrives sample-by-sample or in bulk.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
        new_events: list[DriftEvent] = []
        cursor = 0
        while cursor < len(labels):
            take = min(
                self.check_every - self._since_check, len(labels) - cursor
            )
            self.window.observe(
                features[cursor : cursor + take],
                labels[cursor : cursor + take],
            )
            cursor += take
            self._since_check += take
            if self._since_check < self.check_every:
                break
            self._since_check = 0
            if not self.window.ready:
                continue
            estimate = self.window.estimate()
            self.estimates.append((self.window.total_seen, estimate))
            if self.detector.update(estimate):
                event = DriftEvent(
                    at_sample=self.window.total_seen,
                    ber_estimate=estimate,
                    statistic=self.detector.statistic,
                )
                self.events.append(event)
                new_events.append(event)
                self.detector.reset()
        return new_events
