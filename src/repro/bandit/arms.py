"""Transformation arms: streamed inference + incremental 1NN per embedding.

An arm owns one feature transformation and a :class:`ProgressiveOneNN`
evaluator bound to the transformed test set.  Pulling the arm embeds the
next chunk of training samples (accruing simulated inference cost) and
updates the exact 1NN test error.  Losses are the 1NN errors — lower is
better — exactly the quantity successive halving ranks on.

Arms are the unit of work of an allocation round: the multi-pull plans
(:meth:`TransformationArm.pull_to`,
:meth:`TransformationArm.pull_with_tangent`,
:meth:`TransformationArm.exhaust`) touch only the arm's own state and
draw no randomness, so the order in which a round pulls its arms does
not change their losses.
"""

from __future__ import annotations

import numpy as np

from repro.bandit.tangent import tangent_lower_bound
from repro.exceptions import BudgetError, DataValidationError
from repro.knn.progressive import ProgressiveOneNN
from repro.transforms.base import FeatureTransform, fit_on
from repro.transforms.store import EmbeddingStore, check_order, take_rows


class TransformationArm:
    """One bandit arm wrapping a transformation and its 1NN evaluator.

    Parameters
    ----------
    transform:
        A *fitted* :class:`FeatureTransform`.
    train_x, train_y:
        The training split this arm's pool is drawn from.  The arm
        keeps references, not copies, and only reads them.
    test_x, test_y:
        Test split; embedded once, up front.  Through a ``store`` of
        the arm's ``dtype`` the evaluator binds the read-only array the
        store returns instead of copying it; on a cold store that array
        is a view of the run the hot tier holds, so the arm and the
        store share one copy of the embedded test set.
    metric:
        Distance metric for the exact 1NN evaluator.
    store:
        Optional shared :class:`EmbeddingStore`; when given, the test set
        and every chunk are embedded through it, so a sibling run (another
        strategy on the same data) recomputes no transform output.
    dtype:
        Compute dtype for the 1NN distance arithmetic
        ("float32"/"float64"; ``None`` keeps the strict float64 path).
        Pair a float32 arm with a float32 store so cached chunks feed
        the evaluator without a widening round-trip.
    order:
        Optional 1-D integer array: pool row ``i`` is
        ``(train_x[order[i]], train_y[order[i]])``.  Each pull gathers
        only its own rows (through the store, one block at a time), so
        a permuted pool is never materialized.  ``None`` consumes the
        split in its own order.

    Pulls draw no randomness: an arm's losses depend only on its pool
    order and its own state.
    """

    def __init__(
        self,
        transform: FeatureTransform,
        train_x: np.ndarray,
        train_y: np.ndarray,
        test_x: np.ndarray,
        test_y: np.ndarray,
        metric: str = "euclidean",
        store: EmbeddingStore | None = None,
        dtype=None,
        order: np.ndarray | None = None,
    ):
        if not transform.fitted:
            raise DataValidationError(
                f"arm {transform.name!r}: transform must be fitted"
            )
        self.transform = transform
        self.store = store
        self.dtype = dtype
        self._train_x = np.asarray(train_x, dtype=np.float64)
        self._train_y = np.asarray(train_y, dtype=np.int64)
        if len(self._train_y) != len(self._train_x):
            raise DataValidationError(
                f"train_x and train_y length mismatch: "
                f"{len(self._train_x)} vs {len(self._train_y)}"
            )
        self._order = None
        self._pool_size = len(self._train_x)
        if order is not None:
            self._order = check_order(order, len(self._train_x))
            self._pool_size = len(self._order)
        if self._pool_size == 0:
            raise DataValidationError("arm needs a non-empty training pool")
        test_x = np.asarray(test_x, dtype=np.float64)
        embedded_test = (
            transform.transform(test_x)
            if store is None
            else store.embed(transform, test_x)
        )
        self.evaluator = ProgressiveOneNN(
            embedded_test, test_y, metric=metric, dtype=dtype
        )
        self.sim_cost = transform.inference_cost(len(test_y))
        self.losses: list[float] = []
        self.pull_sizes: list[int] = []

    @property
    def name(self) -> str:
        return self.transform.name

    @property
    def samples_used(self) -> int:
        return self.evaluator.train_seen

    @property
    def exhausted(self) -> bool:
        return self.samples_used >= self._pool_size

    @property
    def current_loss(self) -> float:
        """Latest 1NN error; infinity before the first pull."""
        return self.losses[-1] if self.losses else np.inf

    def pull(self, num_samples: int) -> float:
        """Embed and ingest up to ``num_samples`` further training points.

        Returns the updated 1NN error.  Pulling an exhausted arm re-reports
        the current loss without cost, so allocation loops need no special
        casing near the end of the pool.
        """
        if num_samples < 0:
            raise BudgetError(f"num_samples must be >= 0, got {num_samples}")
        start = self.samples_used
        stop = min(start + num_samples, self._pool_size)
        if stop > start:
            chunk_x = self._embed_chunk(start, stop)
            loss = self.evaluator.partial_fit(
                chunk_x, take_rows(self._train_y, self._order, start, stop)
            )
            self.sim_cost += self.transform.inference_cost(stop - start)
        else:
            loss = self.current_loss
        self.losses.append(loss)
        self.pull_sizes.append(stop - start)
        return loss

    def pull_to(self, target: int, pull_size: int) -> float:
        """Pull chunk-wise until ``target`` cumulative samples are consumed.

        Guarantees at least one loss reading exists once the target is
        met (appending a zero-cost reading if needed), then returns the
        current loss.  Self-contained: reads and writes only this arm's
        state.
        """
        while self.samples_used < target and not self.exhausted:
            self.pull(min(pull_size, target - self.samples_used))
        if self.samples_used >= target and (
            not self.losses or self.pull_sizes[-1] == 0
        ):
            self.pull(0)
        return self.current_loss

    def pull_with_tangent(
        self, target: int, pull_size: int, threshold: float
    ) -> bool:
        """Algorithm 2: pull chunk-wise, stop when provably eliminated.

        After every chunk the tangent lower bound of the convergence
        curve at ``target`` is compared against ``threshold`` (the worst
        current loss of the round's protected better half); exceeding it
        proves the arm cannot survive the round.  Returns True if the
        arm completed the round (still a contender), False if pruned.
        """
        if not self.losses:
            self.pull(min(pull_size, target))
        while self.samples_used < target and not self.exhausted:
            sizes, losses = self.loss_curve()
            prediction = tangent_lower_bound(sizes, losses, target)
            if prediction > threshold:
                return False
            self.pull(min(pull_size, target - self.samples_used))
        return True

    def exhaust(self, pull_size: int = 512) -> float:
        """Feed the arm its entire remaining pool; returns the final loss."""
        while not self.exhausted:
            self.pull(pull_size)
        return self.current_loss

    def loss_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(cumulative sample counts, losses) for convergence plots."""
        return self.evaluator.curve_arrays()

    def _embed_chunk(self, start: int, stop: int) -> np.ndarray:
        if self.store is not None:
            return self.store.embed_rows(
                self.transform, self._train_x, start, stop, order=self._order
            )
        return self.transform.transform(
            take_rows(self._train_x, self._order, start, stop)
        )


def build_arms(
    transforms,
    dataset,
    order: np.ndarray,
    metric: str = "euclidean",
    store: EmbeddingStore | None = None,
    dtype=None,
) -> list[TransformationArm]:
    """Fit each unfitted transform on the permuted pool; wrap each in an arm.

    ``order`` permutes the training split once, and every arm reads the
    pool through it, so all arms see identical sample sequences —
    removing sampling noise from the arm comparison.  The arms share
    ``dataset.train_x``, ``dataset.train_y`` and ``order``; none holds a
    permuted copy.  The permuted pool is gathered only if a transform
    still needs fitting, once, and dropped before the arms are built.
    """
    transforms = list(transforms)
    pool = None
    for transform in transforms:
        if not transform.fitted:
            if pool is None:
                pool = (dataset.train_x[order], dataset.train_y[order])
            fit_on(transform, *pool)
    del pool
    return [
        TransformationArm(
            transform,
            dataset.train_x,
            dataset.train_y,
            dataset.test_x,
            dataset.test_y,
            metric=metric,
            store=store,
            dtype=dtype,
            order=order,
        )
        for transform in transforms
    ]
