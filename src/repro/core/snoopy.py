"""The Snoopy system (Sections III–V).

Given a dataset and a target accuracy, Snoopy:

1. wraps every catalog transformation in a streamed arm (inference +
   incremental 1NN),
2. allocates the sample budget across arms with successive halving (with
   or without tangent early stopping), uniform allocation, or full
   evaluation,
3. converts each arm's 1NN error into the Cover–Hart lower bound and
   aggregates by taking the minimum,
4. emits the binary REALISTIC/UNREALISTIC signal plus the additional
   guidance of Section IV-C (convergence curves, gap to target, Eq. 10
   samples-to-target extrapolation), and
5. remembers its last run's pool order and arms, so that re-running
   after label cleaning is O(test) (Section V, Figure 13).

:meth:`Snoopy.run` keeps a run's pool order, arms, selection and
per-transform results as local values.  Each allocation round pulls its
arms through a :class:`repro.core.engine.RoundScheduler`.  The system's
:class:`repro.transforms.store.EmbeddingStore`, owned or shared, serves
every embedding, so a second run over the same catalog and data
recomputes no transform output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.bandit.arms import TransformationArm, build_arms
from repro.bandit.successive_halving import SelectionResult, successive_halving
from repro.bandit.uniform import uniform_allocation
from repro.core.aggregation import aggregate_min
from repro.core.engine import RoundScheduler
from repro.core.guidance import ExtrapolationResult, extrapolate_samples_needed
from repro.core.incremental import IncrementalState
from repro.core.result import (
    ConvergenceCurve,
    FeasibilityReport,
    FeasibilitySignal,
    TransformResult,
)
from repro.estimators.base import BEREstimate
from repro.estimators.confidence import ber_estimate_interval
from repro.estimators.cover_hart import cover_hart_lower_bound
from repro.exceptions import ConvergenceError, DataValidationError
from repro.knn.kernels import DEFAULT_COMPUTE_DTYPE, resolve_dtype
from repro.rng import ensure_rng
from repro.transforms.store import DEFAULT_CACHE_BYTES, EmbeddingStore

STRATEGIES = (
    "successive_halving_tangent",
    "successive_halving",
    "uniform",
    "full",
    "perfect",
)


@dataclass
class SnoopyConfig:
    """Tunable behaviour of a Snoopy run.

    The sample budget of the budgeted strategies is
    ``num_train * ceil(log2(num_arms))``, so the winning arm can reach
    the full training pool.  After selection the winner is always fed
    the rest of the pool, and the report carries the Eq. 10
    samples-to-target extrapolation whenever the winner's curve allows
    one.

    Attributes
    ----------
    strategy:
        Allocation strategy; "successive_halving_tangent" is the paper's
        best-performing configuration and the default.
    pull_size:
        Samples per pull (the batch-size hyper-parameter of Section V);
        ``None`` uses 5% of the training pool.
    metric:
        Distance metric for the 1NN evaluators; "auto" selects cosine
        dissimilarity for text datasets and euclidean otherwise
        (following the paper's per-modality convention).  Every arm
        streams the exact 1NN error through
        :class:`~repro.knn.progressive.ProgressiveOneNN`.
    perfect_arm_name:
        Required when ``strategy == "perfect"``: build and evaluate only
        this arm (the oracle lower-bound strategy of Figure 12).  A name
        not in the catalog raises before any transform is fitted or
        run.
    seed:
        Seed of the training-pool permutation that every arm reads its
        pulls from; ``None`` draws fresh entropy.
    embedding_cache_bytes:
        Byte budget of the shared :class:`EmbeddingStore`'s hot
        (in-memory) tier (default 256 MiB).  ``0`` or ``None`` disables
        embedding memoization.
    store_dir:
        Spill/persistence directory for the :class:`EmbeddingStore`.
        When set, every computed block is also written to a
        content-addressed, digest-verified file there, so an evicted
        block promotes back from disk instead of being recomputed
        (corpora larger than the hot budget stream through), and a
        later run — or another tenant — pointed at the same directory
        warm-starts with zero transform calls.  ``None`` (default)
        keeps the cache memory-only.
    store_spill_bytes:
        Byte budget of the spill tier (default 1 GiB); the
        least-recently-used block files are pruned beyond it.
    compute_dtype:
        Precision of every distance evaluation and of the cached
        embedding blocks: "float32" (default — single-precision BLAS,
        roughly twice the 1NN throughput and half the bytes per cached
        embedding) or "float64" (strict mode, bit-compatible with the
        historical pipeline; choose it when downstream analysis
        compares errors at 1e-7 resolution or the embeddings span
        extreme dynamic ranges).  Results are deterministic for either
        choice; the two modes agree on 1NN errors up to distance ties
        within float32 resolution.
    """

    strategy: str = "successive_halving_tangent"
    pull_size: int | None = None
    metric: str = "auto"
    perfect_arm_name: str | None = None
    seed: int | None = 0
    embedding_cache_bytes: int | None = DEFAULT_CACHE_BYTES
    store_dir: str | None = None
    store_spill_bytes: int | None = None
    compute_dtype: str = DEFAULT_COMPUTE_DTYPE

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise DataValidationError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        if self.strategy == "perfect" and not self.perfect_arm_name:
            raise DataValidationError(
                "strategy 'perfect' requires perfect_arm_name"
            )
        if self.pull_size is not None and self.pull_size < 1:
            raise DataValidationError(
                f"pull_size must be positive, got {self.pull_size}"
            )
        if (
            self.embedding_cache_bytes is not None
            and self.embedding_cache_bytes < 0
        ):
            raise DataValidationError(
                "embedding_cache_bytes must be non-negative, "
                f"got {self.embedding_cache_bytes}"
            )
        if self.store_spill_bytes is not None and self.store_spill_bytes < 1:
            raise DataValidationError(
                "store_spill_bytes must be positive, "
                f"got {self.store_spill_bytes}"
            )
        if self.store_dir is not None and not self.embedding_cache_bytes:
            raise DataValidationError(
                "store_dir requires embedding memoization; "
                "set embedding_cache_bytes > 0"
            )
        resolve_dtype(self.compute_dtype)  # fail fast on an unknown dtype


class Snoopy:
    """The feasibility-study system.

    Parameters
    ----------
    catalog:
        Iterable of :class:`FeatureTransform` (e.g. a
        :class:`repro.transforms.FittedCatalog`); fitted lazily on the
        training split if needed.
    config:
        A :class:`SnoopyConfig`; defaults are the paper's configuration.
    store:
        Optional externally shared :class:`EmbeddingStore`.  When
        omitted, the system owns one sized by
        ``config.embedding_cache_bytes`` and keeps it across ``run``
        calls, so successive strategy runs over the same catalog and
        data re-embed nothing.
    """

    def __init__(
        self,
        catalog,
        config: SnoopyConfig | None = None,
        store: EmbeddingStore | None = None,
    ):
        self.catalog = list(catalog)
        if not self.catalog:
            raise DataValidationError("catalog must contain at least one transform")
        self.config = config or SnoopyConfig()
        self._owns_store = False
        if store is not None:
            self.store: EmbeddingStore | None = store
        elif self.config.embedding_cache_bytes:
            self.store = EmbeddingStore(
                self.config.embedding_cache_bytes,
                dtype=self.config.compute_dtype,
                store_dir=self.config.store_dir,
                spill_bytes=self.config.store_spill_bytes,
            )
            self._owns_store = True
        else:
            self.store = None
        # (dataset, pool order, arms) of the last run, for incremental_state.
        self._last_run: tuple | None = None

    def close(self) -> None:
        """Drop the owned store's hot tier; idempotent.

        Externally supplied stores are left alone — their owner decides
        when to drop them.
        """
        if self.store is not None and self._owns_store:
            self.store.close()

    def __enter__(self) -> "Snoopy":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, dataset, target_accuracy: float) -> FeasibilityReport:
        """Perform the feasibility study and return the full report."""
        if not 0.0 < target_accuracy <= 1.0:
            raise DataValidationError(
                f"target_accuracy must be in (0, 1], got {target_accuracy}"
            )
        started = time.perf_counter()
        config = self.config
        transforms = self.catalog
        if config.strategy == "perfect":
            # The oracle evaluates one known transform: build only its arm.
            transforms = [
                t for t in self.catalog if t.name == config.perfect_arm_name
            ][:1]
            if not transforms:
                raise DataValidationError(
                    f"perfect_arm_name {config.perfect_arm_name!r} not in catalog"
                )
        order = ensure_rng(config.seed).permutation(dataset.num_train)
        arms = build_arms(
            transforms,
            dataset,
            order,
            metric=self._resolve_metric(dataset),
            store=self.store,
            dtype=config.compute_dtype,
        )
        selection = self._allocate(arms, dataset.num_train)
        results = [
            _arm_result(arm, dataset.num_classes, dataset.num_test)
            for arm in arms
            if arm.losses
        ]
        per_transform = [result for result, _ in results]
        curves = {curve.transform_name: curve for _, curve in results}
        best_name, best = aggregate_min(
            {r.transform_name: r.estimate for r in per_transform}
        )
        target_error = 1.0 - target_accuracy
        # The signal is "confident" when the same decision holds at both
        # ends of the winning estimate's Wilson band (Section IV-C's
        # trust theme, quantified).
        low = best.details["confidence_low"]
        high = best.details["confidence_high"]
        signal_confident = (low <= target_error) == (high <= target_error)
        self._last_run = (dataset, order, arms)
        return FeasibilityReport(
            dataset_name=dataset.name,
            target_accuracy=target_accuracy,
            signal=(
                FeasibilitySignal.REALISTIC
                if best.value <= target_error
                else FeasibilitySignal.UNREALISTIC
            ),
            ber_estimate=best.value,
            best_transform=best_name,
            gap=target_error - best.value,
            per_transform=per_transform,
            curves=curves,
            extrapolation=_extrapolate(curves[best_name], target_error),
            strategy=selection.strategy,
            total_sim_cost_seconds=sum(arm.sim_cost for arm in arms),
            wall_seconds=time.perf_counter() - started,
            signal_confident=bool(signal_confident),
        )

    def incremental_state(self) -> IncrementalState:
        """Label-cleaning state of the last run, for real-time re-runs.

        Each pulled arm's nearest-neighbour indices are translated back
        to *original* training-set positions, so cleaning indices from
        the dataset space apply directly.  Every call returns an
        independent state with its own copy of the dataset's labels.
        """
        if self._last_run is None:
            raise DataValidationError("no completed run; call run() first")
        dataset, order, arms = self._last_run
        return IncrementalState(
            {
                arm.name: order[arm.evaluator.nearest_indices]
                for arm in arms
                if arm.losses
            },
            dataset.train_y,
            dataset.test_y,
            dataset.num_classes,
        )

    def _resolve_metric(self, dataset) -> str:
        if self.config.metric != "auto":
            return self.config.metric
        return "cosine" if dataset.modality == "text" else "euclidean"

    def _allocate(
        self, arms: list[TransformationArm], num_train: int
    ) -> SelectionResult:
        """Spend the sample budget across ``arms``, then exhaust the winner."""
        config = self.config
        pull_size = (
            max(16, num_train // 20)
            if config.pull_size is None
            else config.pull_size
        )
        rounds = max(1, int(np.ceil(np.log2(len(arms)))))
        budget = num_train * rounds
        if config.strategy == "full":
            RoundScheduler().exhaust(arms, pull_size)
            selection = SelectionResult(
                winner=min(arms, key=lambda arm: arm.current_loss),
                strategy="full",
                total_samples=sum(arm.samples_used for arm in arms),
                samples_per_arm={arm.name: arm.samples_used for arm in arms},
            )
        elif config.strategy == "perfect":
            # run() built the one arm the oracle names.
            (winner,) = arms
            winner.exhaust(pull_size)
            selection = SelectionResult(
                winner=winner,
                strategy="perfect",
                total_samples=winner.samples_used,
                samples_per_arm={winner.name: winner.samples_used},
            )
        elif config.strategy == "uniform":
            selection = uniform_allocation(arms, budget, pull_size=pull_size)
        else:
            selection = successive_halving(
                arms,
                budget,
                pull_size=pull_size,
                use_tangent=config.strategy == "successive_halving_tangent",
            )
        if not selection.winner.exhausted:
            selection.winner.exhaust()
        return selection


def _arm_result(
    arm: TransformationArm, num_classes: int, num_test: int
) -> tuple[TransformResult, ConvergenceCurve]:
    """A pulled arm's Cover–Hart estimate and its convergence curve."""
    error = arm.current_loss
    lower = cover_hart_lower_bound(error, num_classes)
    interval = ber_estimate_interval(error, num_test, num_classes)
    estimate = BEREstimate(
        value=lower,
        lower=lower,
        upper=error,
        details={
            "one_nn_error": error,
            "samples": arm.samples_used,
            "confidence_low": interval.low,
            "confidence_high": interval.high,
        },
    )
    result = TransformResult(
        transform_name=arm.name,
        samples_used=arm.samples_used,
        one_nn_error=error,
        estimate=estimate,
        sim_cost_seconds=arm.sim_cost,
    )
    sizes, errors = arm.loss_curve()
    curve_estimates = np.array(
        [cover_hart_lower_bound(e, num_classes) for e in errors]
    )
    return result, ConvergenceCurve(arm.name, sizes, errors, curve_estimates)


def _extrapolate(
    curve: ConvergenceCurve, target_error: float
) -> ExtrapolationResult | None:
    if not 0.0 < target_error < 1.0:
        return None
    try:
        return extrapolate_samples_needed(
            curve.transform_name, curve.sizes, curve.errors, target_error
        )
    except ConvergenceError:
        return None
