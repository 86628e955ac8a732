"""The benchmark's workloads: inputs from a seed, one op, one check.

The workload seed is the only thing that changes inputs: it draws the
dataset, the noisy labels of each request and the estimator rng.  The
catalog identity and the study's own seed are program settings, fixed
across workload seeds.  Set-up computes one reference result per
request; every timed op is checked against it, and an op that raises or
differs counts as failed.

Ops call the package only through ``Snoopy.run`` and
``evaluate_estimator_over_noise`` (looked up on its module at call time,
so a traced run's module-level wrapper sees it).

Why these three workloads:

- ``study-cold`` is a user's first study on new data: every pulled row
  is embedded and scanned, so transforms and the euclidean
  ``nearest_among`` kernel carry the op, and the store only inserts.
- ``study-warm`` restarts on a spill dir that holds every embedding,
  with the hot tier capped below one study's working set: zero
  transform calls, so the store's read side (spill reads, digest checks,
  promotes, evictions) and the cosine kernel carry the op.
- ``feebee-zoo`` runs the estimator zoo the way ``repro feebee`` does:
  float64 ``topk`` and leave-one-out search through the brute-force
  index, with no bandit, no store and no streamed 1NN, so it bypasses
  every study-path change.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

import repro.datasets as datasets
from repro import Snoopy, SnoopyConfig
from repro.estimators import get_estimator
from repro.feebee import evaluation
from repro.noise.models import inject_uniform_noise
from repro.transforms import text_catalog, vision_catalog

#: Seed of the catalog's simulated embeddings and of ``SnoopyConfig``.
PROGRAM_SEED = 0

#: study-warm's hot tier: below one study's working set (~40 MB of
#: float32 embeddings at sst2 scale 0.25), so ops read through the spill.
WARM_HOT_BYTES = 8 * 2**20


class Mismatch(Exception):
    """An op's output differs from its request's reference."""


@dataclass(frozen=True)
class StudyRequest:
    rho: float
    target: float
    strategy: str = "successive_halving_tangent"


@dataclass(frozen=True)
class ZooRequest:
    estimator: str
    rho: float


@dataclass(frozen=True)
class StudyOutcome:
    report: object
    misses: int


def noisy_copy(dataset, rho: float, rng: np.random.Generator):
    """``dataset`` with uniform label noise at rate ``rho`` on both splits."""
    train = inject_uniform_noise(
        dataset.train_y, rho, dataset.num_classes, rng=rng
    )
    test = inject_uniform_noise(dataset.test_y, rho, dataset.num_classes, rng=rng)
    return dataset.with_noisy_labels(
        train.noisy_labels, test.noisy_labels, name_suffix=f"rho{rho:g}"
    )


def request_rng(seed: int, index: int) -> np.random.Generator:
    """The rng of request ``index``: fresh for every op, same every time."""
    return np.random.default_rng([seed, index])


def cold_config(request: StudyRequest) -> SnoopyConfig:
    """The request's study config, with the default memory-only store."""
    return SnoopyConfig(seed=PROGRAM_SEED, strategy=request.strategy)


def report_key(report) -> tuple:
    """Every field of a study report that must be bit-identical."""
    return (
        report.best_transform,
        report.ber_estimate,
        report.signal,
        tuple(
            (row.transform_name, row.samples_used, row.one_nn_error)
            for row in report.per_transform
        ),
    )


class Workload:
    """Base: ``setup`` once, then ``op``/``check`` per request index."""

    name = ""
    dataset_name = ""
    scale = 1.0
    requests: tuple = ()
    #: Every op must make zero transform calls (checked on traced ops).
    transform_free = False

    def __init__(self, seed: int, workdir: str, scale: float | None = None):
        self.seed = seed
        self.workdir = workdir
        if scale is not None:
            self.scale = scale
        self.references: list = []

    def setup(self) -> None:
        self.dataset = datasets.load(
            self.dataset_name, scale=self.scale, seed=self.seed
        )
        self._prepare()
        self.references = [
            self._reference(index) for index in range(len(self.requests))
        ]

    def _prepare(self) -> None:
        raise NotImplementedError

    def _reference(self, index: int):
        raise NotImplementedError

    def op(self, index: int):
        raise NotImplementedError

    def check(self, index: int, outcome) -> None:
        raise NotImplementedError

    def winner(self, outcome) -> str | None:
        """The op's best transform, if it has one."""
        return None

    def close(self) -> None:
        """Delete whatever set-up left on disk; idempotent."""


class StudyWorkload(Workload):
    """A fresh ``Snoopy`` per op runs one study of the request list."""

    def _prepare(self) -> None:
        self.catalog = self._catalog()
        self.catalog.fit(self.dataset.train_x)
        self.inputs = [
            noisy_copy(self.dataset, request.rho, request_rng(self.seed, index))
            for index, request in enumerate(self.requests)
        ]

    def _catalog(self):
        return vision_catalog(self.dataset, seed=PROGRAM_SEED)

    def _config(self, request: StudyRequest) -> SnoopyConfig:
        return cold_config(request)

    def _study(self, index: int, config: SnoopyConfig) -> StudyOutcome:
        with Snoopy(self.catalog, config) as system:
            report = system.run(self.inputs[index], self.requests[index].target)
        return StudyOutcome(report, system.store.stats.misses)

    def _reference(self, index: int):
        report = self._study(index, cold_config(self.requests[index])).report
        winner = next(
            row for row in report.per_transform
            if row.transform_name == report.best_transform
        )
        if not 0.0 <= report.ber_estimate <= winner.one_nn_error:
            raise Mismatch(
                f"reference estimate {report.ber_estimate} outside "
                f"[0, 1NN error {winner.one_nn_error}]"
            )
        return report

    def op(self, index: int) -> StudyOutcome:
        return self._study(index, self._config(self.requests[index]))

    def check(self, index: int, outcome: StudyOutcome) -> None:
        if report_key(outcome.report) != report_key(self.references[index]):
            raise Mismatch(
                f"request {index}: report differs from its reference "
                f"(best {outcome.report.best_transform!r}, "
                f"estimate {outcome.report.ber_estimate!r})"
            )

    def winner(self, outcome: StudyOutcome) -> str:
        return outcome.report.best_transform


class StudyCold(StudyWorkload):
    name = "study-cold"
    dataset_name = "cifar10"
    scale = 0.1
    requests = (
        StudyRequest(0.0, 0.95),
        StudyRequest(0.1, 0.9),
        StudyRequest(0.2, 0.8),
        StudyRequest(0.4, 0.6),
    )


class StudyWarm(StudyWorkload):
    name = "study-warm"
    dataset_name = "sst2"
    scale = 0.25
    requests = (
        StudyRequest(0.0, 0.95, "successive_halving_tangent"),
        StudyRequest(0.1, 0.9, "successive_halving_tangent"),
        StudyRequest(0.2, 0.8, "uniform"),
        StudyRequest(0.4, 0.6, "successive_halving"),
    )
    transform_free = True

    def __init__(self, seed: int, workdir: str, scale: float | None = None):
        super().__init__(seed, workdir, scale)
        self.spill_dir: str | None = None

    def _catalog(self):
        return text_catalog(self.dataset, seed=PROGRAM_SEED)

    def _prepare(self) -> None:
        super()._prepare()
        os.makedirs(self.workdir, exist_ok=True)
        self.spill_dir = tempfile.mkdtemp(prefix="spill-", dir=self.workdir)
        prime = SnoopyConfig(
            seed=PROGRAM_SEED, strategy="full", store_dir=self.spill_dir
        )
        with Snoopy(self.catalog, prime) as system:
            system.run(self.inputs[0], self.requests[0].target)

    def _config(self, request: StudyRequest) -> SnoopyConfig:
        return SnoopyConfig(
            seed=PROGRAM_SEED,
            strategy=request.strategy,
            store_dir=self.spill_dir,
            embedding_cache_bytes=WARM_HOT_BYTES,
        )

    def check(self, index: int, outcome: StudyOutcome) -> None:
        super().check(index, outcome)
        if outcome.misses:
            raise Mismatch(
                f"request {index}: {outcome.misses} store misses on a "
                "primed spill dir"
            )

    def close(self) -> None:
        if self.spill_dir is not None:
            shutil.rmtree(self.spill_dir, ignore_errors=True)
            self.spill_dir = None


class FeebeeZoo(Workload):
    """``evaluate_estimator_over_noise`` at one noise level per op."""

    name = "feebee-zoo"
    dataset_name = "cifar10"
    scale = 0.1
    requests = tuple(
        ZooRequest(estimator, rho)
        for rho in (0.0, 0.2, 0.4)
        for estimator in ("1nn", "de_knn", "knn_loo")
    )

    def _prepare(self) -> None:
        catalog = vision_catalog(
            self.dataset, seed=PROGRAM_SEED, max_embeddings=4
        )
        catalog.fit(self.dataset.train_x)
        self.embedding = catalog[catalog.names[-1]]

    def _reference(self, index: int):
        point = self.op(index).points[0]
        ceiling = (self.dataset.num_classes - 1) / self.dataset.num_classes
        if not 0.0 <= point.estimate <= ceiling:
            raise Mismatch(
                f"reference estimate {point.estimate} outside [0, {ceiling}]"
            )
        return point

    def op(self, index: int):
        request = self.requests[index]
        return evaluation.evaluate_estimator_over_noise(
            get_estimator(request.estimator),
            self.dataset,
            rhos=(request.rho,),
            transform=self.embedding,
            rng=request_rng(self.seed, index),
        )

    def check(self, index: int, outcome) -> None:
        if outcome.points[0] != self.references[index]:
            raise Mismatch(
                f"request {index}: estimate {outcome.points[0].estimate!r} "
                f"differs from {self.references[index].estimate!r}"
            )


WORKLOADS = {cls.name: cls for cls in (StudyCold, StudyWarm, FeebeeZoo)}
