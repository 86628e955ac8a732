"""Fast checks of the benchmark itself, on tiny scales (seconds, not minutes)."""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from studybench import bench
from studybench.metrics import END_TO_END, PER_LAYER
from studybench.tracing import Tracer
from studybench.workloads import WORKLOADS, Mismatch, report_key

#: Dataset scale of every test workload (the datasets' size floors keep
#: the splits at 256+ train and 128 test rows).
TINY = 0.01

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json",
)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Every workload set up once at seed 3, tiny scale."""
    built = {}
    for name, cls in WORKLOADS.items():
        workload = cls(3, str(tmp_path_factory.mktemp(name)), scale=TINY)
        workload.setup()
        built[name] = workload
    yield built
    for workload in built.values():
        workload.close()


def _outcome_key(outcome):
    report = getattr(outcome, "report", None)
    return report_key(report) if report is not None else outcome.points


def test_same_seed_same_inputs_other_seed_other_draw(tiny, tmp_path):
    again = WORKLOADS["study-cold"](3, str(tmp_path), scale=TINY)
    other = WORKLOADS["study-cold"](4, str(tmp_path), scale=TINY)
    again.setup()
    other.setup()
    first = tiny["study-cold"]
    np.testing.assert_array_equal(again.dataset.train_x, first.dataset.train_x)
    for mine, theirs in zip(again.inputs, first.inputs):
        np.testing.assert_array_equal(mine.train_y, theirs.train_y)
        np.testing.assert_array_equal(mine.test_y, theirs.test_y)
    assert [report_key(r) for r in again.references] == [
        report_key(r) for r in first.references
    ]
    assert not np.array_equal(other.dataset.train_x, first.dataset.train_x)
    assert other.requests == first.requests
    assert [d.name for d in other.inputs] == [d.name for d in first.inputs]


def test_estimator_rng_comes_from_the_seed(tiny, tmp_path):
    zoo = tiny["feebee-zoo"]
    noisy = [i for i, request in enumerate(zoo.requests) if request.rho > 0]
    assert [zoo.op(i).points[0] for i in noisy] == [
        zoo.references[i] for i in noisy
    ]
    other = WORKLOADS["feebee-zoo"](4, str(tmp_path), scale=TINY)
    other.dataset, other.embedding = zoo.dataset, zoo.embedding
    assert [other.op(i).points[0] for i in noisy] != [
        zoo.references[i] for i in noisy
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tampered_reference_fails_the_op(tiny, name):
    workload = tiny[name]
    reference = workload.references[0]
    if hasattr(reference, "ber_estimate"):
        tampered = dataclasses.replace(
            reference, ber_estimate=reference.ber_estimate + 1e-12
        )
    else:
        tampered = dataclasses.replace(
            reference, estimate=reference.estimate + 1e-12
        )
    assert bench.attempt(workload, 0)[2] is None
    workload.references[0] = tampered
    try:
        assert isinstance(bench.attempt(workload, 0)[2], Mismatch)
    finally:
        workload.references[0] = reference


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_ops_are_bit_identical(tiny, name):
    workload = tiny[name]
    tracer = Tracer()
    for index in range(len(workload.requests)):
        _, plain, error = bench.attempt(workload, index)
        assert error is None
        _, traced, error = bench.attempt(workload, index, tracer, op=index)
        assert error is None
        assert _outcome_key(traced) == _outcome_key(plain)
    assert tracer.spans and not tracer._originals


def test_traced_study_warm_has_zero_misses(tiny):
    warm = tiny["study-warm"]
    tracer = Tracer()
    for index in range(len(warm.requests)):
        _, outcome, error = bench.attempt(warm, index, tracer, op=index)
        assert error is None and outcome.misses == 0
    names = [span.name for span in tracer.spans]
    assert "transforms.transform" not in names
    embeds = [s for s in tracer.spans if s.name == "store.embed_rows"]
    assert embeds and all(s.attrs["misses"] == 0 for s in embeds)
    assert sum(s.attrs["spill_hits"] for s in embeds) > 0


def test_runs_report_every_metric(tmp_path):
    result, _ = bench.run("study-warm", 5, 0, False, str(tmp_path), scale=TINY)
    assert result["correct"] and result["attempted"] == 4
    assert list(result["metrics"]) == [m.name for m in END_TO_END]
    result, record = bench.run(
        "study-warm", 5, 0, True, str(tmp_path), scale=TINY
    )
    assert result["correct"] and result["attempted"] == 8
    assert list(result["metrics"]) == [m.name for m in PER_LAYER]
    assert result["metrics"]["transforms.calls"]["value"] == 0
    assert result["metrics"]["store.misses"]["value"] == 0
    # The spans are the only file left behind; the spill dirs are gone.
    assert os.listdir(tmp_path) == [os.path.basename(record["spans"])]


def test_benchmark_json_matches_the_code():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == [
            (m.name, m.unit, m.better) for m in metrics
        ]
