"""Names, units and intent of every metric the benchmark prints.

``BENCHMARK.json`` lists the same names; a test keeps the two in step.
Per-layer metrics are per timed op unless their unit is a ratio or a
rate; ``transforms.fit_ms`` and ``datasets.load_ms`` are per set-up, and
``estimators.<name>_ms`` is per op that runs that estimator.  ``moves``
records, before any change is measured, which end-to-end metric each
layer metric should move and on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""


#: Measured with tracing off.  ``op_best_ms`` is the mean over the
#: request list of each request's fastest op in the run.
END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("op_best_ms", "ms", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)

_STUDIES = "op_best_ms on study-cold and study-warm"
_COLD = "op_best_ms on study-cold"
_ZOO = "op_best_ms on feebee-zoo"

#: Measured by the separate traced run.
PER_LAYER = (
    Metric("snoopy.run_ms", "ms", "lower", _STUDIES),
    Metric("snoopy.self_ms", "ms", "lower", _STUDIES),
    Metric("bandit.arm_init_ms", "ms", "lower", _COLD),
    Metric("bandit.allocate_ms", "ms", "lower", _STUDIES),
    Metric("bandit.pull_self_ms", "ms", "lower", _STUDIES),
    Metric("bandit.pulls", "count", "lower", _STUDIES),
    Metric("bandit.rows", "count", "lower", _STUDIES),
    Metric("bandit.pruned_arms", "count", "higher", _STUDIES),
    Metric("bandit.winner_row_share", "ratio", "higher", _STUDIES),
    Metric("engine.rounds", "count", "lower", _COLD),
    Metric("engine.self_ms", "ms", "lower", _COLD),
    Metric("transforms.calls", "count", "lower",
           "op_best_ms on study-cold (0 on study-warm)"),
    Metric("transforms.rows", "count", "lower", _COLD),
    Metric("transforms.ms", "ms", "lower", _COLD),
    Metric("transforms.fit_ms", "ms", "lower", "setup_s on all three"),
    Metric("store.lookups", "count", "lower", "op_best_ms on study-warm"),
    Metric("store.hits", "count", "higher", "op_best_ms on study-warm"),
    Metric("store.misses", "count", "lower",
           "op_best_ms on study-cold (0 on study-warm)"),
    Metric("store.spill_hits", "count", "lower", "op_best_ms on study-warm"),
    Metric("store.evictions", "count", "lower", "op_best_ms on study-warm"),
    Metric("store.hit_rate", "ratio", "higher", "op_best_ms on study-warm"),
    Metric("store.self_ms", "ms", "lower", "op_best_ms on study-warm"),
    Metric("store.hot_mb", "MB", "lower", "peak_rss_mb on study-warm"),
    Metric("progressive.calls", "count", "lower", _STUDIES),
    Metric("progressive.self_ms", "ms", "lower", _STUDIES),
    Metric("kernels.nearest_ms", "ms", "lower", _STUDIES),
    Metric("kernels.nearest_gflop", "GFLOP", "lower", _STUDIES),
    Metric("kernels.nearest_mb", "MB", "lower", _STUDIES),
    Metric("kernels.nearest_gflop_per_s", "GFLOP/s", "higher", _STUDIES),
    Metric("kernels.gemm_share", "ratio", "higher",
           "op_best_ms on all three"),
    Metric("kernels.topk_ms", "ms", "lower", _ZOO),
    Metric("kernels.topk_gflop_per_s", "GFLOP/s", "higher", _ZOO),
    Metric("knn.fit_ms", "ms", "lower", _ZOO),
    Metric("knn.query_self_ms", "ms", "lower", _ZOO),
    Metric("knn.loo_self_ms", "ms", "lower", _ZOO),
    Metric("estimators.1nn_ms", "ms", "lower", _ZOO),
    Metric("estimators.de_knn_ms", "ms", "lower", _ZOO),
    Metric("estimators.knn_loo_ms", "ms", "lower",
           "op_best_ms and peak_rss_mb on feebee-zoo"),
    Metric("estimators.self_ms", "ms", "lower", _ZOO),
    Metric("feebee.self_ms", "ms", "lower", _ZOO),
    Metric("datasets.load_ms", "ms", "lower", "setup_s on all three"),
    Metric("trace.overhead", "ratio", "lower", "none"),
)

UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}
