"""Outside-in tracing: spans around each layer's public calls.

Wrappers are installed on classes and modules, never on instances.  An
instance attribute would make a transform unpicklable; the embedding
store would then fall back to a session-only token, and a warm study
would silently miss its spill files.  Each wrapper records a span (name,
start, end, parent span, op id) on a per-thread stack, plus the counts
its layer needs, taken from argument shapes and from deltas of
``EmbeddingStore.stats``.  Spans stay in memory; :meth:`Tracer.write`
dumps them as JSONL when the run ends.

A layer's self time is its span minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

MIB = 2**20


class Span:
    __slots__ = ("id", "name", "parent", "op", "thread", "start", "end",
                 "attrs")

    def __init__(self, span_id, name, parent, op, thread):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = thread
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "op": self.op, "thread": self.thread, "start": self.start,
            "end": self.end, **self.attrs,
        }


class Tracer:
    """Collects spans while its wrappers are installed.

    ``op`` is the id stamped on new spans; ``None`` marks set-up.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._hooks: list[tuple] | None = None
        self._originals: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recording a span; the hooks run outside its interval."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            stack = tracer._stack()
            span = Span(
                next(tracer._ids), name, stack[-1].id if stack else None,
                tracer.op, threading.get_ident(),
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if after is not None:
                span.attrs = after(args, kwargs, result, state)
            return result

        return traced

    def install(self) -> None:
        if self._originals:
            return
        if self._hooks is None:
            self._hooks = [
                (owner, attr, self.wrap(name, vars(owner)[attr], before, after))
                for owner, attr, name, before, after in layer_hooks()
            ]
        for owner, attr, traced in self._hooks:
            self._originals.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


# ----------------------------------------------------------------------
# What each wrapper records
# ----------------------------------------------------------------------


def _samples_before(args, kwargs):
    return args[0].samples_used


def _pull_after(args, kwargs, result, before):
    arm = args[0]
    return {"arm": arm.name, "rows": arm.samples_used - before}


def _tangent_after(args, kwargs, result, before):
    return {"pruned": int(not result)}


def _rows_after(args, kwargs, result, before):
    return {"rows": len(args[1] if len(args) > 1 else kwargs["x"])}


def _stats_before(args, kwargs):
    return args[0].stats


def _stats_after(args, kwargs, result, before):
    after = args[0].stats
    return {
        "hits": after.hits - before.hits,
        "misses": after.misses - before.misses,
        "spill_hits": after.spill_hits - before.spill_hits,
        "evictions": after.evictions - before.evictions,
        "hot_bytes": after.current_bytes,
    }


def _kernel_after(fn, operand: str, bound_is_left: bool):
    """Shape recorder for a blocked ``DistanceKernel`` scan.

    ``nearest_among`` scans blocks of ``other`` against the bound rows
    (bound is the GEMM's left operand); ``topk`` scans blocks of
    ``queries`` against the bound corpus (bound is the right operand).
    """
    parameters = inspect.signature(fn).parameters
    names = list(parameters)
    operand_at = names.index(operand)
    block_at = names.index("block_size")
    default_block = parameters["block_size"].default

    def after(args, kwargs, result, before):
        kernel = args[0]
        rows = len(args[operand_at] if len(args) > operand_at else kwargs[operand])
        block = (
            args[block_at] if len(args) > block_at
            else kwargs.get("block_size", default_block)
        )
        left, right = (
            (kernel.num_bound, rows) if bound_is_left else (rows, kernel.num_bound)
        )
        return {
            "m": left, "n": right, "d": kernel.dim, "block": block,
            "blocked": "n" if bound_is_left else "m",
            "dtype": kernel.compute_dtype.name,
        }

    return after


def layer_hooks() -> list[tuple]:
    """``(owner, attribute, span name, before, after)`` per wrapped call."""
    import repro.datasets as datasets
    from repro.bandit.arms import TransformationArm
    from repro.core import snoopy
    from repro.core.engine import RoundScheduler
    from repro.estimators.cover_hart import OneNNEstimator
    from repro.estimators.de_knn import DeKNNEstimator
    from repro.estimators.knn_loo import KNNLooEstimator
    from repro.feebee import evaluation
    from repro.knn.base import ExactSearchMixin, KNNIndex
    from repro.knn.brute_force import BruteForceKNN
    from repro.knn.kernels import DistanceKernel
    from repro.knn.progressive import ProgressiveOneNN
    from repro.transforms.base import FittedCatalog
    from repro.transforms.linear import IdentityTransform, PCATransform
    from repro.transforms.nca import NCATransform
    from repro.transforms.pretrained import SimulatedEmbedding
    from repro.transforms.store import EmbeddingStore

    return [
        (snoopy.Snoopy, "run", "snoopy.run", None, None),
        (TransformationArm, "__init__", "bandit.arm_init", None, None),
        (TransformationArm, "pull", "bandit.pull", _samples_before, _pull_after),
        (TransformationArm, "pull_with_tangent", "bandit.pull_with_tangent",
         None, _tangent_after),
        (snoopy, "successive_halving", "bandit.allocate", None, None),
        (snoopy, "uniform_allocation", "bandit.allocate", None, None),
        (RoundScheduler, "run", "engine.run", None, None),
        (FittedCatalog, "fit", "transforms.fit", None, None),
        *[
            (cls, "transform", "transforms.transform", None, _rows_after)
            for cls in (IdentityTransform, PCATransform, NCATransform,
                        SimulatedEmbedding)
        ],
        (EmbeddingStore, "embed_rows", "store.embed_rows", _stats_before,
         _stats_after),
        (ProgressiveOneNN, "partial_fit", "progressive.partial_fit", None,
         None),
        (DistanceKernel, "nearest_among", "kernels.nearest_among", None,
         _kernel_after(DistanceKernel.nearest_among, "other", True)),
        (DistanceKernel, "topk", "kernels.topk", None,
         _kernel_after(DistanceKernel.topk, "queries", False)),
        (BruteForceKNN, "fit", "knn.fit", None, None),
        (ExactSearchMixin, "kneighbors", "knn.query", None, None),
        (KNNIndex, "error", "knn.query", None, None),
        (ExactSearchMixin, "loo_error", "knn.loo", None, None),
        (OneNNEstimator, "estimate", "estimators.1nn", None, None),
        (DeKNNEstimator, "estimate", "estimators.de_knn", None, None),
        (KNNLooEstimator, "estimate", "estimators.knn_loo", None, None),
        (evaluation, "evaluate_estimator_over_noise", "feebee.evaluate",
         None, None),
        (datasets, "load", "datasets.load", None, None),
    ]


# ----------------------------------------------------------------------
# Kernel counts and the bare-GEMM comparison
# ----------------------------------------------------------------------


def gemm_blocks(attrs: dict) -> list[tuple[tuple, int]]:
    """``((M, N, K, dtype), count)`` for the GEMMs one kernel call runs."""
    m, n, d, block = attrs["m"], attrs["n"], attrs["d"], attrs["block"]
    blocked = n if attrs["blocked"] == "n" else m
    full, rest = divmod(blocked, block)
    sizes = [(block, full)] if full else []
    if rest:
        sizes.append((rest, 1))
    if attrs["blocked"] == "n":
        return [((m, size, d, attrs["dtype"]), count) for size, count in sizes]
    return [((size, n, d, attrs["dtype"]), count) for size, count in sizes]


def kernel_flop(attrs: dict) -> float:
    """Multiply-adds of the distance GEMM: 2 * m * n * d."""
    return 2.0 * attrs["m"] * attrs["n"] * attrs["d"]


def kernel_bytes(attrs: dict) -> float:
    """Bytes the GEMM must move: both operands read, the product written."""
    m, n, d = attrs["m"], attrs["n"], attrs["d"]
    return np.dtype(attrs["dtype"]).itemsize * float(m * d + n * d + m * n)


def bare_gemm_seconds(shapes, repeats: int = 5) -> dict:
    """Median time of a bare ``a @ b.T`` at each ``(M, N, K, dtype)``."""
    rng = np.random.default_rng(0)
    seconds = {}
    for shape in sorted(shapes):
        m, n, d, dtype = shape
        a = rng.standard_normal((m, d)).astype(dtype)
        b = rng.standard_normal((n, d)).astype(dtype)
        a @ b.T
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            a @ b.T
            times.append(time.perf_counter() - start)
        seconds[shape] = float(np.median(times))
    return seconds


# ----------------------------------------------------------------------
# Reduction to per-layer metrics
# ----------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def kernel_shapes(spans) -> set:
    return {
        shape
        for span in spans
        if span.op is not None
        and span.name in ("kernels.nearest_among", "kernels.topk")
        for shape, _ in gemm_blocks(span.attrs)
    }


def layer_metrics(spans, ops: int, winners: dict,
                  bare: dict) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead``.

    One traced set-up and ``ops`` traced ops produced ``spans``;
    ``winners`` maps an op id to its best transform; ``bare`` maps each
    GEMM shape the kernels ran to its bare-matmul seconds.
    """
    child = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.seconds
    in_ops, in_setup = defaultdict(list), defaultdict(list)
    for span in spans:
        (in_setup if span.op is None else in_ops)[span.name].append(span)

    def total(*names) -> float:
        return sum(s.seconds for name in names for s in in_ops[name])

    def self_time(*names) -> float:
        return sum(s.seconds - child[s.id] for name in names for s in in_ops[name])

    def attr(name: str, key: str) -> float:
        return sum(s.attrs[key] for s in in_ops[name])

    def per_op(value: float) -> float:
        return value / ops

    def per_op_ms(value: float) -> float:
        return 1e3 * value / ops

    def per_call_ms(name: str) -> float:
        return 1e3 * _ratio(total(name), len(in_ops[name]))

    def setup_ms(name: str) -> float:
        return 1e3 * sum(s.seconds for s in in_setup[name])

    arm_rows = defaultdict(int)
    for span in in_ops["bandit.pull"]:
        arm_rows[span.op, span.attrs["arm"]] += span.attrs["rows"]
    winner_rows = sum(
        rows for (op, arm), rows in arm_rows.items() if winners.get(op) == arm
    )
    hot_peak = defaultdict(int)
    for span in in_ops["store.embed_rows"]:
        hot_peak[span.op] = max(hot_peak[span.op], span.attrs["hot_bytes"])
    nearest = in_ops["kernels.nearest_among"]
    topk = in_ops["kernels.topk"]
    kernel_seconds = sum(s.seconds for s in nearest + topk)
    bare_seconds = sum(
        bare[shape] * count
        for span in nearest + topk
        for shape, count in gemm_blocks(span.attrs)
    )
    hits = attr("store.embed_rows", "hits")
    misses = attr("store.embed_rows", "misses")
    estimators = ("estimators.1nn", "estimators.de_knn", "estimators.knn_loo")
    return {
        "snoopy.run_ms": per_op_ms(total("snoopy.run")),
        "snoopy.self_ms": per_op_ms(self_time("snoopy.run")),
        "bandit.arm_init_ms": per_op_ms(total("bandit.arm_init")),
        "bandit.allocate_ms": per_op_ms(total("bandit.allocate")),
        "bandit.pull_self_ms": per_op_ms(
            self_time("bandit.pull", "bandit.pull_with_tangent")
        ),
        "bandit.pulls": per_op(len(in_ops["bandit.pull"])),
        "bandit.rows": per_op(attr("bandit.pull", "rows")),
        "bandit.pruned_arms": per_op(
            attr("bandit.pull_with_tangent", "pruned")
        ),
        "bandit.winner_row_share": _ratio(winner_rows, sum(arm_rows.values())),
        "engine.rounds": per_op(len(in_ops["engine.run"])),
        "engine.self_ms": per_op_ms(self_time("engine.run")),
        "transforms.calls": per_op(len(in_ops["transforms.transform"])),
        "transforms.rows": per_op(attr("transforms.transform", "rows")),
        "transforms.ms": per_op_ms(total("transforms.transform")),
        "transforms.fit_ms": setup_ms("transforms.fit"),
        "store.lookups": per_op(hits + misses),
        "store.hits": per_op(hits),
        "store.misses": per_op(misses),
        "store.spill_hits": per_op(attr("store.embed_rows", "spill_hits")),
        "store.evictions": per_op(attr("store.embed_rows", "evictions")),
        "store.hit_rate": _ratio(hits, hits + misses),
        "store.self_ms": per_op_ms(self_time("store.embed_rows")),
        "store.hot_mb": per_op(sum(hot_peak.values())) / MIB,
        "progressive.calls": per_op(len(in_ops["progressive.partial_fit"])),
        "progressive.self_ms": per_op_ms(self_time("progressive.partial_fit")),
        "kernels.nearest_ms": per_op_ms(total("kernels.nearest_among")),
        "kernels.nearest_gflop": per_op(
            sum(kernel_flop(s.attrs) for s in nearest)
        ) / 1e9,
        "kernels.nearest_mb": per_op(
            sum(kernel_bytes(s.attrs) for s in nearest)
        ) / MIB,
        "kernels.nearest_gflop_per_s": _ratio(
            sum(kernel_flop(s.attrs) for s in nearest),
            total("kernels.nearest_among"),
        ) / 1e9,
        "kernels.gemm_share": _ratio(bare_seconds, kernel_seconds),
        "kernels.topk_ms": per_op_ms(total("kernels.topk")),
        "kernels.topk_gflop_per_s": _ratio(
            sum(kernel_flop(s.attrs) for s in topk), total("kernels.topk")
        ) / 1e9,
        "knn.fit_ms": per_op_ms(total("knn.fit")),
        "knn.query_self_ms": per_op_ms(self_time("knn.query")),
        "knn.loo_self_ms": per_op_ms(self_time("knn.loo")),
        "estimators.1nn_ms": per_call_ms("estimators.1nn"),
        "estimators.de_knn_ms": per_call_ms("estimators.de_knn"),
        "estimators.knn_loo_ms": per_call_ms("estimators.knn_loo"),
        "estimators.self_ms": per_op_ms(self_time(*estimators)),
        "feebee.self_ms": per_op_ms(self_time("feebee.evaluate")),
        "datasets.load_ms": setup_ms("datasets.load"),
    }
