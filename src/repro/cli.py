"""Command-line interface for the feasibility-study system.

Usage (after ``pip install -e .``)::

    python -m repro datasets
    python -m repro catalog cifar10
    python -m repro study cifar10 --target 0.95 --noise 0.2
    python -m repro study cifar10 --target 0.95 --store-dir ~/.cache/repro/store
    python -m repro clean-loop cifar100 --target 0.8 --noise 0.4 --regime cheap
    python -m repro feebee cifar10 --estimator 1nn --estimator kde
    python -m repro store stats
    python -m repro store clear

Every subcommand prints plain text; ``study --json`` emits the full
report as JSON for downstream tooling.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.cleaning.costs import LABEL_REGIMES
from repro.core.snoopy import STRATEGIES, Snoopy, SnoopyConfig
from repro.exceptions import DataValidationError
from repro.knn.kernels import DEFAULT_COMPUTE_DTYPE, VALID_COMPUTE_DTYPES
from repro.datasets import dataset_names, load
from repro.datasets.catalog import DATASET_SPECS
from repro.estimators import ESTIMATOR_REGISTRY, get_estimator
from repro.reporting.tables import render_table
from repro.transforms.catalog import catalog_for


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Snoopy feasibility studies on synthetic paper-dataset "
        "analogues (ICDE 2023 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the available datasets (Table I)")

    catalog_cmd = sub.add_parser(
        "catalog", help="list the transformation catalog for a dataset"
    )
    _add_dataset_args(catalog_cmd)

    study = sub.add_parser("study", help="run a feasibility study")
    _add_dataset_args(study)
    study.add_argument(
        "--target", type=float, required=True,
        help="target accuracy in (0, 1]",
    )
    study.add_argument(
        "--noise", type=float, default=0.0,
        help="uniform label-noise level rho to inject (default 0)",
    )
    study.add_argument(
        "--strategy", choices=STRATEGIES,
        default="successive_halving_tangent",
        help="allocation strategy (default: successive_halving_tangent)",
    )
    study.add_argument(
        "--max-embeddings", type=int, default=None,
        help="truncate the pre-trained catalog for speed",
    )
    _add_cache_arg(study)
    _add_store_args(study)
    study.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )

    loop = sub.add_parser(
        "clean-loop", help="run the end-to-end cleaning use case"
    )
    _add_dataset_args(loop)
    loop.add_argument("--target", type=float, required=True)
    loop.add_argument("--noise", type=float, default=0.4)
    loop.add_argument(
        "--regime", choices=sorted(LABEL_REGIMES), default="cheap",
        help="label-cost regime (default: cheap)",
    )
    loop.add_argument(
        "--step", type=float, default=0.01,
        help="cleaning step fraction per iteration (default 0.01)",
    )
    _add_cache_arg(loop)

    feebee = sub.add_parser(
        "feebee", help="evaluate BER estimators over a noise series"
    )
    _add_dataset_args(feebee)
    feebee.add_argument(
        "--estimator", action="append", default=None,
        choices=sorted(ESTIMATOR_REGISTRY),
        help="estimator(s) to evaluate (default: 1nn)",
    )

    store_cmd = sub.add_parser(
        "store", help="inspect or prune a persistent embedding-store dir"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    for name, text in (
        ("stats", "summarize the cached block files"),
        ("clear", "delete every cached block file"),
        ("path", "print the resolved store directory"),
    ):
        cmd = store_sub.add_parser(name, help=text)
        cmd.add_argument(
            "--store-dir", default=None,
            help="spill directory (default: $REPRO_STORE_DIR or "
            "~/.cache/repro/store)",
        )
    return parser


def _add_store_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store-dir", default=None,
        help="persistent spill directory for the embedding store; a "
        "warm directory serves repeat runs with zero transform calls "
        "(default: memory-only caching)",
    )
    parser.add_argument(
        "--store-spill-mb", type=int, default=None,
        help="on-disk (spill tier) budget in MiB (default 1024)",
    )


def _add_cache_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--embedding-cache-mb", type=int, default=256,
        help="the study's embedding-store budget in MiB; 0 disables "
        "caching (default 256)",
    )
    parser.add_argument(
        "--dtype", choices=VALID_COMPUTE_DTYPES,
        default=DEFAULT_COMPUTE_DTYPE,
        help="compute precision for distance kernels and cached "
        "embeddings (default: float32; float64 is the strict mode)",
    )


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dataset", choices=dataset_names())
    parser.add_argument(
        "--scale", type=float, default=0.02,
        help="fraction of the paper's split sizes (default 0.02)",
    )
    parser.add_argument("--seed", type=int, default=0)


def _cmd_datasets() -> int:
    rows = [
        [
            spec.name, spec.modality, spec.num_classes,
            spec.paper_train, spec.paper_test,
            f"{100 * spec.sota_error:.2f}%", spec.sota_reference,
        ]
        for spec in DATASET_SPECS.values()
    ]
    print(render_table(
        ["name", "modality", "classes", "train", "test", "SOTA err",
         "reference"],
        rows,
        title="Available datasets (Table I analogues)",
    ))
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    dataset = load(args.dataset, scale=args.scale, seed=args.seed)
    catalog = catalog_for(dataset, seed=args.seed)
    rows = [
        [
            transform.name,
            transform.output_dim,
            getattr(transform, "paper_dim", ""),
            getattr(transform, "fidelity", ""),
            f"{transform.cost_per_sample:.1e}",
            getattr(transform, "source", "classical"),
        ]
        for transform in catalog
    ]
    print(render_table(
        ["transform", "sim dim", "paper dim", "fidelity", "cost/sample",
         "source"],
        rows,
        title=f"Transformation catalog for {dataset.name} "
              f"({dataset.modality})",
    ))
    return 0


def _prepare_dataset(args: argparse.Namespace, noise: float):
    dataset = load(args.dataset, scale=args.scale, seed=args.seed)
    if noise > 0:
        from repro.cleaning.workflow import make_noisy_dataset

        dataset = make_noisy_dataset(dataset, noise, rng=args.seed)
    return dataset


def _cmd_study(args: argparse.Namespace) -> int:
    if not 0.0 < args.target <= 1.0:
        print("error: --target must be in (0, 1]", file=sys.stderr)
        return 2
    dataset = _prepare_dataset(args, args.noise)
    catalog = catalog_for(
        dataset, seed=args.seed, max_embeddings=args.max_embeddings
    )
    config_kwargs = {
        "strategy": args.strategy,
        "seed": args.seed,
        "embedding_cache_bytes": args.embedding_cache_mb * 2**20,
        "store_dir": args.store_dir,
        "store_spill_bytes": (
            None if args.store_spill_mb is None
            else args.store_spill_mb * 2**20
        ),
        "compute_dtype": args.dtype,
    }
    if args.strategy == "perfect":
        print("error: strategy 'perfect' needs oracle knowledge; "
              "use it from the API", file=sys.stderr)
        return 2
    with Snoopy(catalog, SnoopyConfig(**config_kwargs)) as system:
        report = system.run(dataset, target_accuracy=args.target)
    if args.json:
        from repro.reporting.serialize import report_to_json

        print(report_to_json(report))
    else:
        print(report.summary())
        print()
        rows = [
            [r.transform_name, r.samples_used, round(r.one_nn_error, 4),
             round(r.estimate.value, 4)]
            for r in sorted(
                report.per_transform, key=lambda r: r.estimate.value
            )
        ]
        print(render_table(
            ["transform", "samples", "1nn error", "estimate"], rows,
        ))
    return 0


def _cmd_clean_loop(args: argparse.Namespace) -> int:
    from repro.baselines.finetune import FineTuneBaseline
    from repro.cleaning.costs import CostModel
    from repro.cleaning.simulator import CleaningSession
    from repro.cleaning.strategies import run_with_feasibility_study

    dataset = _prepare_dataset(args, args.noise)
    if not dataset.is_noisy:
        print("error: clean-loop needs --noise > 0", file=sys.stderr)
        return 2
    catalog = catalog_for(dataset, seed=args.seed, max_embeddings=6)
    catalog.fit(dataset.train_x)
    trainer = FineTuneBaseline(
        catalog, learning_rates=(0.05,), num_epochs=12, seed=args.seed
    )
    config = SnoopyConfig(
        seed=args.seed,
        embedding_cache_bytes=args.embedding_cache_mb * 2**20,
        compute_dtype=args.dtype,
    )
    trace = run_with_feasibility_study(
        CleaningSession(dataset, rng=args.seed), trainer,
        args.target, CostModel.for_regime(args.regime),
        feasibility="snoopy", catalog=catalog, clean_step=args.step,
        snoopy_config=config,
    )
    rows = [
        [p.action, f"{100 * p.fraction_examined:.1f}%",
         round(p.dollars, 4),
         "" if p.value != p.value else round(p.value, 4)]
        for p in trace.points
    ]
    print(render_table(
        ["action", "cleaned", "total $", "value"], rows,
        title=f"Snoopy-guided cleaning loop on {dataset.name} "
              f"(target {args.target}, {args.regime} labels)",
    ))
    outcome = "reached" if trace.reached_target else "did NOT reach"
    print(f"\n{outcome} target; total ${trace.total_dollars:.3f}, "
          f"{trace.num_expensive_runs} expensive run(s)")
    return 0


def _cmd_feebee(args: argparse.Namespace) -> int:
    from repro.feebee.evaluation import evaluate_estimator_over_noise

    dataset = load(args.dataset, scale=args.scale, seed=args.seed)
    catalog = catalog_for(dataset, seed=args.seed, max_embeddings=4)
    catalog.fit(dataset.train_x)
    embedding = catalog[catalog.names[-1]]
    names = args.estimator or ["1nn"]
    rows = []
    for name in names:
        evaluation = evaluate_estimator_over_noise(
            get_estimator(name), dataset, transform=embedding, rng=args.seed
        )
        rows.append([
            evaluation.estimator_name,
            round(evaluation.mean_absolute_deviation(), 4),
            round(evaluation.root_mean_squared_deviation(), 4),
            round(evaluation.slope_fidelity(), 3),
        ])
    print(render_table(
        ["estimator", "MAD", "RMSD", "slope fidelity"], rows,
        title=f"FeeBee noise-series evaluation on {dataset.name} "
              f"({embedding.name})",
    ))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.transforms.store import (
        clear_spill_dir,
        default_store_dir,
        scan_spill_dir,
    )

    directory = args.store_dir or default_store_dir()
    if args.store_command == "path":
        print(directory)
        return 0
    if args.store_command == "clear":
        files, reclaimed = clear_spill_dir(directory)
        print(f"removed {files} block file(s), "
              f"reclaimed {reclaimed / 2**20:.1f} MiB from {directory}")
        return 0
    entries = scan_spill_dir(directory)
    if not entries:
        print(f"store {directory}: empty (no cached block files)")
        return 0
    total = sum(entry["bytes"] for entry in entries)
    rows = [
        [entry["file"], entry["dtype"], entry["shape"],
         f"{entry['bytes'] / 2**10:.1f}"]
        for entry in entries
    ]
    print(render_table(
        ["file", "dtype", "shape", "KiB"], rows,
        title=f"store {directory}: {len(entries)} block file(s), "
              f"{total / 2**20:.1f} MiB",
    ))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    Misuse that only the library detects (``--scale 0``, ``--noise 1.5``,
    a non-positive ``--store-spill-mb``) raises
    :class:`DataValidationError`; like an option the parser rejects, it
    prints ``error: <message>`` and exits 2.
    """
    args = build_parser().parse_args(argv)
    try:
        if args.command == "datasets":
            return _cmd_datasets()
        if args.command == "catalog":
            return _cmd_catalog(args)
        if args.command == "study":
            return _cmd_study(args)
        if args.command == "clean-loop":
            return _cmd_clean_loop(args)
        if args.command == "feebee":
            return _cmd_feebee(args)
        if args.command == "store":
            return _cmd_store(args)
    except DataValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
