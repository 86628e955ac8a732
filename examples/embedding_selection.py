"""System optimizations: successive halving and incremental re-runs.

Demonstrates the Section V machinery directly:

- how successive halving (with and without the tangent rule) spends far
  less simulated inference than evaluating every embedding fully, while
  selecting the same winner;
- how the incremental state (each embedding's nearest neighbours plus
  one copy of the labels) makes a post-cleaning re-run effectively free.

Run:  python examples/embedding_selection.py
"""

import time

from repro import Snoopy, SnoopyConfig
from repro.cleaning.simulator import CleaningSession
from repro.cleaning.workflow import make_noisy_dataset
from repro.datasets import load
from repro.transforms.catalog import catalog_for


def main() -> None:
    dataset = load("cifar100", scale=0.02, seed=0)
    catalog = catalog_for(dataset, seed=0)
    catalog.fit(dataset.train_x)
    print(f"dataset: {dataset}")
    print(f"catalog: {len(catalog)} transformations\n")

    print(f"{'strategy':28s} {'estimate':>9s} {'winner':>18s} "
          f"{'sim cost s':>11s} {'wall s':>7s}")
    reports = {}
    for strategy in (
        "full", "uniform", "successive_halving", "successive_halving_tangent",
    ):
        report = Snoopy(
            catalog, SnoopyConfig(strategy=strategy, seed=0)
        ).run(dataset, target_accuracy=0.9)
        reports[strategy] = report
        print(
            f"{strategy:28s} {report.ber_estimate:9.4f} "
            f"{report.best_transform:>18s} "
            f"{report.total_sim_cost_seconds:11.3f} "
            f"{report.wall_seconds:7.3f}"
        )
    saving = (
        1.0
        - reports["successive_halving_tangent"].total_sim_cost_seconds
        / reports["full"].total_sim_cost_seconds
    )
    print(f"\nSH+tangent saves {100 * saving:.0f}% of full-evaluation cost\n")

    # Incremental re-run after cleaning 1% of a noisy variant.
    noisy = make_noisy_dataset(dataset, 0.2, rng=0)
    system = Snoopy(catalog, SnoopyConfig(seed=0))
    started = time.perf_counter()
    report = system.run(noisy, target_accuracy=0.9)
    full_run = time.perf_counter() - started
    state = system.incremental_state()
    session = CleaningSession(noisy, rng=0)
    step = session.clean_fraction(0.01)
    started = time.perf_counter()
    state.apply_cleaning(
        step.train_indices, step.train_labels,
        step.test_indices, step.test_labels,
    )
    best, estimate = state.ber_estimate()
    incremental = time.perf_counter() - started
    print(f"initial run:        {full_run * 1e3:9.2f} ms "
          f"(estimate {report.ber_estimate:.4f})")
    print(f"incremental re-run: {incremental * 1e3:9.3f} ms "
          f"(estimate {estimate:.4f} via {best})")
    print(f"speedup: {full_run / incremental:,.0f}x")


if __name__ == "__main__":
    main()
