"""Shared fixtures and helpers for the figure/table benchmarks.

Every benchmark regenerates one table or figure of the paper at reduced
scale, prints it, writes the rendered text to ``benchmarks/fresh/`` and
asserts the qualitative *shape* the paper reports.  Absolute numbers
differ — the substrate is a simulator — but orderings, crossovers and
rough factors must hold.

``benchmarks/fresh/`` is gitignored, so running the benchmarks never
rewrites a tracked file.  Promote a fresh table over its tracked copy
with ``cp benchmarks/fresh/<name>.txt benchmarks/results/``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.datasets import load, load_cifar_n
from repro.transforms.catalog import catalog_for

FRESH_DIR = pathlib.Path(__file__).parent / "fresh"

#: Split scale for bench datasets (fraction of the paper's split sizes).
BENCH_SCALE = 0.015

#: Number of simulated embeddings per catalog at bench scale.
BENCH_EMBEDDINGS = 6


def write_result(name: str, text: str) -> None:
    """Persist a rendered table/figure and echo it to the test log."""
    FRESH_DIR.mkdir(exist_ok=True)
    path = FRESH_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")


@pytest.fixture(scope="session")
def cifar10():
    return load("cifar10", scale=BENCH_SCALE, seed=0)


@pytest.fixture(scope="session")
def cifar100():
    return load("cifar100", scale=BENCH_SCALE, seed=0)


@pytest.fixture(scope="session")
def imdb():
    return load("imdb", scale=BENCH_SCALE, seed=0)


@pytest.fixture(scope="session")
def cifar10_catalog(cifar10):
    return catalog_for(
        cifar10, seed=0, max_embeddings=BENCH_EMBEDDINGS
    ).fit(cifar10.train_x)


@pytest.fixture(scope="session")
def cifar100_catalog(cifar100):
    return catalog_for(
        cifar100, seed=0, max_embeddings=BENCH_EMBEDDINGS
    ).fit(cifar100.train_x)


@pytest.fixture(scope="session")
def imdb_catalog(imdb):
    return catalog_for(
        imdb, seed=0, max_embeddings=BENCH_EMBEDDINGS
    ).fit(imdb.train_x)


@pytest.fixture(scope="session")
def cifar10_aggre():
    return load_cifar_n("cifar10_aggre", scale=BENCH_SCALE, seed=0)
