"""Shared fixtures and helpers for the figure/table benchmarks.

Every benchmark regenerates one table or figure of the paper at reduced
scale, prints it, writes the rendered text to ``benchmarks/fresh/`` and
asserts the qualitative *shape* the paper reports.  Absolute numbers
differ — the substrate is a simulator — but orderings, crossovers and
rough factors must hold.

``benchmarks/fresh/`` is gitignored, so running the benchmarks never
rewrites a tracked file.  Each fresh table must then equal its tracked
copy in ``benchmarks/results/`` outside the timing column its benchmark
declares in :data:`TIMING_COLUMNS`.  After an intended change, promote
the fresh table with ``cp benchmarks/fresh/<name>.txt benchmarks/results/``.
"""

from __future__ import annotations

import difflib
import pathlib

import pytest

from repro.datasets import load, load_cifar_n
from repro.transforms.catalog import catalog_for

FRESH_DIR = pathlib.Path(__file__).parent / "fresh"
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Per table, the header of the column whose cells are wall-clock
#: timings, which change from run to run.  Every other cell must equal
#: the tracked copy's.
TIMING_COLUMNS = {
    "fig12_selection_strategies": "wall s",
    "fig13_incremental": "wall seconds",  # its speedup row included
}

#: Split scale for bench datasets (fraction of the paper's split sizes).
BENCH_SCALE = 0.015

#: Number of simulated embeddings per catalog at bench scale.
BENCH_EMBEDDINGS = 6


def write_result(name: str, text: str) -> None:
    """Persist a rendered table/figure, echo it, and check it is unchanged.

    Fails with a unified diff when the fresh table differs from its
    tracked copy outside its timing column, or has no tracked copy.
    """
    FRESH_DIR.mkdir(exist_ok=True)
    path = FRESH_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    promote = f"cp benchmarks/fresh/{name}.txt benchmarks/results/"
    tracked = RESULTS_DIR / f"{name}.txt"
    if not tracked.exists():
        pytest.fail(f"{tracked} does not exist; to track the table, run\n"
                    f"  {promote}")
    column = TIMING_COLUMNS.get(name)
    expected = _without_column(tracked.read_text(), column)
    actual = _without_column(path.read_text(), column)
    if actual != expected:
        diff = "\n".join(difflib.unified_diff(
            expected, actual, str(tracked), str(path), lineterm="",
        ))
        masked = "" if column is None else f" (column {column!r} left out)"
        pytest.fail(f"{name} differs from its tracked copy{masked}:\n{diff}\n"
                    f"If the change is intended, promote it:\n  {promote}")


def _without_column(text: str, column: str | None) -> list[str]:
    """The lines of ``text``, with the cells under ``column`` sliced out.

    Rows are sliced at this text's own header offsets: a wider timing
    cell pads its column and shifts every column after it.
    """
    lines = text.splitlines()
    if column is None:
        return lines
    header = next(
        (i for i, line in enumerate(lines[:-1])
         if column in line and lines[i + 1] == "-" * len(line)),
        None,
    )
    if header is None:
        pytest.fail(f"no table header with a {column!r} column in:\n{text}")
    line = lines[header]
    start = line.index(column)
    rest = line[start + len(column):].lstrip(" ")
    end = len(line) - len(rest) if rest else None  # the next column
    return lines[:header] + [
        row[:start] + (row[end:] if end else "") for row in lines[header:]
    ]


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
