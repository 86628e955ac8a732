"""Diff freshly-run benchmark tables against the checked-in baselines.

Usage (from the repository root, after running the slow benchmarks so
``benchmarks/fresh/`` holds fresh tables)::

    python benchmarks/compare_baselines.py [--git-ref HEAD]

Benchmarks write their tables to ``benchmarks/fresh/``, which git
ignores, so running them never rewrites a tracked file.  For each
tracked throughput metric the script reads the baseline value from
``<git-ref>:benchmarks/results/<file>`` and the current value from
``benchmarks/fresh/<file>`` and prints a regression report, flagging
any throughput metric that dropped by more than ``--threshold`` (default
30%).  Checked-in baselines come from whatever machine last
regenerated them, so an absolute-throughput delta against a different
(e.g. CI) machine is a prompt to look, not proof of a regression: the
exit code is 0 unless ``--strict`` is passed, in which case flagged
metrics exit 1 (useful when baseline and current run on the same
hardware).

After an intentional perf change, ``--update`` re-runs the tracked
benchmark modules and then copies every table in ``benchmarks/fresh/``
over ``benchmarks/results/`` (commit them afterwards), instead of
hand-editing tables.  Tables of other benchmarks run beforehand are
promoted the same way.

The parser understands the fixed-width tables produced by
``repro.reporting.tables.render_table``: column boundaries are taken
from the header row, rows are keyed by their leading columns.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

#: Checked-in baseline tables.
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Where benchmarks write fresh tables (gitignored; see conftest.py).
FRESH_DIR = pathlib.Path(__file__).parent / "fresh"

#: (file, key columns, throughput columns — higher is better).
TRACKED = (
    ("knn_hot_paths.txt", ("k", "dtype"), ("brute q/s",)),
    ("progressive_throughput.txt", ("pull", "path"), ("samples/s",)),
    ("store_scaling.txt", ("configuration",), ("samples/s",)),
)

#: Benchmark module that regenerates each tracked result file.
SOURCES = {
    "knn_hot_paths.txt": "benchmarks/test_knn_hot_paths.py",
    "progressive_throughput.txt": "benchmarks/test_progressive_throughput.py",
    "store_scaling.txt": "benchmarks/test_store_scaling.py",
}


def _column_spans(header: str) -> list[tuple[str, int, int]]:
    """Column (name, start, stop) spans of a render_table header row."""
    spans = []
    position = 0
    # Columns are separated by two-plus spaces; a single space is part
    # of a column name ("brute q/s").
    for field in header.rstrip().split("  "):
        name = field.strip()
        if not name:
            position += len(field) + 2
            continue
        start = header.index(field, position)
        spans.append([name, start, start + len(field)])
        position = start + len(field) + 2
    # Extend each span to the start of the next so padded values fit.
    for i in range(len(spans) - 1):
        spans[i][2] = spans[i + 1][1]
    spans[-1][2] = 10_000
    return [tuple(span) for span in spans]


def parse_table(text: str, key_columns, value_columns) -> dict | None:
    """Map row keys to the numeric values of the requested columns.

    Returns ``None`` when the table lacks the tracked columns (e.g. a
    baseline predating a table-format change).
    """
    lines = [line for line in text.splitlines() if line.strip()]
    header_at = next(
        (
            i
            for i, line in enumerate(lines)
            if all(col in line for col in key_columns + value_columns)
        ),
        None,
    )
    if header_at is None:
        return None
    spans = _column_spans(lines[header_at])
    named = {name: (start, stop) for name, start, stop in spans}
    rows = {}
    for line in lines[header_at + 1 :]:
        if set(line.strip()) <= {"-"}:
            continue
        key = tuple(
            line[slice(*named[col])].strip() for col in key_columns
        )
        values = {}
        for col in value_columns:
            cell = line[slice(*named[col])].strip()
            try:
                values[col] = float(cell.replace(",", ""))
            except ValueError:
                continue
        if values:
            rows[key] = values
    return rows


def _git_show(ref: str, path: str) -> str | None:
    result = subprocess.run(
        ["git", "show", f"{ref}:{path}"],
        capture_output=True,
        text=True,
        cwd=pathlib.Path(__file__).parent.parent,
    )
    return result.stdout if result.returncode == 0 else None


def update_baselines(runner=None) -> int:
    """Re-run the tracked benchmarks, then promote every fresh table.

    After an intentional perf change this replaces the manual
    edit-the-table dance: the tracked benchmark modules are re-run (one
    pytest invocation), each writes its table to ``benchmarks/fresh/``,
    and every table there is copied over ``benchmarks/results/``;
    committing those files promotes the fresh numbers to the new
    baseline.  A failed run promotes nothing.  ``runner`` is injectable
    for tests; it defaults to ``subprocess.call`` on this interpreter.
    """
    root = pathlib.Path(__file__).parent.parent
    modules = sorted(set(SOURCES[filename] for filename, *_ in TRACKED))
    command = [
        sys.executable, "-m", "pytest", "-q", "-m", "slow", *modules,
    ]
    print("regenerating tracked baselines via:", " ".join(command))
    if runner is None:
        def runner(cmd):
            env = dict(os.environ)
            src = str(root / "src")
            env["PYTHONPATH"] = (
                src + os.pathsep + env["PYTHONPATH"]
                if env.get("PYTHONPATH")
                else src
            )
            return subprocess.call(cmd, cwd=root, env=env)

    status = runner(command)
    if status != 0:
        print(f"benchmark run failed (exit {status}); baselines not updated")
        return status
    RESULTS_DIR.mkdir(exist_ok=True)
    for fresh in sorted(FRESH_DIR.glob("*.txt")):
        shutil.copyfile(fresh, RESULTS_DIR / fresh.name)
        print(f"updated benchmarks/results/{fresh.name}")
    print("commit the rewritten files to promote them to the new baseline")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--git-ref", default="HEAD")
    parser.add_argument(
        "--threshold", type=float, default=0.30,
        help="tolerated fractional throughput drop (default 0.30)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 on flagged metrics (baseline and current must come "
        "from the same hardware for this to be meaningful)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="re-run the tracked benchmarks, copy every fresh table "
        "over benchmarks/results/ (commit them afterwards), "
        "then print the report against --git-ref",
    )
    args = parser.parse_args(argv)
    if args.update:
        status = update_baselines()
        if status != 0:
            return status
    regressions = []
    print(f"benchmark regression report vs {args.git_ref}")
    for filename, key_columns, value_columns in TRACKED:
        current_path = FRESH_DIR / filename
        if not current_path.exists():
            print(f"\n{filename}: no fresh result — skipped")
            continue
        baseline_text = _git_show(
            args.git_ref, f"benchmarks/results/{filename}"
        )
        if baseline_text is None:
            print(f"\n{filename}: no checked-in baseline — skipped")
            continue
        baseline = parse_table(baseline_text, key_columns, value_columns)
        current = parse_table(
            current_path.read_text(), key_columns, value_columns
        )
        if baseline is None or current is None:
            print(f"\n{filename}: table format changed — skipped")
            continue
        print(f"\n{filename}")
        for key, values in current.items():
            for column, value in values.items():
                base = baseline.get(key, {}).get(column)
                if base is None or base <= 0:
                    continue
                ratio = value / base
                marker = ""
                if ratio < 1.0 - args.threshold:
                    marker = "  <-- REGRESSION"
                    regressions.append((filename, key, column, ratio))
                print(
                    f"  {'/'.join(key):24s} {column:12s} "
                    f"{base:12.1f} -> {value:12.1f}  ({ratio:5.2f}x){marker}"
                )
    if regressions:
        print(f"\n{len(regressions)} metric(s) dropped beyond "
              f"{args.threshold:.0%} of baseline"
              + ("" if args.strict else
                 " (informational — different hardware than the baseline "
                 "produces absolute-throughput deltas; pass --strict to "
                 "fail on these)"))
        return 1 if args.strict else 0
    print("\nno throughput regressions beyond threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
