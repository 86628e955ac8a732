"""Golden checks of the CLI's outputs.

Each command below runs through :func:`repro.cli.main` in-process, and
its output must equal the tracked copy in ``tests/cli_golden/`` byte for
byte, apart from the report's ``wall_seconds`` line.  The scales are the
smallest that still run both metrics (cifar10 is euclidean, sst2
cosine), the tangent rule (both studies prune arms by it), all three
estimators and the cleaning loop.

The tests only read the tracked files.  After an intended change,
regenerate every file with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import difflib
import io
import pathlib
import sys

import pytest

from repro.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "cli_golden"

REGENERATE = "PYTHONPATH=src python tests/test_cli_golden.py"

#: Tracked file name -> CLI arguments.
COMMANDS = {
    "study_cifar10": "study cifar10 --target 0.9 --scale 0.01 --json",
    "study_sst2": "study sst2 --target 0.9 --scale 0.01 --json",
    "feebee_cifar10": "feebee cifar10 --scale 0.01 --estimator 1nn "
                      "--estimator de_knn --estimator knn_loo",
    "clean_loop_cifar100": "clean-loop cifar100 --target 0.8 --noise 0.4 "
                           "--regime cheap --scale 0.01",
    "clean_loop_cifar10": "clean-loop cifar10 --target 0.7 --noise 0.4 "
                          "--scale 0.01",
}


def render(args: str) -> str:
    """The command's standard output without its ``wall_seconds`` line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args.split())
    if code != 0:
        raise AssertionError(f"`repro {args}` exited {code}")
    return "".join(
        line
        for line in out.getvalue().splitlines(keepends=True)
        if not line.lstrip().startswith('"wall_seconds":')
    )


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_its_tracked_copy(name):
    tracked = GOLDEN_DIR / f"{name}.txt"
    expected = tracked.read_text() if tracked.exists() else ""
    actual = render(COMMANDS[name])
    if actual != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            str(tracked), f"repro {COMMANDS[name]}",
        ))
        pytest.fail(
            f"`repro {COMMANDS[name]}` differs from {tracked}:\n{diff}\n"
            f"If the change is intended, regenerate the tracked outputs:\n"
            f"  {REGENERATE}"
        )


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, args in COMMANDS.items():
        (GOLDEN_DIR / f"{name}.txt").write_text(render(args))
        print(f"wrote {GOLDEN_DIR / name}.txt", file=sys.stderr)
