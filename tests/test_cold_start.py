"""Cold-start import footprint: which scipy modules each path loads.

Each case runs in a fresh interpreter with ``src`` on its path, so
``sys.modules`` starts clean and only what the snippet itself pulls in
is counted.  scipy is imported at the call sites that need it:
``import repro`` loads none of it, and neither does a default study
(its 95% Wilson bands read z from a constant), ``repro study`` or the
feebee kNN estimators.  A study pulls its arms in a plain loop, so
``import repro`` loads neither ``multiprocessing`` nor
``concurrent.futures``.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _modules_after(snippet: str, package: str = "scipy") -> list[str]:
    script = textwrap.dedent(snippet) + textwrap.dedent(f"""
        import json, sys
        print(json.dumps(sorted(
            name for name in sys.modules
            if name == {package!r} or name.startswith({package + "."!r})
        )))
    """)
    inherited = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), inherited])),
    }
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    assert _modules_after("import repro, repro.cli") == []


@pytest.mark.parametrize("package", ["multiprocessing", "concurrent"])
def test_import_loads_no_multiprocessing(package):
    assert _modules_after("import repro, repro.cli", package) == []


def test_default_study_loads_no_scipy():
    loaded = _modules_after("""
        from repro.core.snoopy import Snoopy, SnoopyConfig
        from repro.datasets import load
        from repro.transforms.catalog import catalog_for

        dataset = load("cifar10", scale=0.02, seed=0)
        catalog = catalog_for(dataset, seed=0, max_embeddings=2)
        with Snoopy(catalog, SnoopyConfig(seed=0)) as system:
            system.run(dataset, target_accuracy=0.9)
    """)
    assert loaded == []


def test_study_cli_loads_no_scipy():
    loaded = _modules_after("""
        from repro.cli import main

        argv = ["study", "cifar10", "--target", "0.9", "--scale", "0.01"]
        assert main([*argv, "--json"]) == 0
    """)
    assert loaded == []


def test_feebee_knn_estimators_load_no_scipy():
    loaded = _modules_after("""
        from repro.datasets import load
        from repro.estimators import get_estimator
        from repro.feebee.evaluation import evaluate_estimator_over_noise

        dataset = load("cifar10", scale=0.02, seed=0)
        for name in ("1nn", "de_knn", "knn_loo"):
            evaluate_estimator_over_noise(
                get_estimator(name), dataset, rhos=(0.0, 0.4), rng=0
            )
    """)
    assert loaded == []
