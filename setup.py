"""Setuptools shim for environments without the ``wheel`` package.

``pip install -e .`` on old pip/setuptools combinations requires
``bdist_wheel``; this shim keeps ``python setup.py develop`` working as a
fallback.  The repo has no ``pyproject.toml`` and ``setup()`` gets no
arguments: setuptools discovers the ``repro`` package under ``src/`` and
names the distribution after it, at version 0.0.0.  No dependencies are
declared: a default study needs only numpy, and scipy is needed only by
the ``kde``, ``ghp`` and ``knn_extrapolation`` estimators and by Wilson
bands at levels other than 95% (see README, Tests).
"""

from setuptools import setup

setup()
