"""Whole-op benchmark of feasibility studies and estimator-zoo evaluations.

``python3 studybench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in a closed loop with one client and
prints one JSON line of metrics (see :mod:`studybench.bench`).
"""
