"""JSON serialization of reports and traces.

A feasibility report and a cleaning cost trace are the two artifacts a
user would archive or feed into other tooling; this module converts both
to plain-JSON-compatible dictionaries (and back-of-the-envelope loaders
are intentionally *not* provided — the dictionaries are an export
format, not a persistence layer for live objects).
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.cleaning.strategies import CostTrace
from repro.core.result import FeasibilityReport


def _plain(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays to JSON-native types."""
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and value != value:  # NaN
        return None
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def report_to_dict(report: FeasibilityReport) -> dict[str, Any]:
    """Flatten a :class:`FeasibilityReport` into a JSON-compatible dict."""
    payload: dict[str, Any] = {
        "dataset": report.dataset_name,
        "target_accuracy": report.target_accuracy,
        "signal": report.signal.value,
        "signal_confident": report.signal_confident,
        "ber_estimate": report.ber_estimate,
        "best_accuracy": report.best_accuracy,
        "best_transform": report.best_transform,
        "gap": report.gap,
        "strategy": report.strategy,
        "total_sim_cost_seconds": report.total_sim_cost_seconds,
        "wall_seconds": report.wall_seconds,
        "per_transform": [
            {
                "transform": result.transform_name,
                "samples_used": result.samples_used,
                "one_nn_error": result.one_nn_error,
                "estimate": result.estimate.value,
                # The estimate's Wilson band; null on a hand-built
                # report whose estimate carries none.
                "confidence_low": result.estimate.details.get(
                    "confidence_low"
                ),
                "confidence_high": result.estimate.details.get(
                    "confidence_high"
                ),
                "sim_cost_seconds": result.sim_cost_seconds,
            }
            for result in report.per_transform
        ],
        "curves": {
            name: {
                "sizes": curve.sizes,
                "errors": curve.errors,
                "estimates": curve.estimates,
            }
            for name, curve in report.curves.items()
        },
    }
    if report.extrapolation is not None:
        extrapolation = report.extrapolation
        payload["extrapolation"] = {
            "transform": extrapolation.transform_name,
            "target_error": extrapolation.target_error,
            "required_samples": (
                None
                if not np.isfinite(extrapolation.required_samples)
                else extrapolation.required_samples
            ),
            "additional_samples": (
                None
                if not np.isfinite(extrapolation.additional_samples)
                else extrapolation.additional_samples
            ),
            "trustworthy": extrapolation.trustworthy,
            "fit_alpha": extrapolation.fit.alpha,
            "fit_intercept": extrapolation.fit.intercept,
            "fit_r_squared": extrapolation.fit.r_squared,
        }
    return _plain(payload)


def trace_to_dict(trace: CostTrace) -> dict[str, Any]:
    """Flatten a cleaning :class:`CostTrace` into a JSON-compatible dict."""
    return _plain(
        {
            "strategy": trace.strategy,
            "reached_target": trace.reached_target,
            "total_dollars": trace.total_dollars,
            "num_expensive_runs": trace.num_expensive_runs,
            "points": [
                {
                    "action": point.action,
                    "fraction_examined": point.fraction_examined,
                    "dollars": point.dollars,
                    "value": point.value,
                }
                for point in trace.points
            ],
        }
    )


def report_to_json(report: FeasibilityReport, indent: int = 2) -> str:
    """Render a report as a JSON string."""
    return json.dumps(report_to_dict(report), indent=indent)


def trace_to_json(trace: CostTrace, indent: int = 2) -> str:
    """Render a cost trace as a JSON string."""
    return json.dumps(trace_to_dict(trace), indent=indent)
