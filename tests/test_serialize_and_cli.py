"""Unit tests for JSON serialization and the command-line interface."""

import json
import os

import pytest

from repro.cleaning.costs import CostModel
from repro.cleaning.simulator import CleaningSession
from repro.cleaning.strategies import run_without_feasibility_study
from repro.cleaning.workflow import make_noisy_dataset
from repro.cli import build_parser, main
from repro.core.snoopy import Snoopy, SnoopyConfig
from repro.reporting.serialize import (
    report_to_dict,
    report_to_json,
    trace_to_dict,
    trace_to_json,
)


@pytest.fixture()
def report(dataset, catalog):
    return Snoopy(catalog, SnoopyConfig(seed=0)).run(dataset, 0.6)


class TestReportSerialization:
    def test_roundtrips_through_json(self, report):
        payload = json.loads(report_to_json(report))
        assert payload["dataset"] == report.dataset_name
        assert payload["signal"] in ("realistic", "unrealistic")
        assert payload["ber_estimate"] == pytest.approx(report.ber_estimate)

    def test_per_transform_entries(self, report):
        payload = report_to_dict(report)
        names = {entry["transform"] for entry in payload["per_transform"]}
        assert report.best_transform in names

    def test_trust_signal_and_bands_match_the_report(self, report):
        payload = json.loads(report_to_json(report))
        assert payload["signal_confident"] is report.signal_confident
        assert len(payload["per_transform"]) == len(report.per_transform)
        rows = zip(payload["per_transform"], report.per_transform)
        for entry, result in rows:
            details = result.estimate.details
            assert entry["transform"] == result.transform_name
            assert entry["confidence_low"] == details["confidence_low"]
            assert entry["confidence_high"] == details["confidence_high"]

    def test_curves_serialized_as_lists(self, report):
        payload = report_to_dict(report)
        curve = payload["curves"][report.best_transform]
        assert isinstance(curve["sizes"], list)
        assert len(curve["sizes"]) == len(curve["errors"])

    def test_extrapolation_optional(self, report):
        payload = report_to_dict(report)
        if report.extrapolation is not None:
            assert "extrapolation" in payload
            assert isinstance(payload["extrapolation"]["trustworthy"], bool)

    def test_no_numpy_types_leak(self, report):
        # json.dumps fails on numpy scalars; a full dump must succeed.
        assert json.dumps(report_to_dict(report))


class TestTraceSerialization:
    def test_trace_roundtrip(self, dataset, catalog):
        from repro.baselines.finetune import FineTuneBaseline

        noisy = make_noisy_dataset(dataset, 0.3, rng=0)
        trainer = FineTuneBaseline(
            catalog, learning_rates=(0.05,), num_epochs=5, seed=0
        )
        trace = run_without_feasibility_study(
            CleaningSession(noisy, rng=0), trainer, 0.62, 0.25,
            CostModel.for_regime("free"), max_steps=6,
        )
        payload = json.loads(trace_to_json(trace))
        assert payload["strategy"] == trace.strategy
        assert len(payload["points"]) == len(trace.points)
        # NaN values (clean actions) become JSON null.
        clean_points = [p for p in payload["points"] if p["action"] == "clean"]
        assert all(p["value"] is None for p in clean_points)

    def test_dict_totals(self, dataset, catalog):
        from repro.baselines.finetune import FineTuneBaseline

        noisy = make_noisy_dataset(dataset, 0.3, rng=0)
        trainer = FineTuneBaseline(
            catalog, learning_rates=(0.05,), num_epochs=5, seed=0
        )
        trace = run_without_feasibility_study(
            CleaningSession(noisy, rng=0), trainer, 0.62, 0.5,
            CostModel.for_regime("free"), max_steps=4,
        )
        payload = trace_to_dict(trace)
        assert payload["total_dollars"] == pytest.approx(trace.total_dollars)


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "cifar10" in out
        assert "yelp" in out

    def test_catalog_command(self, capsys):
        assert main(["catalog", "cifar10", "--scale", "0.005"]) == 0
        out = capsys.readouterr().out
        assert "identity" in out
        assert "efficientnet_b7" in out

    def test_study_command_text(self, capsys):
        code = main([
            "study", "cifar10", "--target", "0.9",
            "--scale", "0.005", "--max-embeddings", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Feasibility study" in out
        assert "signal" in out

    def test_study_command_json(self, capsys):
        code = main([
            "study", "cifar10", "--target", "0.9", "--json",
            "--scale", "0.005", "--max-embeddings", "3",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target_accuracy"] == 0.9

    def test_study_with_noise_flips_signal(self, capsys):
        main([
            "study", "cifar10", "--target", "0.99", "--noise", "0.4",
            "--scale", "0.005", "--max-embeddings", "3",
        ])
        out = capsys.readouterr().out
        assert "UNREALISTIC" in out

    def test_study_invalid_target_errors(self, capsys):
        assert main([
            "study", "cifar10", "--target", "1.5", "--scale", "0.005",
        ]) == 2

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["study", "cifar10", "--target", "0.9", "--scale", "0"],
             "scale must be in (0, 1]"),
            (["study", "cifar10", "--target", "0.9", "--scale", "0.05",
              "--noise", "1.5"],
             "rho must be in [0, 1]"),
            (["study", "cifar10", "--target", "0.9", "--scale", "0.005",
              "--store-spill-mb", "0"],
             "store_spill_bytes must be positive"),
            (["catalog", "cifar10", "--scale", "0"],
             "scale must be in (0, 1]"),
            (["feebee", "cifar10", "--scale", "0"],
             "scale must be in (0, 1]"),
            (["clean-loop", "cifar10", "--target", "0.8", "--noise", "1.5",
              "--scale", "0.05"],
             "rho must be in [0, 1]"),
            (["study", "cifar10", "--target", "0.9", "--seed", "-1"],
             "seed must be non-negative, got -1"),
            (["catalog", "cifar10", "--seed", "-1"],
             "seed must be non-negative, got -1"),
            (["feebee", "cifar10", "--seed", "-1"],
             "seed must be non-negative, got -1"),
            (["clean-loop", "cifar10", "--target", "0.9", "--seed", "-1"],
             "seed must be non-negative, got -1"),
        ],
    )
    def test_library_misuse_is_a_clean_error(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err

    def test_feebee_command(self, capsys):
        code = main([
            "feebee", "cifar10", "--scale", "0.005", "--estimator", "1nn",
        ])
        assert code == 0
        assert "slope fidelity" in capsys.readouterr().out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["study", "imagenet", "--target", "0.9"])

    def test_clean_loop_requires_noise(self, capsys):
        assert main([
            "clean-loop", "cifar10", "--target", "0.9", "--noise", "0",
            "--scale", "0.005",
        ]) == 2

    def test_clean_loop_command(self, capsys):
        code = main([
            "clean-loop", "cifar10", "--target", "0.7", "--noise", "0.4",
            "--scale", "0.005", "--regime", "free", "--step", "0.25",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cleaning loop" in out
        assert "expensive run(s)" in out

    @pytest.mark.parametrize(
        ("cache_mb", "built"), [("0", []), ("64", [64 * 2**20])]
    )
    def test_clean_loop_store_follows_the_cache_flag(
        self, cache_mb, built, monkeypatch, capsys
    ):
        from repro.transforms.store import EmbeddingStore

        sizes = []
        init = EmbeddingStore.__init__

        def recording_init(store, *args, **kwargs):
            init(store, *args, **kwargs)
            sizes.append(store.max_bytes)

        monkeypatch.setattr(EmbeddingStore, "__init__", recording_init)
        assert main([
            "clean-loop", "cifar10", "--target", "0.7", "--noise", "0.4",
            "--scale", "0.005", "--regime", "free", "--step", "0.25",
            "--embedding-cache-mb", cache_mb,
        ]) == 0
        assert sizes == built

    def test_study_with_store_dir_warm_starts(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = [
            "study", "cifar10", "--target", "0.9",
            "--scale", "0.005", "--max-embeddings", "3",
            "--store-dir", store,
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0  # second run reads the warm spill tier
        second = capsys.readouterr().out
        # Identical study, identical report (and block files exist).
        assert first.splitlines()[-4:] == second.splitlines()[-4:]
        assert any(
            name.endswith(".blk") for name in os.listdir(store)
        )

    def test_store_stats_and_clear(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main([
            "study", "cifar10", "--target", "0.9",
            "--scale", "0.005", "--max-embeddings", "3",
            "--store-dir", store, "--embedding-cache-mb", "64",
            "--store-spill-mb", "256",
        ])
        capsys.readouterr()
        assert main(["store", "stats", "--store-dir", store]) == 0
        out = capsys.readouterr().out
        assert "block file(s)" in out
        assert "float32" in out
        assert main(["store", "clear", "--store-dir", store]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["store", "stats", "--store-dir", store]) == 0
        assert "empty" in capsys.readouterr().out

    def test_store_stats_empty_dir(self, tmp_path, capsys):
        assert main(
            ["store", "stats", "--store-dir", str(tmp_path)]
        ) == 0
        assert "empty" in capsys.readouterr().out

    def test_store_path_honors_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        assert main(["store", "path"]) == 0
        assert capsys.readouterr().out.strip() == str(tmp_path)
