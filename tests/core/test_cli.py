"""Tests for the ``python -m repro`` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main

SPECS_DIR = Path(__file__).resolve().parents[2] / "examples" / "specs"
SWEEPS_DIR = Path(__file__).resolve().parents[2] / "examples" / "sweeps"


class TestCLI:
    def test_experiments_lists_all(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("table1", "table2", "table3", "fig5", "fig6", "fig7", "fig8"):
            assert exp_id in out

    def test_costs_paper_headline(self, capsys):
        assert main(["costs"]) == 0
        out = capsys.readouterr().out
        assert "17.7x" in out
        assert "14.75 MB" in out

    def test_costs_gray_flag(self, capsys):
        assert main(["costs", "--gray"]) == 0
        assert "gray" in capsys.readouterr().out

    def test_circuit_command(self, capsys):
        assert main(["circuit", "--inputs", "4", "--level", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "shared node" in out

    def test_compare_command(self, capsys):
        assert main(["compare", "--width", "320", "--height", "240", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "reduction" in out

    def test_compare_gray_flag_reduces_stage1_bytes(self, capsys):
        args = ["compare", "--width", "320", "--height", "240", "--k", "2"]
        assert main(args) == 0
        rgb_out = capsys.readouterr().out
        assert main(args + ["--gray"]) == 0
        gray_out = capsys.readouterr().out
        # grayscale stage 1 moves fewer bytes, so the reduction grows
        def reduction(text):
            line = next(l for l in text.splitlines() if "data transfer" in l)
            return float(line.rsplit(None, 1)[-1].rstrip("x"))
        assert reduction(gray_out) > reduction(rgb_out)

    def test_compare_score_threshold_drops_all_rois(self, capsys):
        assert main([
            "compare", "--width", "320", "--height", "240", "--k", "2",
            "--score-threshold", "0.95",
        ]) == 0
        # seed ROIs carry score 0.9 < 0.95, so nothing is read out
        assert "0 ROIs" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_exits_nonzero_with_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["launch"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "launch" in err


class TestServiceCLI:
    def test_components_lists_registries(self, capsys):
        assert main(["components"]) == 0
        out = capsys.readouterr().out
        for kind in ("detectors:", "classifiers:", "sources:", "policies:"):
            assert kind in out
        for name in ("ground-truth", "pedestrian", "temporal-reuse"):
            assert name in out

    def test_run_example_specs(self, capsys):
        for spec in ("pedestrian_reuse.json", "drone_batch.json"):
            assert main(["run", str(SPECS_DIR / spec), "--workers", "2"]) == 0
            out = capsys.readouterr().out
            assert "[batch]" in out

    def test_run_missing_file(self, capsys):
        assert main(["run", "no/such/spec.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_invalid_workers(self, capsys):
        spec = str(SPECS_DIR / "pedestrian_reuse.json")
        assert main(["run", spec, "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_run_invalid_spec_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenarios": [{"n_frames": "ten"}]}))
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "spec.scenarios[0].n_frames" in err

    @pytest.mark.parametrize(
        "config", [{"pool_k": "4"}, {"pool_k": 2.5}, {"pool_k": True}]
    )
    def test_run_nested_config_type_exits_two_naming_field(
        self, tmp_path, capsys, config
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"system": {"system": "hirise", "config": config}, "scenarios": [{}]}
            )
        )
        assert main(["run", str(bad)]) == 2
        assert "spec.system.config.pool_k: expected int" in capsys.readouterr().err

    def test_run_negative_noise_sigma_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"system": {"noise": {"read_noise": -0.01}}, "scenarios": [{}]}
            )
        )
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error: spec.system.noise: read_noise must be non-negative" in err

    def test_run_spec_without_scenarios(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"system": "hirise"}))
        assert main(["run", str(empty)]) == 2
        assert "no scenarios" in capsys.readouterr().err

    def test_components_groups_are_sorted(self, capsys):
        assert main(["components"]) == 0
        out = capsys.readouterr().out
        for kind in ("detectors", "classifiers", "sources", "policies"):
            section = out.split(f"{kind}:", 1)[1].split(":", 1)[0]
            names = [l.strip() for l in section.splitlines() if l.startswith("  ")]
            assert names == sorted(names) and names

    def test_all_example_specs_parse(self):
        from repro.service import Engine

        specs = sorted(SPECS_DIR.glob("*.json"))
        assert len(specs) >= 3
        for path in specs:
            engine = Engine.from_spec(path)
            assert engine.scenarios
            for scenario in engine.scenarios:
                scenario.validate_components()


class TestSweepCLI:
    def run_fig7(self, tmp_path, capsys, *extra):
        spec = str(SWEEPS_DIR / "paper_fig7_transfer.json")
        code = main([
            "sweep", spec, "--tiny", "--executor", "serial",
            "--out", str(tmp_path / "reports"), *extra,
        ])
        return code, capsys.readouterr()

    def test_tiny_sweep_emits_report_artifacts(self, tmp_path, capsys):
        code, captured = self.run_fig7(tmp_path, capsys)
        assert code == 0
        assert "# Fig. 7 (sweep)" in captured.out
        assert "[sweep paper_fig7_transfer-tiny]" in captured.out
        json_path = tmp_path / "reports" / "paper_fig7_transfer-tiny.json"
        md_path = tmp_path / "reports" / "paper_fig7_transfer-tiny.md"
        assert json_path.is_file() and md_path.is_file()
        payload = json.loads(json_path.read_text())
        assert all(t["passed"] for t in payload["trends"])

    def test_tiny_sweep_artifacts_are_deterministic(self, tmp_path, capsys):
        self.run_fig7(tmp_path / "a", capsys)
        self.run_fig7(tmp_path / "b", capsys)
        for name in ("paper_fig7_transfer-tiny.json", "paper_fig7_transfer-tiny.md"):
            first = (tmp_path / "a" / "reports" / name).read_bytes()
            second = (tmp_path / "b" / "reports" / name).read_bytes()
            assert first == second

    def test_profile_flag_prints_phase_breakdown(self, tmp_path, capsys):
        code, captured = self.run_fig7(tmp_path, capsys, "--profile")
        assert code == 0
        assert "phase breakdown (all cells)" in captured.out
        assert "stage1" in captured.out

    def test_missing_sweep_file(self, capsys):
        assert main(["sweep", "no/such/sweep.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_sweep_spec_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"axes": [{"path": "pool_k", "values": [2]}]}))
        assert main(["sweep", str(bad)]) == 2
        assert "axis.path" in capsys.readouterr().err

    def test_invalid_workers(self, capsys):
        spec = str(SWEEPS_DIR / "paper_fig7_transfer.json")
        assert main(["sweep", spec, "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_bad_axis_value_under_tiny_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad_res.json"
        bad.write_text(json.dumps({
            "axes": [{
                "path": "scenario.source.params.resolution",
                "values": [[320, 240], "oops"],
            }],
        }))
        assert main(["sweep", str(bad), "--tiny"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "resolution" in err

    def test_unwritable_out_dir_is_clean_error(self, tmp_path, capsys):
        spec = str(SWEEPS_DIR / "paper_fig7_transfer.json")
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        code = main([
            "sweep", spec, "--tiny", "--executor", "serial",
            "--out", str(blocker),
        ])
        assert code == 2
        assert "cannot write report" in capsys.readouterr().err

    def test_unknown_executor_rejected_by_parser(self, capsys):
        spec = str(SWEEPS_DIR / "paper_fig7_transfer.json")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", spec, "--executor", "gpu"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_failed_trend_check_exits_one(self, tmp_path, capsys):
        # A parity sweep with no classifier has zero predictions to
        # compare, so the table2 trend checks must fail (exit code 1).
        spec = {
            "name": "no_predictions",
            "system": {"detector": {"name": "ground-truth"}},
            "scenario": {
                "source": {
                    "name": "pedestrian",
                    "params": {"resolution": [160, 120]},
                },
                "n_frames": 2,
                "keep_outcomes": True,
            },
            "axes": [
                {"path": "system.compute_dtype",
                 "values": ["float64", "float32"]},
            ],
            "executor": "serial",
            "workers": 1,
            "report": "table2_accuracy",
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        code = main(["sweep", str(path), "--out", str(tmp_path / "reports")])
        err = capsys.readouterr().err
        assert code == 1
        assert "trend check failed" in err
        # the report is still written: failures are evidence, not crashes
        payload = json.loads(
            (tmp_path / "reports" / "no_predictions.json").read_text()
        )
        # zero compared predictions is absence of evidence, not agreement
        for row in payload["aggregates"]["comparisons"]:
            assert row["agreement"] is None


class TestServingCLI:
    """Argument handling for ``repro serve`` / ``repro request``.

    Daemon behavior itself lives in tests/server/; these cover the CLI
    layer — validation exits, probe flags, and the request round trip
    against a directly started server.
    """

    SCENARIO = {
        "source": {"name": "pedestrian", "params": {"resolution": [48, 36]}},
        "n_frames": 3,
        "seed": 7,
        "name": "cli-serving",
    }

    @pytest.fixture()
    def server(self):
        from repro.server import ReproServer

        with ReproServer(
            {"system": {"system": "hirise"}}, executor="serial"
        ) as srv:
            yield srv

    def test_serve_rejects_invalid_workers(self, tmp_path, capsys):
        spec = tmp_path / "svc.json"
        spec.write_text(json.dumps({"scenarios": [self.SCENARIO]}))
        assert main(["serve", str(spec), "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_serve_missing_spec_file_is_clean_error(self, capsys):
        assert main(["serve", "no/such/spec.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_request_probe_flags_are_mutually_exclusive(self, capsys):
        code = main(["request", "--port", "1", "--ping", "--stats"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_request_needs_scenario_or_probe(self, capsys):
        assert main(["request", "--port", "1"]) == 2
        assert "scenario file" in capsys.readouterr().err

    def test_request_unreachable_daemon_exits_one(self, capsys):
        code = main(["request", "--port", "1", "--ping"])
        assert code == 1
        assert "cannot reach daemon" in capsys.readouterr().err

    def test_request_ping_and_stats_probes(self, server, capsys):
        host, port = server.address
        base = ["request", "--host", host, "--port", str(port)]
        assert main(base + ["--ping"]) == 0
        assert "pong" in capsys.readouterr().out
        assert main(base + ["--stats"]) == 0
        out = capsys.readouterr().out
        assert "requests served: 0" in out
        assert "cache[results]" in out

    def test_request_runs_scenario_from_service_spec(
        self, server, tmp_path, capsys
    ):
        host, port = server.address
        spec = tmp_path / "svc.json"
        spec.write_text(json.dumps(
            {"scenarios": [dict(self.SCENARIO, seed=1), self.SCENARIO]}
        ))
        code = main([
            "request", "--host", host, "--port", str(port),
            str(spec), "--index", "1",
        ])
        assert code == 0
        assert "cli-serving" in capsys.readouterr().out

    def test_request_stream_prints_per_frame_lines(
        self, server, tmp_path, capsys
    ):
        host, port = server.address
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(self.SCENARIO))
        code = main([
            "request", "--host", host, "--port", str(port),
            str(spec), "--stream",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for idx in range(self.SCENARIO["n_frames"]):
            assert f"frame {idx}:" in out

    def test_request_bad_index_is_clean_error(self, server, tmp_path, capsys):
        host, port = server.address
        spec = tmp_path / "svc.json"
        spec.write_text(json.dumps({"scenarios": [self.SCENARIO]}))
        code = main([
            "request", "--host", host, "--port", str(port),
            str(spec), "--index", "5",
        ])
        assert code == 2
        assert "--index 5 out of range" in capsys.readouterr().err

    def test_request_invalid_scenario_is_clean_error(
        self, server, tmp_path, capsys
    ):
        host, port = server.address
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_frames": 3, "label": "nope"}))
        code = main([
            "request", "--host", host, "--port", str(port), str(bad),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, flags, message",
        [
            ({}, ["--timeout", "0"], "error [bad-frame]: run.timeout_s: must be > 0"),
            ({}, ["--timeout", "nan"], "error [bad-frame]: run.timeout_s: must be > 0"),
            (
                {"keep_outcomes": True},
                [],
                "error [bad-request]: run.scenario.keep_outcomes:",
            ),
        ],
    )
    def test_request_rejected_before_sending_is_clean_error(
        self, server, tmp_path, capsys, scenario, flags, message
    ):
        host, port = server.address
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(dict(self.SCENARIO, **scenario)))
        code = main([
            "request", "--host", host, "--port", str(port), str(spec), *flags,
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        from repro.server import ServerClient

        with ServerClient(host, port) as client:
            assert client.stats().requests_served == 0


class TestCacheCLI:
    """``repro cache`` and the ``--store-dir`` flag across subcommands."""

    SCENARIO = {
        "source": {"name": "pedestrian", "params": {"resolution": [48, 36]}},
        "n_frames": 3,
        "seed": 7,
        "name": "cli-store",
    }

    def service_spec(self, tmp_path) -> str:
        spec = tmp_path / "svc.json"
        spec.write_text(json.dumps({"scenarios": [self.SCENARIO]}))
        return str(spec)

    def test_stats_on_empty_store(self, tmp_path, capsys):
        code = main(["cache", "stats", "--store-dir", str(tmp_path / "store")])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 object(s)" in out
        assert "empty" in out

    def test_run_populates_store_and_restart_replays(self, tmp_path, capsys):
        spec = self.service_spec(tmp_path)
        store = str(tmp_path / "store")
        assert main(["run", spec, "--store-dir", store]) == 0
        cold = capsys.readouterr().out

        assert main(["cache", "stats", "--store-dir", store]) == 0
        stats = capsys.readouterr().out
        assert "clip: 1 entry" in stats
        assert "result: 1 entry" in stats

        # A second CLI invocation (fresh process state, same root) serves
        # the same report from disk.
        assert main(["run", spec, "--store-dir", store]) == 0
        warm = capsys.readouterr().out

        def reports(text):
            return [l for l in text.splitlines() if "cli-store" in l]

        assert reports(warm) == reports(cold)

    def test_gc_to_zero_budget_clears(self, tmp_path, capsys):
        spec = self.service_spec(tmp_path)
        store = str(tmp_path / "store")
        assert main(["run", spec, "--store-dir", store]) == 0
        capsys.readouterr()
        assert main(["cache", "gc", "--store-dir", store, "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "removed 2 object(s)" in out
        assert main(["cache", "stats", "--store-dir", store]) == 0
        assert "0 object(s)" in capsys.readouterr().out

    def test_clear(self, tmp_path, capsys):
        spec = self.service_spec(tmp_path)
        store = str(tmp_path / "store")
        assert main(["run", spec, "--store-dir", store]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--store-dir", store]) == 0
        assert "removed 2 object(s)" in capsys.readouterr().out

    def test_gc_negative_budget_is_clean_error(self, tmp_path, capsys):
        code = main([
            "cache", "gc", "--store-dir", str(tmp_path / "store"),
            "--max-bytes", "-5",
        ])
        assert code == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_cache_requires_action_and_store_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "stats"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "gc", "--store-dir", "x"])

    def test_store_dir_flag_parses_on_run_serve_sweep(self):
        parser = build_parser()
        for argv in (
            ["run", "spec.json", "--store-dir", "s"],
            ["serve", "spec.json", "--store-dir", "s"],
            ["sweep", "sweep.json", "--store-dir", "s"],
        ):
            assert parser.parse_args(argv).store_dir == "s"

    def test_request_stats_reports_store_tier(self, tmp_path, capsys):
        from repro.server import ReproServer
        from repro.store import ArtifactStore

        spec = self.service_spec(tmp_path)
        store_dir = tmp_path / "store"
        with ReproServer(
            {"system": {"system": "hirise"}},
            executor="serial",
            store=ArtifactStore(store_dir),
        ) as server:
            host, port = server.address
            base = ["request", "--host", host, "--port", str(port)]
            assert main(base + [spec]) == 0
            capsys.readouterr()
            assert main(base + ["--stats"]) == 0
            out = capsys.readouterr().out
        assert "cache[store]" in out
        assert "write(s)" in out
        # per-tier occupancy: entries + byte sizes surface over the wire
        assert "cache[results]" in out
        assert "entry" in out
        assert "kB" in out

    def test_request_stats_shows_disk_hits_after_restart(self, tmp_path, capsys):
        from repro.server import ReproServer
        from repro.store import ArtifactStore

        spec = self.service_spec(tmp_path)
        store_dir = tmp_path / "store"
        with ReproServer(
            {"system": {"system": "hirise"}},
            executor="serial",
            store=ArtifactStore(store_dir),
        ) as server:
            host, port = server.address
            assert main(
                ["request", "--host", host, "--port", str(port), spec]
            ) == 0
        capsys.readouterr()

        with ReproServer(
            {"system": {"system": "hirise"}},
            executor="serial",
            store=ArtifactStore(store_dir),
        ) as server:
            host, port = server.address
            base = ["request", "--host", host, "--port", str(port)]
            assert main(base + [spec]) == 0
            capsys.readouterr()
            assert main(base + ["--stats"]) == 0
            out = capsys.readouterr().out
        assert "disk 1 hit(s) / 0 miss(es)" in out
