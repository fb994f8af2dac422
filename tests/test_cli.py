"""Tests for the ``python -m repro`` command-line interface."""

import io
import os

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_reproduce_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "fig99"])

    def test_registry_covers_every_paper_figure(self):
        for required in ("fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "fig6",
                         "fig7a", "fig7b", "allocators", "light", "gfsl",
                         "shard-sweep"):
            assert required in EXPERIMENTS

    def test_module_docstring_lists_every_experiment(self):
        """Guard against usage-block drift: the docstring must name every id."""
        import repro.cli
        for name in EXPERIMENTS:
            assert name in repro.cli.__doc__, f"{name} missing from cli docstring"


class TestCommands:
    @pytest.mark.smoke
    def test_list_prints_every_experiment_with_description(self):
        stream = io.StringIO()
        assert main(["list"], stream=stream) == 0
        output = stream.getvalue()
        for name, (description, _) in EXPERIMENTS.items():
            assert name in output
            assert description in output

    def test_reproduce_shard_sweep_reports_scaling(self):
        stream = io.StringIO()
        assert main(["reproduce", "shard-sweep", "--scale", "0.05"], stream=stream) == 0
        output = stream.getvalue()
        assert "Shard sweep" in output
        assert "build speedup" in output
        assert "build_speedup_4_shards" in output

    @pytest.mark.smoke
    def test_info_prints_device_and_reference_points(self):
        stream = io.StringIO()
        assert main(["info"], stream=stream) == 0
        output = stream.getvalue()
        assert "Tesla K40c" in output
        assert "937" in output and "512" in output

    def test_reproduce_single_experiment_prints_table(self):
        stream = io.StringIO()
        assert main(["reproduce", "gfsl"], stream=stream) == 0
        output = stream.getvalue()
        assert "GFSL" in output
        assert "SlabHash" in output

    def test_reproduce_writes_output_files(self, tmp_path):
        stream = io.StringIO()
        out_dir = str(tmp_path / "results")
        assert main(["reproduce", "slabsize", "--out", out_dir], stream=stream) == 0
        assert os.path.exists(os.path.join(out_dir, "slabsize.txt"))
        with open(os.path.join(out_dir, "slabsize.txt"), encoding="utf-8") as handle:
            assert "utilization" in handle.read()

    def test_reproduce_scaled_down_runs_quickly(self):
        stream = io.StringIO()
        assert main(["reproduce", "fig4c", "--scale", "0.1"], stream=stream) == 0
        assert "Figure 4c" in stream.getvalue()

    def test_scale_floor_prevents_degenerate_sizes(self):
        stream = io.StringIO()
        # Even an absurdly small scale must still produce a valid run.
        assert main(["reproduce", "allocators", "--scale", "0.001"], stream=stream) == 0
        assert "Section V" in stream.getvalue()


class TestPersistCommands:
    @pytest.mark.smoke
    def test_snapshot_verifies_its_own_round_trip(self, tmp_path):
        stream = io.StringIO()
        out = str(tmp_path / "demo.npz")
        assert main(["snapshot", out, "--elements", "1024"], stream=stream) == 0
        output = stream.getvalue()
        assert os.path.exists(out)
        assert "round-trip verified" in output and "yes" in output

    def test_snapshot_builds_a_sharded_engine(self, tmp_path):
        stream = io.StringIO()
        out = str(tmp_path / "demo-engine")
        assert main(["snapshot", out, "--elements", "1024", "--shards", "2"],
                    stream=stream) == 0
        assert os.path.isdir(out)
        assert "sharded engine" in stream.getvalue()

    @pytest.mark.smoke
    def test_service_health_reports_a_healthy_run(self):
        stream = io.StringIO()
        assert main(["service-health", "--ops", "2048"], stream=stream) == 0
        output = stream.getvalue()
        assert "healthy" in output
        assert "breaker trips" in output
        assert "rej-quar" in output  # the per-lane table rendered

    @pytest.mark.parametrize("flag", ["--executor", "--workers"])
    def test_service_health_has_no_executor_flags(self, flag, capsys):
        """Shards always run in-process; the old executor flags are gone."""
        with pytest.raises(SystemExit) as info:
            main(["service-health", "--ops", "256", flag, "2"], stream=io.StringIO())
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_service_health_surfaces_fault_counters_under_chaos(self):
        stream = io.StringIO()
        code = main(
            ["service-health", "--ops", "2048", "--chaos-seed", "7"],
            stream=stream,
        )
        output = stream.getvalue()
        assert "injected faults fired" in output
        # Every lane self-heals, so even a chaotic run must exit healthy.
        assert code == 0, output
        assert "DEGRADED" not in output

    @pytest.mark.smoke
    def test_recover_replays_a_wal_tail(self, tmp_path):
        import numpy as np

        from repro.persist import WriteAheadLog

        out = str(tmp_path / "demo.npz")
        assert main(["snapshot", out, "--elements", "1024"], stream=io.StringIO()) == 0
        wal_path = str(tmp_path / "ops.wal")
        with WriteAheadLog(wal_path) as wal:
            for index in range(2):
                keys = np.arange(1 + 40 * index, 41 + 40 * index, dtype=np.uint32)
                wal.append(np.full(40, 1), keys, keys, batch_index=index)
        stream = io.StringIO()
        assert main(["recover", out, "--wal", wal_path], stream=stream) == 0
        output = stream.getvalue()
        assert "records replayed" in output and "2" in output
        assert "1104" in output  # 1024 built + 80 replayed insertions
