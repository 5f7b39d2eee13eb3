"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_catalog_command(self, capsys):
        assert main(["catalog"]) == 0
        output = capsys.readouterr().out
        assert "(IJ-P | J,IJK-T)" in output

    def test_experiment_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        output = capsys.readouterr().out
        assert "fig6" in output and "fig12" in output

    def test_experiment_unknown_name(self, capsys):
        assert main(["experiment", "not-an-experiment"]) == 1

    def test_run_fast_experiment(self, capsys):
        assert main(["experiment", "fig1"]) == 0
        output = capsys.readouterr().out
        assert "fig1-reuse-example" in output

    def test_analyze_command(self, capsys):
        code = main([
            "analyze", "--kernel", "gemm", "--sizes", "16", "16", "16",
            "--dataflow", "(IJ-P | J,IJK-T)", "--pe", "8", "8",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "latency" in output and "PE utilization" in output

    def test_explore_command(self, capsys):
        code = main([
            "explore", "--kernel", "gemm", "--sizes", "12", "12", "12",
            "--max-candidates", "6", "--objective", "latency", "--top", "3",
            "--early-termination",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "objective = latency" in output
        assert "engine:" in output

    def test_explore_fused_backend_with_profile(self, capsys):
        code = main([
            "explore", "--kernel", "gemm", "--sizes", "12", "12", "12",
            "--max-candidates", "6", "--backend", "fused", "--top", "3",
            "--profile",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "objective = latency" in output
        assert "backend=fused" in output
        assert "profile (per-stage wall clock" in output
        # The profile header labels the resolved backend and array namespace,
        # and the breakdown includes the host<->device transfer stage.
        assert "backend=fused, namespace=numpy:cpu" in output
        for stage in ("stamps", "volumes", "transfer"):
            assert stage in output

    @pytest.mark.parametrize("name", ["affine", "bitset"])
    @pytest.mark.parametrize("command", [
        ["explore", "--kernel", "gemm", "--sizes", "12", "12", "12"],
        ["serve", "--listen", "127.0.0.1:0"],
    ], ids=["explore", "serve"])
    def test_removed_backend_is_one_line_usage_error(self, command, name, capsys):
        with pytest.raises(SystemExit) as info:
            main(command + ["--backend", name])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"invalid choice: '{name}'" in errors[0]
        assert "'auto', 'interp', 'fused'" in errors[0]

    @pytest.mark.parametrize("flag", ["--tune", "--no-tune"])
    @pytest.mark.parametrize("command", [
        ["explore", "--kernel", "gemm", "--sizes", "12", "12", "12"],
        ["serve", "--listen", "127.0.0.1:0"],
    ], ids=["explore", "serve"])
    def test_removed_tune_flag_is_one_line_usage_error(self, command, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main(command + [flag])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"unrecognized arguments: {flag}" in errors[0]

    def test_explore_profile_json_reports_the_pool(self, capsys, tmp_path):
        import json

        path = tmp_path / "profile.json"
        code = main([
            "explore", "--kernel", "gemm", "--sizes", "12", "12", "12",
            "--max-candidates", "8", "--jobs", "2", "--profile-json", str(path),
        ])
        assert code == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert "tuning" not in payload
        assert payload["jobs"] == 2
        assert payload["sweep"]["evaluated"] == 8
        assert payload["relation_cache"]["worker_misses"] == 0
        assert payload["relation_cache"]["worker_hits"] >= 8
        # Worker counters are aggregated: layouts are built once per space
        # signature and tensor, and reused by the family's other candidates.
        stats = payload["stats"]
        assert 1 <= stats["layout_builds"] < stats["fused_path"]

    @pytest.mark.parametrize("argv, message", [
        (["explore", "--kernel", "nope", "--sizes", "4", "4", "4"],
         "unknown --kernel 'nope'"),
        (["explore", "--kernel", "gemm", "--sizes", "4", "4"],
         "takes 3 --sizes (i j k), got 2"),
        (["explore", "--kernel", "gemm", "--sizes", "4", "0", "4"],
         "--sizes must be positive"),
        (["explore", "--kernel", "gemm", "--sizes", "4", "-4", "4"],
         "--sizes must be positive"),
        (["explore", "--kernel", "jacobi2d", "--sizes", "2", "8"],
         "--kernel jacobi2d has no iterations at --sizes 2 8"),
        (["explore", "--kernel", "gemm", "--sizes", "4", "4", "4", "--jobs", "0"],
         "--jobs must be at least 1, got 0"),
        (["explore", "--kernel", "gemm", "--sizes", "4", "4", "4", "--pe", "8"],
         "--pe takes exactly two extents (rows cols), got 8"),
        (["fleet", "--kernel", "gemm", "--sizes", "4", "4", "4", "--pe", "8", "8", "8",
          "--checkpoint-dir", "unused"],
         "--pe takes exactly two extents (rows cols), got 8 8 8"),
        (["explore", "--kernel", "gemm", "--sizes", "4", "4", "4", "--pe", "0", "8"],
         "--pe extents must be positive, got 0 8"),
        (["fleet", "--kernel", "gemmm", "--sizes", "4", "4", "4",
          "--checkpoint-dir", "unused"],
         "unknown --kernel 'gemmm'"),
        (["analyze", "--kernel", "nope", "--sizes", "4", "4", "4",
          "--dataflow", "(IJ-P | J,IJK-T)"], "unknown --kernel 'nope'"),
        (["analyze", "--kernel", "conv2d", "--sizes", "4", "4", "4",
          "--dataflow", "(IJ-P | J,IJK-T)"], "takes 6 --sizes"),
        (["analyze", "--kernel", "gemm", "--sizes", "4", "0", "4",
          "--dataflow", "(IJ-P | J,IJK-T)"], "--sizes must be positive"),
        (["analyze", "--kernel", "jacobi2d", "--sizes", "8", "1",
          "--dataflow", "(IJ-P | J,IJK-T)"], "--kernel jacobi2d has no iterations"),
        (["analyze", "--kernel", "gemm", "--sizes", "4", "4", "4",
          "--dataflow", "nope"], "no dataflow 'nope' for kernel 'gemm'"),
    ], ids=["explore-kernel", "explore-arity", "explore-zero", "explore-negative",
            "explore-empty-domain", "explore-jobs", "explore-pe", "fleet-pe",
            "explore-pe-zero", "fleet-kernel",
            "analyze-kernel", "analyze-arity", "analyze-zero", "analyze-empty-domain",
            "analyze-dataflow"])
    def test_bad_input_is_one_line_error(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"tenet {argv[0]}: error: ")
        assert message in captured.err
        assert captured.out == ""

    def test_explore_unavailable_device_is_clear_capability_error(self, capsys):
        import repro.core.xp as xpmod

        missing = [n for n in ("torch", "cupy") if not xpmod.probe_namespace(n)[0]]
        if not missing:
            pytest.skip("both torch and cupy installed")
        code = main([
            "explore", "--kernel", "gemm", "--sizes", "12", "12", "12",
            "--max-candidates", "6", "--device", missing[0],
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "tenet explore: error" in err
        assert "available namespaces" in err and "numpy" in err

    def test_explore_numpy_device_aliases(self, capsys):
        code = main([
            "explore", "--kernel", "gemm", "--sizes", "12", "12", "12",
            "--max-candidates", "4", "--device", "cpu", "--top", "2",
        ])
        assert code == 0
        assert "objective = latency" in capsys.readouterr().out

    def test_explore_top_bounds_ranking(self, capsys):
        code = main([
            "explore", "--kernel", "gemm", "--sizes", "12", "12", "12",
            "--max-candidates", "8", "--top", "2",
        ])
        assert code == 0
        output = capsys.readouterr().out
        # Exactly two ranked lines (" 1." and " 2."), nothing beyond the bound.
        assert "  1. " in output and "  2. " in output and "  3. " not in output

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "tenet" in capsys.readouterr().out

    def test_every_registered_experiment_is_callable(self):
        for name, runner in EXPERIMENTS.items():
            assert callable(runner), name

    def test_parser_version(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--version"])


class TestShardedExplore:
    def _explore(self, *extra):
        return main([
            "explore", "--kernel", "gemm", "--sizes", "12", "12", "12",
            "--max-candidates", "8", "--top", "3", *extra,
        ])

    def test_explore_shard_and_checkpoint(self, capsys, tmp_path):
        full = tmp_path / "full.jsonl"
        assert self._explore("--checkpoint", str(full)) == 0
        reference = capsys.readouterr().out
        shard_paths = []
        for index in range(2):
            path = tmp_path / f"s{index}.jsonl"
            shard_paths.append(str(path))
            assert self._explore("--shard", f"{index}/2", "--checkpoint", str(path)) == 0
            assert "shard" in capsys.readouterr().out
        # Merged shard checkpoints render the same ranking as the full sweep.
        assert main(["sweep-merge", str(full)]) == 0
        merged_full = capsys.readouterr().out
        assert main(["sweep-merge", *shard_paths]) == 0
        merged_shards = capsys.readouterr().out
        assert merged_full == merged_shards
        assert "objective = latency" in reference

    def test_explore_resume(self, capsys, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        assert self._explore("--checkpoint", str(checkpoint)) == 0
        capsys.readouterr()
        assert self._explore("--checkpoint", str(checkpoint), "--resume") == 0
        assert "resumed" in capsys.readouterr().out

    def test_explore_invalid_shard(self, capsys):
        from repro.errors import ExplorationError

        with pytest.raises(ExplorationError):
            self._explore("--shard", "2/2")

    def test_sweep_merge_empty(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["sweep-merge", str(empty)]) == 1


class TestServeCommand:
    def test_serve_requests_file(self, capsys, tmp_path):
        import json

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"kernel": "gemm", "sizes": [12, 12, 12],
                        "max_candidates": 4}) + "\n"
            + json.dumps({"kernel": "gemm", "sizes": [12, 12, 12],
                          "objective": "energy", "max_candidates": 4}) + "\n"
        )
        assert main(["serve", "--requests", str(requests)]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines() if line]
        assert len(records) == 2
        assert records[1]["engine_reused"] is True
        assert "served 2" in captured.err
        # The startup banner advertises the selected device and every
        # namespace's availability.
        assert "device=numpy" in captured.err
        assert "array namespaces" in captured.err
        assert "numpy=yes" in captured.err

    def test_serve_stats_advertises_namespaces(self, capsys, tmp_path):
        import json

        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"cmd": "stats"}\n')
        assert main(["serve", "--requests", str(requests)]) == 0
        captured = capsys.readouterr()
        record = json.loads(captured.out.splitlines()[0])
        assert record["device"] == "numpy"
        assert "numpy" in record["array_namespaces"]
        assert record["engine_devices"] == []

    def test_serve_unavailable_device_is_clear_capability_error(self, capsys):
        import repro.core.xp as xpmod

        missing = [n for n in ("torch", "cupy") if not xpmod.probe_namespace(n)[0]]
        if not missing:
            pytest.skip("both torch and cupy installed")
        assert main(["serve", "--requests", "/dev/null",
                     "--device", missing[0]]) == 1
        err = capsys.readouterr().err
        assert "tenet serve: error" in err
        assert "available namespaces" in err
