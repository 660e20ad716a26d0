"""CLI surface of the distributed subsystem: flags, guards, heartbeats.

Includes the ``--progress`` satellite's regression: default output is
unchanged — no heartbeat lines unless the flag is given, and heartbeats
go to stderr so stdout reports stay byte-identical either way.
"""

import pytest

from repro.cli import MONTE_CARLO_EXPERIMENTS, build_parser, main, run
from repro.distribute import parse_distribute


class TestParseDistribute:
    def test_local_spec(self):
        assert parse_distribute("local:4") == {"local_workers": 4}

    def test_listen_specs(self):
        assert parse_distribute("listen:7000") == {
            "host": "0.0.0.0",
            "port": 7000,
        }
        assert parse_distribute("listen:10.0.0.5:7000") == {
            "host": "10.0.0.5",
            "port": 7000,
        }

    @pytest.mark.parametrize(
        "bad", ["local:0", "local:x", "nfs:3", "listen:", "local"]
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError, match="--distribute"):
            parse_distribute(bad)


class TestDispatch:
    """The dispatch layer forwards every distributed flag it claims."""

    def _capture(self, monkeypatch, module, argv):
        captured = {}

        def fake_main(**kwargs):
            captured.update(kwargs)
            return ""

        monkeypatch.setattr(module, "main", fake_main)
        assert run(build_parser().parse_args(argv)) == 0
        return captured

    @pytest.mark.parametrize("experiment", MONTE_CARLO_EXPERIMENTS)
    def test_distribute_flags_threaded(self, monkeypatch, experiment):
        from repro import cli

        module = {
            "table4": cli.table4,
            "ablation-shuffle": cli.ablation_shuffle,
            "ablation-frontier": cli.ablation_frontier,
        }[experiment]
        captured = self._capture(
            monkeypatch,
            module,
            [experiment, "--distribute", "local:2", "--checkpoint-dir",
             "ckpt", "--resume", "--progress"],
        )
        assert captured["distribute"] == "local:2"
        assert captured["checkpoint_dir"] == "ckpt"
        assert captured["resume"] is True
        assert captured["progress"] is True

    def test_defaults_omit_distribute_kwargs(self, monkeypatch):
        from repro import cli

        captured = self._capture(monkeypatch, cli.table4, ["table4"])
        for key in ("distribute", "checkpoint_dir", "resume", "progress"):
            assert key not in captured

    def test_coordinator_mode_is_listen_distribute(self, monkeypatch):
        from repro import cli

        captured = self._capture(
            monkeypatch,
            cli.table4,
            ["coordinator", "--run", "table4", "--host", "127.0.0.1",
             "--port", "7000", "--trials", "50"],
        )
        assert captured["distribute"] == "listen:127.0.0.1:7000"
        assert captured["trials"] == 50

    def test_all_gives_each_experiment_its_own_checkpoint_subdir(
        self, monkeypatch
    ):
        import repro.orchestrate.sweep as sweep

        seen = {}

        def fake_run_all(tasks, **kwargs):
            for task in tasks:
                seen[task.name] = dict(task.kwargs)
            return {}

        monkeypatch.setattr("repro.cli.run_all", fake_run_all)
        args = build_parser().parse_args(
            ["all", "--distribute", "local:2", "--checkpoint-dir", "ckpt",
             "--progress"]
        )
        assert run(args) == 0
        assert seen["table4"]["checkpoint_dir"] == "ckpt/table4"
        assert seen["ablation-shuffle"]["checkpoint_dir"] == (
            "ckpt/ablation-shuffle"
        )
        assert seen["table4"]["distribute"] == "local:2"
        assert seen["table4"]["progress"] is True
        assert "distribute" not in seen["table1"]  # not a MC experiment
        assert sweep.EXPERIMENT_TARGETS  # registry untouched

    def test_all_in_process_checkpoint_subdirs(self, monkeypatch):
        seen = {}

        def fake_run_all(tasks, **kwargs):
            for task in tasks:
                seen[task.name] = dict(task.kwargs)
            return {}

        monkeypatch.setattr("repro.cli.run_all", fake_run_all)
        args = build_parser().parse_args(
            ["all", "--checkpoint-dir", "ckpt", "--resume"]
        )
        assert run(args) == 0
        assert seen["table4"]["checkpoint_dir"] == "ckpt/table4"
        assert seen["ablation-frontier"]["resume"] is True
        assert "distribute" not in seen["table4"]
        assert "checkpoint_dir" not in seen["table1"]


class TestInProcessCheckpoint:
    """``--checkpoint-dir`` without ``--distribute``: the in-process run
    journals every chunk, and ``--resume`` replays them all."""

    def test_checkpoint_then_resume_matches_serial(self, tmp_path, capsys):
        from repro.distribute import JOURNAL_NAME

        plain = ["table4", "--trials", "60", "--chunk-size", "30"]
        assert run(build_parser().parse_args(plain)) == 0
        serial = capsys.readouterr().out
        base = plain + ["--checkpoint-dir", str(tmp_path)]
        assert run(build_parser().parse_args(base)) == 0
        assert capsys.readouterr().out == serial
        journal = (tmp_path / JOURNAL_NAME).read_bytes()
        # a header plus 10 design points x 2 chunks
        assert len(journal.splitlines()) == 1 + 10 * 2
        assert run(build_parser().parse_args(base + ["--resume"])) == 0
        assert capsys.readouterr().out == serial
        # the resume computed nothing, so it journalled nothing
        assert (tmp_path / JOURNAL_NAME).read_bytes() == journal

    def test_fresh_run_over_a_journal_is_a_one_line_error(
        self, tmp_path, capsys
    ):
        base = ["table4", "--trials", "60", "--chunk-size", "30",
                "--checkpoint-dir", str(tmp_path)]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "--resume" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_resume_with_another_seed_is_a_one_line_error(
        self, tmp_path, capsys
    ):
        base = ["table4", "--trials", "60", "--chunk-size", "30",
                "--checkpoint-dir", str(tmp_path)]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--seed", "3", "--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "stream key" in captured.err
        assert len(captured.err.splitlines()) == 1


class TestGuards:
    def test_distribute_rejected_for_non_msed_experiment(self, capsys):
        args = build_parser().parse_args(
            ["table1", "--distribute", "local:2"]
        )
        assert run(args) == 2
        assert "--distribute" in capsys.readouterr().err

    def test_all_rejects_listen_mode(self, capsys):
        """Workers don't reconnect between experiments (yet), so a
        listen-mode sweep would hang after the first one finishes."""
        args = build_parser().parse_args(
            ["all", "--distribute", "listen:7000"]
        )
        assert run(args) == 2
        assert "local:N" in capsys.readouterr().err

    def test_progress_rejected_for_unsupported_experiment(self, capsys):
        """Same flag-dropping class as the extension --trials bug: an
        experiment without heartbeats must refuse, not silently drop."""
        args = build_parser().parse_args(
            ["extension-double-device", "--progress"]
        )
        assert run(args) == 2
        assert "--progress" in capsys.readouterr().err

    def test_checkpoint_dir_rejected_for_non_campaign_experiment(
        self, capsys
    ):
        args = build_parser().parse_args(
            ["table3", "--checkpoint-dir", "ckpt"]
        )
        assert run(args) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_resume_requires_checkpoint_dir(self, capsys):
        args = build_parser().parse_args(
            ["table4", "--distribute", "local:2", "--resume"]
        )
        assert run(args) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_connect_only_for_worker(self, capsys):
        args = build_parser().parse_args(
            ["table4", "--connect", "host:7000"]
        )
        assert run(args) == 2
        assert "--connect" in capsys.readouterr().err

    def test_worker_requires_connect(self, capsys):
        assert run(build_parser().parse_args(["worker"])) == 2
        assert "--connect" in capsys.readouterr().err

    def test_worker_rejects_bad_address(self, capsys):
        args = build_parser().parse_args(["worker", "--connect", "nope"])
        assert run(args) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_coordinator_requires_run_and_port(self, capsys):
        assert run(build_parser().parse_args(["coordinator"])) == 2
        assert "--run" in capsys.readouterr().err

    def test_run_port_only_for_coordinator(self, capsys):
        args = build_parser().parse_args(["table4", "--port", "7000"])
        assert run(args) == 2
        assert "coordinator" in capsys.readouterr().err

    def test_chaos_requires_distribute(self, capsys, monkeypatch):
        from repro.distribute import CHAOS_ENV

        monkeypatch.delenv(CHAOS_ENV, raising=False)
        args = build_parser().parse_args(
            ["table4", "--chaos", "seed=1,reset=0.1"]
        )
        assert run(args) == 2
        assert "--chaos" in capsys.readouterr().err
        # A refused invocation must not leak the spec into the process
        # environment (it would silently arm later runs).
        assert CHAOS_ENV not in __import__("os").environ

    def test_bad_chaos_spec_rejected(self, capsys):
        args = build_parser().parse_args(
            ["table4", "--distribute", "local:1", "--chaos", "bogus=0.5"]
        )
        assert run(args) == 2
        assert "--chaos" in capsys.readouterr().err


class TestChaosRuns:
    """--chaos end to end: parity under faults, exit 4 on degradation."""

    def test_chaos_run_output_identical_to_clean_run(
        self, capsys, monkeypatch
    ):
        from repro.distribute import CHAOS_ENV

        monkeypatch.setenv(CHAOS_ENV, "")  # restored after the test
        base = ["table4", "--trials", "60", "--chunk-size", "30",
                "--distribute", "local:1"]
        assert run(build_parser().parse_args(base)) == 0
        clean = capsys.readouterr().out
        assert run(
            build_parser().parse_args(
                base + ["--chaos", "seed=3,dup=0.5,reset=0.2"]
            )
        ) == 0
        assert capsys.readouterr().out == clean

    def test_degraded_run_exits_4_and_resumes(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.distribute import CHAOS_ENV, PARTIAL_RESULTS_NAME

        monkeypatch.setenv(CHAOS_ENV, "")
        base = ["table4", "--trials", "60", "--chunk-size", "30",
                "--distribute", "local:2", "--checkpoint-dir",
                str(tmp_path)]
        # Every worker crashes on its first task: total fleet loss.
        args = build_parser().parse_args(base + ["--chaos", "crash=@1"])
        assert run(args) == 4
        err = capsys.readouterr().err
        assert "degraded" in err
        assert "--resume" in err
        assert (tmp_path / PARTIAL_RESULTS_NAME).exists()
        # A chaos-free resume finishes the run.
        monkeypatch.setenv(CHAOS_ENV, "")
        assert run(build_parser().parse_args(base + ["--resume"])) == 0
        assert "measured vs paper" in capsys.readouterr().out


class TestProgressOutputRegression:
    """Satellite: default output unchanged; heartbeats are stderr-only."""

    def test_default_output_has_no_heartbeat(self, capsys):
        args = build_parser().parse_args(
            ["table4", "--trials", "60", "--chunk-size", "30"]
        )
        assert run(args) == 0
        out, err = capsys.readouterr()
        assert "[progress]" not in out
        assert "[progress]" not in err
        assert "measured vs paper" in out

    def test_progress_flag_prints_heartbeat_to_stderr_only(self, capsys):
        baseline_args = build_parser().parse_args(
            ["table4", "--trials", "60", "--chunk-size", "30"]
        )
        assert run(baseline_args) == 0
        baseline_out = capsys.readouterr().out

        args = build_parser().parse_args(
            ["table4", "--trials", "60", "--chunk-size", "30", "--progress"]
        )
        assert run(args) == 0
        out, err = capsys.readouterr()
        assert out == baseline_out  # stdout report byte-identical
        assert "[progress]" in err
        assert "chunks" in err
