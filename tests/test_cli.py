"""CLI subcommands: argument handling and end-to-end output."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.task == "cifar10-like"
        assert args.strategy == "xnoise"
        assert args.transport == "inprocess"

    def test_transport_choices(self):
        args = build_parser().parse_args(["run", "--transport", "sockets"])
        assert args.transport == "sockets"
        for name in ("pigeon", "websocket"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "--transport", name])

    def test_plan_requires_core_args(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--rounds", "10"])

    def test_unknown_task_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--task", "imagenet"])


def _finished(code: int, err: str) -> bool:
    """A run's status is its budget's: 0 within it, 1 over it — the one
    case the stderr warning names."""
    return code == (1 if "exceeds the budget" in err else 0)


class TestRunCommand:
    def test_quick_session(self, capsys):
        code = main([
            "run", "--num-clients", "16", "--sample-size", "6",
            "--rounds", "3", "--dropout-rate", "0.2",
        ])
        out, err = capsys.readouterr()
        assert _finished(code, err)
        assert "epsilon consumed" in out
        assert "rounds completed : 3" in out

    def test_overspent_budget_names_the_past_tolerance_rounds_on_stderr(self, capsys):
        code = main([
            "run", "--num-clients", "12", "--sample-size", "6", "--rounds", "3",
            "--dropout-rate", "0.2", "--strategy", "xnoise",
        ])
        out, err = capsys.readouterr()
        assert code == 1  # the run ended over its budget: not a success
        assert "epsilon consumed : 7.437 (budget 6.0)" in out
        (line,) = err.strip().splitlines()
        assert line == (
            "warning: epsilon consumed 7.437 exceeds the budget 6.0; "
            "rounds past the XNoise tolerance (|D| > T): 0, 2"
        )

    def test_within_budget_run_is_silent_on_stderr(self, capsys):
        code = main([
            "run", "--num-clients", "12", "--sample-size", "6", "--rounds", "3",
            "--dropout-rate", "0.0", "--strategy", "xnoise",
        ])
        out, err = capsys.readouterr()
        assert code == 0 and "epsilon consumed" in out
        assert err == ""

    def test_trace_availability_and_fleet_report(self, capsys):
        code = main([
            "run", "--num-clients", "24", "--sample-size", "8",
            "--rounds", "3", "--availability", "trace", "--asymmetric",
        ])
        out, err = capsys.readouterr()
        assert _finished(code, err)
        assert "dropout=trace" in out
        assert "fleet-timed" in out
        assert "down" in out and "up" in out

    @pytest.mark.timeout(120)
    def test_sockets_transport_smoke(self, capsys):
        code = main([
            "run", "--num-clients", "12", "--sample-size", "5",
            "--rounds", "2", "--transport", "sockets",
        ])
        assert code == 0
        assert "rounds completed : 2" in capsys.readouterr().out

    def test_no_fleet_opt_out(self, capsys):
        code = main([
            "run", "--num-clients", "16", "--sample-size", "6",
            "--rounds", "2", "--no-fleet",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet-timed" not in out

    def test_no_fleet_conflicts_with_fleet_flags(self, capsys):
        assert main(["run", "--no-fleet", "--availability", "trace"]) == 2
        assert "--no-fleet" in capsys.readouterr().err
        assert main(["run", "--no-fleet", "--asymmetric"]) == 2

    def test_early_strategy_reports_stop(self, capsys):
        code = main([
            "run", "--strategy", "early", "--dropout-rate", "0.4",
            "--num-clients", "16", "--sample-size", "6", "--rounds", "6",
        ])
        out, err = capsys.readouterr()
        assert _finished(code, err)
        assert "stopped early" in out


class TestPlanCommand:
    def test_plan_output(self, capsys):
        code = main([
            "plan", "--rounds", "50", "--epsilon", "6", "--delta", "0.001",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "per-round sigma" in out
        # The plan lands on the budget.
        eps_line = [ln for ln in out.splitlines() if "epsilon at" in ln][0]
        assert "6.0" in eps_line or "5.9" in eps_line


class TestPipelineCommand:
    def test_pipeline_output(self, capsys):
        code = main([
            "pipeline", "--clients", "16", "--model-size", "11000000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "speedup" in out
        assert "m* =" in out

    def test_xnoise_flag_increases_plain_time(self, capsys):
        main(["pipeline", "--clients", "16", "--model-size", "1000000"])
        base = capsys.readouterr().out
        main(["pipeline", "--clients", "16", "--model-size", "1000000",
              "--xnoise"])
        xn = capsys.readouterr().out

        def plain_minutes(text):
            line = [ln for ln in text.splitlines() if ln.startswith("plain")][0]
            return float(line.split(":")[1].split("min")[0])

        assert plain_minutes(xn) > plain_minutes(base)


class TestServeJoinValidation:
    """serve/join argument hardening."""

    def test_serve_too_few_clients_rejected(self, capsys):
        assert main(["serve", "--clients", "2"]) == 2
        assert "at least 3" in capsys.readouterr().err

    def test_serve_bad_port_rejected(self, capsys):
        assert main(["serve", "--port", "70000"]) == 2
        assert "65535" in capsys.readouterr().err

    def test_serve_bad_join_timeout_rejected(self, capsys):
        assert main(["serve", "--join-timeout", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_serve_has_no_transport_option(self):
        # Framed TCP is the one carrier: there is nothing to choose.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--transport", "sockets"])

    def test_join_requires_client_id_and_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["join", "--port", "7001"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["join", "--client-id", "1"])

    def test_join_bad_port_rejected(self, capsys):
        assert main(["join", "--client-id", "1", "--port", "0"]) == 2
        assert "65535" in capsys.readouterr().err

    def test_join_client_id_outside_cohort_rejected(self, capsys):
        code = main(["join", "--client-id", "9", "--clients", "5",
                     "--port", "7001"])
        assert code == 2
        assert "[1, 5]" in capsys.readouterr().err

    def test_join_bad_die_after_rejected(self, capsys):
        code = main(["join", "--client-id", "1", "--port", "7001",
                     "--die-after", "0"])
        assert code == 2
        assert "die-after" in capsys.readouterr().err

    def test_join_has_no_transport_option(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["join", "--client-id", "1", "--port", "7001",
                 "--transport", "sockets"]
            )


class TestCheckCommand:
    """Exit-code contract: 0 clean, 1 findings, 2 usage error."""

    def test_clean_repo_exits_zero(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_json_format(self, capsys):
        import json

        assert main(["check", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is True
        assert len(doc["rules"]) >= 6

    def test_findings_exit_one(self, capsys, tmp_path):
        repo = tmp_path / "repo"
        (repo / "src" / "repro").mkdir(parents=True)
        (repo / "pyproject.toml").write_text("[project]\nname='x'\n")
        (repo / "src" / "repro" / "mod.py").write_text(
            "def lonely_reference(x):\n    return x\n"
        )
        assert main(["check", "--root", str(repo)]) == 1
        out = capsys.readouterr().out
        assert "[parity-twin]" in out

    def test_bad_root_exits_two(self, capsys, tmp_path):
        assert main(["check", "--root", str(tmp_path / "nowhere")]) == 2
        assert "check:" in capsys.readouterr().err

    def test_bad_baseline_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "BASE.json"
        bad.write_text('{"version": 999, "findings": []}')
        assert main(["check", "--baseline", str(bad)]) == 2
        assert "check:" in capsys.readouterr().err

    def test_bad_format_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--format", "yaml"])
        assert excinfo.value.code == 2


class TestServeJoinCrossProcess:
    """One coordinator process, N dialing device processes — the
    production topology, smoke-tested end to end."""

    def _spawn(self, argv):
        import os
        import subprocess
        import sys as _sys

        import repro

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [_sys.executable, "-m", "repro.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )

    @pytest.mark.timeout(300)
    def test_three_process_round_over_sockets(self):
        import json

        serve = self._spawn(["serve", "--clients", "3", "--dimension", "8"])
        try:
            header = serve.stdout.readline().split()
            assert header[0] == "listening"
            port = header[2]
            joins = [
                self._spawn(["join", "--client-id", str(u), "--clients", "3",
                             "--dimension", "8", "--port", port])
                for u in (1, 2, 3)
            ]
            out, err = serve.communicate(timeout=180)
            assert serve.returncode == 0, err
            assert "verified — ring sum over U3 matches" in out
            assert "accounting check : ✓" in out
            for j in joins:
                jout, jerr = j.communicate(timeout=60)
                assert j.returncode == 0, jerr
                counters = json.loads(jout)
                assert counters["requests"] > 0
                assert counters["bytes_sent"] > 0
        finally:
            if serve.poll() is None:
                serve.kill()

    @pytest.mark.timeout(300)
    def test_join_with_wrong_auth_token_refused(self):
        serve = self._spawn([
            "serve", "--clients", "3", "--dimension", "8",
            "--auth-token", "s3cret", "--join-timeout", "3",
        ])
        try:
            port = serve.stdout.readline().split()[2]
            bad = self._spawn(["join", "--client-id", "3", "--clients", "3",
                               "--dimension", "8", "--port", port,
                               "--auth-token", "wrong"])
            _bout, berr = bad.communicate(timeout=60)
            assert bad.returncode == 1
            assert "bad auth token" in berr
            # A rejected id is not a squatted id: client 3 retries with
            # the right token and the full round completes.
            joins = [
                self._spawn(["join", "--client-id", str(u), "--clients", "3",
                             "--dimension", "8", "--port", port,
                             "--auth-token", "s3cret"])
                for u in (1, 2, 3)
            ]
            out, err = serve.communicate(timeout=180)
            assert serve.returncode == 0, err
            assert "verified — ring sum over U3 matches" in out
            for j in joins:
                _jout, jerr = j.communicate(timeout=60)
                assert j.returncode == 0, jerr
        finally:
            if serve.poll() is None:
                serve.kill()
