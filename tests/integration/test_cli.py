"""Integration: the repro-dag command-line interface."""

import json

import pytest

from repro.cli import main
from repro.obs import MetricsRegistry, Tracer, validate_trace_events
from repro.obs.metrics import set_metrics
from repro.obs.tracer import set_tracer


@pytest.fixture
def obs_sandbox():
    """Fresh global tracer/metrics: CLI commands arm the process globals."""
    old_tracer = set_tracer(Tracer(enabled=False))
    old_metrics = set_metrics(MetricsRegistry(enabled=False))
    yield
    set_tracer(old_tracer)
    set_metrics(old_metrics)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "WC-Q5" in out and "weblog" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "200" in out and "500" in out and "network" in out

    def test_estimate(self, capsys):
        assert main(["estimate", "WC-Q1", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "estimate" in out and "state" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "WC-Q1", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out

    def test_compare(self, capsys):
        assert main(["compare", "WC-Q1", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out

    def test_compare_variant_flag(self, capsys):
        assert main(["compare", "WC-Q1", "--scale", "0.02", "--variant", "normal"]) == 0

    def test_unknown_workload_fails_cleanly(self, capsys):
        assert main(["estimate", "SortBench-Q99"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_error_hierarchy_exits_2(self, capsys, monkeypatch):
        """Any ReproError subclass escaping a subcommand becomes a one-line
        stderr message and exit code 2 — never a raw traceback."""
        from repro import cli
        from repro.errors import SimulationError

        def boom(args):
            raise SimulationError("engine stalled mid-run")

        real_parser = cli.build_parser()

        class _Rigged:
            def parse_args(self, argv=None):
                args = real_parser.parse_args(argv)
                args.func = boom
                return args

        monkeypatch.setattr(cli, "build_parser", lambda: _Rigged())
        assert main(["estimate", "WC-Q1"]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "error: engine stalled mid-run"

    def test_table3_subset(self, capsys):
        assert main(["table3", "--names", "WC-Q1,TS-Q6", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Alg1-Mean" in out and "Alg2-Normal" in out


class TestCliExtensions:
    def test_timeline(self, capsys):
        assert main(["timeline", "wc", "--scale", "0.02", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "wc/map" in out and "cpu" in out and "|" in out

    def test_tune(self, capsys):
        assert main(["tune", "ts", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "baseline estimate" in out

    def test_tune_verify(self, capsys):
        assert main(["tune", "ts", "--scale", "0.02", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "tuned estimate" in out

    def test_tune_reports_sweep_ledger(self, capsys):
        assert main(["tune", "ts", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "infeasible" in out
        assert "sweep" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "wc", "--scale", "0.02", "--workers", "4,8"]) == 0
        out = capsys.readouterr().out
        assert "4" in out and "8" in out
        assert "evaluations" in out  # the SweepReport summary line

    def test_sweep_rejects_bad_worker_list(self, capsys):
        assert main(["sweep", "wc", "--workers", "4,zero"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_overhead_reports_sweep_ledger(self, capsys):
        assert main(["overhead", "--names", "WC-Q5", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out and "evaluations" in out


class TestCliObservability:
    def test_trace_writes_valid_perfetto_json(self, obs_sandbox, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(
            ["trace", "tpch", "--out", str(out_path), "--scale", "0.02"]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert validate_trace_events(payload) == []
        # At least one slice per task attempt, plus state markers.
        slices = [
            e for e in payload["traceEvents"]
            if e["ph"] == "X" and str(e.get("cat", "")).startswith("task")
        ]
        assert len(slices) >= payload["otherData"]["tasks"] >= 1
        assert any(e.get("cat") == "state" for e in payload["traceEvents"])
        assert payload["otherData"]["bottleneck_attribution"]
        out = capsys.readouterr().out
        assert "perfetto" in out

    def test_trace_prints_attribution_for_every_state(
        self, obs_sandbox, capsys, tmp_path
    ):
        out_path = tmp_path / "trace.json"
        assert main(
            ["trace", "wc", "--out", str(out_path), "--scale", "0.02"]
        ) == 0
        out = capsys.readouterr().out
        assert "bottleneck attribution" in out
        payload = json.loads(out_path.read_text())
        rows = payload["otherData"]["bottleneck_attribution"]
        assert len(rows) == payload["otherData"]["states"]
        for row in rows:
            assert row["bottleneck"] in ("cpu", "disk", "network")
            assert row["utilisation"][row["bottleneck"]] == pytest.approx(1.0)

    def test_metrics_flag_prints_registry(self, obs_sandbox, capsys):
        assert main(["simulate", "wc", "--scale", "0.02", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "sim.tasks_launched" in out

    def test_log_level_flag(self, obs_sandbox, capsys):
        assert main(
            ["simulate", "wc", "--scale", "0.02", "--log-level", "debug"]
        ) == 0
        err = capsys.readouterr().err
        assert "repro.simulator.engine" in err
        assert "simulated" in err

    def test_bad_log_level_fails_cleanly(self, obs_sandbox, capsys):
        assert main(["simulate", "wc", "--log-level", "shout"]) == 1
        assert "log level" in capsys.readouterr().err.lower()

    def test_tpch_workload_listed(self, capsys):
        assert main(["list"]) == 0
        assert "tpch" in capsys.readouterr().out


class TestServiceCli:
    """PR 7: `serve`/`call` plus the cooperative --deadline flags."""

    def test_sweep_deadline_exceeded_exits_2(self, capsys):
        code = main(
            ["sweep", "wc", "--scale", "0.02",
             "--workers", "4,6,8", "--deadline", "0"]
        )
        assert code == 2
        assert "deadline" in capsys.readouterr().err

    def test_ensemble_deadline_exceeded_exits_2(self, capsys):
        code = main(
            ["ensemble", "wc", "--scale", "0.02",
             "--replications", "8", "--deadline", "0"]
        )
        assert code == 2
        assert "deadline" in capsys.readouterr().err

    def test_sweep_without_deadline_still_succeeds(self, capsys):
        assert main(
            ["sweep", "wc", "--scale", "0.02", "--workers", "4",
             "--deadline", "300"]
        ) == 0
        assert "What-if" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--processes", "--job-workers"])
    def test_serve_rejects_a_zero_count_before_the_banner(
        self, flag, capsys, monkeypatch
    ):
        started = []
        monkeypatch.setattr(
            "repro.service.server.serve", lambda *a, **kw: started.append(kw)
        )
        assert main(["serve", flag, "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "must be >= 1" in err
        assert not started

    def test_serve_starts_with_the_parsed_fields(self, capsys, monkeypatch):
        started = []
        monkeypatch.setattr(
            "repro.service.server.serve",
            lambda *a, **kw: started.append((a, kw)),
        )
        assert main(["serve", "--port", "0", "--job-workers", "3"]) == 0
        assert "repro-dag service on http://127.0.0.1:0" in capsys.readouterr().out
        assert started == [
            (("127.0.0.1", 0), {"scale": 0.05, "processes": 2, "job_workers": 3})
        ]

    def test_call_against_running_service(self, obs_sandbox, capsys):
        from repro.service import serve_in_thread

        with serve_in_thread(scale=0.02, processes=1, job_workers=1) as handle:
            assert main(["call", "/healthz", "--url", handle.url]) == 0
            health = json.loads(capsys.readouterr().out)
            assert health["ok"] is True

            assert main(
                ["call", "/estimate", "--url", handle.url,
                 "--data", '{"workload": "wc"}']
            ) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["ok"] and payload["total_time_s"] > 0

    def test_call_unreachable_service_exits_2(self, capsys):
        code = main(
            ["call", "/healthz", "--url", "http://127.0.0.1:9"]
        )
        assert code == 2
        assert "cannot reach service" in capsys.readouterr().err

    def test_call_rejects_bad_json_data(self, capsys):
        code = main(
            ["call", "/estimate", "--url", "http://127.0.0.1:9",
             "--data", "not-json"]
        )
        assert code == 2
        assert "JSON" in capsys.readouterr().err
