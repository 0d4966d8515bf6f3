"""CLI telemetry tests: the sink, crash path, and `repro obs` verbs."""

import json
import logging

import pytest

import repro.cli as cli
from repro.cli import main
from repro.obs import SpanContextFilter, trace
from repro.obs.session import read_sessions


@pytest.fixture
def telemetry(monkeypatch, tmp_path):
    tdir = tmp_path / "telemetry"
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tdir))
    return tdir


@pytest.fixture
def no_telemetry(monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)


class TestSessionSink:
    def test_every_invocation_appends_one_record(self, telemetry, capsys):
        for _ in range(3):
            assert main(["--repo", "mock", "spec", "zlib"]) == 0
        sessions = read_sessions(telemetry)
        assert len(sessions) == 3
        for s in sessions:
            assert s["command"] == "spec"
            assert s["outcome"] == "ok"
            assert s["exit_code"] == 0
            assert s["wall_s"] > 0
            assert "concretize.solve" in s["phases"]

    def test_record_phases_are_per_invocation_deltas(self, telemetry, capsys):
        main(["--repo", "mock", "spec", "zlib"])
        main(["--repo", "mock", "spec", "zlib"])
        a, b = read_sessions(telemetry)
        # cumulative aggregates would double on the second run
        assert b["phases"]["concretize.solve"]["count"] == \
            a["phases"]["concretize.solve"]["count"]

    def test_flag_enables_sink_without_env(self, no_telemetry, tmp_path, capsys):
        tdir = tmp_path / "flagged"
        assert main(["--repo", "mock", "spec", "zlib",
                     "--telemetry-dir", str(tdir)]) == 0
        assert len(read_sessions(tdir)) == 1

    def test_disabled_sink_adds_no_files(self, no_telemetry, tmp_path,
                                         monkeypatch, capsys):
        # overhead guard for the off-by-default path: no telemetry dir
        # configured -> a CLI run must create nothing anywhere
        monkeypatch.chdir(tmp_path)
        assert main(["--repo", "mock", "spec", "zlib"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_failed_command_recorded_as_error(self, telemetry, capsys):
        assert main(["--repo", "mock", "spec", "zlib@=99"]) == 1
        [session] = read_sessions(telemetry)
        assert session["outcome"] == "error"
        assert session["exit_code"] == 1

    def test_usage_error_recorded(self, telemetry, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        assert main(["--repo", "mock", "spec", "zlib",
                     "--mirrors-file", str(missing)]) == 2
        [session] = read_sessions(telemetry)
        assert session["outcome"] == "usage-error"
        assert session["error"] == "CLIError"


class TestCrashPath:
    @pytest.fixture
    def exploding_find(self, monkeypatch):
        def boom(args):
            raise RuntimeError("synthetic crash")
        monkeypatch.setattr(cli, "cmd_find", boom)

    def test_crash_is_one_line_exit_2_with_report(
        self, telemetry, exploding_find, capsys, tmp_path
    ):
        assert main(["find", "--store", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert "error: internal error: RuntimeError: synthetic crash" in err
        assert "crash report:" in err
        assert "Traceback" not in err  # one line, not a spew
        [crash] = list(telemetry.glob("crash-*.json"))
        doc = json.loads(crash.read_text())
        assert doc["exception"]["type"] == "RuntimeError"
        assert any("synthetic crash" in l for l in doc["exception"]["traceback"])
        assert doc["command"] == "find"
        assert isinstance(doc["recent_spans"], list)

    def test_crash_session_recorded(self, telemetry, exploding_find,
                                    capsys, tmp_path):
        main(["find", "--store", str(tmp_path / "s")])
        [session] = read_sessions(telemetry)
        assert session["outcome"] == "crash"
        assert session["error"] == "RuntimeError"
        assert session["exit_code"] == 2

    def test_vv_shows_traceback(self, telemetry, exploding_find, capsys,
                                tmp_path):
        assert main(["-vv", "find", "--store", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "error: internal error: RuntimeError" in err

    def test_no_telemetry_dir_still_one_line(self, no_telemetry,
                                             exploding_find, capsys, tmp_path):
        assert main(["find", "--store", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert "error: internal error: RuntimeError" in err
        assert "rerun with -vv" in err

    def test_cli_error_still_exits_2_without_crash_report(self, telemetry,
                                                          capsys, tmp_path):
        missing = tmp_path / "nope.txt"
        assert main(["--repo", "mock", "spec", "zlib",
                     "--mirrors-file", str(missing)]) == 2
        assert list(telemetry.glob("crash-*.json")) == []

    def test_broken_pipe_is_not_a_crash(self, telemetry, monkeypatch,
                                        capsys, tmp_path):
        # `repro obs report | head` closing stdout early is a normal
        # downstream event: quiet exit 1, no crash report
        def closed_pipe(args):
            raise BrokenPipeError(32, "Broken pipe")
        monkeypatch.setattr(cli, "cmd_find", closed_pipe)
        assert main(["find", "--store", str(tmp_path / "s")]) == 1
        assert "internal error" not in capsys.readouterr().err
        assert list(telemetry.glob("crash-*.json")) == []
        [session] = read_sessions(telemetry)
        assert session["outcome"] == "interrupted"
        assert session["error"] == "BrokenPipeError"


class TestObsVerbs:
    def _record_fleet(self, telemetry, tmp_path, capsys):
        store = str(tmp_path / "store")
        cache = str(tmp_path / "cache")
        assert main(["--repo", "mock", "install", "zlib",
                     "--store", store]) == 0
        assert main(["--repo", "mock", "buildcache", "create", "zlib",
                     "--store", store, "--cache", cache]) == 0
        store2 = str(tmp_path / "store2")
        assert main(["--repo", "mock", "install", "zlib", "--store", store2,
                     "--cache", cache]) == 0
        assert main(["--repo", "mock", "spec", "zlib"]) == 0
        capsys.readouterr()

    def test_report_over_fleet(self, telemetry, tmp_path, capsys):
        self._record_fleet(telemetry, tmp_path, capsys)
        assert main(["obs", "report"]) == 0
        out = capsys.readouterr().out
        assert "4 session(s)" in out
        assert "install" in out and "spec" in out
        assert "wall_p50_ms" in out and "wall_p95_ms" in out
        assert "p50_ms" in out and "p95_ms" in out  # per-command phases
        assert "concretize.solve" in out
        assert "cache_hit_rate" in out
        assert "buildcache.hits" in out

    def test_report_json(self, telemetry, tmp_path, capsys):
        self._record_fleet(telemetry, tmp_path, capsys)
        assert main(["obs", "report", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sessions"] == 4
        assert "install" in doc["commands"]
        assert doc["rates"]["cache_hit_rate"] > 0

    def test_show_and_diff(self, telemetry, tmp_path, capsys):
        self._record_fleet(telemetry, tmp_path, capsys)
        assert main(["obs", "show", "last"]) == 0
        out = capsys.readouterr().out
        assert "command: spec" in out
        assert "concretize.solve" in out
        assert main(["obs", "diff", "0", "last"]) == 0
        out = capsys.readouterr().out
        assert "delta_pct" in out and "concretize.solve" in out

    def test_show_unknown_session_exits_2(self, telemetry, tmp_path, capsys):
        self._record_fleet(telemetry, tmp_path, capsys)
        assert main(["obs", "show", "zzzzzzzz"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_verbs_without_telemetry_dir_exit_2(self, no_telemetry, capsys):
        assert main(["obs", "report"]) == 2
        assert "no telemetry directory" in capsys.readouterr().err

    def test_report_empty_dir(self, telemetry, capsys):
        assert main(["obs", "report"]) == 0
        assert "no recorded sessions" in capsys.readouterr().out


class TestBenchDiffVerb:
    def _write(self, tmp_path, name, mean):
        doc = {"figure": "fig", "rows": [
            {"label": "l", "spec": "axom", "mean_s": mean, "solve_s": mean / 2}
        ]}
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_self_vs_self_passes(self, no_telemetry, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", 1.0)
        assert main(["obs", "bench-diff", a, a]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_inflated_fails(self, no_telemetry, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", 1.0)
        b = self._write(tmp_path, "b.json", 2.0)
        assert main(["obs", "bench-diff", a, b, "--budget-pct", "20"]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_budget_loosens_gate(self, no_telemetry, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", 1.0)
        b = self._write(tmp_path, "b.json", 1.15)
        assert main(["obs", "bench-diff", a, b, "--budget-pct", "50"]) == 0

    def test_missing_file_exits_2(self, no_telemetry, tmp_path, capsys):
        assert main(["obs", "bench-diff", str(tmp_path / "g.json"),
                     str(tmp_path / "h.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_baseline_dir_resolves_by_figure(self, no_telemetry, tmp_path,
                                             capsys):
        baseline = tmp_path / "baseline"
        baseline.mkdir()
        self._write(baseline, "fig.json", 1.0)  # figure name, not file name
        new = self._write(tmp_path, "new.json", 1.05)
        assert main(["obs", "bench-diff", "--baseline-dir", str(baseline),
                     new]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_baseline_dir_catches_regression(self, no_telemetry, tmp_path,
                                             capsys):
        baseline = tmp_path / "baseline"
        baseline.mkdir()
        self._write(baseline, "fig.json", 1.0)
        new = self._write(tmp_path, "new.json", 2.0)
        assert main(["obs", "bench-diff", "--baseline-dir", str(baseline),
                     new, "--budget-pct", "20"]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_baseline_dir_without_figure_exits_2(self, no_telemetry,
                                                 tmp_path, capsys):
        path = tmp_path / "new.json"
        path.write_text(json.dumps({"rows": []}))  # no figure field
        assert main(["obs", "bench-diff", "--baseline-dir", str(tmp_path),
                     str(path)]) == 2
        assert "figure" in capsys.readouterr().err

    def test_baseline_dir_missing_figure_file_exits_2(self, no_telemetry,
                                                      tmp_path, capsys):
        baseline = tmp_path / "empty"
        baseline.mkdir()
        new = self._write(tmp_path, "new.json", 1.0)
        assert main(["obs", "bench-diff", "--baseline-dir", str(baseline),
                     new]) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_baseline_at_all_exits_2(self, no_telemetry, tmp_path,
                                        capsys):
        new = self._write(tmp_path, "new.json", 1.0)
        assert main(["obs", "bench-diff", new]) == 2
        assert "baseline" in capsys.readouterr().err


class TestLogCorrelation:
    def test_filter_stamps_active_span(self):
        f = SpanContextFilter()
        record = logging.LogRecord("repro.x", logging.INFO, __file__, 1,
                                   "msg", (), None)
        with trace.span("correlate.op"):
            assert f.filter(record) is True
            assert record.span.startswith("correlate.op#")
            span_id = int(record.span.split("#")[1])
            assert span_id > 0

    def test_filter_outside_span_uses_dash(self):
        f = SpanContextFilter()
        record = logging.LogRecord("repro.x", logging.INFO, __file__, 1,
                                   "msg", (), None)
        f.filter(record)
        assert record.span == "-"

    def test_configured_handler_formats_span(self):
        import io

        logger = logging.getLogger("repro")
        saved = list(logger.handlers)
        logger.handlers = []
        try:
            from repro.obs import configure_logging

            stream = io.StringIO()
            configure_logging(1, stream=stream)
            with trace.span("logged.op"):
                logging.getLogger("repro.test").info("hello from inside")
            out = stream.getvalue()
            assert "[logged.op#" in out
            assert "hello from inside" in out
            logging.getLogger("repro.test").info("outside")
            assert "[-]" in stream.getvalue()
        finally:
            logger.handlers = saved


class TestUserInputErrors:
    """A malformed spec or an unknown package is the user's mistake: one
    ``error:`` line, exit 2, outcome usage-error, no crash report."""

    @pytest.mark.parametrize(
        "spec, error",
        [
            ("nosuchpkg", "EncodingError"),
            ("zlib ^nosuchdep", "EncodingError"),
            ("zlib foo=", "SpecParseError"),
            ("zlib@@", "SpecParseError"),
            ("zlib@", "SpecParseError"),
        ],
    )
    def test_one_line_exit_2_no_crash_report(self, telemetry, capsys, spec, error):
        assert main(["--repo", "mock", "spec", spec]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "internal error" not in err
        assert list(telemetry.glob("crash-*.json")) == []
        [session] = read_sessions(telemetry)
        assert session["outcome"] == "usage-error"
        assert session["error"] == error
        assert session["exit_code"] == 2

    def test_install_reports_unknown_package_as_user_error(
        self, telemetry, capsys, tmp_path
    ):
        assert main(["--repo", "mock", "install", "nosuchpkg",
                     "--store", str(tmp_path / "store")]) == 2
        assert capsys.readouterr().err == "error: unknown package 'nosuchpkg'\n"
        assert list(telemetry.glob("crash-*.json")) == []
