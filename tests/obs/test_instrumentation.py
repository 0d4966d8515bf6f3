"""End-to-end instrumentation: spans/metrics emitted by the real paths."""

import json
import logging

import pytest

import repro.obs as obs
from repro.cli import main
from repro.concretize import Concretizer
from repro.installer import Installer
from repro.obs import metrics, trace
from repro.repos.mock import make_mock_repo


@pytest.fixture(autouse=True)
def clean_obs():
    """Isolate the global tracer/metrics per test."""
    obs.reset()
    trace.disable()
    yield
    obs.reset()
    trace.disable()


class TestConcretizerSpans:
    def test_solver_phases_traced_and_nested(self):
        trace.enable()
        repo = make_mock_repo()
        Concretizer(repo).solve(["example ^mpich"])
        by_name = {e["name"]: e for e in trace.events()}
        for phase in ("asp.ground", "asp.translate", "asp.solve",
                      "concretize.setup", "concretize.extract"):
            assert by_name[phase]["parent"] == "concretize.solve", phase
        assert by_name["concretize.solve"]["parent"] is None

    def test_stats_backward_compatible(self):
        repo = make_mock_repo()
        result = Concretizer(repo).solve(["example ^mpich"])
        stats = result.stats
        # the pre-obs keys every caller/bench relied on
        for key in ("total_time", "ground_time", "translate_time",
                    "solve_time", "models_seen", "reusable_nodes"):
            assert key in stats, key
        assert stats["total_time"] >= stats["solve_time"]
        assert result.solve_time == stats["total_time"]

    def test_problem_size_stats_added(self):
        repo = make_mock_repo()
        stats = Concretizer(repo).solve(["example ^mpich"]).stats
        assert stats["ground_rules"] > 0
        assert stats["atoms"] > 0
        assert stats["sat_clauses"] > 0
        assert stats["sat_decisions"] >= 0

    def test_ground_span_attrs_carry_problem_size(self):
        trace.enable()
        repo = make_mock_repo()
        Concretizer(repo).solve(["example ^mpich"])
        by_name = {e["name"]: e for e in trace.events()}
        assert by_name["asp.ground"]["args"]["rules"] > 0
        assert by_name["asp.translate"]["args"]["atoms"] > 0
        assert by_name["asp.solve"]["args"]["decisions"] >= 0

    def test_solve_span_and_stats_count_optimizer_iterations(self):
        trace.enable()
        repo = make_mock_repo()
        stats = Concretizer(repo).solve(["example ^mpich"]).stats
        args = {e["name"]: e for e in trace.events()}["asp.solve"]["args"]
        assert args["sat_calls"] == stats["sat_calls"] >= 1
        assert args["unsat_probes"] == stats["unsat_probes"]
        # every probe is one SAT call; the first solve is not a probe
        assert stats["sat_calls"] >= stats["unsat_probes"] + stats["models_seen"]

    def test_unsat_still_records_solve_span(self):
        from repro.concretize import UnsatisfiableError

        trace.enable()
        repo = make_mock_repo()
        with pytest.raises(UnsatisfiableError):
            Concretizer(repo).solve(["example ^mpich"], forbidden=["mpich"])
        by_name = {e["name"]: e for e in trace.events()}
        assert by_name["concretize.solve"]["args"]["error"] == "UnsatisfiableError"


class TestInstallerAndCacheMetrics:
    def _installed_store(self, tmp_path):
        repo = make_mock_repo()
        result = Concretizer(repo).solve(["example ^mpich"])
        installer = Installer(tmp_path / "store", repo)
        installer.install(result.roots[0])
        return repo, installer, result.roots[0]

    def test_build_spans_and_relocation_counters(self, tmp_path):
        trace.enable()
        self._installed_store(tmp_path)
        names = {e["name"] for e in trace.events()}
        assert "install.run" in names
        assert "install.build" in names

    def test_cache_hit_miss_and_bytes(self, tmp_path):
        from repro.buildcache import BuildCache

        repo, installer, root = self._installed_store(tmp_path)
        cache = BuildCache(tmp_path / "bc")
        installer.push_to_cache(cache, root)
        assert metrics.counter("buildcache.pushes").value > 0
        assert metrics.counter("buildcache.pushed_bytes").value > 0

        consumer = Installer(tmp_path / "store2", repo, caches=[cache])
        consumer.install(root)
        assert metrics.counter("buildcache.hits").value > 0
        assert metrics.counter("buildcache.extracted_bytes").value > 0
        assert metrics.counter("relocate.binaries").value > 0
        assert metrics.counter("relocate.strings_scanned").value > 0

    def test_parallel_install_occupancy(self, tmp_path):
        repo = make_mock_repo()
        result = Concretizer(repo).solve(["example ^mpich"])
        installer = Installer(tmp_path / "store", repo)
        installer.install(result.roots[0], jobs=4)
        assert metrics.gauge("install.max_concurrency").value >= 1
        occupancy = metrics.histogram("install.worker_occupancy").summary()
        assert occupancy["count"] == len(list(result.roots[0].traverse()))


class TestCliFlags:
    def test_trace_and_profile(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        rc = main(["--repo", "mock", "spec", "--trace", str(trace_file),
                   "--profile", "example ^mpich"])
        assert rc == 0
        document = json.loads(trace_file.read_text())
        names = {e["name"] for e in document["traceEvents"]}
        assert {"asp.ground", "asp.translate", "asp.solve"} <= names
        out = capsys.readouterr().out
        assert "concretize.solve" in out  # the phase table
        assert not trace.enabled  # disabled again after the command

    def test_flags_accepted_before_subcommand(self, tmp_path):
        trace_file = tmp_path / "t.json"
        rc = main(["--repo", "mock", "--trace", str(trace_file),
                   "spec", "example ^mpich"])
        assert rc == 0
        assert trace_file.exists()

    def test_default_output_unchanged_without_flags(self, capsys):
        rc = main(["--repo", "mock", "spec", "example ^mpich"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "to build" in out
        assert "phase" not in out

    def test_verbose_sets_logger_level(self):
        main(["--repo", "mock", "spec", "-vv", "example ^mpich"])
        assert logging.getLogger("repro").level == logging.DEBUG
        main(["--repo", "mock", "spec", "example ^mpich"])
        assert logging.getLogger("repro").level == logging.WARNING


class TestBenchPhases:
    def test_samples_carry_phase_breakdown(self):
        from repro.bench import time_concretization

        timing = time_concretization(make_mock_repo(), (), "example ^mpich",
                                     runs=2)
        for sample in timing.samples:
            assert set(sample.phases) == {"setup", "ground", "translate", "solve"}
            assert sample.phases["ground"] > 0.0
            # phases are a decomposition of (most of) the wall clock
            assert sum(sample.phases.values()) <= sample.seconds * 1.05
        row = timing.row()
        assert row["ground_s"] >= 0.0 and row["solve_s"] >= 0.0
