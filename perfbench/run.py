"""Repository benchmark: public-cache reuse, splice-candidate search and
spliced binary install.

Run from the root of a checkout::

    python3 perfbench/run.py --workload splice_replicas --seed 1 --seconds 50 --trace 0

Each workload is a closed loop with one client: the next operation
starts when the previous one returns, in a single process with no extra
threads.  Operations run in passes over the workload's requests (in
seeded order) until ``--seconds`` have elapsed and at least one pass is
complete.  Every answer is checked against ``expected.json`` and
against the first answer to the same request in the run (DAG hashes
and exact solver/cache counters), including answers recorded by
earlier runs of the same sources, workload and seed.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
Set-up is timed once before the first operation and again, on a
throw-away instance of the workload, between operations, so that the
median ``setup_s`` sees the same host speed as the operations.  The
fixed reference kernel of ``reference.py`` is timed before the first
operation and then between operations, as often as keeps its readings
at ``REFERENCE_SHARE`` of the operation time.  ``op_cost_ref`` is the
mean over requests of each request's mean wall time, divided by the
mean kernel reading: requests weigh the same however many passes fit,
and the metric does not move when the shared host's CPU speed does.
The raw ``ops_per_s`` and per-operation latencies are printed with the
details.

``--trace 1`` runs every request twice in a row, once untraced and once
with span wrappers installed around each layer's public functions
(alternating which goes first), and prints the per-layer metrics of
``BENCHMARK.json`` (sources in ``layers.json``) plus the tracing overhead
of those pairs; spans are written to
``.perfbench/spans-<workload>-seed<seed>.json`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries provenance and per-step detail.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from reference import timed_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORKLOAD_NAMES = ("reuse_public", "splice_replicas", "install_splice_stack")
#: set-up runs at least this often in an untraced run; setup_s is the median
SETUP_MIN_REPEATS = 3
#: between operations, set-up is repeated while the repeats so far took
#: less than this share of the time spent in operations
SETUP_SHARE = 0.1
#: between operations, the reference kernel is timed while its readings
#: so far took less than this share of the time spent in operations
REFERENCE_SHARE = 0.2


class BenchmarkError(Exception):
    """The benchmark cannot run in this directory."""


def metric_sources():
    """(unit per metric name, source per per-layer metric name).  Names
    and units come from BENCHMARK.json; layers.json says where each
    per-layer metric comes from and must name exactly the same metrics."""
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    except (OSError, ValueError, KeyError) as error:
        raise BenchmarkError(f"cannot read the metric lists: {error}") from error
    per_layer = [metric["name"] for metric in bench["per_layer"]]
    if sorted(per_layer) != sorted(layers):
        raise BenchmarkError(
            "per_layer in BENCHMARK.json and layers.json differ: "
            f"{sorted(set(per_layer) ^ set(layers))}"
        )
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    return units, layers


def scrub_environment() -> list:
    """Drop every REPRO_* knob (ground cache, incremental grounding,
    telemetry, index formats) so timed solves are never cache hits."""
    names = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in names:
        del os.environ[name]
    return names


def commit_id():
    """The checkout's commit from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources: recorded
    answers are only compared between runs with the same digest."""
    digest = hashlib.sha256()
    for top, suffixes in ((SOURCE, (".py", ".lp")), (HERE, (".py", ".json"))):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in suffixes:
                digest.update(path.relative_to(ROOT).as_posix().encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def tail(values):
    """(value, percentile): the highest percentile with at least ten
    samples above it.  Below 20 samples that percentile would fall under
    the median, so the maximum is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], round(100.0 * (n - 10) / n, 1)


def host_probe() -> float:
    """Median seconds of a fixed pure-Python loop: a reading of host CPU
    speed, printed with each result so that drift of a shared host can
    be told apart from changes in the program."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class PeakRss:
    """High-water mark of resident memory over the timed operations.

    The kernel's mark (VmHWM) is reset through ``/proc/self/clear_refs``
    after every untimed set-up and read before the next one, so set-up
    peaks do not count.  Where /proc lacks either, the process-wide
    ``ru_maxrss`` is used and the method says so."""

    def __init__(self):
        self.peak_kb = 0
        self.method = "VmHWM, reset via /proc/self/clear_refs after each set-up"

    def reset(self) -> None:
        gc.collect()
        try:
            Path("/proc/self/clear_refs").write_text("5")
        except OSError:
            self.method = "ru_maxrss of the whole process, set-up included"

    def fold(self) -> None:
        """Add the mark since the last reset to the peak."""
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.method.startswith("VmHWM"):
            for line in Path("/proc/self/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    kb = int(line.split()[1])
        self.peak_kb = max(self.peak_kb, kb)

    @property
    def mb(self) -> float:
        return self.peak_kb / 1024.0


def settle() -> None:
    """Flush the file system and collect garbage before a timed region,
    so it does not pay for writes and deletions made before it (on a
    shared disk that cost otherwise swings operation times by 2x)."""
    os.sync()
    gc.collect()


def timed_setup(workload) -> float:
    settle()
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


class Runner:
    """Drives one workload: timed passes, oracle, determinism check."""

    def __init__(self, workload, answers: Path):
        self.workload = workload
        #: first answer per request key: DAG hashes and exact counters;
        #: kept across runs of the same sources, workload and seed
        self.answers = answers
        self.first = json.loads(answers.read_text()) if answers.is_file() else {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def one(self, request, tracer=None, request_id=0):
        """Run one operation; returns (seconds, steps, exact counters) or
        None on failure."""
        workload = self.workload
        self.attempted += 1
        workload.prepare(request)
        settle()
        start = time.perf_counter()
        try:
            if tracer is None:
                outcome = workload.run(request)
            else:
                outcome = tracer.request(request_id, workload.run, request)
        except Exception as error:  # noqa: BLE001 - every failure is counted
            self.fail([f"{request}: raised {type(error).__name__}: {error}"])
            return None
        elapsed = time.perf_counter() - start
        problems = workload.check(request, outcome)
        fingerprint = json.loads(json.dumps(workload.fingerprint(request, outcome)))
        key = json.dumps(workload.key(request))
        if key not in self.first:
            self.first[key] = fingerprint
        elif self.first[key] != fingerprint:
            hashes, counts = self.first[key]
            difference = (
                "DAG hashes differ" if hashes != fingerprint[0]
                else f"counters {fingerprint[1]} != {counts}"
            )
            problems.append(f"{request}: answer differs from the first one: {difference}")
        if problems:
            self.fail(problems)
            return None
        return elapsed, outcome.steps, dict(fingerprint[1])

    def save_answers(self) -> None:
        self.answers.write_text(json.dumps(self.first, sort_keys=True))

    def fail(self, problems) -> None:
        """Count one failed operation and keep its first problems."""
        self.failed += 1
        self.problems.extend(problems[: max(20 - len(self.problems), 0)])

    def passes(self, seconds: float, operation, whole: bool = False) -> None:
        """Call ``operation(request, request_id)`` on passes over the
        seeded request order until ``seconds`` have elapsed and at least
        one pass is complete; with ``whole``, only at the end of a pass."""
        start = time.perf_counter()
        request_id = 0
        requests = self.workload.ordered_requests()
        while (
            request_id < len(requests)
            or (whole and request_id % len(requests))
            or time.perf_counter() - start < seconds
        ):
            request = requests[request_id % len(requests)]
            request_id += 1
            operation(request, request_id)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    scrubbed = scrub_environment()
    try:
        units, layers = metric_sources()
        if not (SOURCE / "repro" / "__init__.py").is_file():
            raise BenchmarkError(f"no repro sources under {SOURCE}")
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from workloads import WORKLOADS

    digest = source_digest()
    state_dir = ROOT / ".perfbench"
    workdir = state_dir / "work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    def spare_setup() -> float:
        """Time set-up on a throw-away instance of the workload, so the
        live instance's state and warm caches stay as they are."""
        spare = WORKLOADS[args.workload](args.seed, workdir / "spare")
        seconds = timed_setup(spare)
        del spare
        shutil.rmtree(workdir / "spare", ignore_errors=True)
        return seconds

    probe_before = host_probe()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir / "live")
        setup_times = [timed_setup(workload)]
        answers = state_dir / f"answers-{digest}-{args.workload}-seed{args.seed}.json"
        runner = Runner(workload, answers)
        runner.one(workload.warmup_request())  # fill lazy caches, untimed
        if args.trace:
            values, details = traced_run(runner, args, layers, state_dir)
        else:
            values, details = untraced_run(runner, args, setup_times, spare_setup)
        runner.save_answers()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    details.update(
        setup_runs_s=setup_times,
        problems=runner.problems,
        host_probe_s={"before": probe_before, "after": host_probe()},
    )
    provenance = {
        "commit": commit_id(),
        "source_digest": digest,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scrubbed_env": scrubbed,
        "units": {name: metric["unit"] for name, metric in metrics.items()},
    }
    print(json.dumps({"provenance": provenance, "details": details}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def latency(values) -> dict:
    """Median and tail of per-operation seconds, with the tail's
    percentile and the sample count."""
    if not values:
        return {"n": 0}
    value, percentile = tail(values)
    return {
        "p50_s": statistics.median(values),
        "tail_s": value,
        "tail_percentile": percentile,
        "mean_s": statistics.fmean(values),
        "n": len(values),
    }


def step_summary(samples) -> dict:
    names = sorted({name for _, steps, _ in samples for name in steps})
    return {name: latency([steps[name] for _, steps, _ in samples]) for name in names}


def untraced_run(runner, args, setup_times, spare_setup):
    """End-to-end metrics.  Set-up and the reference kernel run between
    operations; memory is measured over the operations only."""
    samples = []
    #: operation seconds per request key
    per_request = {}
    #: reference kernel seconds
    readings = []
    rss = PeakRss()

    def between(action):
        """Run an untimed action between operations, outside the
        memory measurement."""
        rss.fold()
        result = action()
        rss.reset()
        return result

    def operation(request, request_id):
        sample = runner.one(request)
        if sample is not None:
            samples.append(sample)
            per_request.setdefault(json.dumps(runner.workload.key(request)), []).append(sample[0])
        busy = sum(seconds for seconds, _, _ in samples)
        while sum(readings) < REFERENCE_SHARE * busy:
            readings.append(between(timed_kernel))
        if sum(setup_times[1:]) < SETUP_SHARE * busy:
            setup_times.append(between(spare_setup))

    readings.append(timed_kernel())
    rss.reset()
    runner.passes(args.seconds, operation)
    rss.fold()
    peak_mb = rss.mb
    while len(setup_times) < SETUP_MIN_REPEATS:
        setup_times.append(spare_setup())

    times = [seconds for seconds, _, _ in samples]
    busy = sum(times)
    values = {
        "setup_s": statistics.median(setup_times),
        "op_cost_ref": (
            statistics.fmean(statistics.fmean(runs) for runs in per_request.values())
            / statistics.fmean(readings) if per_request else 0.0
        ),
        "peak_rss_mb": peak_mb,
    }
    details = {
        "ops_per_s": len(times) / busy if busy else 0.0,
        "op": latency(times),
        "steps": step_summary(samples),
        "reference_kernel": latency(readings),
        "fail_ratio": runner.failed / max(runner.attempted, 1),
        "peak_rss_method": rss.method,
    }
    return values, details


def traced_run(runner, args, layers, state_dir: Path):
    """Per-layer metrics.  Each request runs twice in a row, untraced and
    traced, alternating which goes first, so the tracing overhead is
    taken from adjacent pairs; the tracer is installed only around the
    traced one."""
    from spans import REQUEST_SPAN, Tracer

    tracer = Tracer()
    untraced, traced, pairs = [], [], []

    def operation(request, request_id):
        pair = {}
        for with_trace in ((False, True) if request_id % 2 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    pair[True] = runner.one(request, tracer, request_id)
                finally:
                    tracer.uninstall()
            else:
                pair[False] = runner.one(request)
        if pair[False] is not None:
            untraced.append(pair[False])
        if pair[True] is not None:
            traced.append(pair[True])
            if pair[False] is not None:
                pairs.append((pair[True][0], pair[False][0], request_id % 2 == 0))

    # whole passes, so per-operation counts repeat exactly between runs
    runner.passes(args.seconds, operation, whole=True)

    ops = max(len(traced), 1)
    self_times = tracer.self_times()
    counts = tracer.total_counts()
    traced_wall = sum(seconds for seconds, _, _ in traced)
    derived = {
        "unattributed_share": self_times.get(REQUEST_SPAN, 0.0) / traced_wall if traced_wall else 0.0,
        "overhead_s": statistics.fmean(t - u for t, u, _ in pairs) if pairs else 0.0,
        "fail_ratio": runner.failed / max(runner.attempted, 1),
    }
    steps = step_summary(untraced)
    values = {}
    for name, source in layers.items():
        if "span" in source:
            value = self_times.get(source["span"], 0.0) / ops
        elif "count" in source:
            value = counts.get(source["count"], 0) / ops
        elif "answer" in source:
            value = sum(answer.get(source["answer"], 0) for _, _, answer in traced) / ops
        elif "step" in source:
            value = steps.get(source["step"], {}).get("p50_s", 0.0)
        else:
            value = derived[source["derived"]]
        values[name] = value

    span_file = state_dir / f"spans-{args.workload}-seed{args.seed}.json"
    span_file.write_text(json.dumps(tracer.to_records()))
    details = {
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
        "pairs_s": [{"traced": t, "untraced": u, "traced_first": first} for t, u, first in pairs],
        "traced_wall_s": traced_wall,
        "untraced_wall_s": sum(seconds for seconds, _, _ in untraced),
        "self_time_sum_s": sum(self_times.values()),
        "self_times_s": dict(sorted(self_times.items())),
        "span_file": str(span_file.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "steps": steps,
    }
    return values, details


if __name__ == "__main__":
    sys.exit(main())
