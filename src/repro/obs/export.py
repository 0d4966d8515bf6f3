"""Exporters: Chrome trace-event JSON and a plain-text phase table.

The Chrome format is the lingua franca of timeline viewers — load the
emitted file in ``chrome://tracing`` or https://ui.perfetto.dev and the
nested spans (one lane per thread) render as a flame chart.  Each span
becomes one complete event (``"ph": "X"``) with microsecond ``ts``/
``dur`` relative to the tracer's epoch.

The phase table is the terminal-friendly view (`--profile`): one row
per span name aggregated over the whole run, sorted by total time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

from .metrics import metrics as _global_metrics
from .trace import Tracer, trace as _global_trace

__all__ = [
    "SCHEMA_VERSION",
    "chrome_trace",
    "write_chrome_trace",
    "phase_table",
    "metrics_table",
]

#: bumped whenever the exported span/metric naming or layout changes;
#: embedded in traces and BENCH_*.json so tooling can tell vintages apart
#: (2: buildcache.shard_*/journal_*/fetch and installer.fetch* names
#: added with the sharded index + pipelined fetch path)
#: (3: analysis.* spans and counters added with the audit subsystem)
#: (4: buildcache.mirror_* spans and per-mirror hit/miss/fallback/retry
#: counters added with storage backends + MirrorGroup)
#: (5: federated index v3 — buildcache.summary_{hits,false_positives,
#: saves,stale,corrupt,enumerations}, index_refresh(es)/
#: shards_invalidated, and the mirror_union_rebuild(s) span/counter
#: added with per-shard summaries + the digest-keyed merged view)
#: (6: persistent telemetry — obs.session_append/crash_dump spans,
#: obs.sessions_written/session_rotations/session_corrupt_lines/
#: crash_reports counters, span ids in retained events, and the
#: session/crash-report JSON documents themselves)
#: (7: environment-scale concretization — the asp.ground_delta span and
#: concretize.batch_roots/ground_cache_{hits,misses,stale}/
#: incremental_resolves counters added with batch solve + the ground
#: program cache)
#: (8: audit families — per-checker analysis.<checker-name> spans for
#: the new abi.*/cache.*/store.* checkers, and per-code
#: analysis.diagnostics.code.<CODE> counters alongside the existing
#: per-severity analysis.diagnostics.<severity> counters)
#: (9: networked cache pair — buildcache.http_request/http_publish
#: spans and buildcache.http_{requests,304s,range_bytes_saved,
#: pool_reuse} client counters plus buildcache.http_server_{requests,
#: 304s,range_requests} server counters added with HTTPBackend +
#: `repro buildcache serve`)
#: (10: optimizer iterations — `sat_calls` and `unsat_probes` attrs on
#: the asp.solve span, mirrored in `SolveResult.stats`)
SCHEMA_VERSION = 10


def chrome_trace(tracer: Optional[Tracer] = None) -> Dict:
    """Render the tracer's events as a Chrome trace-event document."""
    tracer = tracer if tracer is not None else _global_trace
    events = []
    for record in tracer.events():
        args = dict(record["args"])
        if record["parent"]:
            args["parent"] = record["parent"]
        events.append(
            {
                "name": record["name"],
                "cat": record["name"].split(".", 1)[0],
                "ph": "X",
                "ts": round(record["ts"], 3),
                "dur": round(record["dur"], 3),
                "pid": 1,
                "tid": record["tid"],
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema_version": SCHEMA_VERSION},
    }


def write_chrome_trace(path, tracer: Optional[Tracer] = None) -> Path:
    """Write the Chrome trace JSON to ``path`` and return it."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(tracer), indent=1))
    return path


def phase_table(tracer: Optional[Tracer] = None) -> str:
    """Aggregate phase times as an aligned text table (for --profile).

    ``%`` is each phase's share of the sum over all phases; nested
    spans count toward both themselves and their parents, so the
    column is a ranking aid, not a partition of wall-clock.
    """
    tracer = tracer if tracer is not None else _global_trace
    stats = tracer.phase_stats()
    if not stats:
        return "(no spans recorded)"
    grand_total = sum(s["total_s"] for s in stats.values()) or 1.0
    columns = ["phase", "count", "total_s", "mean_ms", "min_ms", "max_ms", "%"]
    rows = []
    # name breaks total_s ties so equal-cost phases render in one
    # deterministic order (repro obs diff and CI diffs depend on it)
    for name in sorted(stats, key=lambda n: (-stats[n]["total_s"], n)):
        s = stats[name]
        rows.append(
            {
                "phase": name,
                "count": s["count"],
                "total_s": f"{s['total_s']:.4f}",
                "mean_ms": f"{s['mean_s'] * 1e3:.2f}",
                "min_ms": f"{s['min_s'] * 1e3:.2f}",
                "max_ms": f"{s['max_s'] * 1e3:.2f}",
                "%": f"{s['total_s'] / grand_total * 100:.1f}",
            }
        )
    widths = {
        c: max(len(c), *(len(str(r[c])) for r in rows)) for c in columns
    }
    lines = [
        "  ".join(c.ljust(widths[c]) for c in columns),
        "  ".join("-" * widths[c] for c in columns),
    ]
    for row in rows:
        lines.append("  ".join(str(row[c]).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def metrics_table(registry=None) -> str:
    """Counters and gauges as an aligned text table (for --profile).

    Complements :func:`phase_table`: phases say where the time went,
    counters say what happened — cache hits, mirror fallbacks, bytes
    moved.  Histograms are summarized by count/p50/max.
    """
    registry = registry if registry is not None else _global_metrics
    snap = registry.snapshot()
    rows = []
    for name, value in snap["counters"].items():
        rows.append({"metric": name, "kind": "counter", "value": str(value)})
    for name, value in snap["gauges"].items():
        rows.append({"metric": name, "kind": "gauge", "value": f"{value:g}"})
    for name, summary in snap["histograms"].items():
        rows.append(
            {
                "metric": name,
                "kind": "histogram",
                "value": (
                    f"n={summary['count']} p50={summary['p50']:g} "
                    f"max={summary['max']:g}"
                ),
            }
        )
    if not rows:
        return "(no metrics recorded)"
    columns = ["metric", "kind", "value"]
    widths = {c: max(len(c), *(len(r[c]) for r in rows)) for c in columns}
    lines = [
        "  ".join(c.ljust(widths[c]) for c in columns),
        "  ".join("-" * widths[c] for c in columns),
    ]
    # (metric, kind) so a name reused across instrument kinds still
    # renders in one deterministic order
    for row in sorted(rows, key=lambda r: (r["metric"], r["kind"])):
        lines.append("  ".join(row[c].ljust(widths[c]) for c in columns))
    return "\n".join(lines)
