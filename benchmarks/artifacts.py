"""Per-PR perf-trajectory artifacts (the ROADMAP BENCH substrate, first slice).

The smoke-lane perf benches used to leave nothing behind but a pass/fail
floor assert: the measured throughput and speedup numbers evaporated with
the CI log, so a PR that halved a hot path's margin — while staying above
the static floor — was invisible.  This writer gives each bench one call
to persist its measurements as ``BENCH_<area>.json``; the CI smoke lane
uploads the files as build artifacts, so the perf trajectory accumulates
across PRs and regressions show up as a number moving, not a floor
finally tripping.

Records are shallow-merged per area: several tests in one bench module
(e.g. cold-build and end-to-end serving in ``test_treebuild_perf.py``)
contribute sections to the same file without clobbering each other.
Every record carries the schema version, a wall-clock stamp, the
process's peak RSS, the total line count of ``src/**/*.py`` and the
machine's CPU count alongside the bench's own payload (throughput,
speedup, cloud size, ...): a deletion then shows as a number in every
record, and so does a result that depends on the core count.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Dict, Sequence

__all__ = [
    "ARTIFACT_DIR_ENV",
    "latency_percentiles",
    "peak_rss_bytes",
    "src_lines",
    "write_bench_artifact",
]

# Benches write into $REPRO_BENCH_DIR (CI leaves the default, so the
# upload step globs bench_artifacts/BENCH_*.json at the workspace root).
ARTIFACT_DIR_ENV = "REPRO_BENCH_DIR"
DEFAULT_DIR = "bench_artifacts"
SCHEMA_VERSION = 1
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def src_lines() -> int:
    """Total lines of ``src/**/*.py``, counted as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in SRC_DIR.rglob("*.py"))


def latency_percentiles(samples: Sequence[float]) -> Dict[str, float]:
    """p50/p99 of per-request latency ``samples`` (seconds), as ms fields.

    The shared shape serve-record payloads carry: ``{"p50_ms", "p99_ms"}``,
    nearest-rank on the sorted samples so a tiny bench population doesn't
    interpolate a latency no request actually saw.  Empty input yields an
    empty dict (the bench simply contributes no latency section).
    """
    ordered = sorted(float(s) for s in samples)
    if not ordered:
        return {}

    def rank(q: float) -> float:
        idx = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
        return ordered[idx]

    return {
        "p50_ms": round(rank(0.50) * 1000.0, 3),
        "p99_ms": round(rank(0.99) * 1000.0, 3),
    }


def write_bench_artifact(area: str, payload: Dict) -> str:
    """Merge ``payload`` into ``BENCH_<area>.json``; return the path.

    ``area`` names the subsystem (``treebuild``, ``serve``, ...).  An
    existing record for the area is updated key-by-key, so independent
    tests can each contribute their section; the stamp, schema, peak
    RSS, ``src`` line count and CPU count refresh on every write.
    """
    directory = os.environ.get(ARTIFACT_DIR_ENV) or DEFAULT_DIR
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{area}.json")
    record: Dict = {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                existing = json.load(fh)
            if isinstance(existing, dict):
                record = existing
        except (OSError, ValueError):
            record = {}  # a torn or foreign file is replaced, not fatal
    record.update(payload)
    record["schema"] = SCHEMA_VERSION
    record["area"] = area
    record["created_unix"] = round(time.time(), 3)
    record["peak_rss_bytes"] = peak_rss_bytes()
    record["src_lines"] = src_lines()
    record["cpu_count"] = os.cpu_count()
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
