"""Benchmark-lane guard for incremental dynamic-cloud maintenance.

The dynamic overlay exists so a continuously mutating cloud does not pay
a full index rebuild on every frame; a regression that quietly fell back
to rebuild-from-scratch would keep every result bit-identical (the
parity contract guarantees it) while destroying the maintenance win.
This bench runs in the CI smoke lane: a low-churn drifting-scene trace
served twice through ``QueryService`` dynamic handles — incremental
maintenance versus rebuild-per-frame — with bit-identity asserted first
and then a conservative wall-clock floor (the measured margin is ~3x;
the floor is 2x so shared-runner noise cannot flake it, while a
rebuild-shaped regression measures ~1x and trips it cleanly).  Its
structural twin counts ``frontier_sweep`` calls: each served dynamic
flush sweeps all of its index's segments in one call, so the replay
(both services, one flush per frame each) makes exactly two per frame.
The numbers land in ``BENCH_dynamic.json`` (see :mod:`artifacts`),
including p50/p99 submit-to-serve latency on the incremental path.
"""

import repro.runtime.batched as batched_module
from artifacts import latency_percentiles, write_bench_artifact
from repro.serve import replay_drift_trace

NUM_POINTS = 4096
NUM_FRAMES = 30
CHURN = 0.01  # low churn: the regime incremental maintenance targets
QUERIES_PER_FRAME = 16
REPEATS = 3
MIN_SPEEDUP = 2.0


def test_incremental_maintenance_does_not_regress(call_rows):
    sweeps = call_rows(batched_module, "frontier_sweep", "queries")
    flushes = 2 * NUM_FRAMES  # incremental and rebuild services
    best = None
    for _ in range(REPEATS):
        sweeps.clear()
        report = replay_drift_trace(
            num_frames=NUM_FRAMES,
            requests_per_frame=1,
            queries_per_request=QUERIES_PER_FRAME,
            num_points=NUM_POINTS,
            churn=CHURN,
            seed=11,
        )
        # Identity first: every frame's results must match the
        # rebuild-from-scratch-per-frame service bit for bit.
        assert report.results_identical
        assert len(sweeps) == flushes  # one sweep per served dynamic flush
        if best is None or report.speedup("incremental") > best.speedup("incremental"):
            best = report

    speedup = best.speedup("incremental")
    incremental, rebuild = best.stats["incremental"], best.stats["rebuild"]
    write_bench_artifact(
        "dynamic",
        {
            "cloud_size": NUM_POINTS,
            "frames": NUM_FRAMES,
            "churn": CHURN,
            "queries_per_frame": QUERIES_PER_FRAME,
            "s_incremental": round(best.times["incremental"], 4),
            "s_rebuild": round(best.times["rebuild"], 4),
            "speedup": round(speedup, 2),
            "points_indexed_incremental": incremental.points_indexed,
            "points_indexed_rebuild": rebuild.points_indexed,
            "frames_per_s": round(NUM_FRAMES / best.times["incremental"], 1),
            "sweeps_per_flush": len(sweeps) / flushes,
            # Per-request submit-to-serve latency, incremental path.
            **latency_percentiles(best.waits["incremental"]),
        },
    )
    # The structural evidence cannot flake: incremental must index far
    # fewer points than a per-frame rebuild regardless of runner noise.
    assert incremental.points_indexed * 4 < rebuild.points_indexed
    assert speedup >= MIN_SPEEDUP, (
        f"incremental maintenance only {speedup:.2f}x faster than "
        f"rebuild-per-frame ({best.times['incremental']:.3f}s vs "
        f"{best.times['rebuild']:.3f}s over {NUM_FRAMES} frames)"
    )
