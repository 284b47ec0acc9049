"""Command-line experiment runner.

Regenerates the paper's figures from the terminal without pytest::

    python -m repro.analysis.cli                 # hardware-side figures
    python -m repro.analysis.cli --figures 2 14  # a subset
    python -m repro.analysis.cli --workers 4     # fan across processes
    python -m repro.analysis.cli --list          # what's available
    python -m repro.analysis.cli serve           # serving-layer trace replay
    python -m repro.analysis.cli serve --workers 4   # + sharded tier replay

Figures are independent experiments, so ``--workers N`` renders them in
a pool of up to ``N`` worker processes; output order matches the
requested figure order regardless of worker count.

``serve`` replays a synthetic concurrent-request trace through the
request-coalescing serving front-end (:mod:`repro.serve`) and reports the
coalesce factor, latency, and wall-clock speedup over serving the same
trace one request at a time.

Training-backed figures (13, 18–21, and Fig. 23's accuracy axis) live in
``benchmarks/`` because they reuse the memoized trained models there; this
CLI covers everything that runs in seconds: the motivation studies
(Figs. 2–5), the design-space sweeps (Figs. 8, 9, 22, 23's performance
axes), the evaluation suite (Figs. 14–17), and the prior-accelerator
comparison (Fig. 24).
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import statistics
import sys
from typing import Callable, Dict, List

import numpy as np

from ..accel.workloads import evaluation_hardware, evaluation_networks, workload_points
from ..core.config import ApproxSetting
from .characterization import (
    aggregation_conflict_by_network,
    dram_traffic_study,
    nonstreaming_fraction,
    search_conflict_rate_vs_banks,
)
from .comparison import energy_saving_contributions, run_evaluation_suite
from .reporting import format_series, format_table
from .tradeoff import (
    hw_sensitivity,
    nodes_skipped_vs_elision_height,
    nodes_visited_vs_top_height,
)

__all__ = ["main"]


def fig2() -> str:
    measured = {n: nonstreaming_fraction(n) for n in evaluation_networks()}
    return format_table(
        "Fig. 2: non-continuous DRAM accesses in neighbor search (%)",
        ["network", "measured"],
        [[n, f"{v * 100:.2f}"] for n, v in measured.items()],
    )


def fig3() -> str:
    rows = []
    for name in evaluation_networks():
        r = dram_traffic_study(name)
        rows.append([name, f"{r.traffic_ratio:.1f}x", f"{r.miss_rate * 100:.1f}"])
    return format_table(
        "Fig. 3: DRAM traffic ratio / cache miss rate (%)",
        ["network", "traffic", "miss rate"], rows,
    )


def fig4() -> str:
    rates = search_conflict_rate_vs_banks((2, 4, 8, 16, 32))
    return format_series(
        "Fig. 4: search bank conflict rate vs #banks",
        list(rates.keys()), [f"{v * 100:.1f}%" for v in rates.values()],
    )


def fig5() -> str:
    measured = aggregation_conflict_by_network()
    return format_table(
        "Fig. 5: aggregation bank conflict rate (%)",
        ["network", "measured"],
        [[n, f"{v * 100:.1f}"] for n, v in measured.items()],
    )


def _pnpp_queries():
    points = workload_points("PointNet++ (c)")
    rng = np.random.default_rng(1)
    return points, points[rng.choice(len(points), 256, replace=False)]


def fig8() -> str:
    points, queries = _pnpp_queries()
    result = nodes_visited_vs_top_height(points, queries, 0.1, 16, (0, 2, 4, 6, 8))
    return format_series(
        "Fig. 8: normalized nodes visited vs top-tree height",
        list(result.keys()), list(result.values()),
    )


def fig9() -> str:
    points, queries = _pnpp_queries()
    result = nodes_skipped_vs_elision_height(
        points, queries, 0.1, 16, top_height=2, elision_heights=(3, 5, 7, 9, 11)
    )
    return format_series(
        "Fig. 9: normalized nodes skipped vs elision height",
        list(result.keys()), list(result.values()),
    )


def fig14() -> str:
    suite = run_evaluation_suite()
    rows = [
        [n, f"{r.speedup_ans:.2f}x", f"{r.speedup_bce:.2f}x",
         f"{r.norm_energy_ans:.2f}", f"{r.norm_energy_bce:.2f}"]
        for n, r in suite.items()
    ]
    geomean = statistics.geometric_mean(r.speedup_bce for r in suite.values())
    table = format_table(
        "Fig. 14: speedup / normalized energy vs Mesorasi",
        ["network", "ANS", "ANS+BCE", "E(ANS)", "E(ANS+BCE)"], rows,
    )
    return table + f"\ngeomean ANS+BCE speedup: {geomean:.2f}x"


def fig15() -> str:
    suite = run_evaluation_suite()
    rows = []
    for n, r in suite.items():
        rows.append([
            n,
            f"{r.mesorasi.search_cycles / max(r.ans_bce.search_cycles, 1):.2f}x",
            f"{r.mesorasi.aggregation_cycles / max(r.ans_bce.aggregation_cycles, 1):.2f}x",
        ])
    return format_table(
        "Fig. 15: stage speedups (ANS+BCE)",
        ["network", "neighbor search", "aggregation"], rows,
    )


def fig16() -> str:
    suite = run_evaluation_suite()
    keys = ("dram_traffic", "dram_streaming", "sram_search", "sram_aggregation")
    rows = [
        [n] + [f"{energy_saving_contributions(r)[k] * 100:.1f}" for k in keys]
        for n, r in suite.items()
    ]
    return format_table(
        "Fig. 16: memory energy saving contributions (%)",
        ["network", *keys], rows,
    )


def fig17() -> str:
    suite = run_evaluation_suite()
    rows = []
    for n, r in suite.items():
        ans_v = sum(l.search.report.traversal.nodes_visited for l in r.ans.layers)
        bce_v = sum(l.search.report.traversal.nodes_visited for l in r.ans_bce.layers)
        rows.append([n, f"{(1 - bce_v / max(ans_v, 1)) * 100:.1f}"])
    return format_table(
        "Fig. 17: node-access reduction of BCE over ANS (%)",
        ["network", "reduction"], rows,
    )


def fig22() -> str:
    spec = evaluation_networks()["PointNet++ (c)"]
    points = workload_points("PointNet++ (c)")
    cells = hw_sensitivity(
        spec, points, ApproxSetting(4, 8), (2, 4, 8), (2, 4, 8),
        base_hw=evaluation_hardware(),
    )
    rows = [
        [c.num_pes, c.num_banks, f"{c.speedup:.2f}x", f"{c.norm_energy:.2f}"]
        for c in cells
    ]
    return format_table(
        "Fig. 22: sensitivity to #PE x #banks",
        ["#PE", "#banks", "speedup", "norm energy"], rows,
    )


def fig23() -> str:
    """Performance axes of the Fig. 23 Pareto study, geomean over clouds.

    The accuracy axis needs the trained models (``benchmarks/``); the
    speedup/energy axes are pure simulation, swept here as one
    ``settings x clouds`` grid through
    :meth:`~repro.accel.PointCloudAccelerator.run_many`.
    """
    from ..accel.accelerator import PointCloudAccelerator
    from ..accel.baselines import make_mesorasi
    from ..runtime.session import SearchSession

    name = "PointNet++ (c)"
    spec = evaluation_networks()[name]
    hw = evaluation_hardware()
    clouds = [workload_points(name, seed=s) for s in (0, 1, 2)]
    settings = [
        ApproxSetting(2, None), ApproxSetting(4, None),
        ApproxSetting(4, 8), ApproxSetting(6, 8),
    ]
    # One session for the baseline and Crescent grids: each cloud's trees,
    # split-tree layouts, and sampling plans are built once for the whole
    # figure (the default-constructed engine shares the accelerator's
    # session).
    session = SearchSession()
    baselines = make_mesorasi(hw, session=session).run_many(
        spec, clouds, [ApproxSetting(0, None)]
    )[0]
    crescent = PointCloudAccelerator(hw, elide_aggregation=True, session=session)
    grid = crescent.run_many(spec, clouds, settings)
    rows = []
    for setting, row in zip(settings, grid):
        speedup = statistics.geometric_mean(
            b.cycles / r.cycles for b, r in zip(baselines, row)
        )
        energy = statistics.geometric_mean(
            r.energy.total / b.energy.total for b, r in zip(baselines, row)
        )
        rows.append(
            [f"<{setting.top_height}, {setting.elision_height}>",
             f"{speedup:.2f}x", f"{energy:.2f}"]
        )
    return format_table(
        f"Fig. 23 (perf axes): {name}, geomean over {len(clouds)} clouds",
        ["setting", "speedup", "norm energy"], rows,
    )


FIGURES: Dict[str, Callable[[], str]] = {
    "2": fig2, "3": fig3, "4": fig4, "5": fig5,
    "8": fig8, "9": fig9,
    "14": fig14, "15": fig15, "16": fig16, "17": fig17,
    "22": fig22, "23": fig23,
}


def _render_figure(fig: str) -> str:
    """Module-level so the ``--workers`` pool can pickle it."""
    return FIGURES[fig]()


def _serve_main(argv: List[str]) -> int:
    """The ``serve`` subcommand: synthetic request-trace replay.

    One replay serves the trace sequentially (the baseline), coalesced
    through the async front-end and, with ``--workers N`` (N >= 1), through
    the sharded multi-process tier (distinct clouds registered by digest
    handle, one flush fanned across N serving worker processes).  Each
    replica's set-up (service, registrations, tree warm-up) runs before
    its clock starts.
    """
    from ..serve import replay_trace, synthetic_trace

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.cli serve",
        description="Replay a synthetic request trace through the "
        "coalescing serving front-end and report throughput/latency stats.",
    )
    parser.add_argument("--requests", type=int, default=96)
    parser.add_argument("--clouds", type=int, default=3,
                        help="distinct point clouds in the trace")
    parser.add_argument("--cloud-size", type=int, default=2048)
    parser.add_argument("--queries", type=int, default=64,
                        help="query points per request")
    parser.add_argument("--window-ms", type=float, default=1.0,
                        help="micro-batch submission window")
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--max-pending", type=int, default=256)
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="also replay through the sharded tier with N "
                        "serving worker processes (default: skip)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    # Exit code 1 means "results not identical", so bad arguments must
    # stop here with 2 instead of a traceback from deep in the replay.
    for flag, value in (
        ("--requests", args.requests), ("--clouds", args.clouds),
        ("--cloud-size", args.cloud_size), ("--queries", args.queries),
        ("--max-batch", args.max_batch),
    ):
        if value <= 0:
            print(f"{flag} must be a positive integer", file=sys.stderr)
            return 2
    if not (math.isfinite(args.window_ms) and args.window_ms >= 0):
        print("--window-ms must be a non-negative number", file=sys.stderr)
        return 2
    if args.max_pending < args.max_batch:
        print("--max-pending must be at least --max-batch", file=sys.stderr)
        return 2
    if args.workers < 0:
        print("--workers must be non-negative", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2

    trace = synthetic_trace(
        num_requests=args.requests, num_clouds=args.clouds,
        cloud_size=args.cloud_size, queries_per_request=args.queries,
        seed=args.seed,
    )
    report = replay_trace(
        trace, window=args.window_ms / 1000.0,
        max_batch=args.max_batch, max_pending=args.max_pending,
        num_workers=args.workers or None,
    )
    identical = ["results identical", str(report.results_identical)]
    stats = report.stats["coalesced"]
    print(format_table(
        f"serve: {report.requests} requests over {args.clouds} clouds "
        f"({args.queries} queries each)",
        ["metric", "value"],
        [
            ["merged sweeps", str(stats.sweeps)],
            ["coalesce factor", f"{stats.coalesce_factor:.1f}x"],
            ["largest merged batch", str(stats.max_coalesced)],
            ["mean request latency", f"{stats.mean_wait * 1e3:.2f} ms"],
            ["serve throughput", f"{stats.throughput:.0f} req/s"],
            ["coalesced wall time", f"{report.times['coalesced']:.3f} s"],
            ["sequential wall time", f"{report.times['sequential']:.3f} s"],
            ["speedup vs sequential", f"{report.speedup('coalesced'):.2f}x"],
            identical,
        ],
    ))
    if args.workers > 0:
        sstats = report.stats["sharded"]
        print()
        print(format_table(
            f"serve --workers {args.workers}: sharded multi-process tier",
            ["metric", "value"],
            [
                ["worker shards", str(args.workers)],
                ["merged sweeps", str(sstats.sweeps)],
                ["coalesce factor", f"{sstats.coalesce_factor:.1f}x"],
                ["failed requests", str(sstats.failed_requests)],
                ["worker respawns", str(sstats.respawns)],
                ["sharded wall time", f"{report.times['sharded']:.3f} s"],
                ["sequential wall time", f"{report.times['sequential']:.3f} s"],
                ["speedup vs sequential", f"{report.speedup('sharded'):.2f}x"],
                identical,
            ],
        ))
    return 0 if report.results_identical else 1


def main(argv: List[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.cli",
        description="Regenerate Crescent paper figures from the terminal.",
    )
    parser.add_argument(
        "--figures", nargs="*", default=sorted(FIGURES, key=int),
        help="figure numbers to run (default: all hardware-side figures)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="fan independent figures across N worker processes (default: 1)",
    )
    parser.add_argument("--list", action="store_true", help="list figures and exit")
    args = parser.parse_args(argv)
    if args.list:
        print("available figures:", ", ".join(sorted(FIGURES, key=int)))
        print("training-backed figures (13, 18-21, 23's accuracy axis) run "
              "via: pytest benchmarks/ --benchmark-only")
        print("serving-layer trace replay: python -m repro.analysis.cli "
              "serve --help")
        return 0
    for fig in args.figures:
        if fig not in FIGURES:
            print(f"unknown figure {fig!r}; use --list", file=sys.stderr)
            return 2
    if args.workers < 1:
        print("--workers must be a positive integer", file=sys.stderr)
        return 2
    if args.workers > 1 and len(args.figures) > 1:
        # The platform-default start method is deliberate: fork on Linux
        # (workers share the already-imported library), spawn on macOS /
        # Windows where forking a NumPy-initialized process is unsafe.
        ctx = multiprocessing.get_context()
        with ctx.Pool(processes=min(args.workers, len(args.figures))) as pool:
            rendered = pool.map(_render_figure, args.figures)
    else:
        rendered = [_render_figure(fig) for fig in args.figures]
    for text in rendered:
        print(text)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
