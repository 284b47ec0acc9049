"""The repository benchmark: one workload, one run, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload serve-same --seed 0 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``serve-same``, ``serve-distinct``,
``serve-drift``, ``train-epoch``, ``fig14``.  The run imports the program
from ``./src``, sets the workload up several times (timing each), runs one
untimed warm-up step, then steps the workload in a closed loop for
``--seconds`` and checks the outputs.  The last line of stdout is the
result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: ``latency_ms`` (median
operation latency), ``throughput`` (operations per second of step time)
and ``setup_s`` (the median of three program imports in a fresh
interpreter plus the median of five workload set-ups).
``--trace 1`` wraps the program's layers (``spans.py``) and reports
per-operation layer self times and work counts instead.

Times are stated at the speed of a reference machine.  Shared hosts switch
between speed states (up to 1.6x apart, for seconds at a time), so a
:class:`SpeedProbe` times a fixed kernel between steps and every step's
times are divided by the probe's slowdown next to that step.  The line
before the JSON gives the overall slowdown and the raw wall-clock values.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

SETUP_REPEATS = 5
IMPORT_REPEATS = 3


class SpeedProbe:
    """Machine speed, sampled only while the program is idle.

    A burst of samples times a fixed kernel that uses no program code: an
    interpreter loop, dict inserts, small NumPy calls and a pass over a
    256 KB buffer, the mix of the program's own steps.  Bursts run before
    and after every set-up and between steps, never during one, so work
    the program starts (processes, threads, memory traffic) cannot slow
    the kernel and enter the divisor.  ``clock()`` excludes the time spent
    probing, so the probe never shows up in a measured time.
    """

    BURST = 3  # samples per burst
    PERIOD_S = 0.1  # at most one burst per this much program time
    WINDOW_S = 0.25  # a step's speed comes from the bursts this close to it
    REFERENCE_S = 1e-3  # the kernel's time on the reference machine

    def __init__(self):
        import numpy as np

        self._np = np
        self._matrix = np.random.default_rng(0).normal(size=(64, 64))
        self._buffer = np.random.default_rng(1).random(1 << 15)
        self._paused = 0.0
        self._last = float("-inf")  # probe clock at the last burst
        self._times: list = []  # probe clock at each sample
        self._samples: list = []  # kernel seconds

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def _kernel(self) -> float:
        np = self._np
        start = time.perf_counter()
        total = 0
        for i in range(3000):
            total += i * i
        {i: (i, str(i)) for i in range(500)}
        x = self._matrix
        for _ in range(20):
            x = np.tanh(x @ self._matrix)
        hashlib.blake2b(self._buffer.tobytes()).digest()
        np.sort(self._buffer[:8192])
        return time.perf_counter() - start

    def burst(self) -> None:
        start = time.perf_counter()
        self._last = start - self._paused
        self._kernel()  # warms the kernel's data, evicted by the workload
        for _ in range(self.BURST):
            self._times.append(self._last)
            self._samples.append(self._kernel())
        self._paused += time.perf_counter() - start

    def between_steps(self) -> None:
        if self.clock() - self._last >= self.PERIOD_S:
            self.burst()

    def around(self, fn):
        """Run ``fn()`` between two bursts; returns its result, its elapsed
        time and the slowdown those bursts give."""
        first = len(self._samples)
        self.burst()
        start = self.clock()
        result = fn()
        end = self.clock()
        self.burst()
        return result, end - start, _level(self._samples[first:])

    def slowdown(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Kernel time relative to the reference machine over the bursts
        within ``WINDOW_S`` of ``[start, end]``, else the nearest burst."""
        lo = bisect.bisect_left(self._times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self._times, end + self.WINDOW_S)
        if hi > lo:
            return _level(self._samples[lo:hi])
        near = min(lo, len(self._times) - 1)
        return _level(self._samples[max(0, near - self.BURST) : near + self.BURST])


def _level(samples) -> float:
    """Kernel seconds per reference second: the mean of the middle 60% of
    five or more samples (a span across two speed states gets their mix),
    else the median."""
    ordered = sorted(samples)
    if len(ordered) < 5:
        return statistics.median(ordered) / SpeedProbe.REFERENCE_S
    trim = len(ordered) // 5
    return statistics.mean(ordered[trim : len(ordered) - trim]) / SpeedProbe.REFERENCE_S


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_program():
    """Put ``./src`` first on the path and import the workloads.

    Exits 2 when the working directory holds no program sources, so a
    checkout without ``src/`` fails instead of measuring something else.
    """
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {src}; run from the repository root",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, src)
    import workloads

    return workloads


# Runs in the child, which probes its own CPU: a sibling vCPU of the parent
# can sit in another speed state.
_IMPORT_TIMER = (
    "import sys; sys.path[:0] = sys.argv[1:]; import run; "
    "_, seconds, slowdown = run.SpeedProbe().around(lambda: __import__('workloads')); "
    "print(seconds / slowdown)"
)


def _fresh_import_seconds() -> float:
    """Import time at reference speed of the program (and the workloads'
    modules, NumPy already loaded) in a fresh interpreter: the set-up every
    new process pays once."""
    here = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, os.path.join(os.getcwd(), "src"), here],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    probe = SpeedProbe()
    clock = probe.clock
    workload = workloads.WORKLOADS[args.workload](args.seed, clock)

    tracer = None
    setups, steps = [], []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        _, elapsed, slowdown = probe.around(workload.setup)
        setups.append(elapsed / slowdown)
    if args.trace:
        from spans import Tracer

        tracer = Tracer(clock).__enter__()
    try:
        workload.step()  # warm-up: lazy imports, first-touch allocations
        workload.reset_counts()
        if tracer is not None:
            tracer.reset()
        failed = 0
        probe.burst()
        loop_start = clock()
        while clock() - loop_start < args.seconds:
            t0 = clock()
            latencies, step_failed = workload.step()
            steps.append((t0, clock(), latencies))
            failed += step_failed
            probe.between_steps()
        probe.burst()
    finally:
        if tracer is not None:
            tracer.__exit__(None, None, None)
    correct = workload.verify()

    latencies, raw_latencies, busy, raw_busy = [], [], 0.0, 0.0
    for t0, t1, step_latencies in steps:
        slowdown = probe.slowdown(t0, t1)
        latencies.extend(x / slowdown for x in step_latencies)
        raw_latencies.extend(step_latencies)
        busy += (t1 - t0) / slowdown
        raw_busy += t1 - t0
    ops = len(latencies)
    print(f"perfbench: {args.workload} ops={ops} slowdown={probe.slowdown():.4f} "
          f"raw_latency_ms={statistics.median(raw_latencies) * 1e3:.4f} "
          f"raw_throughput={ops / raw_busy:.4f}")

    if args.trace:
        from spans import LAYERS

        per_op_ms = 1e3 / ops * busy / raw_busy
        layer_s = {layer: tracer.self_time.get(layer, 0.0) for layer in LAYERS}
        values = {f"{layer}_ms": s * per_op_ms for layer, s in layer_s.items()}
        values["other_ms"] = (raw_busy - sum(layer_s.values())) * per_op_ms
        values["hash_mb"] = tracer.counts.get("hash_bytes", 0) / ops / 1e6
        for key in ("tree_builds", "points_indexed", "queries_searched"):
            values[key] = tracer.counts.get(key, 0) / ops
        values.update(workload.layer_counts())
        kind = "per_layer"  # every metric the file names; 0 where a layer is absent
    else:
        imports = [_fresh_import_seconds() for _ in range(IMPORT_REPEATS)]
        values = {
            "latency_ms": statistics.median(latencies) * 1e3,
            "throughput": ops / busy,
            "setup_s": statistics.median(imports) + statistics.median(setups),
        }
        kind = "end_to_end"
    with open("BENCHMARK.json") as f:
        declared = json.load(f)[kind]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": bool(correct), "attempted": ops, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
