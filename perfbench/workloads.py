"""The benchmark's workloads.

Each workload draws its inputs from the seed, sets up the system under
test (``setup`` is repeatable: the run times several set-ups and keeps the
last), and then advances in closed-loop ``step`` calls.  A step returns the
latencies of the operations it completed and how many of them failed; an
operation is one request (``serve-same``, ``serve-distinct``), one frame
(``serve-drift``), one epoch (``train-epoch``) or one whole Fig. 14 suite
(``fig14``).  After the timed loop, ``verify`` checks the outputs the steps
produced, and ``layer_counts`` returns the per-layer figures the program
itself reports.

The serving workloads replay the repository's own traces
(``repro.serve.trace``): the same-cloud trace, an all-distinct trace made
of one-request traces over fresh clouds, and the drifting-cloud trace.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.accel.workloads import evaluation_hardware
from repro.analysis.comparison import run_evaluation_suite
from repro.core.config import ApproxSetting
from repro.geometry import ShapeClassificationDataset
from repro.kdtree.build import build_kdtree
from repro.kdtree.dynamic_reference import canonical_pack, pair_d2
from repro.kdtree.exact import ball_query
from repro.models import PointNetPPClassifier
from repro.nn import no_grad, softmax_cross_entropy
from repro.nn.gradcheck import numerical_gradient
from repro.serve import QueryService
from repro.serve.trace import drift_trace, synthetic_trace
from repro.training import ClassificationTrainer, MixedSetting


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _same_results(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(ai, bi) and np.array_equal(ac, bc) for (ai, ac), (bi, bc) in zip(a, b)
    )


def _serve(service: QueryService, requests, clock) -> Tuple[list, List[float], int]:
    """Submit ``requests``, flush once; returns the results (``None`` for a
    failed request), each request's submit-to-flush-end latency and the
    number that failed."""
    submitted = [(clock(), service.submit(*request)) for request in requests]
    service.flush()
    done = clock()
    results, failed = [], 0
    for _, ticket in submitted:
        try:
            results.append(ticket.result())
        except Exception:  # a failed request counts, it does not stop the run
            results.append(None)
            failed += 1
    return results, [done - t for t, _ in submitted], failed


def _service_counts(service: QueryService) -> np.ndarray:
    trees = service.session.trees.stats
    return np.array([trees.hits, trees.misses, service.stats.requests, service.stats.sweeps])


def _static_layer_counts(counts) -> Dict[str, float]:
    hits, misses, requests, sweeps = counts
    return {
        "tree_cache_hit_rate": _ratio(hits, hits + misses),
        "requests_per_sweep": _ratio(requests, sweeps),
    }


def _matches_frozen_search(pairs) -> bool:
    """Every ``(request, result)`` equals the frozen per-node
    ``build_kdtree`` plus the per-step ``ball_query``."""
    trees: Dict[int, object] = {}
    for (points, queries, radius, k), got in pairs:
        if id(points) not in trees:
            trees[id(points)] = build_kdtree(points)
        if got is None or not _same_results([ball_query(trees[id(points)], queries, radius, k)], [got]):
            return False
    return bool(pairs)


class ServeSame:
    """The same-cloud serving trace through ``QueryService``.

    ``synthetic_trace`` with one 4096-point cloud: 256 requests of 8
    queries each, heterogeneous ``(radius, K)``.  Every step submits the
    whole trace and flushes once, so all of it merges into one sweep over
    the cached tree; every request is validated and digested at submit.
    """

    REQUESTS, POINTS, QUERIES = 256, 4096, 8
    VERIFY_EVERY, VERIFY_STEPS = 8, 4

    def __init__(self, seed: int, clock=time.perf_counter):
        self.seed = seed
        self.clock = clock

    def setup(self) -> None:
        self.trace = synthetic_trace(
            num_requests=self.REQUESTS, num_clouds=1, cloud_size=self.POINTS,
            queries_per_request=self.QUERIES, seed=self.seed,
        )
        self.service = QueryService()
        self.service.query(*self.trace[0])  # the first contact builds the tree
        self.steps = 0
        self.retained: list = []
        self.reset_counts()

    def reset_counts(self) -> None:
        self.base = _service_counts(self.service)

    def step(self) -> Tuple[List[float], int]:
        results, latencies, failed = _serve(self.service, self.trace, self.clock)
        if self.steps % self.VERIFY_EVERY == 0 and len(self.retained) < self.VERIFY_STEPS:
            self.retained.append(results)
        self.steps += 1
        return latencies, failed

    def verify(self) -> bool:
        """The first retained replay equals the frozen search; every later
        retained replay of the same trace equals the first."""
        return bool(self.retained) and _matches_frozen_search(
            list(zip(self.trace, self.retained[0]))
        ) and all(_same_results(self.retained[0], later) for later in self.retained[1:])

    def layer_counts(self) -> Dict[str, float]:
        return _static_layer_counts(_service_counts(self.service) - self.base)


class ServeDistinct:
    """All-distinct-cloud serving: the cold path on every request.

    The shape of the all-distinct bench in
    ``benchmarks/test_treebuild_perf.py``: each step brings 8 clouds of
    4096 points, one request of 16 queries each, to a fresh
    ``QueryService`` and flushes once, so every request digests, builds a
    tree and is swept.  Each request is a one-request ``synthetic_trace``
    over its own cloud; the run cycles through a pool of ``POOL`` of them.
    """

    POOL, PER_STEP, POINTS, QUERIES = 64, 8, 4096, 16
    VERIFY_EVERY, VERIFY_STEPS = 8, 2

    def __init__(self, seed: int, clock=time.perf_counter):
        self.seed = seed
        self.clock = clock

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.pool = [
            synthetic_trace(
                num_requests=1, num_clouds=1, cloud_size=self.POINTS,
                queries_per_request=self.QUERIES, rng=rng,
            )[0]
            for _ in range(self.POOL)
        ]
        self.steps = 0
        self.retained: list = []
        self.reset_counts()

    def reset_counts(self) -> None:
        self.counts = np.zeros(4, dtype=np.int64)

    def step(self) -> Tuple[List[float], int]:
        first = self.steps * self.PER_STEP % self.POOL
        requests = self.pool[first : first + self.PER_STEP]
        service = QueryService()
        results, latencies, failed = _serve(service, requests, self.clock)
        self.counts += _service_counts(service)
        if self.steps % self.VERIFY_EVERY == 0 and len(self.retained) < self.VERIFY_STEPS * self.PER_STEP:
            self.retained.extend(zip(requests, results))
        self.steps += 1
        return latencies, failed

    def verify(self) -> bool:
        return _matches_frozen_search(self.retained)

    def layer_counts(self) -> Dict[str, float]:
        return _static_layer_counts(self.counts)


class ServeDrift:
    """The drifting-cloud trace through ``QueryService`` dynamic handles.

    ``drift_trace`` over an 8192-point LiDAR scene with 1% churn per frame
    and 3 requests per frame.  A step is one frame: update, submit, one
    flush.  Each 50-frame episode starts from a fresh registration, which
    counts in the throughput, and the episodes take ``TRACES`` traces in
    turn: where the scene's cars land sets much of a frame's cost, so one
    scene per run would make the seed, not the program, move the figures.
    Every replay of a trace must reproduce its first episode bit for bit.
    """

    POINTS, CHURN, FRAMES, REQUESTS, TRACES = 8192, 0.01, 50, 3, 4

    def __init__(self, seed: int, clock=time.perf_counter):
        self.seed = seed
        self.clock = clock

    def setup(self) -> None:
        self.traces = [
            drift_trace(
                num_frames=self.FRAMES, requests_per_frame=self.REQUESTS,
                num_points=self.POINTS, churn=self.CHURN, seed=self.seed + 1000 * i,
            )
            for i in range(self.TRACES)
        ]
        self.first: list = [[] for _ in self.traces]  # first episode's results
        self.replays_identical = True
        self.episode = -1
        self._register()
        self.reset_counts()

    def _register(self) -> None:
        self.episode += 1
        self.initial, self.frames = self.traces[self.episode % self.TRACES]
        self.service = QueryService()
        self.handle = self.service.register_dynamic(self.initial)
        self.frame = 0

    def reset_counts(self) -> None:
        self.requests = -self.service.stats.requests
        self.sweeps = -self.service.stats.sweeps

    def step(self) -> Tuple[List[float], int]:
        if self.frame == self.FRAMES:
            self.requests += self.service.stats.requests
            self.sweeps += self.service.stats.sweeps
            self._register()
        frame = self.frames[self.frame]
        start = self.clock()
        self.service.update(self.handle, inserts=frame.inserts, removes=frame.removes)
        tickets = [self.service.submit_dynamic(self.handle, *r) for r in frame.requests]
        self.service.flush()
        results, failed = [], 0
        for ticket in tickets:
            try:
                results.append(ticket.result())
            except Exception:  # a failed request counts, it does not stop the run
                failed += 1
        latency = self.clock() - start
        first = self.first[self.episode % self.TRACES]
        if len(first) < self.FRAMES:
            first.append(results)
        elif not _same_results(first[self.frame], results):
            self.replays_identical = False
        self.frame += 1
        return [latency], failed

    def verify(self) -> bool:
        """Each trace's first episode equals the frozen canonical contract
        on every frame: every alive slot within the radius (``pair_d2``),
        packed by ``canonical_pack``."""
        if not self.first[0] or not self.replays_identical:
            return False
        for (initial, frames), first in zip(self.traces, self.first):
            coords, alive = initial, np.ones(len(initial), dtype=bool)
            for frame, results in zip(frames, first):
                alive = np.concatenate([alive, np.ones(len(frame.inserts), dtype=bool)])
                alive[frame.removes] = False
                coords = np.concatenate([coords, frame.inserts])
                slots = np.flatnonzero(alive)
                by_x = slots[np.argsort(coords[slots, 0], kind="stable")]
                want = [_every_hit(coords, by_x, *request) for request in frame.requests]
                if not _same_results(want, results):
                    return False
        return True

    def layer_counts(self) -> Dict[str, float]:
        requests = self.requests + self.service.stats.requests
        sweeps = self.sweeps + self.service.stats.sweeps
        return {"requests_per_sweep": _ratio(requests, sweeps)}


def _every_hit(coords, by_x, queries, radius, k):
    """Every alive slot (``by_x``: sorted by x) within ``radius``.  A
    slightly widened x-slab picks the candidates; the frozen ``pair_d2``
    alone decides membership."""
    xs = coords[by_x, 0]
    reach = radius * (1 + 1e-6)
    lo = np.searchsorted(xs, queries[:, 0] - reach, "left")
    hi = np.searchsorted(xs, queries[:, 0] + reach, "right")
    q = np.repeat(np.arange(len(queries)), hi - lo)
    s = by_x[np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])]
    d2 = pair_d2(coords, queries, q, s)
    hit = d2 <= radius * radius
    return canonical_pack(len(queries), q[hit], s[hit], d2[hit], np.full(len(queries), k))


class TrainEpoch:
    """One approximation-aware training epoch of the PointNet++ classifier.

    The ``examples/classification_tradeoff.py`` recipe: every sample draws
    its own ``<h_t, h_e>``, so the epoch plans (farthest point sampling)
    and materializes that many approximate searches into a cold session
    before the per-sample forward, backward and optimizer steps.  Each
    step trains a freshly initialised model from the same seeds with the
    process-wide sampling memo emptied, as in a fresh process, so every
    epoch must end bit-identical.
    """

    SAMPLES, POINTS = 32, 160
    GRAD_ENTRIES = 2  # per parameter tensor, checked by central differences

    def __init__(self, seed: int, clock=time.perf_counter):
        self.seed = seed
        self.clock = clock

    def setup(self) -> None:
        data = ShapeClassificationDataset(
            size=self.SAMPLES, num_points=self.POINTS, seed=self.seed,
            occlusion=0.0, noise=0.01, rotate=False,
        )
        self.num_classes = data.num_classes
        self.dataset = [data[i] for i in range(len(data))]
        self.outcomes: set = set()
        self.finite = True
        self.trained = None
        self.hits = self.misses = 0
        self.trainer = self._trainer()

    def _model(self) -> PointNetPPClassifier:
        return PointNetPPClassifier(self.num_classes, np.random.default_rng(0))

    def _trainer(self) -> ClassificationTrainer:
        # Weights and the per-sample setting draws come from fixed seeds:
        # only the data varies with --seed, so seeds do not also reshuffle
        # the mix of settings, which sets much of the epoch's search cost.
        sampler = MixedSetting(top_heights=(1, 2, 3, 4, 5), elision_heights=(3, 5, 6, None))
        return ClassificationTrainer(self._model(), sampler, lr=2e-3, seed=0)

    def reset_counts(self) -> None:
        self.hits = self.misses = 0

    def step(self) -> Tuple[List[float], int]:
        from repro.models import layers

        getattr(layers, "_FPS_CACHE", {}).clear()
        trainer = self.trainer
        start = self.clock()
        report = trainer.train(self.dataset, epochs=1)
        latency = self.clock() - start
        weights = hashlib.blake2b(
            b"".join(p.data.tobytes() for p in trainer.model.parameters())
        ).hexdigest()
        self.outcomes.add((report.final_loss, weights))
        self.finite = self.finite and math.isfinite(report.final_loss)
        stats = trainer.model.pipeline.session.trees.stats
        self.hits += stats.hits
        self.misses += stats.misses
        self.trained = trainer.model
        self.trainer = self._trainer()
        return [latency], 0 if math.isfinite(report.final_loss) else 1

    def _dataset_loss(self, model) -> float:
        points = np.stack([cloud.points for cloud, _ in self.dataset])
        labels = np.array([[label] for _, label in self.dataset])
        model.eval()
        with no_grad():
            logits = model.forward_batch(points, ApproxSetting())
        return float(softmax_cross_entropy(logits, labels, reduction="per_sample").data.mean())

    def _gradients_match(self, model) -> bool:
        """One sample's tape gradient equals central differences on the
        largest entries of every parameter tensor.  One entry may miss: a
        ReLU or max that switches within the step mixes two slopes."""
        cloud, label = self.dataset[0]
        model.eval()
        model.zero_grad()
        softmax_cross_entropy(model(cloud.points), np.array([label])).backward()
        misses = 0
        for p in model.parameters():
            if p.grad is None:
                return False
            where = np.unravel_index(
                np.argsort(-np.abs(p.grad).reshape(-1))[: self.GRAD_ENTRIES], p.data.shape
            )
            original = p.data[where].copy()

            def loss_at(values, p=p, where=where):
                p.data[where] = values
                with no_grad():
                    return softmax_cross_entropy(model(cloud.points), np.array([label])).item()

            want = numerical_gradient(loss_at, [original.copy()], 0)
            p.data[where] = original
            misses += int(np.sum(~np.isclose(p.grad[where], want, rtol=1e-3, atol=1e-8)))
        return misses <= 1

    def verify(self) -> bool:
        """Every epoch (cold caches, same seeds) ends with the same finite
        loss and weights; the epoch moved the weights and lowered the loss
        over the dataset; and the tape's gradients are right."""
        if not (self.finite and len(self.outcomes) == 1 and self.trained is not None):
            return False
        initial = self._model()
        moved = any(
            not np.array_equal(a.data, b.data)
            for a, b in zip(initial.parameters(), self.trained.parameters())
        )
        return (
            moved
            and self._dataset_loss(self.trained) < self._dataset_loss(initial)
            and self._gradients_match(self.trained)
        )

    def layer_counts(self) -> Dict[str, float]:
        return {"tree_cache_hit_rate": _ratio(self.hits, self.hits + self.misses)}


class Fig14Suite:
    """The Table-1 evaluation suite behind Fig. 14, from a cold session.

    Four networks, each on the Mesorasi baseline, ANS and ANS+BCE
    accelerators: K-d trees, split-tree layouts and sampling plans are
    rebuilt every step, as in a fresh ``cli --figures 14`` process.
    """

    def __init__(self, seed: int, clock=time.perf_counter):
        self.seed = seed
        self.clock = clock

    def setup(self) -> None:
        self.hw = evaluation_hardware()
        self.outcomes: set = set()
        self.shape_ok = True
        self.reset_counts()

    def reset_counts(self) -> None:
        self.hits = self.misses = 0
        self.cycles = {"search": 0, "aggregation": 0, "mlp": 0}

    @staticmethod
    def _cold_session():
        # The suite pools trees in the process-wide worker session; clearing
        # it gives every step the cold caches a fresh figure process has.
        try:
            from repro.runtime.network import worker_session
        except ImportError:
            return None
        session = worker_session()
        session.clear()
        return session

    def step(self) -> Tuple[List[float], int]:
        session = self._cold_session()
        start = self.clock()
        suite = run_evaluation_suite(hw=self.hw, seed=self.seed)
        latency = self.clock() - start
        self.outcomes.add(
            tuple(
                (name, v.cycles, v.energy.total)
                for name, r in suite.items()
                for v in (r.mesorasi, r.ans, r.ans_bce)
            )
        )
        self.shape_ok = self.shape_ok and _fig14_shape(suite)
        if session is not None:
            self.hits += session.trees.stats.hits
            self.misses += session.trees.stats.misses
        self.cycles = {
            "search": sum(r.ans_bce.search_cycles for r in suite.values()),
            "aggregation": sum(r.ans_bce.aggregation_cycles for r in suite.values()),
            "mlp": sum(r.ans_bce.mlp_cycles for r in suite.values()),
        }
        return [latency], 0

    def verify(self) -> bool:
        """Simulated cycles and energy repeat exactly on every cold run, and
        the figure keeps the paper's shape (the Fig. 14 bench's checks)."""
        return self.shape_ok and len(self.outcomes) == 1

    def layer_counts(self) -> Dict[str, float]:
        return {
            "tree_cache_hit_rate": _ratio(self.hits, self.hits + self.misses),
            **{f"sim_{stage}_cycles": float(n) for stage, n in self.cycles.items()},
        }


def _fig14_shape(suite) -> bool:
    results = list(suite.values())
    best = max(results, key=lambda r: r.speedup_bce)
    return (
        statistics.geometric_mean(r.speedup_bce for r in results) > 1.4
        and best.name == "DensePoint"
        and best.speedup_bce > 2.0
        and all(
            r.speedup_bce >= 0.95 * r.speedup_ans
            and r.norm_energy_bce < 1.0
            and r.gpu_energy > 10 * r.mesorasi.energy.total
            and r.tigris_gpu_energy < r.gpu_energy
            and r.gpu_cycles > r.mesorasi.cycles
            for r in results
        )
    )


WORKLOADS = {
    "serve-same": ServeSame,
    "serve-distinct": ServeDistinct,
    "serve-drift": ServeDrift,
    "train-epoch": TrainEpoch,
    "fig14": Fig14Suite,
}
