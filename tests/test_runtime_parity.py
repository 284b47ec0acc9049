"""Parity suite: the batched engine must be bit-identical to the reference.

:class:`repro.runtime.BatchedBallQuery` exists purely for speed; this
suite is what lets every other part of the system (pipeline, training,
figure drivers) route through it without re-validating results.  Three
layers of checking:

1. **Bit-identity to the per-query searcher** — identical ``(indices,
   counts)`` matrices, padding included, across randomized point counts,
   radii, K, and both tree split rules.
2. **Agreement with the brute-force oracle** — the *true* neighbor sets
   (the first ``counts`` entries) must match the exhaustive search
   whenever no truncation occurred; under truncation the engines may keep
   different K-subsets (DFS order vs distance order), but every kept id
   must still be a genuine in-radius point.
3. **Degenerate inputs** — duplicate points, empty neighborhoods,
   single-point clouds, queries far outside the cloud, coincident clouds.
"""

import numpy as np
import pytest

from repro.kdtree import ball_query, brute_radius_search, build_kdtree
from repro.runtime import BatchedBallQuery


def assert_bit_identical(tree, queries, radius, k):
    want_idx, want_cnt = ball_query(tree, queries, radius, k)
    got_idx, got_cnt = BatchedBallQuery(tree).query(queries, radius, k)
    np.testing.assert_array_equal(got_idx, want_idx)
    np.testing.assert_array_equal(got_cnt, want_cnt)
    return got_idx, got_cnt


class TestBitIdentity:
    @pytest.mark.parametrize("n,m", [(2, 1), (17, 5), (64, 64), (257, 100), (1024, 256)])
    @pytest.mark.parametrize("radius,k", [(0.15, 4), (0.4, 16), (1.5, 8)])
    def test_random_clouds(self, rng, n, m, radius, k):
        pts = rng.normal(size=(n, 3))
        queries = rng.normal(size=(m, 3)) * 0.9
        assert_bit_identical(build_kdtree(pts), queries, radius, k)

    @pytest.mark.parametrize("split_rule", ["widest", "cycle"])
    def test_both_split_rules(self, rng, split_rule):
        pts = rng.normal(size=(200, 3))
        tree = build_kdtree(pts, split_rule=split_rule)
        assert_bit_identical(tree, pts[:50], 0.35, 8)

    def test_queries_on_points(self, rng):
        # Query exactly on stored points: distance-0 hits, boundary diffs.
        pts = rng.uniform(-1, 1, size=(300, 3))
        assert_bit_identical(build_kdtree(pts), pts[::3], 0.25, 8)

    def test_many_seeds(self, test_seed):
        # Sweep independent draws so one lucky geometry can't hide a bug.
        for offset in range(10):
            rng = np.random.default_rng(test_seed + offset)
            n = int(rng.integers(1, 400))
            m = int(rng.integers(1, 80))
            radius = float(rng.uniform(0.05, 1.2))
            k = int(rng.integers(1, 24))
            pts = rng.normal(size=(n, 3)) * rng.uniform(0.3, 2.0)
            queries = rng.normal(size=(m, 3))
            assert_bit_identical(build_kdtree(pts), queries, radius, k)

    def test_grid_cloud_with_ties(self):
        # Lattice geometry maximizes equal coordinates and equal distances,
        # stressing the <=/>= boundary conventions.
        axis = np.linspace(-1, 1, 5)
        pts = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
        tree = build_kdtree(pts)
        assert_bit_identical(tree, pts[::7], 0.51, 6)
        assert_bit_identical(tree, pts[::7], 0.5, 6)  # radius exactly on spacing


class TestBruteOracle:
    def test_true_neighbor_sets_match_oracle(self, rng):
        pts = rng.normal(size=(400, 3))
        queries = rng.normal(size=(64, 3)) * 0.8
        radius, k = 0.4, 64  # K large enough that nothing truncates
        tree = build_kdtree(pts)
        idx, cnt = BatchedBallQuery(tree).query(queries, radius, k)
        for i, q in enumerate(queries):
            oracle = set(brute_radius_search(pts, q, radius).tolist())
            assert cnt[i] == len(oracle)
            assert set(idx[i, : cnt[i]].tolist()) == oracle

    def test_truncated_rows_keep_only_genuine_neighbors(self, rng):
        pts = rng.normal(size=(500, 3)) * 0.3  # dense: rows overflow K
        queries = pts[rng.choice(500, 40, replace=False)]
        radius, k = 0.5, 4
        tree = build_kdtree(pts)
        idx, cnt = BatchedBallQuery(tree).query(queries, radius, k)
        assert (cnt == k).any()  # the scenario actually exercises truncation
        for i, q in enumerate(queries):
            oracle = set(brute_radius_search(pts, q, radius).tolist())
            assert cnt[i] == min(len(oracle), k)
            assert set(idx[i, : cnt[i]].tolist()) <= oracle


class TestDegenerateInputs:
    def test_single_point_cloud(self):
        tree = build_kdtree(np.array([[0.5, -0.25, 1.0]]))
        queries = np.array([[0.5, -0.25, 1.0], [10.0, 10.0, 10.0]])
        idx, cnt = assert_bit_identical(tree, queries, 0.1, 3)
        assert cnt.tolist() == [1, 0]
        assert (idx == 0).all()  # hit row padded, empty row falls back

    def test_duplicate_points(self, rng):
        base = rng.normal(size=(12, 3))
        pts = np.repeat(base, 25, axis=0)  # 300 points, 12 sites
        tree = build_kdtree(pts)
        idx, cnt = assert_bit_identical(tree, base, 1e-9, 8)
        assert (cnt == 8).all()  # 25 coincident points overflow K=8

    def test_all_points_identical(self):
        pts = np.tile([[1.0, 2.0, 3.0]], (40, 1))
        tree = build_kdtree(pts)
        queries = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        idx, cnt = assert_bit_identical(tree, queries, 0.5, 6)
        assert cnt.tolist() == [6, 0]

    def test_empty_neighborhoods_everywhere(self, rng):
        pts = rng.normal(size=(128, 3))
        queries = rng.normal(size=(16, 3)) + 50.0  # far outside the cloud
        idx, cnt = assert_bit_identical(build_kdtree(pts), queries, 0.2, 5)
        assert (cnt == 0).all()
        # Fallback rows repeat one valid nearest-node id across all K slots.
        assert (idx == idx[:, :1]).all()
        assert ((0 <= idx) & (idx < 128)).all()

    def test_single_query_1d_shape(self, rng):
        pts = rng.normal(size=(64, 3))
        tree = build_kdtree(pts)
        idx, cnt = BatchedBallQuery(tree).query(pts[3], 0.5, 4)  # (3,) query
        want_idx, want_cnt = ball_query(tree, pts[3], 0.5, 4)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(cnt, want_cnt)
        assert idx.shape == (1, 4)

    def test_zero_queries(self, rng):
        pts = rng.normal(size=(32, 3))
        engine = BatchedBallQuery(build_kdtree(pts))
        idx, cnt = engine.query(np.empty((0, 3)), 0.5, 4)
        assert idx.shape == (0, 4) and cnt.shape == (0,)

    def test_k_one(self, rng):
        pts = rng.normal(size=(150, 3))
        assert_bit_identical(build_kdtree(pts), pts[:30], 0.3, 1)

    def test_density_guard_fallback_stays_identical(self, rng, monkeypatch):
        # Force the O(total-hits) memory guard to trip: the engine must
        # hand off to the per-query searcher, not change results.
        from repro.runtime import batched as batched_mod

        monkeypatch.setattr(batched_mod, "_MAX_BUFFERED_HITS", 10)
        pts = rng.normal(size=(200, 3)) * 0.2  # dense cloud, huge radius
        tree = build_kdtree(pts)
        assert_bit_identical(tree, pts[:30], 2.0, 8)

    def test_invalid_arguments(self, rng):
        tree = build_kdtree(rng.normal(size=(8, 3)))
        engine = BatchedBallQuery(tree)
        with pytest.raises(ValueError):
            engine.query(np.zeros((1, 3)), -1.0, 4)
        with pytest.raises(ValueError):
            engine.query(np.zeros((1, 3)), 0.5, 0)
