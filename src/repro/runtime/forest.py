"""One node layout for any number of K-d trees.

Every multi-tree search runs over a :class:`Forest`: the lockstep engine,
:func:`~repro.runtime.approximate_search`, a dynamic index's one sweep of
its segments and a serving flush's one sweep of its static clouds.
Routines that take per-row start nodes (``frontier_sweep``,
``batched_nearest_node``, ``descend_step``) search all trees of
``forest.tree`` at once.  The layout holds nodes only: the Euler
intervals, which only the lockstep engine reads, are computed on first
use by :func:`euler_tour`.  Imports only NumPy and
:mod:`repro.kdtree.build`, so any module may import it at load time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from ..kdtree.build import KdTree

__all__ = ["Forest", "euler_tour"]


@dataclass(frozen=True)
class Forest:
    """Trees laid out as one node array (build with :meth:`of`).

    Tree ``t``'s node ``i`` is node ``roots[t] + i`` of ``tree``, a
    :class:`KdTree` whose node ``i`` holds point ``i``: ``points`` are
    the node coordinates, ``left``/``right`` forest ids, ``depth`` and
    ``subtree_size`` the trees' own.  ``tree.tin``/``tout`` stay unset
    until :func:`euler_tour` of the forest fills them.  ``point_id`` is
    each node's point id in its own tree.  Every tree is numbered from its
    root, node 0, so ``roots`` are also the trees' node offsets.
    """

    tree: KdTree
    point_id: np.ndarray
    roots: np.ndarray

    @classmethod
    def of(cls, trees: Sequence[KdTree]) -> "Forest":
        """Lay ``trees`` (at least one) out as one forest."""
        trees = list(trees)
        if not trees:
            raise ValueError("a forest needs at least one tree")
        sizes = np.array([t.num_nodes for t in trees], dtype=np.int64)
        roots = np.concatenate(([0], np.cumsum(sizes)[:-1]))

        def cat(arrays) -> np.ndarray:
            return np.concatenate(list(arrays), dtype=np.int64)

        def rebase(children, offset):
            return np.where(children >= 0, children + offset, -1)

        tree = KdTree(
            points=np.concatenate([t.points.take(t.point_id, 0) for t in trees]),
            point_id=np.arange(int(sizes.sum()), dtype=np.int64),
            split_dim=cat(t.split_dim for t in trees),
            left=cat(rebase(t.left, o) for t, o in zip(trees, roots.tolist())),
            right=cat(rebase(t.right, o) for t, o in zip(trees, roots.tolist())),
            depth=cat(t.depth for t in trees),
            subtree_size=cat(t.subtree_size for t in trees),
        )
        return cls(tree=tree, point_id=cat(t.point_id for t in trees), roots=roots)


def _preorder(
    left: np.ndarray, right: np.ndarray, size: np.ndarray, roots: np.ndarray
) -> np.ndarray:
    """Preorder entry index of every node, one pass per level over all
    trees: a root enters at its own id, a left child right after its
    parent, a right child after the whole left subtree."""
    tin = np.zeros(len(left), dtype=np.int64)
    tin[roots] = level = roots
    while len(level):
        l, r = left[level], right[level]
        has_l, has_r = l >= 0, r >= 0
        tin[l[has_l]] = tin[level[has_l]] + 1
        right_base = tin[level] + 1 + np.where(has_l, size[l], 0)
        tin[r[has_r]] = right_base[has_r]
        level = np.concatenate([l[has_l], r[has_r]])
    return tin


def euler_tour(trees: Union[KdTree, Forest]) -> Tuple[np.ndarray, np.ndarray]:
    """Preorder entry/exit intervals of a tree, or of every tree of a
    forest (each shifted by its root) from one pass over all of them.

    Computed on first use and cached onto the tree (``forest.tree`` for a
    forest), as ``KdTree._ensure_euler`` caches its per-node stack walk,
    whose values the one-tree case equals: ``b`` lies in the subtree of
    ``a`` iff ``tin[a] <= tin[b] < tout[a]``.  A forest's intervals come
    from here only; the stack walk starts from one root.
    """
    if isinstance(trees, Forest):
        tree, roots = trees.tree, trees.roots
    else:  # every tree is numbered from its root
        tree, roots = trees, np.zeros(1, dtype=np.int64)
    if tree.tin is None or tree.tout is None:
        tree.tin = _preorder(tree.left, tree.right, tree.subtree_size, roots)
        tree.tout = tree.tin + tree.subtree_size
    return tree.tin, tree.tout
