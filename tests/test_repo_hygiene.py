"""Repository hygiene: no compiled artifacts may be tracked, no
production module routes through a frozen per-node builder, and one
module samples centroids.

PR 8 untracked seven ``__pycache__/*.pyc`` files that had ridden along
since the lint package landed.  Bytecode is interpreter-version-specific,
diffs as binary noise, and can shadow stale code paths in review — so the
ban is enforced both here (tier-1) and as a CI workflow step, keeping the
guard active even when only one of the two lanes runs.

The per-node builders ``build_kdtree`` and ``SplitTree``, the per-query
searchers ``ball_query``, ``radius_search`` and ``knn_search``, and the
dynamic reference's ``canonical_pack`` are the oracles the vectorized
engines are pinned against (ROADMAP standing constraint), not production
routes: outside the frozen reference modules themselves, ``src/`` builds
trees and layouts only through :mod:`repro.runtime.treebuild`, searches
only through the batched engines of :mod:`repro.runtime`, and packs
through :func:`repro.runtime.batched.pack_rows`.

Farthest point sampling runs once per run, in the network planner
(:func:`repro.models.layers.plan_chain`); a forward consumes the plan.  A
second call site would re-sample what the plan already holds, so in
``src/`` only :mod:`repro.models.layers` calls the samplers.
"""

import ast
import subprocess
from pathlib import Path

import pytest

from repro.lint.rules import ReferenceFreezeRule

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
FROZEN_ORACLES = (
    "build_kdtree",
    "SplitTree",
    "ball_query",
    "radius_search",
    "knn_search",
    "canonical_pack",
)
SAMPLERS = ("farthest_point_sampling", "farthest_point_sampling_batched")

FORBIDDEN_SUFFIXES = (".pyc", ".pyo", ".pyd", ".so", ".egg")
FORBIDDEN_DIRS = ("__pycache__",)


def _tracked_files():
    proc = subprocess.run(
        ["git", "ls-files", "-z"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:  # not a git checkout (e.g. exported tarball)
        pytest.skip("git metadata unavailable")
    return [p for p in proc.stdout.split("\0") if p]


def test_no_tracked_compiled_artifacts():
    tracked = _tracked_files()
    offenders = [
        p
        for p in tracked
        if p.endswith(FORBIDDEN_SUFFIXES)
        or any(part in FORBIDDEN_DIRS for part in Path(p).parts)
    ]
    assert not offenders, (
        "compiled artifacts are tracked; `git rm --cached` them and rely on "
        f".gitignore: {offenders}"
    )


def test_gitignore_covers_bytecode():
    ignore = (REPO_ROOT / ".gitignore").read_text()
    for pattern in ("__pycache__/", "*.py[cod]"):
        assert pattern in ignore, f".gitignore lost the {pattern!r} pattern"


def _calls(path: Path, names):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in names:
            yield f"{path.relative_to(REPO_ROOT).as_posix()}:{node.lineno} {name}(...)"


def test_production_modules_never_call_the_frozen_builders():
    frozen = ReferenceFreezeRule.FROZEN_SUFFIXES
    modules = [
        path
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        if not path.as_posix().endswith(frozen)
    ]
    assert len(modules) > 50  # the scan found the package
    offenders = [call for path in modules for call in _calls(path, FROZEN_ORACLES)]
    assert not offenders, (
        "production code calls a frozen per-node builder, per-query "
        "searcher or reference packer; use repro.runtime.treebuild's "
        "vectorized_build_kdtree / VectorizedSplitTree, the batched engines "
        "(BatchedBallQuery, TracedBallQuery, batched_nearest_node) and "
        f"pack_rows instead: {offenders}"
    )


def test_only_the_layers_module_calls_the_samplers():
    planner = PACKAGE_ROOT / "models" / "layers.py"
    modules = sorted(PACKAGE_ROOT.rglob("*.py"))
    assert planner in modules and len(modules) > 50
    assert list(_calls(planner, SAMPLERS))  # the scan sees the planner's calls
    offenders = [
        call for path in modules if path != planner for call in _calls(path, SAMPLERS)
    ]
    assert not offenders, (
        "farthest point sampling runs in the network planner "
        f"(repro.models.layers.plan_chain); consume its plan instead: {offenders}"
    )
