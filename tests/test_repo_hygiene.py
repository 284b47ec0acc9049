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

Every public function, class and method in ``src/`` has a caller outside
``tests/``: some ``Name`` or ``Attribute`` in ``src/``, ``benchmarks/``,
``examples/`` or ``perfbench/`` names it outside its own body.  A
definition kept without one (an oracle, a test instrument) is listed with
its reason.

No module in ``src/`` calls a bare ``np.unique`` (one asking for none of
``return_index``, ``return_inverse`` or ``return_counts``): NumPy 2.4
answers that call for integers through a hash table, ~20x slower than one
sort and an adjacent-difference mask, the idiom used instead.
"""

import ast
import subprocess
import textwrap
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


# Modules whose definitions are oracles: the frozen reference modules plus
# the brute-force searchers and the finite-difference gradient check.
ORACLE_MODULES = ReferenceFreezeRule.FROZEN_SUFFIXES + (
    "kdtree/brute.py",
    "nn/gradcheck.py",
)
# Public definitions kept without a caller outside tests/, and why.
UNCALLED_ALLOWED = {
    "accel/pe.py:FiveStagePipeline": "per-cycle PE oracle behind the analytic pipeline cost",
    "runtime/treebuild.py:VectorizedSplitTree.dram_address_of": "override pinned to SplitTree's",
    "nn/tape.py:tape_length": "test instrument: live tape entries",
    "nn/tape.py:reset_tape": "test instrument: drops a forward never backpropagated",
    "nn/tensor.py:Tensor.take": "gather_rows' per-row test reference",
    "nn/tensor.py:Tensor.sigmoid": "tape op pinned against nn.reference by the tape suites",
    "nn/init.py:xavier_uniform": "nn API initializer beside kaiming_uniform, with its tests",
    "nn/losses.py:mse_loss": "nn API loss; the batched-loss tests pin its per-sample reduction",
    "memsim/energy.py:EnergyBreakdown.fraction": "memsim API: one component's share, with its tests",
    "models/layers.py:farthest_point_sampling": "one-cloud FPS the FPS tests pin; perfbench hooks it",
    "kdtree/dynamic.py:DynamicKdTree.buffered": "test probe of the insert buffer",
}
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")


def _public_definitions(tree):
    """``(qualified name, node)`` of each public top-level function or
    class, and of each public method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, kinds[:2]) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _uncalled_definitions(package: Path, sources):
    """Public definitions under ``package`` that no ``Name`` id or
    ``Attribute`` attr in ``sources`` names outside their own body."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    seen = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                seen.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                seen.setdefault(node.attr, []).append((path, node.lineno))
    uncalled = []
    for path, tree in trees.items():
        if package not in path.parents:
            continue
        for qualname, node in _public_definitions(tree):
            if all(
                where == path and node.lineno <= line <= node.end_lineno
                for where, line in seen.get(node.name, ())
            ):
                uncalled.append(f"{path.relative_to(package).as_posix()}:{qualname}")
    return uncalled


def test_every_public_definition_has_a_caller_outside_tests():
    sources = [p for d in CALLER_DIRS for p in sorted((REPO_ROOT / d).rglob("*.py"))]
    assert len(sources) > 100  # the scan found the package and its callers
    uncalled = _uncalled_definitions(PACKAGE_ROOT, sources)
    offenders = [
        name
        for name in uncalled
        if name not in UNCALLED_ALLOWED and not name.split(":")[0].endswith(ORACLE_MODULES)
    ]
    assert not offenders, (
        "public definitions with no caller outside tests/: delete them (and "
        f"their tests), or list them in UNCALLED_ALLOWED with a reason: {offenders}"
    )
    for entry in UNCALLED_ALLOWED:  # the allowlist names live definitions
        module, qualname = entry.split(":")
        tree = ast.parse((PACKAGE_ROOT / module).read_text())
        assert qualname in dict(_public_definitions(tree)), entry


def test_uncalled_definition_scan_reports_an_uncalled_function(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    module = package / "mod.py"
    module.write_text(textwrap.dedent(
        """
        def used():
            return 1

        def unused():
            return used()

        def recursive(n):
            return recursive(n - 1) if n else 0

        def _private():
            return 0

        class Box:
            def size(self):
                return 1
        """
    ))
    caller = tmp_path / "caller.py"
    caller.write_text("from pkg.mod import Box\n\nBox().size()\n")
    found = _uncalled_definitions(package, [module, caller])
    assert found == ["mod.py:unused", "mod.py:recursive"]


UNIQUE_FLAGS = ("return_index", "return_inverse", "return_counts")


def _hash_path_uniques(path: Path):
    """``np.unique`` calls in ``path`` that ask for no index, inverse or
    counts (by keyword, or by the three positional flags)."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        func = getattr(node, "func", None)
        if not (
            isinstance(node, ast.Call)
            and isinstance(func, ast.Attribute)
            and func.attr == "unique"
            and getattr(func.value, "id", None) in ("np", "numpy")
        ):
            continue
        flags = node.args[1:4]
        flags += [kw.value for kw in node.keywords if kw.arg in UNIQUE_FLAGS]
        if all(isinstance(flag, ast.Constant) and not flag.value for flag in flags):
            yield f"{path.as_posix()}:{node.lineno}"


def test_no_module_takes_the_unique_hash_path():
    modules = sorted(PACKAGE_ROOT.rglob("*.py"))
    assert len(modules) > 50  # the scan found the package
    offenders = [call for path in modules for call in _hash_path_uniques(path)]
    assert not offenders, (
        "bare np.unique takes NumPy's hash path; sort and mask adjacent "
        f"differences instead: {offenders}"
    )


def test_unique_scan_reports_a_bare_call(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(textwrap.dedent(
        """
        import numpy as np

        a = np.unique(x)
        b = np.unique(x, return_counts=True)
        c = np.unique(x, return_inverse=False, axis=0)
        d = np.unique(x, True)
        e = np.unique(x, return_index=flag)
        """
    ))
    found = [call.rsplit(":", 1)[1] for call in _hash_path_uniques(module)]
    assert found == ["4", "6"]
