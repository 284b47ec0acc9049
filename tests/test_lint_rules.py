"""Per-rule fixtures for repro-lint + the repo self-check.

Every rule gets a known-bad fixture that must fire (proving the rule
actually detects its bug class) and a known-good fixture that must stay
silent (bounding false positives to the idioms the repo actually uses).
The final class asserts the repo itself lints clean — the merge gate the
CI lint lane enforces — and that every suppression pragma in ``src/``
carries a written reason.
"""

from pathlib import Path

import pytest

from repro.lint import ALL_RULES, all_rule_ids, lint_paths, scan_pragmas

REPO_ROOT = Path(__file__).resolve().parents[1]


def write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def lint(tmp_path: Path):
    return lint_paths([tmp_path], ALL_RULES, known_rule_ids=all_rule_ids())


def rules_fired(report):
    return {f.rule for f in report.findings}


# ----------------------------------------------------------------------
# reference-freeze
# ----------------------------------------------------------------------

class TestReferenceFreeze:
    def _package(self, tmp_path):
        write(tmp_path, "pkg/__init__.py", "")
        write(tmp_path, "pkg/kdtree/__init__.py", "")
        write(tmp_path, "pkg/core/__init__.py", "")
        write(tmp_path, "pkg/runtime/__init__.py", "")

    def test_relative_import_of_lockstep_fires(self, tmp_path):
        self._package(tmp_path)
        write(
            tmp_path,
            "pkg/kdtree/traversal.py",
            "from ..runtime.lockstep import VectorizedLockstep\n",
        )
        assert "reference-freeze" in rules_fired(lint(tmp_path))

    def test_absolute_import_of_batched_fires(self, tmp_path):
        self._package(tmp_path)
        write(
            tmp_path,
            "pkg/core/approx_search.py",
            "import repro.runtime.batched\n",
        )
        assert "reference-freeze" in rules_fired(lint(tmp_path))

    def test_reference_search_importing_forest_search_fires(self, tmp_path):
        self._package(tmp_path)
        write(
            tmp_path,
            "pkg/core/approx_search.py",
            "from ..runtime import approximate_search\n",
        )
        assert "reference-freeze" in rules_fired(lint(tmp_path))

    def test_vectorized_topphase_symbol_fires(self, tmp_path):
        self._package(tmp_path)
        write(
            tmp_path,
            "pkg/kdtree/exact.py",
            "from ..runtime.topphase import vectorized_top_phase\n",
        )
        assert "reference-freeze" in rules_fired(lint(tmp_path))

    def test_function_level_import_fires_too(self, tmp_path):
        """The rule walks the whole tree, not just module top-level."""
        self._package(tmp_path)
        write(
            tmp_path,
            "pkg/runtime/topphase.py",
            "def helper():\n"
            "    from .lockstep import VectorizedLockstep\n"
            "    return VectorizedLockstep\n",
        )
        assert "reference-freeze" in rules_fired(lint(tmp_path))

    def test_reference_symbol_and_other_imports_allowed(self, tmp_path):
        self._package(tmp_path)
        write(
            tmp_path,
            "pkg/kdtree/exact.py",
            "import heapq\n"
            "import numpy as np\n"
            "from .build import KdTree\n"
            "from ..runtime.topphase import reference_top_phase\n",
        )
        assert lint(tmp_path).findings == []

    def test_non_frozen_module_may_import_engines(self, tmp_path):
        self._package(tmp_path)
        write(
            tmp_path,
            "pkg/runtime/session.py",
            "from .batched import BatchedBallQuery\n"
            "from .lockstep import VectorizedLockstep\n",
        )
        assert lint(tmp_path).findings == []

    def test_autograd_reference_importing_tape_fires(self, tmp_path):
        self._package(tmp_path)
        write(tmp_path, "pkg/nn/__init__.py", "")
        write(
            tmp_path,
            "pkg/nn/reference.py",
            "from . import tape\n",
        )
        assert "reference-freeze" in rules_fired(lint(tmp_path))

    def test_autograd_reference_importing_tensor_module_fires(self, tmp_path):
        self._package(tmp_path)
        write(tmp_path, "pkg/nn/__init__.py", "")
        write(
            tmp_path,
            "pkg/nn/reference.py",
            "def helper():\n"
            "    from .tensor import Tensor\n"
            "    return Tensor\n",
        )
        assert "reference-freeze" in rules_fired(lint(tmp_path))

    def test_autograd_reference_importing_production_tensor_fires(self, tmp_path):
        self._package(tmp_path)
        write(tmp_path, "pkg/nn/__init__.py", "")
        write(
            tmp_path,
            "pkg/nn/reference.py",
            "from ..nn import Tensor\n",
        )
        assert "reference-freeze" in rules_fired(lint(tmp_path))

    def test_autograd_reference_plain_numpy_allowed(self, tmp_path):
        self._package(tmp_path)
        write(tmp_path, "pkg/nn/__init__.py", "")
        write(
            tmp_path,
            "pkg/nn/reference.py",
            "import numpy as np\n"
            "from typing import Optional\n",
        )
        assert lint(tmp_path).findings == []

    def test_tensor_module_may_import_tape(self, tmp_path):
        """Only the reference is frozen; the production engine is not."""
        self._package(tmp_path)
        write(tmp_path, "pkg/nn/__init__.py", "")
        write(
            tmp_path,
            "pkg/nn/tensor.py",
            "from . import tape\n",
        )
        assert lint(tmp_path).findings == []

    # -- PR 9: the per-node tree builders join the freeze ---------------

    def test_reference_builder_importing_treebuild_fires(self, tmp_path):
        self._package(tmp_path)
        write(
            tmp_path,
            "pkg/kdtree/build.py",
            "from ..runtime.treebuild import vectorized_build_kdtree\n",
        )
        assert "reference-freeze" in rules_fired(lint(tmp_path))

    def test_reference_builder_importing_forest_builder_fires(self, tmp_path):
        self._package(tmp_path)
        write(
            tmp_path,
            "pkg/kdtree/build.py",
            "from ..runtime import vectorized_build_forest\n",
        )
        assert "reference-freeze" in rules_fired(lint(tmp_path))

    def test_split_tree_importing_treebuild_module_fires(self, tmp_path):
        self._package(tmp_path)
        write(
            tmp_path,
            "pkg/core/split_tree.py",
            "def helper():\n"
            "    import repro.runtime.treebuild\n"
            "    return repro.runtime.treebuild\n",
        )
        assert "reference-freeze" in rules_fired(lint(tmp_path))

    def test_split_tree_importing_vectorized_symbol_fires(self, tmp_path):
        self._package(tmp_path)
        write(
            tmp_path,
            "pkg/core/split_tree.py",
            "from ..runtime import VectorizedSplitTree\n",
        )
        assert "reference-freeze" in rules_fired(lint(tmp_path))

    @pytest.mark.parametrize(
        "line",
        [
            "from ..runtime.forest import Forest\n",
            "from ..runtime import Forest\n",
            "from ..runtime import forest\n",
            "import repro.runtime.forest\n",
        ],
    )
    def test_reference_importing_forest_layout_fires(self, tmp_path, line):
        self._package(tmp_path)
        write(tmp_path, "pkg/core/approx_search.py", line)
        assert "reference-freeze" in rules_fired(lint(tmp_path))

    def test_reference_builder_plain_numpy_allowed(self, tmp_path):
        self._package(tmp_path)
        write(
            tmp_path,
            "pkg/kdtree/build.py",
            "import numpy as np\n"
            "from dataclasses import dataclass\n",
        )
        write(
            tmp_path,
            "pkg/core/split_tree.py",
            "from ..kdtree.build import NODE_BYTES, KdTree\n",
        )
        assert lint(tmp_path).findings == []

    def test_treebuild_may_import_the_references(self, tmp_path):
        """The freeze is one-directional: the fast path builds ON the
        reference structures."""
        self._package(tmp_path)
        write(
            tmp_path,
            "pkg/runtime/treebuild.py",
            "from ..core.split_tree import SplitTree\n"
            "from ..kdtree.build import NODE_BYTES, KdTree\n",
        )
        assert lint(tmp_path).findings == []

    # -- PR 10: the rebuild-from-scratch dynamic parity path joins ------

    def test_dynamic_reference_importing_dynamic_module_fires(self, tmp_path):
        self._package(tmp_path)
        write(
            tmp_path,
            "pkg/kdtree/dynamic_reference.py",
            "from .dynamic import DynamicKdTree\n",
        )
        assert "reference-freeze" in rules_fired(lint(tmp_path))

    def test_dynamic_reference_importing_incremental_symbol_fires(self, tmp_path):
        self._package(tmp_path)
        write(
            tmp_path,
            "pkg/kdtree/dynamic_reference.py",
            "def helper():\n"
            "    from ..kdtree import DynamicKdTree\n"
            "    return DynamicKdTree\n",
        )
        assert "reference-freeze" in rules_fired(lint(tmp_path))

    def test_dynamic_reference_frozen_builders_allowed(self, tmp_path):
        """The scratch path is built FROM the frozen per-node builders."""
        self._package(tmp_path)
        write(
            tmp_path,
            "pkg/kdtree/dynamic_reference.py",
            "import numpy as np\n"
            "from .build import KdTree, build_kdtree\n"
            "from .exact import radius_search\n",
        )
        assert lint(tmp_path).findings == []

    def test_dynamic_overlay_may_import_its_reference(self, tmp_path):
        """One-directional again: the incremental fast path shares the
        canonical contract helpers that live beside the frozen path."""
        self._package(tmp_path)
        write(
            tmp_path,
            "pkg/kdtree/dynamic.py",
            "from .build import KdTree, build_kdtree\n"
            "from .dynamic_reference import canonical_pack, pair_d2\n",
        )
        assert lint(tmp_path).findings == []


# ----------------------------------------------------------------------
# cache-truthiness
# ----------------------------------------------------------------------

class TestCacheTruthiness:
    def test_if_test_fires(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            "def f(tree_cache, key):\n"
            "    if tree_cache.get(key):\n"
            "        return 1\n",
        )
        assert "cache-truthiness" in rules_fired(lint(tmp_path))

    def test_or_chaining_fires(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            "def f(session, key, build):\n"
            "    return session.results.get(key) or build()\n",
        )
        assert "cache-truthiness" in rules_fired(lint(tmp_path))

    def test_not_operand_fires(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            "def f(lru, key):\n"
            "    while not lru.get(key):\n"
            "        pass\n",
        )
        assert "cache-truthiness" in rules_fired(lint(tmp_path))

    def test_sentinel_idiom_is_clean(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            "_MISS = object()\n"
            "def f(cache, key, compute):\n"
            "    cached = cache.get(key, _MISS)\n"
            "    if cached is _MISS:\n"
            "        cached = compute()\n"
            "    return cached\n",
        )
        assert lint(tmp_path).findings == []

    def test_non_cache_receiver_not_flagged(self, tmp_path):
        """dict.get truthiness on non-cache names is out of scope."""
        write(
            tmp_path,
            "mod.py",
            "def f(params):\n"
            "    if params.get('verbose'):\n"
            "        return 1\n",
        )
        assert lint(tmp_path).findings == []


# ----------------------------------------------------------------------
# shared-default-rng
# ----------------------------------------------------------------------

class TestSharedDefaultRng:
    def test_constant_seed_in_init_fires(self, tmp_path):
        write(
            tmp_path,
            "nn/layers.py",
            "import numpy as np\n"
            "class Dropout:\n"
            "    def __init__(self, p=0.5, rng=None):\n"
            "        if rng is None:\n"
            "            rng = np.random.default_rng(0)\n"
            "        self.rng = rng\n",
        )
        assert "shared-default-rng" in rules_fired(lint(tmp_path))

    def test_constant_seed_as_parameter_default_fires(self, tmp_path):
        write(
            tmp_path,
            "models/net.py",
            "import numpy as np\n"
            "def make_net(rng=np.random.default_rng(0)):\n"
            "    return rng\n",
        )
        assert "shared-default-rng" in rules_fired(lint(tmp_path))

    def test_constant_seed_in_class_body_fires(self, tmp_path):
        write(
            tmp_path,
            "nn/init.py",
            "import numpy as np\n"
            "class Init:\n"
            "    rng = np.random.default_rng(42)\n",
        )
        assert "shared-default-rng" in rules_fired(lint(tmp_path))

    def test_spawned_stream_is_clean(self, tmp_path):
        """The PR 5 fix shape: spawn from a module-level SeedSequence."""
        write(
            tmp_path,
            "nn/layers.py",
            "import numpy as np\n"
            "_SEEDS = np.random.SeedSequence(0)\n"
            "class Dropout:\n"
            "    def __init__(self, rng=None):\n"
            "        if rng is None:\n"
            "            rng = np.random.default_rng(_SEEDS.spawn(1)[0])\n"
            "        self.rng = rng\n",
        )
        assert lint(tmp_path).findings == []

    def test_outside_nn_models_not_flagged(self, tmp_path):
        """Figure drivers may seed constants freely (one instance each)."""
        write(
            tmp_path,
            "analysis/cli.py",
            "import numpy as np\n"
            "class Driver:\n"
            "    def __init__(self):\n"
            "        self.rng = np.random.default_rng(1)\n",
        )
        assert lint(tmp_path).findings == []


# ----------------------------------------------------------------------
# asyncio-discipline
# ----------------------------------------------------------------------

class TestAsyncioDiscipline:
    def test_time_sleep_in_async_fires(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            "import time\n"
            "async def run():\n"
            "    time.sleep(1)\n",
        )
        assert "asyncio-discipline" in rules_fired(lint(tmp_path))

    def test_blocking_queue_get_fires(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            "async def run(inbox):\n"
            "    return inbox.get(timeout=1)\n",
        )
        assert "asyncio-discipline" in rules_fired(lint(tmp_path))

    def test_unawaited_wait_fires(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            "async def run(event):\n"
            "    event.wait()\n",
        )
        assert "asyncio-discipline" in rules_fired(lint(tmp_path))

    def test_clear_then_await_wait_fires(self, tmp_path):
        """The PR 6 lost-wakeup shape."""
        write(
            tmp_path,
            "mod.py",
            "async def run(self):\n"
            "    while True:\n"
            "        self._wake.clear()\n"
            "        await self._wake.wait()\n",
        )
        report = lint(tmp_path)
        assert "asyncio-discipline" in rules_fired(report)
        assert any("lost-wakeup" in f.message for f in report.findings)

    def test_wait_then_clear_is_clean(self, tmp_path):
        """The fixed frontend shape: wait first, clear *after* the wakeup.

        Note the work statement between ``clear()`` and the next awaited
        ``wait()`` — the rule only flags the immediately-adjacent re-park,
        because with work in between the clear is consuming the wakeup it
        just received, not racing a future one.
        """
        write(
            tmp_path,
            "mod.py",
            "import asyncio\n"
            "async def run(self):\n"
            "    while True:\n"
            "        await self._wake.wait()\n"
            "        self._wake.clear()\n"
            "        if not self._waiters:\n"
            "            continue\n"
            "        try:\n"
            "            await asyncio.wait_for(self._wake.wait(), 0.1)\n"
            "        except asyncio.TimeoutError:\n"
            "            pass\n"
            "        self._wake.clear()\n",
        )
        assert lint(tmp_path).findings == []

    def test_awaited_primitives_are_clean(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            "import asyncio\n"
            "async def run(queue):\n"
            "    await asyncio.sleep(0)\n"
            "    return await queue.get()\n",
        )
        assert lint(tmp_path).findings == []

    def test_sync_function_untouched(self, tmp_path):
        """Blocking calls in sync code (worker threads) are legitimate."""
        write(
            tmp_path,
            "mod.py",
            "import time\n"
            "def beat(stop, interval):\n"
            "    while not stop.wait(interval):\n"
            "        time.sleep(0)\n",
        )
        assert lint(tmp_path).findings == []


# ----------------------------------------------------------------------
# wall-clock-injection
# ----------------------------------------------------------------------

class TestWallClockInjection:
    def test_direct_call_in_serve_fires(self, tmp_path):
        write(
            tmp_path,
            "serve/mod.py",
            "import time\n"
            "def measure():\n"
            "    return time.perf_counter()\n",
        )
        assert "wall-clock-injection" in rules_fired(lint(tmp_path))

    def test_direct_call_in_runtime_fires(self, tmp_path):
        write(
            tmp_path,
            "runtime/mod.py",
            "import time\n"
            "def stamp(self):\n"
            "    self.started_at = time.monotonic()\n",
        )
        assert "wall-clock-injection" in rules_fired(lint(tmp_path))

    def test_injectable_default_is_clean(self, tmp_path):
        """clock=time.perf_counter in a default is a reference, not a call."""
        write(
            tmp_path,
            "serve/mod.py",
            "import time\n"
            "class Service:\n"
            "    def __init__(self, clock=time.perf_counter):\n"
            "        self._clock = clock\n"
            "    def stamp(self):\n"
            "        return self._clock()\n",
        )
        assert lint(tmp_path).findings == []

    def test_none_fallback_for_injectable_param_is_clean(self, tmp_path):
        write(
            tmp_path,
            "runtime/mod.py",
            "import time\n"
            "def age(beat, now=None):\n"
            "    now = time.monotonic() if now is None else now\n"
            "    if now is None:\n"
            "        now = time.monotonic()\n"
            "    return now - beat\n",
        )
        assert lint(tmp_path).findings == []

    def test_outside_serve_runtime_not_flagged(self, tmp_path):
        write(
            tmp_path,
            "analysis/mod.py",
            "import time\n"
            "def measure():\n"
            "    return time.perf_counter()\n",
        )
        assert lint(tmp_path).findings == []


# ----------------------------------------------------------------------
# finite-input-validation
# ----------------------------------------------------------------------

class TestFiniteInputValidation:
    def test_unvalidated_array_use_fires(self, tmp_path):
        write(
            tmp_path,
            "serve/api.py",
            "import numpy as np\n"
            "def query(points, queries, radius):\n"
            "    pts = np.asarray(points)\n"
            "    return pts\n",
        )
        report = lint(tmp_path)
        assert "finite-input-validation" in rules_fired(report)

    def test_validate_before_use_is_clean(self, tmp_path):
        write(
            tmp_path,
            "serve/api.py",
            "import numpy as np\n"
            "from .service import validate_points, validate_queries, validate_settings\n"
            "def query(points, queries, radius, max_neighbors):\n"
            "    validate_settings(radius, max_neighbors)\n"
            "    points = validate_points(points)\n"
            "    queries = validate_queries(queries)\n"
            "    return np.concatenate([points, queries])\n",
        )
        assert lint(tmp_path).findings == []

    def test_forwarding_to_checked_entry_point_is_clean(self, tmp_path):
        write(
            tmp_path,
            "serve/api.py",
            "class Frontend:\n"
            "    def submit(self, points, queries, radius, max_neighbors):\n"
            "        return self.service.submit(points, queries, radius, max_neighbors)\n",
        )
        assert lint(tmp_path).findings == []

    def test_private_helpers_exempt(self, tmp_path):
        write(
            tmp_path,
            "serve/api.py",
            "import numpy as np\n"
            "def _helper(points):\n"
            "    return np.asarray(points)\n"
            "class _Internal:\n"
            "    def consume(self, points):\n"
            "        return np.asarray(points)\n",
        )
        assert lint(tmp_path).findings == []

    def test_outside_serve_not_flagged(self, tmp_path):
        write(
            tmp_path,
            "runtime/api.py",
            "import numpy as np\n"
            "def query(points, radius):\n"
            "    return np.asarray(points) * radius\n",
        )
        assert lint(tmp_path).findings == []


# ----------------------------------------------------------------------
# broad-except (warn-only)
# ----------------------------------------------------------------------

class TestBroadExcept:
    def test_except_exception_warns(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            "try:\n    x = 1\nexcept Exception:\n    pass\n",
        )
        report = lint(tmp_path)
        assert "broad-except" in rules_fired(report)
        assert report.warnings == 1
        assert report.errors == 0
        assert report.ok  # warn-only: the build does not fail

    def test_bare_except_warns(self, tmp_path):
        write(tmp_path, "mod.py", "try:\n    x = 1\nexcept:\n    pass\n")
        assert "broad-except" in rules_fired(lint(tmp_path))

    def test_narrow_catch_is_clean(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            "try:\n    x = 1\nexcept (OSError, ValueError):\n    pass\n",
        )
        assert lint(tmp_path).findings == []

    def test_justified_pragma_silences(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            "try:\n"
            "    x = 1\n"
            "except Exception:  # repro: allow[broad-except] -- error containment boundary\n"
            "    pass\n",
        )
        assert lint(tmp_path).findings == []


# ----------------------------------------------------------------------
# The merge gate: the repo itself lints clean
# ----------------------------------------------------------------------

class TestRepoIsClean:
    def test_src_lints_clean(self):
        report = lint_paths(
            [REPO_ROOT / "src"], ALL_RULES, known_rule_ids=all_rule_ids()
        )
        assert report.files_checked > 70
        problems = "\n".join(f.format() for f in report.findings)
        assert report.errors == 0, f"repro-lint errors on src/:\n{problems}"
        assert report.warnings == 0, f"repro-lint warnings on src/:\n{problems}"

    def test_every_pragma_in_src_has_a_reason(self):
        missing = []
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            for pragma in scan_pragmas(path.read_text(encoding="utf-8")):
                if pragma.problem or not pragma.reason:
                    missing.append(f"{path}:{pragma.line}")
        assert not missing, f"pragmas without a written reason: {missing}"

    def test_rule_count_matches_contract(self):
        """The ISSUE promised ~6 bug-history rules plus the warn-only stub."""
        ids = {rule.id for rule in ALL_RULES}
        assert ids == {
            "reference-freeze",
            "cache-truthiness",
            "shared-default-rng",
            "asyncio-discipline",
            "wall-clock-injection",
            "finite-input-validation",
            "broad-except",
        }
