"""The rule set: this repo's bug history, encoded as AST checks.

Every rule names the PR whose bug motivated it (see CHANGES.md); the
fixtures in ``tests/test_lint_rules.py`` keep each rule honest with a
known-bad example that must fire and a known-good one that must not.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import (
    BAD_PRAGMA,
    ERROR,
    PARSE_ERROR,
    UNKNOWN_RULE,
    UNUSED_PRAGMA,
    WARNING,
    Finding,
    ModuleContext,
    Rule,
)

__all__ = ["ALL_RULES", "ENGINE_RULE_IDS", "all_rule_ids"]


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def receiver_name(call: ast.Call) -> Optional[str]:
    """Dotted name of ``X`` in ``X.method(...)``; None if not that shape."""
    if isinstance(call.func, ast.Attribute):
        return dotted_name(call.func.value)
    return None


def path_has_part(module: ModuleContext, *names: str) -> bool:
    return any(part in names for part in module.path_parts())


def walk_in_order(node: ast.AST) -> Iterator[ast.AST]:
    """Depth-first, source-order traversal (ast.walk is breadth-first)."""
    for child in ast.iter_child_nodes(node):
        yield child
        yield from walk_in_order(child)


def statement_lists(node: ast.AST) -> Iterator[List[ast.stmt]]:
    """Every list-of-statements block under ``node`` (body/orelse/finally)."""
    for sub in ast.walk(node):
        for field_name in ("body", "orelse", "finalbody"):
            block = getattr(sub, field_name, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                yield block


def none_check_of_name(test: ast.AST) -> Optional[str]:
    """The name ``x`` if ``test`` is ``x is None`` / ``x is not None``."""
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.IsNot))
        and isinstance(test.left, ast.Name)
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        return test.left.id
    return None


# ----------------------------------------------------------------------
# 1. reference-freeze (ROADMAP standing constraint; PRs 1-4 parity suites)
# ----------------------------------------------------------------------

class ReferenceFreezeRule(Rule):
    id = "reference-freeze"
    description = (
        "Reference engines (kdtree/traversal.py, kdtree/exact.py, "
        "kdtree/build.py, kdtree/dynamic_reference.py, "
        "core/approx_search.py, core/split_tree.py, runtime/topphase.py, "
        "nn/reference.py) must not import the vectorized/tape/incremental "
        "engines they are the ground truth for (runtime.approx, "
        "runtime.batched, runtime.forest, runtime.lockstep, runtime.treebuild, "
        "kdtree.dynamic, vectorized_top_phase, nn.tape, nn.tensor)."
    )
    motivation = (
        "ROADMAP standing constraint: the per-step reference paths are what "
        "the randomized equivalence suites pin the vectorized engines "
        "against; a reference that leans on the engine under test proves "
        "nothing.  PR 8 extends the freeze to the closure-walking autograd "
        "reference that pins the tape engine's gradients bit for bit; PR 9 "
        "to the per-node tree builders that pin the level-synchronous "
        "runtime.treebuild constructors; PR 10 to the rebuild-from-scratch "
        "parity path that pins the incremental DynamicKdTree fast path; and "
        "the per-step approximate search is frozen against the forest "
        "search (runtime.approx) that replaced it as the production route."
    )

    FROZEN_SUFFIXES = (
        "kdtree/traversal.py",
        "kdtree/exact.py",
        "kdtree/build.py",
        "kdtree/dynamic_reference.py",
        "core/approx_search.py",
        "core/split_tree.py",
        "runtime/topphase.py",
        "nn/reference.py",
    )
    FORBIDDEN_MODULES = (
        "runtime.approx",
        "runtime.batched",
        "runtime.forest",
        "runtime.lockstep",
        "runtime.treebuild",
        "kdtree.dynamic",
        "nn.tape",
        "nn.tensor",
    )
    # Importing the reference_top_phase symbol from runtime.topphase is
    # legitimate; only the vectorized entry point is off limits.
    FORBIDDEN_TOPPHASE_SYMBOLS = {"vectorized_top_phase", "*"}
    FORBIDDEN_RUNTIME_SYMBOLS = {
        "approx",
        "approximate_search",
        "SearchJob",
        "batched",
        "forest",
        "Forest",
        "lockstep",
        "treebuild",
        "BatchedBallQuery",
        "VectorizedLockstep",
        "vectorized_top_phase",
        "vectorized_build_kdtree",
        "vectorized_build_forest",
        "VectorizedSplitTree",
        "euler_tour",
    }
    # The autograd reference must not lean on the tape engine it pins:
    # neither the submodules nor the production Tensor / tape helpers.
    FORBIDDEN_NN_SYMBOLS = {
        "tape",
        "tensor",
        "Tensor",
        "no_grad",
        "tape_length",
        "reset_tape",
        "*",
    }
    # The rebuild-from-scratch dynamic reference must not lean on the
    # incremental overlay it pins (the frozen builders/searches it *may*
    # use all live beside it in already-frozen modules).
    FORBIDDEN_KDTREE_SYMBOLS = {
        "dynamic",
        "DynamicKdTree",
        "DynamicStats",
        "*",
    }

    def applies(self, module: ModuleContext) -> bool:
        posix = module.path.as_posix()
        return any(posix.endswith(suffix) for suffix in self.FROZEN_SUFFIXES)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not self.applies(module):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._forbidden_module(alias.name):
                        yield self.finding(
                            module,
                            node,
                            f"frozen reference module imports vectorized "
                            f"engine {alias.name!r}",
                        )
            elif isinstance(node, ast.ImportFrom):
                target = self._resolve(module, node)
                if target is None:
                    continue
                if self._forbidden_module(target):
                    yield self.finding(
                        module,
                        node,
                        f"frozen reference module imports vectorized "
                        f"engine {target!r}",
                    )
                    continue
                names = {alias.name for alias in node.names}
                if target.endswith("runtime.topphase") or target == "topphase":
                    bad = names & self.FORBIDDEN_TOPPHASE_SYMBOLS
                elif target.endswith("runtime") or target == "runtime":
                    bad = names & self.FORBIDDEN_RUNTIME_SYMBOLS
                elif target.endswith("nn") or target == "nn":
                    bad = names & self.FORBIDDEN_NN_SYMBOLS
                elif target.endswith("kdtree") or target == "kdtree":
                    bad = names & self.FORBIDDEN_KDTREE_SYMBOLS
                else:
                    bad = set()
                if bad:
                    yield self.finding(
                        module,
                        node,
                        f"frozen reference module imports vectorized "
                        f"symbol(s) {', '.join(sorted(bad))} from {target!r}",
                    )

    def _forbidden_module(self, name: str) -> bool:
        return any(
            name == forbidden or name.endswith("." + forbidden)
            for forbidden in self.FORBIDDEN_MODULES
        )

    def _resolve(self, module: ModuleContext, node: ast.ImportFrom) -> Optional[str]:
        """Absolute dotted target of a (possibly relative) from-import."""
        if node.level == 0:
            return node.module
        parts = module.module_name.split(".") if module.module_name else []
        # level=1 strips the module itself (leaving its package), each
        # extra level strips one more package.
        if len(parts) < node.level:
            return node.module  # unresolvable; fall back to the literal
        base = parts[: len(parts) - node.level]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)


# ----------------------------------------------------------------------
# 2. cache-truthiness (PR 2: LruCache falsy-miss sentinel bug)
# ----------------------------------------------------------------------

class CacheTruthinessRule(Rule):
    id = "cache-truthiness"
    description = (
        "Never truthiness-test or or-chain an LRU cache .get() result; a "
        "legitimately cached falsy value (None, 0, empty) reads as a miss "
        "and is recomputed forever.  Use .get(key, SENTINEL) and compare "
        "against the sentinel."
    )
    motivation = (
        "CHANGES.md PR 2: cached falsy results were silently recomputed "
        "(and double-counted as misses) until LruCache.get grew the "
        "default= sentinel idiom."
    )

    _CACHE_NAME_RE = re.compile(r"cache|lru", re.IGNORECASE)
    # The SearchSession LRU fields, which don't carry "cache" in the name.
    _CACHE_ATTRS = {"results", "trees", "split_trees"}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for call in self._truthiness_positions(module.tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if not (isinstance(func, ast.Attribute) and func.attr == "get"):
                continue
            recv = receiver_name(call)
            if recv is None:
                continue
            last = recv.split(".")[-1]
            if self._CACHE_NAME_RE.search(last) or last in self._CACHE_ATTRS:
                yield self.finding(
                    module,
                    call,
                    f"truthiness test on {recv}.get(...) conflates a cached "
                    f"falsy value with a miss; use "
                    f".get(key, SENTINEL) and compare 'is SENTINEL'",
                )

    def _truthiness_positions(self, tree: ast.Module) -> Iterator[ast.AST]:
        """Expressions evaluated only for their truthiness."""
        roots: List[ast.AST] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
                roots.append(node.test)
            elif isinstance(node, ast.comprehension):
                roots.extend(node.ifs)
            elif isinstance(node, ast.BoolOp):
                # `x = cache.get(k) or default` and friends: every operand
                # of and/or is truthiness-evaluated wherever it appears.
                roots.extend(node.values)
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                roots.append(node.operand)
        seen: Set[int] = set()
        for root in roots:
            if id(root) not in seen:
                seen.add(id(root))
                yield root


# ----------------------------------------------------------------------
# 3. shared-default-rng (PR 5: Dropout identical mask streams)
# ----------------------------------------------------------------------

class SharedDefaultRngRule(Rule):
    id = "shared-default-rng"
    description = (
        "Under nn/ and models/, do not construct "
        "np.random.default_rng(<constant>) in __init__ bodies, class "
        "bodies, or parameter defaults: every instance draws the identical "
        "stream.  Spawn independent streams from a SeedSequence (or take "
        "the generator as a parameter)."
    )
    motivation = (
        "CHANGES.md PR 5: default-constructed Dropout layers each built "
        "default_rng(0), so stacked layers masked the same positions every "
        "step."
    )

    def applies(self, module: ModuleContext) -> bool:
        return path_has_part(module, "nn", "models")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not self.applies(module):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for default in list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]:
                    for call in self._matching_calls(default):
                        yield self._emit(module, call, "a parameter default")
                if node.name == "__init__":
                    for call in self._matching_calls(node):
                        yield self._emit(module, call, "an __init__ body")
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue  # methods are handled (or exempt) above
                    for call in self._matching_calls(stmt):
                        yield self._emit(module, call, "a class body")

    def _emit(self, module: ModuleContext, call: ast.Call, where: str) -> Finding:
        return self.finding(
            module,
            call,
            f"constant-seeded default_rng constructed in {where}: every "
            f"instance shares one stream (spawn from a module-level "
            f"SeedSequence instead)",
        )

    def _matching_calls(self, node: ast.AST) -> Iterator[ast.Call]:
        nodes = [node] if isinstance(node, ast.Call) else []
        nodes.extend(n for n in ast.walk(node) if isinstance(n, ast.Call))
        seen: Set[int] = set()
        for call in nodes:
            if id(call) in seen:
                continue
            seen.add(id(call))
            name = dotted_name(call.func)
            if name is None or name.split(".")[-1] != "default_rng":
                continue
            if call.args and all(
                isinstance(arg, ast.Constant) for arg in call.args
            ):
                yield call


# ----------------------------------------------------------------------
# 4. asyncio-discipline (PR 6: frontend lost-wakeup + blocking primitives)
# ----------------------------------------------------------------------

class AsyncioDisciplineRule(Rule):
    id = "asyncio-discipline"
    description = (
        "Inside async def: no blocking primitives (time.sleep, "
        "Queue.get/put, un-awaited Event.wait), and no "
        "clear()-then-await-wait() re-park (a set() landing between them "
        "is a lost wakeup)."
    )
    motivation = (
        "CHANGES.md PR 6: the frontend's broadcast-Event backpressure had "
        "exactly these races — a clear()-before-wait() re-park swallowed "
        "concurrent set()s and parked the last submitters forever."
    )

    _QUEUEISH_RE = re.compile(r"queue|inbox|outbox|mailbox", re.IGNORECASE)
    _BLOCKING_QUEUE_METHODS = {"get", "put", "join"}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async_fn(module, node)

    # -- blocking calls -------------------------------------------------
    def _check_async_fn(
        self, module: ModuleContext, fn: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        awaited: Set[int] = set()
        for sub in self._own_nodes(fn):
            if isinstance(sub, ast.Await):
                for inner in ast.walk(sub):
                    awaited.add(id(inner))
        for sub in self._own_nodes(fn):
            if not isinstance(sub, ast.Call):
                continue
            name = dotted_name(sub.func)
            if name == "time.sleep" or name == "sleep":
                yield self.finding(
                    module,
                    sub,
                    "time.sleep blocks the event loop inside async def; "
                    "use 'await asyncio.sleep(...)'",
                )
                continue
            if not isinstance(sub.func, ast.Attribute):
                continue
            attr = sub.func.attr
            recv = receiver_name(sub) or ""
            last = recv.split(".")[-1] if recv else ""
            if attr == "wait" and id(sub) not in awaited:
                yield self.finding(
                    module,
                    sub,
                    f"un-awaited {recv or '<expr>'}.wait() inside async def "
                    f"is either a blocking threading wait or a forgotten "
                    f"await",
                )
            elif (
                attr in self._BLOCKING_QUEUE_METHODS
                and last
                and self._QUEUEISH_RE.search(last)
                and id(sub) not in awaited
            ):
                yield self.finding(
                    module,
                    sub,
                    f"blocking {recv}.{attr}() inside async def stalls the "
                    f"event loop; use an asyncio queue (awaited) or run in "
                    f"an executor",
                )
        yield from self._check_lost_wakeup(module, fn)

    # -- clear()-then-await-wait() --------------------------------------
    def _check_lost_wakeup(
        self, module: ModuleContext, fn: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        for block in statement_lists(fn):
            for first, second in zip(block, block[1:]):
                recv = self._clear_receiver(first)
                if recv is None:
                    continue
                if self._awaits_wait_on(second, recv):
                    yield self.finding(
                        module,
                        first,
                        f"{recv}.clear() immediately before awaiting "
                        f"{recv}.wait() re-parks past a concurrent set() — "
                        f"the PR 6 lost-wakeup shape; wait first, clear "
                        f"after the wakeup",
                    )

    @staticmethod
    def _clear_receiver(stmt: ast.stmt) -> Optional[str]:
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr == "clear"
        ):
            return receiver_name(stmt.value)
        return None

    @staticmethod
    def _awaits_wait_on(stmt: ast.stmt, recv: str) -> bool:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Await):
                continue
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "wait"
                    and receiver_name(inner) == recv
                ):
                    return True
        return False

    @staticmethod
    def _own_nodes(fn: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
        """Nodes of ``fn`` excluding nested function/lambda bodies.

        A nested sync def runs whenever it is *called*, not while the
        coroutine is suspended, so its blocking calls are its own
        business.
        """
        stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# 5. wall-clock-injection (PRs 5-6: injectable clocks keep serving
#    deterministic under test)
# ----------------------------------------------------------------------

class WallClockInjectionRule(Rule):
    id = "wall-clock-injection"
    description = (
        "Under serve/ and runtime/, never call time.time / "
        "time.perf_counter / time.monotonic directly: take an injectable "
        "clock parameter (clock=time.perf_counter as a *default* is the "
        "allowlisted idiom) or fall back only under an 'is None' check of "
        "an injectable parameter."
    )
    motivation = (
        "CHANGES.md PRs 5-6: ServiceStats latency/throughput numbers and "
        "heartbeat staleness are test-pinned only because every time "
        "source is injectable; a direct call re-introduces "
        "nondeterminism."
    )

    _CLOCK_CALLS = {"time.time", "time.perf_counter", "time.monotonic"}
    _BARE_CLOCKS = {"perf_counter", "monotonic"}

    def applies(self, module: ModuleContext) -> bool:
        return path_has_part(module, "serve", "runtime")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not self.applies(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name not in self._CLOCK_CALLS and name not in self._BARE_CLOCKS:
                continue
            if self._is_none_fallback(module, node):
                continue
            yield self.finding(
                module,
                node,
                f"direct {name}() call; thread an injectable clock "
                f"parameter through instead (default it to the time "
                f"function — references in defaults are fine)",
            )

    def _is_none_fallback(self, module: ModuleContext, call: ast.Call) -> bool:
        """``now = time.f() if now is None else now`` (or the if-stmt form).

        The one place a direct call is legitimate: the fallback arm for
        an optional injectable parameter.
        """
        for parent in module.parent_chain(call):
            if isinstance(parent, ast.IfExp) and none_check_of_name(parent.test):
                return True
            if isinstance(parent, ast.If) and none_check_of_name(parent.test):
                return True
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
        return False


# ----------------------------------------------------------------------
# 6. finite-input-validation (PR 6: submit-time non-finite rejection)
# ----------------------------------------------------------------------

class FiniteInputValidationRule(Rule):
    id = "finite-input-validation"
    description = (
        "Public serve/ entry points taking points/queries/radius must run "
        "them through validate_points/validate_queries/validate_settings "
        "before any direct array use (forwarding whole to another entry "
        "point is fine — the callee is checked too)."
    )
    motivation = (
        "CHANGES.md PR 6: a NaN query row used to error the whole merged "
        "sweep and settle every co-queued same-cloud ticket with its "
        "exception; validation must fail the one bad caller at submit "
        "time."
    )

    _VALIDATORS: Dict[str, str] = {
        "validate_points": "points",
        "validate_queries": "queries",
        "validate_settings": "radius",
    }
    _TRACKED = ("points", "queries", "radius")

    def applies(self, module: ModuleContext) -> bool:
        return path_has_part(module, "serve")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not self.applies(module):
            return
        yield from self._check_body(module, module.tree.body, public=True)

    def _check_body(
        self, module: ModuleContext, body: Sequence[ast.stmt], public: bool
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                yield from self._check_body(
                    module, stmt.body, public and not stmt.name.startswith("_")
                )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if (
                    public
                    and not stmt.name.startswith("_")
                    and not stmt.name.startswith("validate")
                ):
                    yield from self._check_function(module, stmt)

    def _check_function(
        self, module: ModuleContext, fn: ast.AST
    ) -> Iterator[Finding]:
        args = fn.args
        params = {
            a.arg
            for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        }
        tracked = [p for p in self._TRACKED if p in params]
        if not tracked:
            return
        validated_at: Dict[str, Tuple[int, int]] = {}
        for node in walk_in_order(fn):
            if isinstance(node, ast.Call):
                callee = dotted_name(node.func)
                short = callee.split(".")[-1] if callee else ""
                if short in self._VALIDATORS:
                    param = self._VALIDATORS[short]
                    if param in tracked and param not in validated_at:
                        validated_at[param] = (node.lineno, node.col_offset)
        for node in walk_in_order(fn):
            if not (
                isinstance(node, ast.Name)
                and node.id in tracked
                and isinstance(node.ctx, ast.Load)
            ):
                continue
            param = node.id
            pos = (node.lineno, node.col_offset)
            if param in validated_at and pos >= validated_at[param]:
                continue
            if self._is_forwarded(module, node):
                continue
            yield self.finding(
                module,
                node,
                f"public serving entry point uses {param!r} before "
                f"validate_{'settings' if param == 'radius' else param}(); "
                f"a non-finite value here poisons the whole merged sweep",
            )
            tracked = [p for p in tracked if p != param]  # one report per param

    def _is_forwarded(self, module: ModuleContext, name: ast.Name) -> bool:
        """Is this use just passing the param onward (or validating it)?

        Allowed: an argument to a validator, to a bare-name local/module
        function, or to a ``self.*`` method — those callees are linted
        themselves.  Disallowed: direct array work (np.*, methods *on*
        the value, subscripts, arithmetic).
        """
        parent = module.parents.get(id(name))
        if isinstance(parent, ast.keyword):
            parent = module.parents.get(id(parent))
        if not isinstance(parent, ast.Call):
            return False
        if name is parent.func or (
            isinstance(parent.func, ast.Attribute)
            and name in ast.walk(parent.func)
        ):
            return False  # a method *on* the value is a use, not a forward
        callee = parent.func
        if isinstance(callee, ast.Name):
            return True
        chain = dotted_name(callee)
        return chain is not None and chain.split(".")[0] == "self"


# ----------------------------------------------------------------------
# 7. broad-except (warn-only stub; audit rides along in this PR)
# ----------------------------------------------------------------------

class BroadExceptRule(Rule):
    id = "broad-except"
    severity = WARNING
    description = (
        "except Exception / bare except handlers get flagged (warn-only); "
        "load-bearing ones carry '# repro: allow[broad-except] -- <why>' "
        "so the justification lives next to the catch."
    )
    motivation = (
        "Audit rider: broad capture is load-bearing in exactly four places "
        "(worker error containment, frontend caller fan-out); anywhere "
        "else it hides bugs the equivalence suites would have caught."
    )

    _BROAD = {"Exception", "BaseException"}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare except swallows everything including "
                    "KeyboardInterrupt; catch something narrower or justify "
                    "with a pragma",
                )
                continue
            exprs = (
                node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            )
            for expr in exprs:
                name = dotted_name(expr)
                if name and name.split(".")[-1] in self._BROAD:
                    yield self.finding(
                        module,
                        node,
                        f"broad 'except {name}' hides unrelated failures; "
                        f"narrow the catch or justify with "
                        f"'# repro: allow[broad-except] -- <why>'",
                    )
                    break


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

ALL_RULES: Tuple[Rule, ...] = (
    ReferenceFreezeRule(),
    CacheTruthinessRule(),
    SharedDefaultRngRule(),
    AsyncioDisciplineRule(),
    WallClockInjectionRule(),
    FiniteInputValidationRule(),
    BroadExceptRule(),
)

# Findings the engine emits on its own; listed so --list-rules documents
# them and pragmas naming them resolve as known (though engine findings
# are deliberately not suppressible).
ENGINE_RULE_IDS: Tuple[Tuple[str, str, str], ...] = (
    (PARSE_ERROR, ERROR, "file cannot be read or parsed"),
    (BAD_PRAGMA, ERROR, "malformed suppression pragma (missing reason, bad id)"),
    (UNUSED_PRAGMA, ERROR, "pragma that no longer suppresses anything"),
    (UNKNOWN_RULE, ERROR, "pragma naming a rule id that does not exist"),
)


def all_rule_ids() -> List[str]:
    return [rule.id for rule in ALL_RULES] + [rid for rid, _, _ in ENGINE_RULE_IDS]
