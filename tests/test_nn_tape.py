"""Tape engine vs. frozen closure reference: bit-identical gradients.

``nn.tensor`` (flat tape, replayed in reverse) is pinned against
``nn.reference.ReferenceTensor`` (the retired closure-chained engine, kept
as per-step ground truth) the same way the vectorized neighbor engines are
pinned against ``kdtree.exact``:

* randomized programs over **every primitive** — broadcasting shapes,
  gather (``take``), max-reduction ties included — run on both engines from
  identical leaves; forward bits and every leaf gradient must be equal
  exactly (``==``), not approximately;
* the bitwise suite keeps each node's *distinct consumer-op* count ≤ 2,
  which covers every graph the models build: the two engines may fire a
  node's consumers in different orders, and IEEE-754 addition is
  commutative (bitwise) but not associative, so two contributions always
  agree while three may reassociate.  A companion suite with unrestricted
  fan-out checks ``allclose`` at float-epsilon scale;
* tape entries are freed by the pass (and the reference engine releases its
  closure graph), so a finished step retains no op graph — asserted here
  down to a real trained epoch.
"""

import numpy as np
import pytest

from repro.nn import ReferenceTensor, Tensor, no_grad, reference_no_grad
from repro.nn.tape import reset_tape, tape_length


# ----------------------------------------------------------------------
# Program generator: engine-agnostic instruction lists
# ----------------------------------------------------------------------
# Each op: (arity, builder).  Builders take node objects (either engine) and
# a kwargs dict; generation-time validity is checked against numpy shapes.
OPS = {
    "add": lambda a, b, **kw: a + b,
    "radd_scalar": lambda a, **kw: kw["c"] + a,
    "neg": lambda a, **kw: -a,
    "sub": lambda a, b, **kw: a - b,
    "rsub_scalar": lambda a, **kw: kw["c"] - a,
    "mul": lambda a, b, **kw: a * b,
    "div": lambda a, b, **kw: a / b,
    "rdiv_scalar": lambda a, **kw: kw["c"] / a,
    "pow": lambda a, **kw: a ** kw["exponent"],
    "matmul": lambda a, b, **kw: a @ b,
    "exp": lambda a, **kw: a.exp(),
    "log": lambda a, **kw: a.log(),
    "relu": lambda a, **kw: a.relu(),
    "tanh": lambda a, **kw: a.tanh(),
    "sigmoid": lambda a, **kw: a.sigmoid(),
    "sum": lambda a, **kw: a.sum(axis=kw["axis"], keepdims=kw["keepdims"]),
    "mean": lambda a, **kw: a.mean(axis=kw["axis"], keepdims=kw["keepdims"]),
    "max": lambda a, **kw: a.max(axis=kw["axis"], keepdims=kw["keepdims"]),
    "reshape": lambda a, **kw: a.reshape(*kw["shape"]),
    "transpose": lambda a, **kw: a.transpose(*kw["axes"]),
    "take": lambda a, **kw: a.take(kw["indices"]),
    "concat": lambda a, b, **kw: a.concat([b], axis=kw["axis"]),
}

# Ops whose domain needs positive inputs; the generator guards them by
# routing through sigmoid(x) + 0.5 first.
_POSITIVE_ONLY = {"log", "div", "rdiv_scalar"}


def _leaf_shapes(rng):
    menu = [(3, 4), (4,), (1, 4), (3, 1), (4, 2), (2, 3, 4), ()]
    count = int(rng.integers(3, 6))
    return [menu[int(i)] for i in rng.integers(0, len(menu), size=count)]


def _gen_program(seed, steps=14, max_consumers=2):
    """Build (leaf_arrays, instrs).  Each instr: (op, operand_ids, kwargs).

    Node ids index the combined [leaves..., results...] list.  Each node
    receives at most ``max_consumers`` gradient *contributions* (a use like
    x*x counts twice): two contributions always accumulate to identical
    bits under either consumer-firing order (IEEE addition is commutative),
    three or more may reassociate.
    """
    rng = np.random.default_rng(seed)
    shapes = _leaf_shapes(rng)
    # Quantized values make max-reduction ties likely; offset keeps exp/pow
    # in range.
    leaves = [np.round(rng.normal(scale=1.2, size=s), 1) for s in shapes]
    vals = [a.copy() for a in leaves]
    consumers = [0] * len(vals)
    instrs = []

    def usable(i):
        return consumers[i] < max_consumers

    def emit(op, ids, kwargs):
        for i in ids:
            consumers[i] += 1
        arrays = [vals[i] for i in ids]
        out = OPS[op](*[_NumpyNode(a) for a in arrays], **kwargs).data
        instrs.append((op, tuple(ids), kwargs))
        vals.append(out)
        consumers.append(0)
        return len(vals) - 1

    names = list(OPS)
    for _ in range(steps):
        op = names[int(rng.integers(0, len(names)))]
        cands = [i for i in range(len(vals)) if usable(i)]
        if not cands:
            break
        rng.shuffle(cands)
        try:
            if op in ("add", "sub", "mul", "div"):
                a = cands[0]
                pool = [
                    b
                    for b in cands
                    if _broadcastable(vals[a], vals[b])
                    and (b != a or consumers[a] + 2 <= max_consumers)
                ]
                if not pool:
                    continue
                b = pool[0]
                if op == "div":
                    b = emit("sigmoid", (b,), {})
                    b = emit("radd_scalar", (b,), {"c": 0.5})
                    if not usable(a):
                        continue
                emit(op, (a, b), {})
            elif op in ("radd_scalar", "rsub_scalar", "pow"):
                kw = {"c": 1.5} if op != "pow" else {"exponent": int(rng.integers(2, 4))}
                emit(op, (cands[0],), kw)
            elif op == "rdiv_scalar":
                a = emit("sigmoid", (cands[0],), {})
                a = emit("radd_scalar", (a,), {"c": 0.5})
                if usable(a):
                    emit("rdiv_scalar", (a,), {"c": 2.0})
            elif op == "log":
                a = emit("sigmoid", (cands[0],), {})
                a = emit("radd_scalar", (a,), {"c": 0.5})
                if usable(a):
                    emit("log", (a,), {})
            elif op == "matmul":
                pairs = [
                    (a, b)
                    for a in cands
                    for b in cands
                    if vals[a].ndim >= 2
                    and vals[b].ndim == 2
                    and vals[a].shape[-1] == vals[b].shape[0]
                ]
                if pairs:
                    emit("matmul", pairs[0], {})
            elif op in ("sum", "mean", "max"):
                pool = [i for i in cands if vals[i].ndim >= 1 and vals[i].size]
                if not pool:
                    continue
                a = pool[0]
                axis = int(rng.integers(0, vals[a].ndim))
                if op != "max" and rng.integers(0, 3) == 0:
                    axis = None
                emit(op, (a,), {"axis": axis, "keepdims": bool(rng.integers(0, 2))})
            elif op == "reshape":
                a = cands[0]
                emit("reshape", (a,), {"shape": (-1,) if vals[a].ndim else (1,)})
            elif op == "transpose":
                pool = [i for i in cands if vals[i].ndim >= 2]
                if not pool:
                    continue
                a = pool[0]
                axes = tuple(int(x) for x in rng.permutation(vals[a].ndim))
                emit("transpose", (a,), {"axes": axes})
            elif op == "take":
                pool = [i for i in cands if vals[i].ndim >= 1 and vals[i].shape[0] > 0]
                if not pool:
                    continue
                a = pool[0]
                n = vals[a].shape[0]
                # Repeated indices exercise scatter-add accumulation.
                idx = rng.integers(0, n, size=(2, 3))
                emit("take", (a,), {"indices": idx})
            elif op == "concat":
                groups = {}
                for i in cands:
                    groups.setdefault(vals[i].shape, []).append(i)
                match = [g for g in groups.values() if len(g) >= 2 and vals[g[0]].ndim >= 1]
                if not match:
                    continue
                a, b = match[0][:2]
                emit("concat", (a, b), {"axis": -1})
            else:
                emit(op, (cands[0],), {})
        except (ValueError, FloatingPointError):
            continue
    return leaves, instrs, consumers


def _broadcastable(a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
        return True
    except ValueError:
        return False


class _NumpyNode:
    """Shape/value mirror used during generation (duck-types the ops)."""

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)

    def _wrap(self, data):
        return _NumpyNode(data)

    def __add__(self, o):
        return self._wrap(self.data + _d(o))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(-self.data)

    def __sub__(self, o):
        return self._wrap(self.data - _d(o))

    def __rsub__(self, o):
        return self._wrap(_d(o) - self.data)

    def __mul__(self, o):
        return self._wrap(self.data * _d(o))

    __rmul__ = __mul__

    def __truediv__(self, o):
        return self._wrap(self.data / _d(o))

    def __rtruediv__(self, o):
        return self._wrap(_d(o) / self.data)

    def __pow__(self, e):
        return self._wrap(self.data**e)

    def __matmul__(self, o):
        return self._wrap(self.data @ _d(o))

    def exp(self):
        return self._wrap(np.exp(self.data))

    def log(self):
        return self._wrap(np.log(self.data))

    def relu(self):
        return self._wrap(self.data * (self.data > 0))

    def tanh(self):
        return self._wrap(np.tanh(self.data))

    def sigmoid(self):
        return self._wrap(1.0 / (1.0 + np.exp(-self.data)))

    def sum(self, axis=None, keepdims=False):
        return self._wrap(self.data.sum(axis=axis, keepdims=keepdims))

    def mean(self, axis=None, keepdims=False):
        return self._wrap(self.data.mean(axis=axis, keepdims=keepdims))

    def max(self, axis=None, keepdims=False):
        return self._wrap(self.data.max(axis=axis, keepdims=keepdims))

    def reshape(self, *shape):
        return self._wrap(self.data.reshape(*shape))

    def transpose(self, *axes):
        return self._wrap(self.data.transpose(axes or None))

    def take(self, indices):
        return self._wrap(self.data[np.asarray(indices, dtype=np.int64)])

    def concat(self, others, axis=-1):
        return self._wrap(
            np.concatenate([self.data] + [_d(o) for o in others], axis=axis)
        )


def _d(o):
    return o.data if isinstance(o, _NumpyNode) else o


def _execute(tensor_cls, leaves, instrs, consumers):
    """Run a program on an engine; returns (scalar_out, leaf_tensors)."""
    nodes = [tensor_cls(a.copy(), requires_grad=True) for a in leaves]
    for op, ids, kwargs in instrs:
        nodes.append(OPS[op](*[nodes[i] for i in ids], **kwargs))
    # Finalize: reduce every never-consumed node to a scalar and chain-add
    # (each node thereby gains exactly one more consumer).
    total = None
    for i, node in enumerate(nodes):
        if consumers[i] == 0:
            term = node.sum()
            total = term if total is None else total + term
    total.backward()
    return total, nodes[: len(leaves)]


def _run_both(seed, **gen_kw):
    leaves, instrs, consumers = _gen_program(seed, **gen_kw)
    got_out, got_leaves = _execute(Tensor, leaves, instrs, consumers)
    ref_out, ref_leaves = _execute(ReferenceTensor, leaves, instrs, consumers)
    return got_out, got_leaves, ref_out, ref_leaves


class TestRandomizedBitIdentity:
    @pytest.mark.parametrize("seed", range(60))
    def test_gradients_bit_identical_with_model_like_fanout(self, seed):
        got_out, got_leaves, ref_out, ref_leaves = _run_both(seed)
        assert got_out.data.tobytes() == ref_out.data.tobytes()
        for g, r in zip(got_leaves, ref_leaves):
            assert r.grad is not None and g.grad is not None
            assert g.grad.shape == r.grad.shape
            assert g.grad.tobytes() == r.grad.tobytes(), f"leaf grad bits differ"

    @pytest.mark.parametrize("seed", range(20))
    def test_unrestricted_fanout_matches_to_reassociation(self, seed):
        got_out, got_leaves, ref_out, ref_leaves = _run_both(
            seed, steps=18, max_consumers=5
        )
        assert got_out.data.tobytes() == ref_out.data.tobytes()
        for g, r in zip(got_leaves, ref_leaves):
            np.testing.assert_allclose(g.grad, r.grad, rtol=1e-12, atol=1e-12)


class TestDirectedPrimitiveBitIdentity:
    """Deterministic per-primitive pins on adversarial inputs."""

    CASES = {
        "broadcast_add": (lambda a, b: (a + b).sum(), [(3, 1, 4), (5, 1)]),
        "broadcast_mul": (lambda a, b: (a * b).sum(), [(2, 3, 4), (4,)]),
        "broadcast_sub": (lambda a, b: (a - b).sum(), [(3, 4), (3, 1)]),
        "broadcast_div": (lambda a, b: (a / (b * b + 0.5)).sum(), [(3, 4), (4,)]),
        "scalar_rsub_rdiv": (
            lambda a, b: (2.0 - a + 1.0 / (b * b + 0.5)).sum(),
            [(4,), (4,)],
        ),
        "pow_neg_base": (lambda a, b: (a**3 + b**2).sum(), [(5,), (5,)]),
        "matmul_batched": (lambda a, b: (a @ b).sum(), [(2, 3, 4), (4, 5)]),
        "matmul_one_stack": (lambda a, b: (a @ b).sum(), [(1, 5, 3), (3, 2)]),
        "nonlinearities": (
            lambda a, b: (a.relu() + a.tanh() + b.sigmoid() + b.exp()).sum(),
            [(6,), (6,)],
        ),
        "log_domain": (lambda a, b: ((a * a + 0.5).log() + b).sum(), [(4,), (4,)]),
        "sum_axes": (
            lambda a, b: (a.sum(axis=1) * b.sum(axis=1, keepdims=True).reshape(-1)).sum(),
            [(3, 4), (3, 4)],
        ),
        "mean": (lambda a, b: (a.mean(axis=1) + b.mean()).sum(), [(3, 4), (2, 2)]),
        "reshape_transpose": (
            lambda a, b: (a.reshape(6).concat([b.transpose(1, 0).reshape(6)], axis=0)).sum(),
            [(2, 3), (3, 2)],
        ),
        "diamond_reuse": (lambda a, b: ((a * b) + (a * b)).sum(), [(3, 3), (3, 3)]),
        "self_mul": (lambda a, b: (a * a + b).sum(), [(4,), (4,)]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_case(self, name):
        build, shapes = self.CASES[name]
        rng = np.random.default_rng(hash(name) % (2**32))
        arrays = [rng.normal(size=s) for s in shapes]
        got = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        ref = [ReferenceTensor(a.copy(), requires_grad=True) for a in arrays]
        build(*got).backward()
        build(*ref).backward()
        for g, r in zip(got, ref):
            assert g.grad.tobytes() == r.grad.tobytes()

    def test_max_tie_routing_identical(self):
        # All-equal rows: gradient must land on the first argmax only, in
        # both engines, with identical bits.
        data = np.array([[1.0, 1.0, 1.0], [2.0, 0.5, 2.0], [0.0, 3.0, 3.0]])
        g = Tensor(data.copy(), requires_grad=True)
        r = ReferenceTensor(data.copy(), requires_grad=True)
        g.max(axis=1).sum().backward()
        r.max(axis=1).sum().backward()
        assert g.grad.tobytes() == r.grad.tobytes()
        np.testing.assert_array_equal(
            g.grad, [[1, 0, 0], [1, 0, 0], [0, 1, 0]]
        )

    def test_gather_repeated_indices_identical(self):
        data = np.arange(12.0).reshape(4, 3)
        idx = np.array([[0, 0], [3, 0]])
        g = Tensor(data.copy(), requires_grad=True)
        r = ReferenceTensor(data.copy(), requires_grad=True)
        (g.take(idx) * 2.0).sum().backward()
        (r.take(idx) * 2.0).sum().backward()
        assert g.grad.tobytes() == r.grad.tobytes()
        assert g.grad[0, 0] == 6.0  # three gathers of row 0


class TestGatherRowsPrimitive:
    """gather_rows (batched gather) vs. looping take per batch row."""

    def test_matches_per_sample_take_bitwise(self):
        rng = np.random.default_rng(5)
        # One leading axis, then two; both index sets repeat rows.
        for lead in ((3,), (2, 3)):
            feats = rng.normal(size=lead + (6, 4))
            idx = rng.integers(0, 6, size=lead + (5,))
            idx[..., -1] = idx[..., 0]

            stacked = Tensor(feats.copy(), requires_grad=True)
            out = stacked.gather_rows(idx)
            (out * out).sum().backward()

            for b in np.ndindex(*lead):
                per = Tensor(feats[b].copy(), requires_grad=True)
                o = per.take(idx[b])
                (o * o).sum().backward()
                assert out.data[b].tobytes() == o.data.tobytes()
                assert stacked.grad[b].tobytes() == per.grad.tobytes()

    def test_leading_dim_mismatch_rejected(self):
        t = Tensor(np.zeros((2, 4, 3)), requires_grad=True)
        with pytest.raises(ValueError):
            t.gather_rows(np.zeros((3, 2), dtype=np.int64))

    def test_unbatched_matches_take(self):
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(6, 4))
        idx = np.array([5, 0, 0, 2])
        a = Tensor(feats.copy(), requires_grad=True)
        b = Tensor(feats.copy(), requires_grad=True)
        a.gather_rows(idx).sum().backward()
        b.take(idx).sum().backward()
        assert a.grad.tobytes() == b.grad.tobytes()


class TestGraphRelease:
    @pytest.fixture(autouse=True)
    def _clean_tape(self):
        # Other test modules legitimately forward without backward (eval-mode
        # comparisons outside no_grad), leaving entries on the module-level
        # tape.  These tests assert absolute tape lengths, so they need a
        # clean baseline regardless of suite ordering.
        reset_tape()
        yield

    def test_tape_empty_after_backward(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        ((x * 2.0).relu().sum()).backward()
        assert tape_length() == 0

    def test_unreachable_graph_survives_foreign_backward(self):
        x = Tensor(np.ones(3), requires_grad=True)
        kept = (x * 3.0).sum()  # graph 1, not yet backpropagated
        y = Tensor(np.full(3, 2.0), requires_grad=True)
        (y * y).sum().backward()  # graph 2 frees only its own entries
        assert tape_length() > 0
        kept.backward()
        assert tape_length() == 0
        np.testing.assert_array_equal(x.grad, 3.0)

    def test_no_grad_records_nothing(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with no_grad():
            (x * 2.0).sum()
        assert tape_length() == 0

    def test_reference_engine_releases_graph(self):
        x = ReferenceTensor(np.ones(3), requires_grad=True)
        y = (x * 2.0).sum()
        mid = y
        y.backward()
        assert mid._parents == () and mid._backward_fn is None

    def test_reference_no_grad_blocks_graph(self):
        x = ReferenceTensor(np.ones(3), requires_grad=True)
        with reference_no_grad():
            y = (x * 2.0).sum()
        assert not y.requires_grad

    def test_trained_epoch_retains_no_op_graph(self):
        from repro.core import ApproxSetting
        from repro.geometry import ShapeClassificationDataset
        from repro.models import PointNetPPClassifier
        from repro.training import ClassificationTrainer, FixedSetting

        data = ShapeClassificationDataset(
            size=4, num_points=64, seed=0, occlusion=0.0, noise=0.01, rotate=False
        )
        model = PointNetPPClassifier(data.num_classes, np.random.default_rng(3))
        trainer = ClassificationTrainer(
            model, FixedSetting(ApproxSetting(top_height=2, elision_height=None)),
            lr=2e-3, seed=7,
        )
        trainer.train(data, epochs=1)
        assert tape_length() == 0
        for p in model.parameters():
            assert not p._interior
