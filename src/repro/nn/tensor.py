"""Tape-based reverse-mode automatic differentiation over NumPy.

The paper's training contribution (Sec. 5) needs gradients only through
the MLP stack — neighbor search and aggregation construct MLP inputs and
do not participate in gradient flow — so a compact autograd with dense
ops, gather, and max-reduction is sufficient to train every network in
the evaluation.

Design: every op is a *registered primitive* — the forward computes the
answer with plain NumPy and appends one entry to the flat module tape in
``nn.tape``; per-argnum VJP makers (registered at the bottom of this file
via ``tape.defvjp``) build the backward closures at record time.
``backward()`` replays the tape in reverse instead of walking a
closure-chained graph, and frees entries as it goes.  Broadcasting is
handled by un-broadcasting gradients back to the parent's shape.

The closure engine this replaced is frozen in ``nn.reference`` as
``ReferenceTensor``; ``tests/test_nn_tape.py`` pins this engine's
gradients bit-identically against it on randomized graphs covering every
primitive, broadcasting, gather, and max-reduction ties.  Because ops
here accept a stacked leading sample axis (see ``gather_rows``), one tape
replay covers a whole mini-batch.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import tape

__all__ = ["Tensor", "no_grad"]

Arrayish = Union[np.ndarray, float, int, "Tensor"]

_grad_enabled = True


class no_grad:
    """Context manager disabling tape recording (inference mode)."""

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc: object) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


class Tensor:
    """A differentiable array."""

    __slots__ = ("data", "grad", "requires_grad", "_interior")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(self, data: Arrayish, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self.grad: Optional[np.ndarray] = None
        # True iff this tensor was produced by a recorded primitive; leaves
        # (parameters, inputs) accumulate ``.grad`` directly during replay.
        self._interior = False

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _from_op(
        name: str,
        parents: Tuple["Tensor", ...],
        out_data: np.ndarray,
        **op_state,
    ) -> "Tensor":
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            out._interior = True
            tape.record(name, out, parents, **op_state)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = tape.unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor (default seed: ones)."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that requires no grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
        tape.backward_pass(self, grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(value: Arrayish) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other: Arrayish) -> "Tensor":
        other = self._coerce(other)
        return Tensor._from_op("add", (self, other), self.data + other.data)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._from_op("neg", (self,), -self.data)

    def __sub__(self, other: Arrayish) -> "Tensor":
        # IEEE-754 subtraction is addition of the negation, so this single
        # primitive is bit-identical to the reference's ``a + (-b)`` chain.
        other = self._coerce(other)
        return Tensor._from_op("sub", (self, other), self.data - other.data)

    def __rsub__(self, other: Arrayish) -> "Tensor":
        other = self._coerce(other)
        return Tensor._from_op("sub", (other, self), other.data - self.data)

    def __mul__(self, other: Arrayish) -> "Tensor":
        other = self._coerce(other)
        return Tensor._from_op("mul", (self, other), self.data * other.data)

    __rmul__ = __mul__

    def __truediv__(self, other: Arrayish) -> "Tensor":
        other = self._coerce(other)
        return Tensor._from_op("div", (self, other), self.data / other.data)

    def __rtruediv__(self, other: Arrayish) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return Tensor._from_op(
            "pow", (self,), self.data**exponent, exponent=exponent
        )

    def __matmul__(self, other: Arrayish) -> "Tensor":
        other = self._coerce(other)
        return Tensor._from_op("matmul", (self, other), self.data @ other.data)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        return Tensor._from_op("exp", (self,), np.exp(self.data))

    def log(self) -> "Tensor":
        return Tensor._from_op("log", (self,), np.log(self.data))

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return Tensor._from_op("relu", (self,), self.data * mask, mask=mask)

    def tanh(self) -> "Tensor":
        return Tensor._from_op("tanh", (self,), np.tanh(self.data))

    def sigmoid(self) -> "Tensor":
        return Tensor._from_op("sigmoid", (self,), 1.0 / (1.0 + np.exp(-self.data)))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        return Tensor._from_op(
            "sum",
            (self,),
            self.data.sum(axis=axis, keepdims=keepdims),
            axis=axis,
            keepdims=keepdims,
        )

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Max-reduce along ``axis``; gradient flows to the (first) argmax.

        The tie mask compares every position along the axis with
        ``argmax`` (which picks the first maximum) in one broadcast instead
        of the reference engine's equality + cumsum sweep — same positions,
        two fewer full-array passes.  The backward stays ``mask * g`` so
        gradient bits (including signed zeros) match the reference exactly.
        """
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        first = np.expand_dims(np.argmax(self.data, axis=axis), axis)
        size = self.data.shape[axis]
        trailing = self.data.ndim - axis % self.data.ndim - 1
        mask = first == np.arange(size).reshape((size,) + (1,) * trailing)
        return Tensor._from_op(
            "max", (self,), out_data, axis=axis, keepdims=keepdims, mask=mask
        )

    # ------------------------------------------------------------------
    # Shape / indexing
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        return Tensor._from_op("reshape", (self,), self.data.reshape(*shape))

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else tuple(reversed(range(self.data.ndim)))
        return Tensor._from_op(
            "transpose",
            (self,),
            self.data.transpose(axes_tuple),
            inverse=np.argsort(axes_tuple),
        )

    def take(self, indices: np.ndarray, axis: int = 0) -> "Tensor":
        """Gather rows: the differentiable face of neighbor aggregation.

        ``indices`` may be any integer array; the output shape is
        ``indices.shape + self.shape[1:]`` for ``axis=0``.  The backward
        pass scatter-adds, so repeated indices (replicated neighbors, as
        bank-conflict elision produces) accumulate gradient correctly.
        """
        if axis != 0:
            raise NotImplementedError("take supports axis=0 only")
        indices = np.asarray(indices, dtype=np.int64)
        return Tensor._from_op("take", (self,), self.data[indices], indices=indices)

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Batched gather along the second-to-last axis.

        For ``self`` of shape ``(..., N, C)`` and integer ``indices`` of
        shape ``(..., M)`` (leading dims matching exactly), returns
        ``(..., M, C)`` — each batch row gathers its own rows, and every
        index must lie in ``[0, N)``.  The backward pass scatter-adds per
        batch row, bit-identical to looping ``take`` over the leading axes.
        This is the primitive that lets one tape entry cover a whole
        mini-batch of neighbor aggregations.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if self.data.ndim < 2:
            raise ValueError("gather_rows needs at least 2 dims (rows, channels)")
        if indices.shape[:-1] != self.data.shape[:-2]:
            raise ValueError(
                f"leading dims mismatch: indices {indices.shape[:-1]} vs "
                f"data {self.data.shape[:-2]}"
            )
        rows, channels = self.data.shape[-2:]
        if indices.size and (indices.min() < 0 or indices.max() >= rows):
            raise IndexError(f"gather_rows indices must lie in [0, {rows})")
        # Row ``i`` of batch row ``l`` is row ``l * N + i`` of the flat
        # ``(L * N, C)`` view, so one plain index gathers the whole batch.
        starts = np.arange(0, self.data.size // channels, rows)
        offsets = indices + starts.reshape(indices.shape[:-1] + (1,))
        out_data = self.data.reshape(-1, channels)[offsets]
        return Tensor._from_op("gather_rows", (self,), out_data, offsets=offsets)

    def concat(self, others: Sequence["Tensor"], axis: int = -1) -> "Tensor":
        """Concatenate ``[self, *others]`` along ``axis``."""
        tensors = tuple([self] + [self._coerce(o) for o in others])
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        return Tensor._from_op(
            "concat", tensors, out_data, axis=axis, offsets=offsets
        )


# ----------------------------------------------------------------------
# VJP registration — one maker per argnum; every expression matches the
# reference closure in nn.reference bit for bit.
# ----------------------------------------------------------------------
tape.defvjp(
    "add",
    lambda ans, a, b: lambda g: g,
    lambda ans, a, b: lambda g: g,
)
tape.defvjp("neg", lambda ans, a: lambda g: -g)
tape.defvjp(
    "sub",
    lambda ans, a, b: lambda g: g,
    lambda ans, a, b: lambda g: -g,
)
tape.defvjp(
    "mul",
    lambda ans, a, b: lambda g: g * b,
    lambda ans, a, b: lambda g: g * a,
)
tape.defvjp(
    "div",
    lambda ans, a, b: lambda g: g / b,
    lambda ans, a, b: lambda g: -g * a / (b**2),
)
tape.defvjp(
    "pow",
    lambda ans, a, exponent: lambda g: g * exponent * a ** (exponent - 1),
)
tape.defvjp(
    "matmul",
    lambda ans, a, b: lambda g: g @ np.swapaxes(b, -1, -2),
    lambda ans, a, b: lambda g: np.swapaxes(a, -1, -2) @ g,
)
tape.defvjp("exp", lambda ans, a: lambda g: g * ans)
tape.defvjp("log", lambda ans, a: lambda g: g / a)
tape.defvjp("relu", lambda ans, a, mask: lambda g: g * mask)
tape.defvjp("tanh", lambda ans, a: lambda g: g * (1 - ans**2))
tape.defvjp("sigmoid", lambda ans, a: lambda g: g * ans * (1 - ans))


def _sum_vjp(ans, a, axis, keepdims):
    shape, ndim = a.shape, a.ndim

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            for ax in sorted(x % ndim for x in axes):
                g = np.expand_dims(g, ax)
        return np.broadcast_to(g, shape)

    return vjp


tape.defvjp("sum", _sum_vjp)


def _max_vjp(ans, a, axis, keepdims, mask):
    def vjp(g):
        g = np.asarray(g)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return mask * g

    return vjp


tape.defvjp("max", _max_vjp)

tape.defvjp("reshape", lambda ans, a: lambda g: np.asarray(g).reshape(a.shape))
tape.defvjp(
    "transpose",
    lambda ans, a, inverse: lambda g: np.asarray(g).transpose(inverse),
)


def _take_vjp(ans, a, indices):
    def vjp(g):
        full = np.zeros_like(a)
        np.add.at(full, indices.reshape(-1), np.asarray(g).reshape(-1, *a.shape[1:]))
        return full

    return vjp


tape.defvjp("take", _take_vjp)


def _gather_rows_vjp(ans, a, offsets):
    def vjp(g):
        # One scatter-add over flat row offsets visits the rows in the same
        # order as a per-batch-row ``take`` loop, so the sums are bitwise equal.
        full = np.zeros(a.shape)
        channels = a.shape[-1]
        np.add.at(
            full.reshape(-1, channels),
            offsets.reshape(-1),
            np.asarray(g).reshape(-1, channels),
        )
        return full

    return vjp


tape.defvjp("gather_rows", _gather_rows_vjp)


def _concat_vjp(argnum, ans, *args, axis, offsets):
    start, stop = offsets[argnum], offsets[argnum + 1]

    def vjp(g):
        g = np.asarray(g)
        slicer = [slice(None)] * g.ndim
        slicer[axis] = slice(start, stop)
        return g[tuple(slicer)]

    return vjp


tape.defvjp_argnum("concat", _concat_vjp)
