"""Flat-tape reverse-mode machinery for the production autograd engine.

Design (after the classic ``autograd`` package): ops are *registered
primitives*.  Each primitive registers one VJP *maker* per argnum via
:func:`defvjp` (or a single argnum-indexed maker via :func:`defvjp_argnum`).
At forward time ``nn.tensor`` calls :func:`record`, which invokes the makers
once — capturing the forward answer, parent arrays, and any op state (masks,
indices, axes) — and appends a :class:`TapeEntry` to the flat module-level
:class:`Tape`.  ``backward`` is :func:`backward_pass`: a single reverse sweep
over the tape that pops each reachable entry, applies its per-argnum VJPs,
un-broadcasts every contribution back to the parent's shape, and **frees the
entry** as it goes, so long epochs stop retaining whole op graphs.

Bit-identity discipline (pinned by ``tests/test_nn_tape.py`` against the
frozen closure engine in ``nn.reference``):

* every VJP uses the *same arithmetic expression* as the reference closure,
  and each contribution is un-broadcast **before** accumulation (reduction
  does not distribute bitwise over sums);
* accumulation into a node copies the first contribution and ``+=``-s the
  rest, exactly like the reference ``_accumulate``;
* the two engines may fire a node's consumers in different orders (reverse
  tape-creation order here vs. DFS reverse-postorder there), but IEEE-754
  addition is commutative bitwise, so nodes with at most two distinct
  consumers — which covers every graph the models build — accumulate to
  identical bits.  Graphs with higher fan-out agree to within reassociation
  (the equivalence suite checks those with ``allclose``).

Deliberate divergences from the retired closure behavior: entries are freed
by the pass, so a second ``backward()`` through the same subgraph propagates
nothing (the reference engine now releases its graph too, matching this),
intermediate ``.grad`` values are transient per pass rather than
accumulated across retained graphs, and :func:`unbroadcast` indexes away a
prepended size-1 axis that the reference sums, so a zero gradient entry
may keep the sign the reference's sum drops (-0.0 for +0.0).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "Tape",
    "TapeEntry",
    "backward_pass",
    "defvjp",
    "defvjp_argnum",
    "record",
    "reset_tape",
    "tape_length",
    "unbroadcast",
]

# A VJP maps the output cotangent to one parent's (pre-unbroadcast)
# contribution; a maker builds the VJP at forward/record time.
VJP = Callable[[np.ndarray], np.ndarray]


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (the reverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum away prepended axes.  A size-1 axis (a one-cloud stack) is
    # indexed away instead: summing its single row is a full copy that
    # changes no value, only the sign of a zero (see the module notes).
    while grad.ndim > len(shape):
        grad = grad[0] if grad.shape[0] == 1 else grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class TapeEntry:
    """One recorded primitive application.

    ``vjps`` is aligned with ``parents``; a ``None`` slot marks a parent that
    requires no gradient.  Entries hold the only strong references the engine
    keeps to intermediate tensors — freeing an entry releases its subgraph.
    """

    __slots__ = ("out", "parents", "vjps")

    def __init__(
        self,
        out: object,
        parents: Tuple[object, ...],
        vjps: Tuple[Optional[VJP], ...],
    ):
        self.out = out
        self.parents = parents
        self.vjps = vjps


class Tape:
    """A flat, append-only record of primitive applications."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: List[Optional[TapeEntry]] = []

    def __len__(self) -> int:
        return len(self.entries)

    def clear(self) -> None:
        self.entries.clear()


_TAPE = Tape()


def tape_length() -> int:
    """Number of live (unconsumed) entries — 0 after a completed backward."""
    return len(_TAPE.entries)


def reset_tape() -> None:
    """Drop all recorded entries (e.g. after a forward that is never
    backpropagated outside a ``no_grad`` block)."""
    _TAPE.clear()


# ----------------------------------------------------------------------
# Primitive registry
# ----------------------------------------------------------------------
_VJP_MAKERS: Dict[str, Tuple[Optional[Callable], ...]] = {}
_VJP_ARGNUM_MAKERS: Dict[str, Callable] = {}


def defvjp(name: str, *makers: Optional[Callable]) -> None:
    """Register per-argnum VJP makers for primitive ``name``.

    ``makers[argnum](ans, *parent_datas, **op_state) -> vjp`` builds the
    backward closure for that parent at record time.
    """
    _VJP_MAKERS[name] = makers


def defvjp_argnum(name: str, maker: Callable) -> None:
    """Register a single argnum-indexed maker (for variadic primitives).

    ``maker(argnum, ans, *parent_datas, **op_state) -> vjp``.
    """
    _VJP_ARGNUM_MAKERS[name] = maker


def record(name: str, out, parents: Tuple[object, ...], **op_state) -> None:
    """Append a tape entry for primitive ``name`` applied to ``parents``.

    Called by ``nn.tensor`` at forward time, only when the output requires
    grad.  Makers run here so VJPs capture forward state once; parents that
    require no gradient get a ``None`` VJP slot and are skipped on replay.
    """
    argnum_maker = _VJP_ARGNUM_MAKERS.get(name)
    parent_datas = tuple(p.data for p in parents)
    vjps: List[Optional[VJP]] = []
    for argnum, parent in enumerate(parents):
        if not parent.requires_grad:
            vjps.append(None)
        elif argnum_maker is not None:
            vjps.append(argnum_maker(argnum, out.data, *parent_datas, **op_state))
        else:
            maker = _VJP_MAKERS[name][argnum]
            if maker is None:
                raise ValueError(f"primitive {name!r} has no VJP for argnum {argnum}")
            vjps.append(maker(out.data, *parent_datas, **op_state))
    _TAPE.entries.append(TapeEntry(out, tuple(parents), tuple(vjps)))


# ----------------------------------------------------------------------
# Reverse sweep
# ----------------------------------------------------------------------
def backward_pass(out, seed: np.ndarray) -> None:
    """Replay the tape in reverse from ``out``, freeing entries as it goes.

    Entries not reachable from ``out`` (other live graphs sharing the tape)
    are left in place.  Gradients for leaf tensors accumulate into ``.grad``
    via the tensor's own ``_accumulate`` (copy-first, ``+=`` after — the
    reference discipline); interior gradients live in a scratch dict keyed
    by object identity and are assigned to ``.grad`` when their entry fires.
    """
    seed = unbroadcast(np.asarray(seed, dtype=np.float64), out.data.shape)
    if not out._interior:
        out._accumulate(seed)
        return
    entries = _TAPE.entries
    # id() keys are stable here: every keyed tensor is kept alive either by
    # the dict value itself or by its still-unprocessed tape entry.
    grads: Dict[int, List] = {id(out): [out, seed.copy()]}
    for i in range(len(entries) - 1, -1, -1):
        entry = entries[i]
        slot = grads.pop(id(entry.out), None)
        if slot is None:
            continue
        node, grad = slot
        node.grad = grad
        for parent, vjp in zip(entry.parents, entry.vjps):
            if vjp is None:
                continue
            contrib = unbroadcast(
                np.asarray(vjp(grad), dtype=np.float64), parent.data.shape
            )
            if parent._interior:
                pslot = grads.get(id(parent))
                if pslot is None:
                    grads[id(parent)] = [parent, contrib.copy()]
                else:
                    pslot[1] += contrib
            else:
                parent._accumulate(contrib)
        entries[i] = None
    # Interior nodes whose producing entry was consumed by an earlier pass
    # behave like leaves now: flush whatever reached them.
    for node, grad in grads.values():
        node._accumulate(grad)
    _TAPE.entries = [e for e in entries if e is not None]
