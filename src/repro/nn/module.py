"""Module base class: parameter registration, train/eval mode, state dicts."""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from .tensor import Tensor

__all__ = ["Module", "Parameter"]


class Parameter(Tensor):
    """A tensor registered as a trainable parameter."""

    def __init__(self, data: np.ndarray):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for network components.

    Subclasses assign :class:`Parameter` and :class:`Module` attributes;
    registration is automatic via ``__setattr__`` introspection at
    collection time (no metaclass magic — the collection walks ``__dict__``).
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, value in vars(self).items():
            path = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{path}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{path}.{i}", item

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self) -> "Module":
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            m.training = False
        return self
