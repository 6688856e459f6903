"""Reverse-mode autodiff tensor on numpy arrays.

Graph nodes are Tensor objects; each op wires a _backward closure and the
parent list. backward() does an iterative topological walk (no recursion,
graphs here get a few thousand nodes deep) and accumulates into .grad.
Everything is plain numpy, float64 by default, float32 when the caller
feeds float32 data. All reductions are ordinary numpy reductions, so a
fixed graph replays bit-identically.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_GRAD_ENABLED = True
_NAN_CHECKS = False


def grad_enabled() -> bool:
    return _GRAD_ENABLED


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference fast path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


@contextmanager
def nan_checks(enabled: bool = True):
    """Assert every op output is finite. Slow, test use only."""
    global _NAN_CHECKS
    prev = _NAN_CHECKS
    _NAN_CHECKS = enabled
    try:
        yield
    finally:
        _NAN_CHECKS = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"


def make_node(data: np.ndarray, parents, backward_fn, name: str | None = None) -> Tensor:
    """Create an op output, recording the edge only when grads are live."""
    if _NAN_CHECKS and not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values out of op {name or '?'}")
    out = Tensor(data, name=name)
    parents = tuple(p for p in parents if isinstance(p, Tensor))
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def backward(loss: Tensor, grad: np.ndarray | None = None):
    """Accumulate d(loss)/d(leaf) into .grad over the whole graph."""
    if not loss.requires_grad:
        raise ValueError("backward() on a tensor that does not require grad")
    if grad is None:
        if loss.data.size != 1:
            raise ValueError("implicit gradient only for scalar losses")
        grad = np.ones_like(loss.data)

    # iterative post-order topo sort
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss.accumulate_grad(grad)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
