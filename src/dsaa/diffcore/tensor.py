"""Reverse-mode autodiff tensor on numpy arrays.

Graph nodes are Tensor objects. An op computes its output and hands it
to make_node with its operands, Tensors or not, and a backward function.
make_node fixes, once, which operands need a gradient: the Tensors that
require one while grads are live. backward_fn(g, needs) returns one
gradient per operand, or None where `needs` is False; it states only
the op's local derivatives. backward() alone routes them: it sums each
gradient down to its operand's shape (a broadcast operand gets the sum
over the broadcast axes), adds it into the operand's .grad, operands in
order (the first gradient is 0 + g in a fresh array laid out as the
data, each later one is added in place), and frees the node's own
.grad: only leaves keep one, until Adam.step consumes it. The walk is a
topological sort over the operands `needs` marks, iterative (graphs
here get a few thousand nodes deep).

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
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_operands",
                 "_needs", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._operands = ()
        self._needs = ()
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

    def accumulate_grad(self, g: np.ndarray):
        if self.grad is None:
            # 0 + g rounded once to the data's dtype (-0.0 becomes +0.0),
            # laid out as the data: a numpy reduction's order of summation
            # follows the memory layout, so later sums keep their bytes
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def make_node(data: np.ndarray, operands, backward_fn, name: str | None = None) -> Tensor:
    """Create an op output, recording the edge only when grads are live.

    `operands` are everything the op read, raw numbers, arrays and None
    included. `needs` is fixed here, once: True for each Tensor operand
    that requires a gradient. Only then is the node wired; its
    backward_fn(g, needs) returns one gradient per operand, None where
    `needs` is False; backward() walks the operands `needs` marks, adds
    their gradients and frees the node's .grad once it has routed it."""
    if _NAN_CHECKS and not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values out of op {name or '?'}")
    out = Tensor(data, name=name)
    if _GRAD_ENABLED:
        needs = tuple(isinstance(x, Tensor) and x.requires_grad for x in operands)
        if any(needs):
            out.requires_grad = True
            out._operands = operands
            out._needs = needs
            out._backward = backward_fn
    return out


def backward(loss: Tensor, grad: np.ndarray | None = None):
    """Accumulate d(loss)/d(leaf) into .grad; only leaves keep theirs."""
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
        for x, need in zip(node._operands, node._needs):
            if need and id(x) not in seen:
                stack.append((x, False))

    loss.accumulate_grad(grad)
    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        grads = node._backward(node.grad, node._needs)
        node.grad = None
        for x, need, g in zip(node._operands, node._needs, grads):
            if need:
                x.accumulate_grad(g if g.shape == x.shape else _unbroadcast(g, x.shape))
