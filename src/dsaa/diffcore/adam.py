"""Named parameter store and a standard Adam optimizer.

Adam keeps first/second moment estimates per parameter with bias
correction; state round-trips through the checkpoint container so a
resumed run continues bit-exactly. A step consumes the gradients.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class ParamStore:
    """Ordered name -> Tensor map; creation order fixes serialization order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._params:
            raise KeyError(f"duplicate parameter {name!r}")
        t = Tensor(np.array(array), requires_grad=True, name=name)
        self._params[name] = t
        return t

    def add_layer(self, name: str, w_shape, fan_in, n_out: int,
                  rng: np.random.Generator, dtype) -> tuple[Tensor, Tensor]:
        """A layer's weight `name`/w, drawn N(0, 1/fan_in) from rng and cast
        to dtype, then its zero bias `name`/b of length n_out."""
        w = self.add(f"{name}/w",
                     (rng.normal(size=w_shape) / np.sqrt(fan_in)).astype(dtype))
        b = self.add(f"{name}/b", np.zeros(n_out, dtype=dtype))
        return w, b

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self):
        return list(self._params.values())

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def state_arrays(self, prefix: str = "") -> dict[str, np.ndarray]:
        return {prefix + k: v.data for k, v in self._params.items()}

    def load_state(self, arrays: dict[str, np.ndarray], prefix: str = ""):
        for k, t in self._params.items():
            src = arrays[prefix + k]
            if src.shape != t.data.shape:
                raise ValueError(f"{k}: shape {src.shape} != {t.data.shape}")
            t.data = src.astype(t.data.dtype, copy=True)


class Adam:
    def __init__(self, params: ParamStore, lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        """Apply each .grad (None counts as zero), then set it to None."""
        self.t += 1
        b1, b2 = _BETA1, _BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[k]
            v = self.v[k]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + _EPS)
            p.grad = None

    def state_arrays(self, prefix: str = "adam/") -> dict[str, np.ndarray]:
        out = {prefix + "t": np.array([float(self.t)])}
        for k in self.params.names():
            out[prefix + "m/" + k] = self.m[k]
            out[prefix + "v/" + k] = self.v[k]
        return out

    def load_state(self, arrays: dict[str, np.ndarray], prefix: str = "adam/"):
        self.t = int(arrays[prefix + "t"][0])
        for k in self.params.names():
            self.m[k] = arrays[prefix + "m/" + k].astype(self.m[k].dtype, copy=True)
            self.v[k] = arrays[prefix + "v/" + k].astype(self.v[k].dtype, copy=True)
