"""Central finite-difference gradient checking for the tests.

Every op's backward is validated against this before it is trusted; the
same harness drives the end-to-end render check. Always float64: the FD
truncation plus roundoff noise at eps ~ 1e-6 sits far below the 1e-4
acceptance line for smooth ops.
"""

from __future__ import annotations

import numpy as np

from dsaa.diffcore import Tensor, backward


def numeric_grad(fn, tensors, which: int, eps: float = 1e-6,
                 sample: int | None = None, rng: np.random.Generator | None = None):
    """Central differences of scalar fn(*tensors) w.r.t. tensors[which].

    Mutates the probed tensor's data in place and restores it. When
    `sample` is given, only that many coordinates (seeded choice) are
    probed and the rest are returned as nan.
    """
    t = tensors[which]
    flat = t.data.reshape(-1)
    if not flat.flags.writeable:
        raise ValueError("numeric_grad needs writable input data")
    n = np.full(flat.size, np.nan)
    idxs = np.arange(flat.size)
    if sample is not None and sample < flat.size:
        idxs = (rng or np.random.default_rng(0)).choice(flat.size, size=sample, replace=False)
        idxs.sort()
    for i in idxs:
        h = eps * max(1.0, abs(float(flat[i])))
        orig = flat[i]
        flat[i] = orig + h
        fp = float(fn(*tensors).data)
        flat[i] = orig - h
        fm = float(fn(*tensors).data)
        flat[i] = orig
        n[i] = (fp - fm) / (2.0 * h)
    return n.reshape(t.data.shape)


def gradcheck(fn, inputs, eps: float = 1e-6, floor: float = 1e-6,
              sample: int | None = None, seed: int = 0) -> float:
    """Max relative error between analytic and FD gradients of scalar fn.

    Relative error per coordinate is |a - n| / max(|a|, |n|, floor); the
    floor keeps near-zero gradients from amplifying FD roundoff.
    """
    # always copy: probing must never alias arrays the closure also reads
    tensors = [Tensor(np.array(x, dtype=np.float64, copy=True), requires_grad=True)
               for x in inputs]
    out = fn(*tensors)
    backward(out)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for which, t in enumerate(tensors):
        num = numeric_grad(fn, tensors, which, eps=eps, sample=sample, rng=rng)
        mask = ~np.isnan(num)
        a = analytic[which][mask]
        n = num[mask]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        if a.size:
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
