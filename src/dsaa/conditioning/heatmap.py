"""Empirical influence maps: where does wiggling one scalar move the output."""

import numpy as np

from ..rng import stream

__all__ = ["influence_heatmap"]

_SCALE = 0.25


def influence_heatmap(eval_fn, signal: np.ndarray, k: int, n_perturb: int,
                      seed: int = 0) -> np.ndarray:
    """Mean |output change| per texel over random perturbations of scalar k.

    eval_fn maps a signal vector to an array whose trailing two axes are the
    texel grid; leading axes are averaged. The result is scaled into [0,1]
    (an everywhere-zero response stays zero).
    """
    if n_perturb < 1:
        raise ValueError(f"n_perturb must be at least 1, got {n_perturb}")
    signal = np.asarray(signal, dtype=np.float64)
    base = np.asarray(eval_fn(signal), dtype=np.float64)
    acc = np.zeros(base.shape[-2:])
    rng = stream(seed, "heatmap", int(k))
    for _ in range(n_perturb):
        bumped = signal.copy()
        bumped[k] += rng.normal() * _SCALE
        diff = np.abs(np.asarray(eval_fn(bumped), dtype=np.float64) - base)
        acc += diff.reshape(-1, *base.shape[-2:]).mean(axis=0)
    acc /= n_perturb
    top = acc.max()
    if top > 0:
        acc /= top
    return acc
