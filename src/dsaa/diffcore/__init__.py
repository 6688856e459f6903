"""Minimal reverse-mode autodiff on numpy, plus Adam and checkpoint I/O."""

from .tensor import Tensor, backward, no_grad, nan_checks, grad_enabled
from .ops import (
    add, sub, mul, neg, matmul, reciprocal,
    exp, log, tanh, relu, softplus, sigmoid,
    minimum, maximum, clamp, sum_, mean_, reshape, transpose,
    broadcast_to, concat, stack, getitem, conv2d, conv_transpose2d, linear,
)
from .geom import texture_sample, upsample2d
from .adam import Adam, ParamStore
from .checkpoint import save_arrays, load_arrays, MAGIC

__all__ = [
    "Tensor", "backward", "no_grad", "nan_checks", "grad_enabled",
    "add", "sub", "mul", "neg", "matmul", "reciprocal",
    "exp", "log", "tanh", "relu", "softplus",
    "sigmoid", "minimum", "maximum", "clamp", "sum_", "mean_", "reshape",
    "transpose", "broadcast_to", "concat", "stack", "getitem",
    "conv2d", "conv_transpose2d", "linear",
    "texture_sample", "upsample2d",
    "Adam", "ParamStore", "save_arrays", "load_arrays", "MAGIC",
]
