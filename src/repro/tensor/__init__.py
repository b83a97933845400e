"""Numpy-backed reverse-mode autodiff engine.

Public surface:

* :class:`Tensor`, :func:`as_tensor`, :func:`no_grad`
* functional ops in :mod:`repro.tensor.ops` (re-exported here)
* the Adam optimiser in :mod:`repro.tensor.optim`
* initialisers in :mod:`repro.tensor.init`
"""

from repro.tensor.tensor import Tensor, as_tensor, is_grad_enabled, no_grad, unbroadcast
from repro.tensor.ops import (
    abs_,
    clip,
    concat,
    dropout,
    edge_attention_logits,
    embedding_lookup,
    exp,
    gather_rows,
    gelu,
    leaky_relu,
    log,
    log_softmax,
    logsumexp,
    max_,
    maximum,
    relu,
    scatter_mean,
    scatter_sum,
    segment_softmax,
    sigmoid,
    softmax,
    sqrt,
    stack,
    tanh,
    weighted_scatter,
    where_const,
)
from repro.tensor.optim import Adam, global_grad_norm
from repro.tensor import init

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "unbroadcast",
    "abs_",
    "clip",
    "concat",
    "dropout",
    "edge_attention_logits",
    "embedding_lookup",
    "exp",
    "gather_rows",
    "gelu",
    "leaky_relu",
    "log",
    "log_softmax",
    "logsumexp",
    "max_",
    "maximum",
    "relu",
    "scatter_mean",
    "scatter_sum",
    "segment_softmax",
    "sigmoid",
    "softmax",
    "sqrt",
    "stack",
    "tanh",
    "weighted_scatter",
    "where_const",
    "Adam",
    "global_grad_norm",
    "init",
]
