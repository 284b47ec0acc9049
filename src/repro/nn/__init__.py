"""Minimal deep-learning framework over NumPy (autograd, layers, Adam)."""

from .tensor import Tensor, no_grad
from .tape import reset_tape, tape_length
from .reference import ReferenceTensor, reference_no_grad
from .gradcheck import gradcheck
from .module import Module, Parameter
from .layers import MLP, BatchNorm, Dropout, Linear, ReLU, Sequential
from .losses import huber_loss, log_softmax, mse_loss, softmax_cross_entropy
from .optim import Adam
from .init import kaiming_uniform, xavier_uniform, zeros

__all__ = [
    "Tensor",
    "no_grad",
    "tape_length",
    "reset_tape",
    "ReferenceTensor",
    "reference_no_grad",
    "gradcheck",
    "Module",
    "Parameter",
    "MLP",
    "BatchNorm",
    "Dropout",
    "Linear",
    "ReLU",
    "Sequential",
    "huber_loss",
    "log_softmax",
    "mse_loss",
    "softmax_cross_entropy",
    "Adam",
    "kaiming_uniform",
    "xavier_uniform",
    "zeros",
]
