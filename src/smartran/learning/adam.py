"""Bias-corrected Adam over one parameter array.

A learner keeps one optimizer per network, built on its arena vector
(Mlp.flat), or on log_alpha for the temperature, and each step is
in-place ufuncs on flat first and second moments. The array is stepped
as a flat view, in blocks of _BLOCK entries, so each block's
parameters, gradient, moments and scratch stay in cache across the
dozen ufunc passes of a step. Each thread builds its two _BLOCK-entry
scratch vectors at its first step and reuses them in every later step
and in mlp.polyak_update on that thread; they carry nothing from one
call to the next, so learners that update on different threads at once
(the engine's pool agent and its site agents) never share a block. The
per-element arithmetic is the textbook one, in the textbook order, for
any block size.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

# 32 Ki entries = 256 KiB per array, six arrays per block: within a
# core's L2 cache on the machines measured (2 MiB), where a whole
# 139 k-entry actor arena per pass is not; stepping by blocks halved
# adam_step on such an arena there
_BLOCK = 32_768

_local = threading.local()


def block_scratch() -> tuple[np.ndarray, np.ndarray]:
    """The calling thread's two scratch vectors of at least _BLOCK
    entries, built once per thread."""
    scratch = getattr(_local, "scratch", None)
    if scratch is None or scratch[0].size < _BLOCK:
        scratch = _local.scratch = (np.empty(_BLOCK), np.empty(_BLOCK))
    return scratch


@dataclass
class AdamState:
    lr: float
    beta1: float
    beta2: float
    eps: float
    step: int
    m: np.ndarray
    v: np.ndarray


def adam_init(
    param: np.ndarray,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    if lr < 0:
        raise ValueError("learning rate must be >= 0")
    return AdamState(
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
        step=0,
        m=np.zeros_like(param),
        v=np.zeros_like(param),
    )


def _all_finite(g: np.ndarray) -> bool:
    # a finite sum proves every entry finite; only an inf/nan sum
    # (which overflow can also cause) needs the exact scan
    return bool(np.isfinite(g.sum())) or bool(np.all(np.isfinite(g)))


def adam_step(state: AdamState, param: np.ndarray, grad: np.ndarray) -> None:
    """One in-place update. Rejects non-finite gradients outright."""
    if grad.shape != param.shape or param.shape != state.m.shape:
        raise ValueError("param/grad do not match optimizer state")
    if not _all_finite(grad):
        raise ValueError("non-finite gradient passed to adam_step")
    state.step += 1
    b1c = 1.0 - state.beta1**state.step
    b2c = 1.0 - state.beta2**state.step
    scratch1, scratch2 = block_scratch()
    # views, not copies: parameters and moments are C-contiguous
    p, g, m, v = param.reshape(-1), grad.reshape(-1), state.m.reshape(-1), state.v.reshape(-1)
    for lo in range(0, p.size, _BLOCK):
        hi = lo + _BLOCK
        n = min(hi, p.size) - lo
        _step_block(
            state, b1c, b2c, p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], scratch1[:n], scratch2[:n]
        )


def _step_block(state: AdamState, b1c: float, b2c: float, p, g, m, v, step, sq) -> None:
    """In place on one block; step and sq are scratch of the same shape.
    m <- beta1 m + (1 - beta1) g;  v <- beta2 v + (1 - beta2) g^2;
    p <- p - lr (m / b1c) / (sqrt(v / b2c) + eps)."""
    np.multiply(g, 1.0 - state.beta1, out=step)
    m *= state.beta1
    m += step
    np.multiply(g, g, out=sq)
    sq *= 1.0 - state.beta2
    v *= state.beta2
    v += sq
    np.divide(m, b1c, out=step)
    step *= state.lr
    np.divide(v, b2c, out=sq)
    np.sqrt(sq, out=sq)
    sq += state.eps
    step /= sq
    p -= step


def apply_gradients(net, opt: AdamState, grads: np.ndarray) -> None:
    """adam_step on a network's arena, bumping its cache version. opt is
    built on net.flat and grads is one arena-layout vector."""
    adam_step(opt, net.flat, grads)
    net.bump()
