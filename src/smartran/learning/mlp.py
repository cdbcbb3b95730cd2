"""Dense networks with hand-written backprop over a flat parameter arena.

A network is a list of (weight, bias) pairs applied as
z_i = a_i @ W_i.T + b_i with the configured nonlinearity between layers
and an identity output layer. All math is float64.

Every parameter lives in one contiguous float64 vector, Mlp.flat, laid
out as [W0 (row-major), b0, W1, b1, ...]; weights[i] and biases[i] are
views into it. Parameter gradients use the same layout, so Adam and
Polyak blends each touch one vector per network.

mlp_forward_cached writes each layer's pre-activation and hidden
activation into an MlpBuffers set: the caller's, so that a learner
reuses one set update after update, or a fresh one. mlp_gradient
consumes the cache that forward returns and an upstream gradient dL/dy.
By default it returns both the parameter gradients (in the same flat
order as Mlp.params()) and dL/dx. Keyword arguments ask for only what a
caller uses: the parameter gradients as one arena vector or not at all,
and dL/dx or not (skipping the layer-0 input product), and give the
arrays to write them into. Hidden-layer derivatives reuse the
activations the forward cached.

Two guards keep a cache from silently producing wrong gradients. A
cache is stamped with the network's version counter, which any in-place
parameter update bumps. It also records the stamp its forward gave its
MlpBuffers; every forward into the same buffers stamps them again, so
mlp_gradient rejects a cache whose buffers a later forward overwrote.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import adam

_ACTIVATIONS = ("tanh", "relu")


def _layer_views(sizes: tuple[int, ...], flat: np.ndarray):
    """Shaped (weights, biases) views of an arena-layout vector."""
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        end = offset + fan_out * fan_in
        weights.append(flat[offset:end].reshape(fan_out, fan_in))
        biases.append(flat[end : end + fan_out])
        offset = end + fan_out
    return weights, biases


def arena_size(sizes) -> int:
    """Number of parameters of a network with these layer sizes."""
    return sum(i * o + o for i, o in zip(sizes[:-1], sizes[1:]))


@dataclass
class Mlp:
    layer_sizes: tuple[int, ...]
    flat: np.ndarray  # every parameter, arena layout [W0, b0, W1, b1, ...]
    activation: str = "tanh"
    version: int = 0
    weights: list[np.ndarray] = field(init=False, repr=False)  # views: (sizes[i+1], sizes[i])
    biases: list[np.ndarray] = field(init=False, repr=False)  # views: (sizes[i+1],)

    def __post_init__(self) -> None:
        if self.flat.shape != (arena_size(self.layer_sizes),) or self.flat.dtype != np.float64:
            raise ValueError("flat does not match the layer sizes")
        self.weights, self.biases = _layer_views(self.layer_sizes, self.flat)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def input_size(self) -> int:
        return int(self.layer_sizes[0])

    @property
    def output_size(self) -> int:
        return int(self.layer_sizes[-1])

    def params(self) -> list[np.ndarray]:
        """Flat parameter list [W0, b0, W1, b1, ...] (live views)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def bump(self) -> None:
        self.version += 1

    def copy(self) -> "Mlp":
        return Mlp(layer_sizes=self.layer_sizes, flat=self.flat.copy(), activation=self.activation)


def mlp_init(
    layer_sizes,
    rng: np.random.Generator,
    activation: str = "tanh",
    final_scale: float = 1.0,
) -> Mlp:
    """Glorot-uniform weights, zero biases. final_scale shrinks the last
    layer so freshly built policies start near zero output."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError("layer_sizes needs >= 2 positive entries")
    if activation not in _ACTIVATIONS:
        raise ValueError(f"activation must be one of {_ACTIVATIONS}")
    net = Mlp(layer_sizes=sizes, flat=np.zeros(arena_size(sizes)), activation=activation)
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        if i == len(sizes) - 2:
            limit *= final_scale
        net.weights[i][...] = rng.uniform(-limit, limit, size=(fan_out, fan_in))
    return net


class MlpBuffers:
    """Forward outputs for one network shape at one batch size: each
    layer's pre-activation z_i and each hidden layer's activation.
    stamp counts the forwards written into them."""

    def __init__(self, layer_sizes, batch: int):
        sizes = tuple(int(s) for s in layer_sizes)
        self.preacts = [np.empty((batch, s)) for s in sizes[1:]]
        self.acts = [np.empty((batch, s)) for s in sizes[1:-1]]
        self.stamp = 0


@dataclass
class MlpCache:
    inputs: list[np.ndarray]  # a_0 .. a_{L-1}: input to each layer, 2-D
    preacts: list[np.ndarray]  # z_0 .. z_{L-1}
    version: int
    squeezed: bool  # original input was 1-D
    buffers: MlpBuffers  # holds preacts and the hidden inputs
    stamp: int  # buffers.stamp right after this cache's forward


def _act(name: str, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z, out=out)
    return np.maximum(z, 0.0, out=out)


def _act_deriv(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Derivative of the activation at z, given a = act(z)."""
    if name == "tanh":
        return 1.0 - a * a
    return (z > 0.0).astype(np.float64)


def _as_batch(net: Mlp, x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    squeezed = arr.ndim == 1
    if squeezed:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != net.input_size:
        raise ValueError(
            f"input shape {np.asarray(x).shape} does not match network input {net.input_size}"
        )
    return arr, squeezed


def mlp_forward(net: Mlp, x) -> np.ndarray:
    """Forward pass; accepts (d,) or (n, d), returns matching shape."""
    a, squeezed = _as_batch(net, x)
    last = net.n_layers - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        a = z if i == last else _act(net.activation, z)
    return a[0] if squeezed else a


def mlp_forward_cached(net: Mlp, x, out: MlpBuffers | None = None) -> tuple[np.ndarray, MlpCache]:
    """Forward pass that records layer inputs for a later backward.

    Every layer writes into `out` (fresh buffers when None), so the
    returned output and the cache are views of it until the next forward
    into the same buffers. The input x is referenced, not copied."""
    a, squeezed = _as_batch(net, x)
    if out is None:
        out = MlpBuffers(net.layer_sizes, a.shape[0])
    out.stamp += 1
    inputs = []
    last = net.n_layers - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(a)
        z = np.matmul(a, w.T, out=out.preacts[i])
        z += b
        a = z if i == last else _act(net.activation, z, out.acts[i])
    cache = MlpCache(
        inputs=inputs,
        preacts=out.preacts,
        version=net.version,
        squeezed=squeezed,
        buffers=out,
        stamp=out.stamp,
    )
    return (a[0] if squeezed else a), cache


def mlp_gradient(
    net: Mlp,
    grad_output,
    cache: MlpCache,
    *,
    params: str | None = "layers",
    input_grad: bool = True,
    out: np.ndarray | None = None,
    input_out: np.ndarray | None = None,
):
    """Backward pass.

    grad_output is dL/dy for the forward that produced `cache` (summed,
    not averaged, over the batch: fold any 1/n into it). Returns
    (parameter gradients, dL/dx).

    params="layers" gives a list matching net.params(); "flat" gives one
    vector in the arena layout of net.flat; None computes no parameter
    gradients and returns None in their place. input_grad=False skips
    dL/dx, and the layer-0 product behind it, and returns None in its
    place.

    out is an arena-sized vector that receives the parameter gradients
    (every mode returns views of it) and input_out a (batch, input size)
    array that receives dL/dx; fresh ones are used when None.
    """
    if cache.version != net.version:
        raise ValueError(
            f"stale cache: built at version {cache.version}, network now {net.version}"
        )
    if cache.stamp != cache.buffers.stamp:
        raise ValueError(
            f"stale cache: its buffers were overwritten by a later forward "
            f"(stamp {cache.stamp}, buffers now {cache.buffers.stamp})"
        )
    if params not in ("layers", "flat", None):
        raise ValueError("params must be 'layers', 'flat' or None")
    g = np.asarray(grad_output, dtype=np.float64)
    if cache.squeezed and g.ndim == 1:
        g = g[None, :]
    if g.shape != (cache.inputs[0].shape[0], net.output_size):
        raise ValueError(
            f"grad_output shape {np.asarray(grad_output).shape} does not match output"
        )
    if params is not None:
        gflat = np.empty_like(net.flat) if out is None else out
        gweights, gbiases = _layer_views(net.layer_sizes, gflat)
    delta = g
    grad_input = None
    for i in range(net.n_layers - 1, -1, -1):
        if params is not None:
            np.matmul(delta.T, cache.inputs[i], out=gweights[i])
            np.sum(delta, axis=0, out=gbiases[i])
        if i > 0:
            # cache.inputs[i] = act(z_{i-1}) already
            delta = delta @ net.weights[i]
            delta = delta * _act_deriv(net.activation, cache.preacts[i - 1], cache.inputs[i])
        elif input_grad:
            grad_input = np.matmul(delta, net.weights[0], out=input_out)
            if cache.squeezed:
                grad_input = grad_input[0]
    if params == "flat":
        return gflat, grad_input
    if params == "layers":
        return [x for pair in zip(gweights, gbiases) for x in pair], grad_input
    return None, grad_input


def polyak_update(target: Mlp, online: Mlp, rho: float) -> None:
    """Blend the online net into the target in place:
    target <- rho * online + (1 - rho) * target, over the arenas in
    blocks of adam._BLOCK entries on the thread's Adam scratch. rho = 1
    copies."""
    if not (0.0 <= rho <= 1.0):
        raise ValueError("rho must be in [0, 1]")
    if target.layer_sizes != online.layer_sizes:
        raise ValueError("mismatched architectures")
    scratch, _ = adam.block_scratch()
    t, o = target.flat, online.flat
    for lo in range(0, t.size, adam._BLOCK):
        tb, ob = t[lo : lo + adam._BLOCK], o[lo : lo + adam._BLOCK]
        blend = np.multiply(ob, rho, out=scratch[: ob.size])
        tb *= 1.0 - rho
        tb += blend
    target.bump()
