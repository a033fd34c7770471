"""Small dense feedforward networks with exact manual backpropagation.

These serve three roles: passive-party feature extractors, the active
party's classification head, and the inversion attacker's decoder. Only
what those roles need is implemented: dense layers, {identity, relu, tanh,
softmax} activations (softmax final-only), cross-entropy and squared-error
losses, and plain SGD with optional weight decay.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import TrainingSection
from .errors import ArgumentError, CheckpointError, StateError
from .numerics import Rng, as_matrix

ACTIVATIONS = ("identity", "relu", "tanh", "softmax")


@dataclass
class Layer:
    weights: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray     # (out_dim,)
    activation: str


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class DenseNet:
    """A stack of dense layers; forward caches activations for backward."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ArgumentError("a network needs at least one layer")
        for i, layer in enumerate(layers):
            if layer.activation not in ACTIVATIONS:
                raise ArgumentError(f"unknown activation {layer.activation!r}")
            if layer.activation == "softmax" and i != len(layers) - 1:
                raise ArgumentError("softmax is allowed only as the final activation")
            if layer.weights.ndim != 2 or layer.bias.shape != (layer.weights.shape[1],):
                raise ArgumentError(f"layer {i} has inconsistent weight/bias shapes")
            if i > 0 and layers[i - 1].weights.shape[1] != layer.weights.shape[0]:
                raise ArgumentError(
                    f"layer {i - 1} output dim {layers[i - 1].weights.shape[1]} does not "
                    f"chain into layer {i} input dim {layer.weights.shape[0]}"
                )
        self.layers = layers
        self._cache: tuple | None = None

    @classmethod
    def create(cls, dims: list[int], activations: list[str], rng: Rng) -> "DenseNet":
        """Seeded uniform init in +-sqrt(6 / (fan_in + fan_out))."""
        if len(dims) < 2 or len(activations) != len(dims) - 1:
            raise ArgumentError("dims must chain and provide one activation per layer")
        layers = []
        for fan_in, fan_out, act in zip(dims[:-1], dims[1:], activations):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights = rng.uniform(-limit, limit, (fan_in, fan_out))
            layers.append(Layer(weights=weights, bias=np.zeros(fan_out), activation=act))
        return cls(layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[1]

    @property
    def dims(self) -> list[int]:
        return [self.input_dim] + [layer.weights.shape[1] for layer in self.layers]

    def copy(self) -> "DenseNet":
        return DenseNet([
            Layer(l.weights.copy(), l.bias.copy(), l.activation) for l in self.layers
        ])

    def forward(self, x) -> np.ndarray:
        """Run the batch through all layers, caching for a later backward.

        The returned array is the cached last activation, which ``backward``
        reads: do not change it in place before then.
        """
        a = as_matrix(x, "input")
        if a.shape[1] != self.input_dim:
            raise ArgumentError(
                f"input has {a.shape[1]} columns, network expects {self.input_dim}"
            )
        inputs, zs = [], []
        for layer in self.layers:
            inputs.append(a)
            z = a @ layer.weights + layer.bias
            zs.append(z)
            if layer.activation == "identity":
                a = z
            elif layer.activation == "relu":
                a = np.maximum(z, 0.0)
            elif layer.activation == "tanh":
                a = np.tanh(z)
            else:  # softmax
                a = softmax(z)
        self._cache = (inputs, zs, a)
        return a

    def backward(self, upstream) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """Chain an output-space gradient back to (per-layer grads, input grad).

        Consumes the cache from the matching forward; calling backward twice,
        or before any forward, raises.
        """
        if self._cache is None:
            raise StateError("backward called without a matching forward pass")
        inputs, zs, final = self._cache
        self._cache = None
        da = as_matrix(upstream, "upstream")
        if da.shape != (inputs[0].shape[0], self.output_dim):
            raise ArgumentError(
                f"upstream shape {da.shape} does not match output "
                f"({inputs[0].shape[0]}, {self.output_dim})"
            )
        last = len(self.layers) - 1
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.layers)
        for i in range(last, -1, -1):
            layer = self.layers[i]
            if layer.activation == "identity":
                dz = da
            elif layer.activation == "relu":
                dz = da * (zs[i] > 0.0)
            elif layer.activation == "tanh":
                # The activation forward cached: the next layer's input.
                a = final if i == last else inputs[i + 1]
                dz = da * (1.0 - a * a)
            else:  # softmax (final layer only)
                p = final
                dz = p * (da - np.einsum("ij,ij->i", da, p)[:, None])
            grads[i] = (inputs[i].T @ dz, dz.sum(axis=0))
            da = dz @ layer.weights.T
        return grads, da


def cross_entropy_softmax(logits, labels) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. the logits."""
    z = as_matrix(logits, "logits")
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim != 1 or y.shape[0] != z.shape[0]:
        raise ArgumentError("labels must be a 1-D sequence matching the batch")
    if y.size and (y.min() < 0 or y.max() >= z.shape[1]):
        raise ArgumentError(
            f"label out of range [0, {z.shape[1]}): {int(y.min())}..{int(y.max())}"
        )
    n = z.shape[0]
    p = softmax(z)
    eps = np.finfo(np.float64).tiny
    loss = float(-np.log(np.maximum(p[np.arange(n), y], eps)).mean())
    grad = p.copy()
    grad[np.arange(n), y] -= 1.0
    return loss, grad / n


def squared_error(pred, target) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries and its gradient w.r.t. ``pred``."""
    p = as_matrix(pred, "pred")
    t = as_matrix(target, "target")
    if p.shape != t.shape:
        raise ArgumentError(f"shape mismatch: pred {p.shape} vs target {t.shape}")
    diff = p - t
    loss = float(np.mean(diff * diff))
    return loss, 2.0 * diff / diff.size


def sgd_step(net: DenseNet, grads, config: TrainingSection) -> DenseNet:
    """In-place update: theta <- theta - lr * (grad + weight_decay * theta)."""
    if len(grads) != len(net.layers):
        raise ArgumentError(f"expected {len(net.layers)} gradient pairs, got {len(grads)}")
    lr, wd = config.learning_rate, config.weight_decay
    for layer, (dw, db) in zip(net.layers, grads):
        if dw.shape != layer.weights.shape or db.shape != layer.bias.shape:
            raise ArgumentError("gradient shapes do not match the network")
        layer.weights -= lr * (dw + wd * layer.weights)
        layer.bias -= lr * (db + wd * layer.bias)
    return net


# Checkpoint layout (all little-endian): magic b"DNET", version u16,
# layer count u16, then per layer (in u32, out u32, activation u8) followed
# by float64 weights (row-major) and float64 biases; finally crc32 (u32)
# of everything before it.
_MAGIC = b"DNET"
_VERSION = 1


def save_checkpoint(net: DenseNet, path) -> None:
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<HH", _VERSION, len(net.layers))
    for layer in net.layers:
        fan_in, fan_out = layer.weights.shape
        blob += struct.pack("<IIB", fan_in, fan_out, ACTIVATIONS.index(layer.activation))
        blob += np.ascontiguousarray(layer.weights, dtype="<f8").tobytes()
        blob += np.ascontiguousarray(layer.bias, dtype="<f8").tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
    Path(path).write_bytes(bytes(blob))


def load_checkpoint(path) -> DenseNet:
    raw = Path(path).read_bytes()
    if len(raw) < len(_MAGIC) + 8:
        raise CheckpointError(f"{path}: truncated checkpoint")
    if raw[:4] != _MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r}")
    body, (stored_crc,) = raw[:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"{path}: checksum mismatch")
    version, n_layers = struct.unpack_from("<HH", body, 4)
    if version != _VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    offset = 8
    layers = []
    try:
        for _ in range(n_layers):
            fan_in, fan_out, act_code = struct.unpack_from("<IIB", body, offset)
            offset += 9
            w_bytes = fan_in * fan_out * 8
            weights = np.frombuffer(body, dtype="<f8", count=fan_in * fan_out, offset=offset)
            offset += w_bytes
            bias = np.frombuffer(body, dtype="<f8", count=fan_out, offset=offset)
            offset += fan_out * 8
            layers.append(Layer(
                weights=weights.reshape(fan_in, fan_out).astype(np.float64),
                bias=bias.astype(np.float64),
                activation=ACTIVATIONS[act_code],
            ))
    except (struct.error, ValueError, IndexError) as exc:
        raise CheckpointError(f"{path}: malformed layer blocks ({exc})") from exc
    if offset != len(body):
        raise CheckpointError(f"{path}: {len(body) - offset} trailing bytes")
    return DenseNet(layers)
