"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` is built from an ndarray, which it holds with a gradient
accumulator and a requires-grad flag.  Operations build a graph of parents
and vector-Jacobian products; every graph node is stamped with a creation
sequence number, and since a node's parents always exist before it,
``Tensor.backward()`` visits the reachable nodes in decreasing sequence
order, a reverse topological order, accumulating gradients additively.
Gradient arrays are never mutated in place, so vjps may safely return views
or shared arrays.

Every operation builds its output with ``Tensor._result``, the single
constructor of op results, which the benchmark's tracer wraps to count
operations and graph nodes.  A forward computes only the value: what only
the gradient reads (split offsets, an ``exp``, the kind of an index) is
computed inside the vjp, so the no-grad decode path never pays for it.

``backward`` releases the graph as it walks it, so the activations a vjp
read are freed before the walk ends: only leaf tensors keep ``.grad``, and a
second ``backward()`` through a released node raises ``RuntimeError``.  A
leaf weight of ``linear`` gets one stacked ``X.T @ G`` over all its uses
(and its bias one ``G.sum(0)``) instead of one product per use.

At small widths a graph costs Python overhead per node, so the layers' hot
compositions are fused ops of one node each with a hand-written vjp:
``linear`` (matmul plus bias), ``layer_norm`` and ``attention`` (head split,
scaled scores, additive mask, softmax, weighted sum, head merge).  Their
forwards evaluate the numpy expressions of the primitive compositions they
replace, so only the rounding of the backward pass differs from those.

Precision follows the data: parameters created as float32 keep the whole
graph in float32; float64 is used for gradient checking and bit-exact
reproducibility tests.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

_grad_enabled = True
_node_seq = itertools.count()


def _released(g):
    raise RuntimeError("backward() reached a node that an earlier backward() released")


class _WeightRows(NamedTuple):
    """One ``linear`` use's share of a leaf weight's gradient: the input rows
    ``x`` and output gradient ``g``, whose products ``backward`` sums over
    all the uses of the same (weight, bias) pair at once."""

    bias: "Tensor | None"
    x: np.ndarray
    g: np.ndarray


class no_grad:
    """Context manager that disables graph construction (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_seq")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: tuple, vjp) -> "Tensor":
        """An op's output: a graph node when grad is enabled and a parent
        requires grad, else a plain tensor."""
        out = object.__new__(Tensor)
        # a numpy scalar (full reductions, 0-d indexing) keeps its precision
        out.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        out.grad = None
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._vjp = vjp
            out._seq = next(_node_seq)
        else:
            out.requires_grad = False
            out._parents = ()
            out._vjp = None
        return out

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        # scalar constants adopt this tensor's dtype so float32 graphs stay float32
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        other = self._coerce(other)
        data = self.data + other.data
        return Tensor._result(
            data,
            (self, other),
            lambda g: (_unbroadcast(g, self.data.shape), _unbroadcast(g, other.data.shape)),
        )

    __radd__ = __add__

    def __neg__(self):
        return Tensor._result(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        other = self._coerce(other)
        data = self.data - other.data
        return Tensor._result(
            data,
            (self, other),
            lambda g: (_unbroadcast(g, self.data.shape), _unbroadcast(-g, other.data.shape)),
        )

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        data = self.data * other.data
        return Tensor._result(
            data,
            (self, other),
            lambda g: (
                _unbroadcast(g * other.data, self.data.shape),
                _unbroadcast(g * self.data, other.data.shape),
            ),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        data = self.data / other.data
        return Tensor._result(
            data,
            (self, other),
            lambda g: (
                _unbroadcast(g / other.data, self.data.shape),
                _unbroadcast(-g * self.data / (other.data**2), other.data.shape),
            ),
        )

    def __pow__(self, exponent: float):
        data = self.data**exponent
        return Tensor._result(
            data, (self,), lambda g: (g * exponent * self.data ** (exponent - 1),)
        )

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(np.asarray(other))
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ValueError("matmul requires arrays with at least 2 dimensions")
        data = self.data @ other.data

        def vjp(g):
            ga = _unbroadcast(g @ other.data.swapaxes(-1, -2), self.data.shape)
            gb = _unbroadcast(self.data.swapaxes(-1, -2) @ g, other.data.shape)
            return ga, gb

        return Tensor._result(data, (self, other), vjp)

    # -- elementwise non-linearities ----------------------------------------

    def exp(self):
        data = np.exp(self.data)
        return Tensor._result(data, (self,), lambda g: (g * data,))

    def log(self):
        return Tensor._result(np.log(self.data), (self,), lambda g: (g / self.data,))

    def tanh(self):
        data = np.tanh(self.data)
        return Tensor._result(data, (self,), lambda g: (g * (1.0 - data**2),))

    def sigmoid(self):
        data = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor._result(data, (self,), lambda g: (g * data * (1.0 - data),))

    def relu(self):
        mask = self.data > 0
        return Tensor._result(self.data * mask, (self,), lambda g: (g * mask,))

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def vjp(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.data.shape),)

        return Tensor._result(data, (self,), vjp)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def amax(self, axis: int, keepdims: bool = False):
        """Max along one axis; ties send the gradient to the first maximum."""
        idx = np.argmax(self.data, axis=axis)
        data = np.take_along_axis(self.data, np.expand_dims(idx, axis), axis=axis)
        if not keepdims:
            data = np.squeeze(data, axis=axis)

        def vjp(g):
            g = np.asarray(g)
            if not keepdims:
                g = np.expand_dims(g, axis)
            out = np.zeros_like(self.data)
            np.put_along_axis(out, np.expand_dims(idx, axis), g, axis=axis)
            return (out,)

        return Tensor._result(data, (self,), vjp)

    # -- shape manipulation --------------------------------------------------

    def reshape(self, *shape):
        old = self.data.shape
        return Tensor._result(
            self.data.reshape(shape), (self,), lambda g: (g.reshape(old),)
        )

    def transpose(self, *axes):
        inv = np.argsort(axes)
        return Tensor._result(
            self.data.transpose(axes), (self,), lambda g: (g.transpose(inv),)
        )

    def __getitem__(self, index):
        def vjp(g):
            parts = index if isinstance(index, tuple) else (index,)
            # ints and slices select each element at most once; index arrays may repeat
            basic = all(isinstance(i, (int, np.integer, slice)) for i in parts)
            out = np.zeros_like(self.data)
            if basic:
                out[index] = g
            else:
                np.add.at(out, index, g)
            return (out,)

        return Tensor._result(self.data[index], (self,), vjp)

    # -- backward ------------------------------------------------------------

    def backward(self, grad: np.ndarray | None = None):
        """Add the gradient of this tensor, seeded with ``grad`` (ones for a
        scalar), to the ``.grad`` of every leaf that requires one.

        The walk releases the graph behind it: once a node's vjp has run, the
        node drops its ``grad``, ``_parents`` and ``_vjp``, so after the walk
        only leaves hold gradients.  A later ``backward()`` that reaches a
        released node raises ``RuntimeError``.  A ``linear`` use of a leaf
        weight hands its input rows ``x`` and output gradient ``g`` to the
        walk instead of a product; after the last vjp, each weight gets one
        ``X.T @ G`` over the stacked rows of all its uses, and its bias one
        ``G.sum(axis=0)``.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient needs a scalar output")
            grad = np.ones_like(self.data)
        self.grad = grad if self.grad is None else self.grad + grad
        if self._vjp is None:
            return
        # parents are created before their children, so decreasing creation
        # order is a reverse topological order of the reachable nodes
        nodes = {self._seq: self}
        stack = [self]
        while stack:
            for p in stack.pop()._parents:
                if p._vjp is not None and p._seq not in nodes:
                    nodes[p._seq] = p
                    stack.append(p)
        stacked: dict[tuple, list[_WeightRows]] = {}
        for seq in sorted(nodes, reverse=True):
            node = nodes.pop(seq)
            g, parents, vjp = node.grad, node._parents, node._vjp
            node.grad, node._parents, node._vjp = None, (), _released
            if g is None:
                continue
            for parent, pg in zip(parents, vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                if type(pg) is _WeightRows:
                    stacked.setdefault((parent, pg.bias), []).append(pg)
                else:
                    parent.grad = pg if parent.grad is None else parent.grad + pg
        for (weight, bias), uses in stacked.items():
            x = uses[0].x if len(uses) == 1 else np.concatenate([u.x for u in uses])
            g = uses[0].g if len(uses) == 1 else np.concatenate([u.g for u in uses])
            gw = x.T @ g
            weight.grad = gw if weight.grad is None else weight.grad + gw
            if bias is not None and bias.requires_grad:
                gb = g.sum(axis=0)
                bias.grad = gb if bias.grad is None else bias.grad + gb


# ---------------------------------------------------------------------------
# Free functions
# ---------------------------------------------------------------------------


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    parents = tuple(tensors)
    data = np.concatenate([t.data for t in parents], axis=axis)
    sizes = tuple(t.data.shape[axis] for t in parents)

    def vjp(g):
        slicer = [slice(None)] * g.ndim
        outs = []
        start = 0
        for size in sizes:
            slicer[axis] = slice(start, start + size)
            outs.append(g[tuple(slicer)])
            start += size
        return tuple(outs)

    return Tensor._result(data, parents, vjp)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - dot),)

    return Tensor._result(data, (x,), vjp)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def vjp(g):
        return (g - np.exp(data) * g.sum(axis=axis, keepdims=True),)

    return Tensor._result(data, (x,), vjp)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight + bias`` over a 2-d ``x``, as one node."""
    if x.data.ndim != 2 or x.data.shape[1] != weight.data.shape[0]:
        raise ValueError(
            f"linear expects a 2-d (n, {weight.data.shape[0]}) input, got {x.data.shape}"
        )
    data = x.data @ weight.data
    parents = (x, weight)
    if bias is not None:
        data = data + bias.data
        parents += (bias,)

    def vjp(g):
        gx = g @ weight.data.T if x.requires_grad else None
        leaves = weight._vjp is None and (bias is None or bias._vjp is None)
        if leaves and weight.requires_grad:
            # backward forms the weight's and the bias's grads from stacked rows
            return gx, _WeightRows(bias, x.data, g)
        if bias is None:
            return gx, x.data.T @ g
        return gx, x.data.T @ g, g.sum(axis=0)

    return Tensor._result(data, parents, vjp)


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor, eps: float) -> Tensor:
    """Normalize ``x`` over its last axis, then scale by ``gain`` and add
    ``shift``, as one node."""
    inv_n = np.asarray(1.0 / float(x.data.shape[-1]), dtype=x.data.dtype)
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    var = (centered**2).sum(axis=-1, keepdims=True) * inv_n
    std = (var + np.asarray(eps, dtype=x.data.dtype)) ** 0.5
    normed = centered / std
    data = normed * gain.data + shift.data

    def vjp(g):
        gn = g * gain.data
        mean_gn = gn.sum(axis=-1, keepdims=True) * inv_n
        mean_gn_normed = (gn * normed).sum(axis=-1, keepdims=True) * inv_n
        gx = (gn - mean_gn - normed * mean_gn_normed) / std
        rows = g.reshape(-1, g.shape[-1])
        return gx, (rows * normed.reshape(rows.shape)).sum(axis=0), rows.sum(axis=0)

    return Tensor._result(data, (x, gain, shift), vjp)


def attention(
    q: Tensor, k: Tensor, v: Tensor, heads: int, mask: np.ndarray | None = None
) -> Tensor:
    """Multi-head scaled dot-product attention of ``q`` (nq, d) over ``k``
    and ``v`` (nk, d), split into ``heads`` heads, as one node.  ``mask`` is
    an additive (nq, nk) array; its large negative entries get weight 0.
    Returns the (nq, d) weighted sums of ``v`` with the heads merged."""
    nq, dim = q.data.shape
    nk = k.data.shape[0]
    dh = dim // heads
    qh = q.data.reshape(nq, heads, dh).transpose(1, 0, 2)
    kh = k.data.reshape(nk, heads, dh).transpose(1, 0, 2)
    vh = v.data.reshape(nk, heads, dh).transpose(1, 0, 2)
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=q.data.dtype)
    scores = (qh @ kh.transpose(0, 2, 1)) * scale
    if mask is not None:
        scores = scores + mask[None, :, :].astype(scores.dtype, copy=False)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    data = (weights @ vh).transpose(1, 0, 2).reshape(nq, dim)

    def vjp(g):
        g_out = g.reshape(nq, heads, dh).transpose(1, 0, 2)
        g_weights = g_out @ vh.transpose(0, 2, 1)
        dot = (g_weights * weights).sum(axis=-1, keepdims=True)
        g_scores = weights * (g_weights - dot) * scale
        return (
            (g_scores @ kh).transpose(1, 0, 2).reshape(nq, dim),
            (g_scores.transpose(0, 2, 1) @ qh).transpose(1, 0, 2).reshape(nk, dim),
            (weights.transpose(0, 2, 1) @ g_out).transpose(1, 0, 2).reshape(nk, dim),
        )

    return Tensor._result(data, (q, k, v), vjp)


def gumbel_softmax(logits: Tensor, tau: float, rng: np.random.Generator) -> Tensor:
    """Gumbel-softmax sample on the last axis: ``softmax((logits + g) / tau)``
    with standard Gumbel noise ``g``."""
    if tau <= 0:
        raise ValueError("gumbel_softmax temperature must be positive")
    u = rng.random(logits.shape)
    noise = -np.log(-np.log(u + 1e-20) + 1e-20)
    return softmax((logits + Tensor(noise.astype(logits.data.dtype))) * (1.0 / tau), axis=-1)


def straight_through_onehot(y: Tensor, index: int) -> Tensor:
    """One-hot forward value at ``index`` with identity gradient into the soft
    input: teacher-forced hard selection that keeps the gradient path of the
    sampled relaxation."""
    hard = np.zeros_like(y.data)
    hard[int(index)] = 1.0
    return Tensor._result(hard, (y,), lambda g: (g,))
