"""Parameterized layers built on the autodiff substrate.

Composable pieces: linear maps, layer norm, embeddings, scaled dot-product
multi-head attention, and the gated recurrent memory used by both the event
and sentence transformers.  ``IncrementalPass`` is the one memory-transformer
pass: rows go through each layer's attention and FFN in one push, or a row at
a time for a causal sequence, and each layer's memory is updated once, over
all its output rows.  Every layer exposes ``parameters()`` returning a flat
name -> Tensor mapping so optimizers and checkpoints see one namespace.

Each primitive layer is one graph node of a fused autodiff op: ``Linear`` is
one ``linear`` node, ``LayerNorm`` one ``layer_norm`` node, and
``MultiHeadAttention`` is five nodes, its four ``Linear`` projections around
one ``attention`` node over the projected queries, keys and values.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, attention, concat, layer_norm, linear

NEG_INF = -1e9


class Layer:
    """Base class: collects parameters from Tensor/Layer/list attributes."""

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                out[name] = value
            elif isinstance(value, Layer):
                for sub, t in value.parameters().items():
                    out[f"{name}.{sub}"] = t
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Layer):
                        for sub, t in item.parameters().items():
                            out[f"{name}.{i}.{sub}"] = t
        return out


def xavier_uniform(shape: tuple[int, int], rng: np.random.Generator, dtype) -> np.ndarray:
    bound = float(np.sqrt(6.0 / (shape[0] + shape[1])))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Linear(Layer):
    def __init__(self, dim_in: int, dim_out: int, rng: np.random.Generator,
                 bias: bool = True, dtype=np.float64):
        self.weight = Tensor(xavier_uniform((dim_in, dim_out), rng, dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(dim_out, dtype=dtype), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class LayerNorm(Layer):
    def __init__(self, dim: int, dtype=np.float64, eps: float = 1e-5):
        self.gain = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.shift = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.shift, self.eps)


class Embedding(Layer):
    def __init__(self, num: int, dim: int, rng: np.random.Generator, dtype=np.float64):
        self.weight = Tensor(
            (rng.standard_normal((num, dim)) * 0.02).astype(dtype), requires_grad=True
        )

    def __call__(self, ids) -> Tensor:
        return self.weight[np.asarray(ids, dtype=np.intp)]


class MLP(Layer):
    """Linear -> ReLU -> Linear: encoders, and the position-wise FFN."""

    def __init__(self, dim_in: int, dim_hidden: int, dim_out: int, rng, dtype=np.float64):
        self.lin1 = Linear(dim_in, dim_hidden, rng, dtype=dtype)
        self.lin2 = Linear(dim_hidden, dim_out, rng, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(self.lin1(x).relu())


class MultiHeadAttention(Layer):
    def __init__(self, dim: int, heads: int, rng, dtype=np.float64):
        if dim % heads != 0:
            raise ValueError(f"model dim {dim} not divisible by {heads} heads")
        self.heads = heads
        self.proj_q = Linear(dim, dim, rng, dtype=dtype)
        # no key bias: it adds one constant to each query's scores, which the
        # softmax ignores
        self.proj_k = Linear(dim, dim, rng, bias=False, dtype=dtype)
        self.proj_v = Linear(dim, dim, rng, dtype=dtype)
        self.proj_out = Linear(dim, dim, rng, dtype=dtype)

    def __call__(self, queries: Tensor, keys_values: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """``queries`` (nq, d) attends over ``keys_values`` (nk, d).

        ``mask`` is an additive (nq, nk) array; masked positions carry a large
        negative value so their post-softmax weight is 0.
        """
        q = self.proj_q(queries)
        k = self.proj_k(keys_values)
        v = self.proj_v(keys_values)
        return self.proj_out(attention(q, k, v, self.heads, mask))


class MemoryUpdater(Layer):
    """Gated recurrent update of memory slots from the step's hidden states.

    The slots attend over [memory; hidden states]; the attended summary and
    the previous memory feed a tanh candidate and a sigmoid gate, and the new
    memory is the gated convex combination of the two.
    """

    def __init__(self, dim: int, heads: int, rng, dtype=np.float64):
        self.attn = MultiHeadAttention(dim, heads, rng, dtype=dtype)
        self.cand_mem = Linear(dim, dim, rng, bias=False, dtype=dtype)
        self.cand_att = Linear(dim, dim, rng, dtype=dtype)
        self.gate_mem = Linear(dim, dim, rng, bias=False, dtype=dtype)
        self.gate_att = Linear(dim, dim, rng, dtype=dtype)

    def __call__(self, memory: Tensor, hidden: Tensor) -> Tensor:
        summary = self.attn(memory, concat([memory, hidden], axis=0))
        candidate = (self.cand_mem(memory) + self.cand_att(summary)).tanh()
        gate = (self.gate_mem(memory) + self.gate_att(summary)).sigmoid()
        return gate * memory + (1.0 - gate) * candidate


class MemTransformerLayer(Layer):
    def __init__(self, dim: int, heads: int, rng, dtype=np.float64):
        self.attn = MultiHeadAttention(dim, heads, rng, dtype=dtype)
        self.norm1 = LayerNorm(dim, dtype=dtype)
        self.ffn = MLP(dim, 4 * dim, dim, rng, dtype=dtype)
        self.norm2 = LayerNorm(dim, dtype=dtype)
        self.mem_update = MemoryUpdater(dim, heads, rng, dtype=dtype)

    def __call__(self, x: Tensor, context: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Attention of ``x`` over ``context``, then the FFN, each with a
        residual connection and layer norm; the memory is not updated."""
        h1 = self.norm1(x + self.attn(x, context, mask))
        return self.norm2(h1 + self.ffn(h1))


class MemTransformer(Layer):
    """Stack of memory-augmented layers; one memory slot per layer."""

    def __init__(self, layers: int, dim: int, heads: int, rng, dtype=np.float64):
        self.layers = [MemTransformerLayer(dim, heads, rng, dtype=dtype) for _ in range(layers)]
        self.dim = dim
        self.dtype = dtype

    def initial_memory(self) -> list[Tensor]:
        return [Tensor(np.zeros((1, self.dim), dtype=self.dtype)) for _ in self.layers]

    def __call__(self, x: Tensor, memories: list[Tensor], self_mask: np.ndarray | None = None):
        """One pass over the rows ``x``; returns the last layer's rows and the
        updated per-layer memories."""
        run = IncrementalPass(self, memories)
        return run.push(x, self_mask), run.update_memories()


class IncrementalPass:
    """A ``MemTransformer`` pass, fed all rows at once or a few at a time.

    Exact for sequences in which no row reads a later one: each ``push`` adds
    rows that read the memory, every earlier row and, under the optional
    additive mask, each other.  Appending rows then changes no earlier hidden
    state, so each layer keeps its input rows (behind the memory) as the
    attention context of later rows and its output rows for the memory
    update, which runs once, in ``update_memories``.  A single push of the
    whole sequence is the full pass.
    """

    def __init__(self, tf: MemTransformer, memories: list[Tensor]):
        self.layers = tf.layers
        self.memories = memories
        self.contexts = list(memories)
        self.outputs: list[list[Tensor]] = [[] for _ in memories]

    def push(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Run rows ``x`` through every layer; returns the last layer's rows.

        ``mask`` is an additive (n, n) mask among the pushed rows; the memory
        and earlier rows stay visible to all of them."""
        if mask is not None:
            earlier = np.zeros((x.shape[0], self.contexts[0].shape[0]), dtype=mask.dtype)
            mask = np.concatenate([earlier, mask], axis=1)
        for i, layer in enumerate(self.layers):
            self.contexts[i] = concat([self.contexts[i], x], axis=0)
            x = layer(x, self.contexts[i], mask)
            self.outputs[i].append(x)
        return x

    def update_memories(self) -> list[Tensor]:
        """Each layer's memory update over all its output rows: the memories
        one full pass over the pushed rows returns."""
        return [
            layer.mem_update(memory, rows[0] if len(rows) == 1 else concat(rows, axis=0))
            for layer, memory, rows in zip(self.layers, self.memories, self.outputs)
        ]


def sinusoidal_encoding(length: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Standard fixed sinusoidal position table (length, dim)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (idx // 2) / dim)
    table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(dtype)


def causal_mask(n: int, dtype=np.float64) -> np.ndarray:
    """Additive (n, n) mask hiding future positions."""
    return np.triu(np.full((n, n), NEG_INF, dtype=dtype), k=1)
