"""Parameterized layers built on the autodiff substrate.

Composable pieces: linear maps, layer norm, embeddings, scaled dot-product
multi-head attention, and the gated recurrent memory used by both the event
and sentence transformers.  ``IncrementalPass`` is the one memory-transformer
pass: rows go through each layer's attention and FFN in one push, or a few at
a time for a causal sequence, trailing rows of the last push can be dropped,
and each layer's memory is updated once, over all its kept output rows.
Every layer exposes ``parameters()`` returning a flat name -> Tensor mapping
so optimizers and checkpoints see one namespace.

Layers know only their shapes and the init ``rng``: they draw in float64, and
the model that owns them casts every parameter once to its precision, as a
checkpoint load does.

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


def xavier_uniform(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    bound = float(np.sqrt(6.0 / (shape[0] + shape[1])))
    return rng.uniform(-bound, bound, size=shape)


class Linear(Layer):
    def __init__(self, dim_in: int, dim_out: int, rng: np.random.Generator, bias: bool = True):
        self.weight = Tensor(xavier_uniform((dim_in, dim_out), rng), requires_grad=True)
        self.bias = Tensor(np.zeros(dim_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class LayerNorm(Layer):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.shift = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.shift, self.eps)


class Embedding(Layer):
    def __init__(self, num: int, dim: int, rng: np.random.Generator):
        self.weight = Tensor(rng.standard_normal((num, dim)) * 0.02, requires_grad=True)

    def __call__(self, ids) -> Tensor:
        return self.weight[np.asarray(ids, dtype=np.intp)]


class MLP(Layer):
    """Linear -> ReLU -> Linear: encoders, and the position-wise FFN."""

    def __init__(self, dim_in: int, dim_hidden: int, dim_out: int, rng):
        self.lin1 = Linear(dim_in, dim_hidden, rng)
        self.lin2 = Linear(dim_hidden, dim_out, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(self.lin1(x).relu())


class MultiHeadAttention(Layer):
    def __init__(self, dim: int, heads: int, rng):
        if dim % heads != 0:
            raise ValueError(f"model dim {dim} not divisible by {heads} heads")
        self.heads = heads
        self.proj_q = Linear(dim, dim, rng)
        # no key bias: it adds one constant to each query's scores, which the
        # softmax ignores
        self.proj_k = Linear(dim, dim, rng, bias=False)
        self.proj_v = Linear(dim, dim, rng)
        self.proj_out = Linear(dim, dim, rng)

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

    def __init__(self, dim: int, heads: int, rng):
        self.attn = MultiHeadAttention(dim, heads, rng)
        self.cand_mem = Linear(dim, dim, rng, bias=False)
        self.cand_att = Linear(dim, dim, rng)
        self.gate_mem = Linear(dim, dim, rng, bias=False)
        self.gate_att = Linear(dim, dim, rng)

    def __call__(self, memory: Tensor, hidden: Tensor) -> Tensor:
        summary = self.attn(memory, concat([memory, hidden], axis=0))
        candidate = (self.cand_mem(memory) + self.cand_att(summary)).tanh()
        gate = (self.gate_mem(memory) + self.gate_att(summary)).sigmoid()
        return gate * memory + (1.0 - gate) * candidate


class MemTransformerLayer(Layer):
    def __init__(self, dim: int, heads: int, rng):
        self.attn = MultiHeadAttention(dim, heads, rng)
        self.norm1 = LayerNorm(dim)
        self.ffn = MLP(dim, 4 * dim, dim, rng)
        self.norm2 = LayerNorm(dim)
        self.mem_update = MemoryUpdater(dim, heads, rng)

    def __call__(self, x: Tensor, context: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Attention of ``x`` over ``context``, then the FFN, each with a
        residual connection and layer norm; the memory is not updated."""
        h1 = self.norm1(x + self.attn(x, context, mask))
        return self.norm2(h1 + self.ffn(h1))


class MemTransformer(Layer):
    """Stack of memory-augmented layers; one memory slot per layer."""

    def __init__(self, layers: int, dim: int, heads: int, rng):
        self.layers = [MemTransformerLayer(dim, heads, rng) for _ in range(layers)]

    def initial_memory(self) -> list[Tensor]:
        """One zero slot per layer, in the dtype of the layers' parameters."""
        gain = self.layers[0].norm1.gain.data
        return [Tensor(np.zeros_like(gain[None])) for _ in self.layers]

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
    whole sequence is the full pass.  For the same reason ``drop`` can take
    back trailing rows of the last push, as if they had never been pushed,
    which lets a greedy decoder push guessed rows and keep those it confirms.
    """

    def __init__(self, tf: MemTransformer, memories: list[Tensor]):
        self.layers = tf.layers
        self.memories = memories
        self.contexts = list(memories)
        self.outputs: list[list[Tensor]] = [[] for _ in memories]
        self.last_rows = 0  # rows of the last push that ``drop`` may remove

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
        self.last_rows = x.shape[0]
        return x

    def drop(self, rows: int) -> None:
        """Remove the last ``rows`` rows of the last push from every layer's
        context and outputs, so that later pushes and ``update_memories``
        see only the rows before them."""
        if not 0 <= rows <= self.last_rows:
            raise ValueError(f"cannot drop {rows} rows; the last push holds {self.last_rows}")
        if rows == 0:
            return
        for i, outputs in enumerate(self.outputs):
            self.contexts[i] = self.contexts[i][:-rows]
            if rows == outputs[-1].shape[0]:
                outputs.pop()
            else:
                outputs[-1] = outputs[-1][:-rows]
        self.last_rows -= rows

    def update_memories(self) -> list[Tensor]:
        """Each layer's memory update over all its output rows: the memories
        one full pass over the pushed rows returns."""
        return [
            layer.mem_update(memory, rows[0] if len(rows) == 1 else concat(rows, axis=0))
            for layer, memory, rows in zip(self.layers, self.memories, self.outputs)
        ]


def sinusoidal_encoding(length: int, dim: int) -> np.ndarray:
    """Standard fixed sinusoidal position table (length, dim)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (idx // 2) / dim)
    return np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))


def causal_mask(n: int) -> np.ndarray:
    """Additive (n, n) mask hiding future positions."""
    return np.triu(np.full((n, n), NEG_INF), k=1)
