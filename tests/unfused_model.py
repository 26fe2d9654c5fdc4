"""The backbone forward as a chain of one node per projection: the bitwise and
tape-memory reference for `tz.adapted_projections`.

Per projection the chain records its frozen product as a one-weight,
term-free `tz.adapted_projections` node (as the `lm_head` runs), the adapter
term's own `tz.adapter_delta` node ('lora_delta' or 'propulsion_delta') and
`add`, and attention and SwiGLU take q, k, v and gate, up as separate
tensors. This is how `Backbone` ran before one node computed a block's
projections on their shared input.
"""

import numpy as np

import mjlab.tensor as tz
from mjlab.model import ProjectionId
from mjlab.tensor import _as_array, _check_finite, _make, _softmax_rows, _unbroadcast, _wrap


def causal_attention_of_parts(q, k, v, n_heads: int):
    """`tz.causal_attention` on separate q, k and v (B, T, d), each an input of
    the node with its own gradient."""
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    b, t, d = q.data.shape
    hd = d // n_heads
    heads = (b, t, n_heads, hd)
    qh, kh, vh = (_as_array(np.swapaxes(a.data.reshape(heads), 1, 2)) for a in (q, k, v))
    kt = _as_array(np.swapaxes(kh, -1, -2))
    s = _as_array(1.0 / np.sqrt(hd))
    mask = np.where(np.arange(t)[:, None] < np.arange(t)[None, :], -1e9, 0.0)
    scores = _as_array(_as_array(qh @ kt) * s) + mask[None, None, :, :]
    _check_finite(scores, "causal_attention")
    att = _softmax_rows(scores, -1)
    out = _as_array(np.swapaxes(_as_array(att @ vh), 1, 2)).reshape(b, t, d)

    def back(g):
        g_ctx = np.ascontiguousarray(np.swapaxes(np.ascontiguousarray(g.reshape(heads)), 1, 2))
        gq = gk = gv = None
        if v.requires_grad:
            g_vh = np.swapaxes(att, -1, -2) @ g_ctx
            gv = np.ascontiguousarray(np.swapaxes(g_vh, 1, 2)).reshape(v.data.shape)
        if q.requires_grad or k.requires_grad:
            g_att = g_ctx @ np.swapaxes(vh, -1, -2)
            dot = (g_att * att).sum(axis=-1, keepdims=True)
            g_scores = att * (g_att - dot) * s
            if q.requires_grad:
                g_qh = g_scores @ np.swapaxes(kt, -1, -2)
                gq = np.ascontiguousarray(np.swapaxes(g_qh, 1, 2)).reshape(q.data.shape)
            if k.requires_grad:
                g_kh = np.ascontiguousarray(np.swapaxes(np.swapaxes(qh, -1, -2) @ g_scores, -1, -2))
                gk = np.ascontiguousarray(np.swapaxes(g_kh, 1, 2)).reshape(k.data.shape)
        return gq, gk, gv

    return _make("causal_attention", out, (q, k, v), back)


def swiglu_of_parts(gate, up):
    """`tz.swiglu` on separate gate and up tensors."""
    gate, up = _wrap(gate), _wrap(up)
    sig = 1.0 / (1.0 + np.exp(-gate.data))
    act = _as_array(gate.data * sig)

    def back(g):
        g_gate = g_up = None
        if gate.requires_grad:
            g_act = _unbroadcast(g * up.data, act.shape)
            g_gate = g_act * sig * (1.0 + gate.data * (1.0 - sig))
        if up.requires_grad:
            g_up = _unbroadcast(g * act, up.data.shape)
        return g_gate, g_up

    return _make("swiglu", act * up.data, (gate, up), back)


def delta_of(term, x, base):
    """The delta of an adapter term as its own `tz.adapter_delta` node: a
    LoRA on the projection input `x`, a Propulsion on the frozen product
    `base`; None for no term."""
    if term is None:
        return None
    return tz.adapter_delta(x if isinstance(term, tz.LoRA) else base, term)


class DeltaHooks:
    """Forward hooks asked as the chain asks: the block's terms come from
    the hooks' `begin_block`, and `contribution(layer, proj, x, base)` gives
    a term's delta."""

    def __init__(self, hooks):
        self.hooks = hooks
        self.terms = {}

    def begin_block(self, layer, h):
        self.terms = self.hooks.begin_block(layer, h)

    def contribution(self, layer, proj, x, base):
        return delta_of(self.terms.get(proj), x, base)


def unfused_run_blocks(model, tokens, hooks=None, n_blocks=None):
    """`Backbone._run_blocks` as the chain. `hooks.contribution(layer, proj,
    x, base)` gives a delta tensor to add to `base`, or None."""

    def project(layer, proj, x):
        base = tz.adapted_projections(x, [model.blocks[layer].w[proj]], [None],
                                      [f"layer {layer}, projection {proj.name}"])
        extra = None if hooks is None else hooks.contribution(layer, proj, x, base)
        return base if extra is None else tz.add(base, extra)

    t = tokens.shape[1]
    x = tz.add(tz.embedding(model.tok_emb, tokens), tz.embedding(model.pos_emb, np.arange(t)))
    hidden = [x]
    for layer in range(model.cfg.n_layers if n_blocks is None else n_blocks):
        blk = model.blocks[layer]
        if hooks is not None:
            hooks.begin_block(layer, x)
        a = tz.layer_norm(x, blk.ln1_g, blk.ln1_b)
        q, k, v = (project(layer, proj, a) for proj in (ProjectionId.q, ProjectionId.k, ProjectionId.v))
        x = tz.add(x, project(layer, ProjectionId.o, causal_attention_of_parts(q, k, v, model.cfg.n_heads)))
        f_in = tz.layer_norm(x, blk.ln2_g, blk.ln2_b)
        up = project(layer, ProjectionId.up, f_in)
        gate = project(layer, ProjectionId.gate, f_in)
        x = tz.add(x, project(layer, ProjectionId.down, swiglu_of_parts(gate, up)))
        hidden.append(x)
    return hidden


def unfused_final_states(model, tokens, hooks=None):
    """`Backbone.final_states` as the chain."""
    return tz.layer_norm(unfused_run_blocks(model, tokens, hooks)[-1], model.ln_f_g, model.ln_f_b)


def unfused_next_token_loss(model, tokens):
    """`next_token_loss` as the chain."""
    b, t = tokens.shape
    logits = tz.adapted_projections(unfused_final_states(model, tokens), [model.lm_head], [None], ["lm_head"])
    targets = np.zeros((b, t), dtype=np.int64)
    targets[:, :-1] = tokens[:, 1:]
    weights = np.ones((b, t), dtype=np.float64)
    weights[:, -1] = 0.0
    return tz.cross_entropy(tz.reshape(logits, (b * t, model.cfg.vocab_size)), targets.reshape(-1),
                            weights.reshape(-1))


def unfolded_layer_norms(projections):
    """`projections` (`tz.adapted_projections`) with a folded pre-LayerNorm
    run first as its own `tz.layer_norm` node: the chain a node with `norm`
    replaces."""

    def unfolded(x, weights, terms, labels, norm=None):
        return projections(x if norm is None else tz.layer_norm(x, *norm), weights, terms, labels)

    return unfolded
