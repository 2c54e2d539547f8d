"""References the transformer tests compare against.

forward_reference: an eval forward in which every block, the last one
included, runs on all L positions, and the head reads the [CLS] row of the
result.  `mixsent.transformer.forward_arrays` computes only the [CLS] row
in its last block and must return the same logits up to float summation
order.

padded_forward: the padded forward pass that `forward_arrays` replaced,
frozen.  Every position-wise layer runs on all B * L positions, PAD
included, and the last block on the [CLS] row alone.  Dropout draws each
batch row's first L positions of a [B, max_len, D] draw.  The packed
forward must return the same logits, loss, dropout masks and generator
state bit for bit.

backward_reference: backpropagation through padded_forward's cache, which
it keeps whole with every temporary until it returns, with its own
layer-norm and GELU derivatives.  It gave the padded `backward_arrays`'s
gradients bit for bit.  The packed `backward_arrays` sums T rows where it
summed B * L, and BLAS blocks a sum over rows differently when their count
changes, so its gradients agree only up to float summation order."""

from __future__ import annotations

import math

import numpy as np

from mixsent.transformer import (EncoderConfig, _gelu, _gelu_cdf2, _layer_norm,
                                 _merge_heads, _softmax, _split_heads, _views)


def _padded_dropout(x, rate, rng, max_len):
    """Scales x [B, L, D] in place by the keep mask of a [B, max_len, D]
    draw cut to L, drawing only those L positions of each batch row."""
    if rng is None or rate == 0.0:
        return x, None
    b, l, d = x.shape
    if l == max_len:
        u = rng.random(x.shape)
    else:
        u = np.empty(x.shape)
        for batch_row in u:
            rng.random(out=batch_row)
            rng.bit_generator.advance((max_len - l) * d)
    keep = u >= rate
    x *= keep
    x /= 1.0 - rate
    return x, keep


def padded_forward(params: np.ndarray, cfg: EncoderConfig, ids: np.ndarray,
                   mask: np.ndarray, rng=None) -> tuple[np.ndarray, dict]:
    """(logits, cache) of the padded forward pass; dropout runs when an rng
    is given.  cache is what backward_reference reads."""
    p = _views(params, cfg)
    H = cfg.num_heads
    L = ids.shape[1]
    x = p["token_embedding"][ids] + p["position_embedding"][:L]
    pad_keys = (mask == 0)[:, None, None, :]
    cache = {"ids": ids, "layers": []}
    for i in range(cfg.num_layers):
        pre = f"layers.{i}."
        saved = {"x_in": x}
        xq = x[:, :1] if i == cfg.num_layers - 1 else x
        q = xq @ p[pre + "attn.q_w"] + p[pre + "attn.q_b"]
        k = x @ p[pre + "attn.k_w"] + p[pre + "attn.k_b"]
        v = x @ p[pre + "attn.v_w"] + p[pre + "attn.v_b"]
        qh, kh, vh = (_split_heads(t, H) for t in (q, k, v))
        attn = qh @ kh.transpose(0, 1, 3, 2)
        attn *= 1.0 / math.sqrt(cfg.d_model // H)
        np.copyto(attn, -np.inf, where=pad_keys)
        _softmax(attn)
        ctx = _merge_heads(attn @ vh)
        od, saved["keep_o"] = _padded_dropout(
            ctx @ p[pre + "attn.o_w"] + p[pre + "attn.o_b"], cfg.dropout, rng,
            cfg.max_len)
        od += xq
        x1, saved["ln1"] = _layer_norm(od, p[pre + "norm1.gain"],
                                       p[pre + "norm1.bias"])
        h = x1 @ p[pre + "ffn.w1"] + p[pre + "ffn.b1"]
        cdf2 = _gelu_cdf2(h)
        fd, saved["keep_f"] = _padded_dropout(
            _gelu(h, cdf2) @ p[pre + "ffn.w2"] + p[pre + "ffn.b2"], cfg.dropout,
            rng, cfg.max_len)
        fd += x1
        x, saved["ln2"] = _layer_norm(fd, p[pre + "norm2.gain"],
                                      p[pre + "norm2.bias"])
        saved.update(qh=qh, kh=kh, vh=vh, attn=attn, ctx=ctx, h=h, cdf2=cdf2,
                     x1=x1)
        cache["layers"].append(saved)
    cache["x_final"] = x
    return x[:, 0, :] @ p["head.w"] + p["head.b"], cache


def forward_reference(params: np.ndarray, cfg: EncoderConfig, ids: np.ndarray,
                      mask: np.ndarray) -> np.ndarray:
    """[B, C] logits of an eval forward (no dropout) on id/mask arrays [B, L]."""
    p = _views(params, cfg)
    H = cfg.num_heads
    L = ids.shape[1]
    x = p["token_embedding"][ids] + p["position_embedding"][:L]
    pad_keys = (mask == 0)[:, None, None, :]
    for i in range(cfg.num_layers):
        pre = f"layers.{i}."
        q, k, v = (_split_heads(x @ p[pre + f"attn.{n}_w"] + p[pre + f"attn.{n}_b"], H)
                   for n in ("q", "k", "v"))
        scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(cfg.d_model // H)
        scores = np.where(pad_keys, -np.inf, scores)
        ctx = _merge_heads(_softmax(scores) @ v)
        attn_out = ctx @ p[pre + "attn.o_w"] + p[pre + "attn.o_b"]
        x1, _ = _layer_norm(x + attn_out, p[pre + "norm1.gain"],
                            p[pre + "norm1.bias"])
        h = x1 @ p[pre + "ffn.w1"] + p[pre + "ffn.b1"]
        ffn_out = _gelu(h, _gelu_cdf2(h)) @ p[pre + "ffn.w2"] + p[pre + "ffn.b2"]
        x, _ = _layer_norm(x1 + ffn_out, p[pre + "norm2.gain"],
                           p[pre + "norm2.bias"])
    return x[:, 0, :] @ p["head.w"] + p["head.b"]


def _layer_norm_backward(dout, cache, gain):
    xhat, inv = cache
    dgain = (dout * xhat).sum(axis=(0, 1))
    dbias = dout.sum(axis=(0, 1))
    dxhat = dout * gain
    dz = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dz, dgain, dbias


def _gelu_grad(h, cdf2):
    phi = np.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi)
    return 0.5 * cdf2 + h * phi


def _dropout_backward(dout, keep, rate):
    if keep is None:
        return dout
    return dout * keep / (1.0 - rate)


def backward_reference(params: np.ndarray, cfg: EncoderConfig, cache: dict,
                       dlogits: np.ndarray) -> np.ndarray:
    """Gradients of every parameter, laid out as params, from the cache of
    padded_forward; cache is left as it was."""
    H = cfg.num_heads
    scale = 1.0 / math.sqrt(cfg.d_model // H)
    grads = np.zeros_like(params)
    p, g = _views(params, cfg), _views(grads, cfg)

    x_final = cache["x_final"]
    g["head.w"][...] = x_final[:, 0, :].T @ dlogits
    g["head.b"][...] = dlogits.sum(axis=0)
    dx = (dlogits @ p["head.w"].T)[:, None, :]

    for i in reversed(range(cfg.num_layers)):
        pre = f"layers.{i}."
        lc = cache["layers"][i]
        x_in, x1 = lc["x_in"], lc["x1"]
        D, F = cfg.d_model, cfg.d_ff

        dr2, dgain2, dbias2 = _layer_norm_backward(dx, lc["ln2"],
                                                   p[pre + "norm2.gain"])
        g[pre + "norm2.gain"][...] = dgain2
        g[pre + "norm2.bias"][...] = dbias2
        dx1 = dr2.copy()
        df = _dropout_backward(dr2, lc["keep_f"], cfg.dropout)
        h, cdf2 = lc["h"], lc["cdf2"]
        dg = df @ p[pre + "ffn.w2"].T
        g[pre + "ffn.w2"][...] = _gelu(h, cdf2).reshape(-1, F).T @ df.reshape(-1, D)
        g[pre + "ffn.b2"][...] = df.sum(axis=(0, 1))
        dh = dg * _gelu_grad(h, cdf2)
        dx1 += dh @ p[pre + "ffn.w1"].T
        g[pre + "ffn.w1"][...] = x1.reshape(-1, D).T @ dh.reshape(-1, F)
        g[pre + "ffn.b1"][...] = dh.sum(axis=(0, 1))

        dr1, dgain1, dbias1 = _layer_norm_backward(dx1, lc["ln1"],
                                                   p[pre + "norm1.gain"])
        g[pre + "norm1.gain"][...] = dgain1
        g[pre + "norm1.bias"][...] = dbias1
        Q = dr1.shape[1]
        dx = np.zeros_like(x_in)
        dx[:, :Q] = dr1
        do = _dropout_backward(dr1, lc["keep_o"], cfg.dropout)
        dctx = do @ p[pre + "attn.o_w"].T
        g[pre + "attn.o_w"][...] = lc["ctx"].reshape(-1, D).T @ do.reshape(-1, D)
        g[pre + "attn.o_b"][...] = do.sum(axis=(0, 1))

        dctx_h = _split_heads(dctx, H)
        attn, qh, kh, vh = lc["attn"], lc["qh"], lc["kh"], lc["vh"]
        dattn = dctx_h @ vh.transpose(0, 1, 3, 2)
        dvh = attn.transpose(0, 1, 3, 2) @ dctx_h
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dscores *= scale
        dqh = dscores @ kh
        dkh = dscores.transpose(0, 1, 3, 2) @ qh
        dq, dk, dv = (_merge_heads(t) for t in (dqh, dkh, dvh))

        for name, dt in (("q", dq), ("k", dk), ("v", dv)):
            rows = dt.shape[1]
            g[pre + f"attn.{name}_w"][...] = (x_in[:, :rows].reshape(-1, D).T
                                              @ dt.reshape(-1, D))
            g[pre + f"attn.{name}_b"][...] = dt.sum(axis=(0, 1))
            dx[:, :rows] += dt @ p[pre + f"attn.{name}_w"].T

    ids = cache["ids"]
    L = ids.shape[1]
    np.add.at(g["token_embedding"], ids.reshape(-1),
              dx.reshape(-1, cfg.d_model))
    g["position_embedding"][:L] = dx.sum(axis=0)
    return grads
