"""References the transformer tests compare against.

forward_reference: an eval forward in which every block, the last one
included, runs on all L positions, and the head reads the [CLS] row of the
result.  `mixsent.transformer.forward_arrays` computes only the [CLS] row
in its last block and must return the same logits up to float summation
order.

backward_reference: backpropagation that keeps the whole forward cache and
every temporary until it returns, with its own layer-norm and GELU
derivatives.  `mixsent.transformer.backward_arrays` releases the cache as
it goes and works in place, with the same floating-point operations in the
same order, so its gradients must be equal bit for bit."""

from __future__ import annotations

import math

import numpy as np

from mixsent.transformer import (EncoderConfig, _gelu, _gelu_cdf2, _layer_norm,
                                 _merge_heads, _softmax, _split_heads, _views)


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
    forward_arrays(..., keep_cache=True); cache is left as it was."""
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
