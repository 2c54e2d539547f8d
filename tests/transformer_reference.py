"""Reference eval forward: every block, the last one included, runs on all
L positions, and the head reads the [CLS] row of the result.
`mixsent.transformer.forward_arrays` computes only the [CLS] row in its last
block and must return the same logits up to float summation order; the
tests compare the two."""

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
