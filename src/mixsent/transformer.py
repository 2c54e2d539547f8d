"""Compact transformer-encoder classifier in plain numpy.

Token + learned position embeddings feed a stack of post-norm residual
blocks (multi-head scaled dot-product self-attention with PAD masking,
then a GELU feed-forward), and a linear head reads the first-position
([CLS]) hidden state into three class logits.  Backpropagation is exact
and hand-written; training uses AdamW with linear warmup/decay.

A batch arrives padded to its longest row, but its real positions are
packed once into [T, D] rows, T the number of real tokens, and every
position-wise layer (embeddings, projections, residuals, layer norms, GELU,
dropout) runs on those rows alone, forward and backward (Zhai et al.,
"ByteTransformer", IPDPS 2023).  Only the attention core scatters Q, K and
V into the padded [B, H, L, dh] layout, masks the PAD keys and gathers the
context rows back.

Parameters, gradients and optimizer moments are each one 1-D array laid
out in _param_specs order, whose tensors _views names.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import modelfile
from .corpus import NUM_CLASSES, SentimentLabel
from .encoder_config import EncoderConfig, TrainConfig
from .errors import InputError, TrainingError
from .metrics import evaluate
from .rng import SplitMix64, derive_seed, shuffled
from .tokenizer import PAD_ID, Vocabulary, encode

LN_EPS = 1e-5
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
INIT_STD = 0.02
# Elements of the largest activation an eval batch may build: rows times
# max(num_heads * L^2 attention scores, L * max(d_model, d_ff)), L the
# batch's longest row.  2^18 float32 values (1 MiB) keep a batch's working
# set near a core's L2 cache (1-2 MiB on current x86 cores), whatever
# the model size or text length.  Packed rows only shrink the position-wise
# activations, and attention still builds [B, H, L, L] scores, so the bound
# holds unchanged.
EVAL_BUDGET = 1 << 18

# Cephes ndtr.c (Moshier, "Methods and Programs for Mathematical Functions",
# 1989): erf = x*T(x^2)/U(x^2) for |x| <= 1 and
# erf = sign(x)*(1 - exp(-x^2)*P(|x|)/Q(|x|)) above.  A leading 1.0 marks a
# monic denominator.  Cephes switches to its R/S pair at |x| >= 8, where
# erfc < 1e-29 and erf rounds to exactly +-1 either way; clamping |x| to 8
# under P/Q gives the same +-1 and keeps inf out of the arithmetic.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERF_BLOCK = 1 << 14
# Elements per block of adamw_step's passes: a block of params, grads, both
# moments and the two scratch arrays is 2^15 * 6 float32 values (768 KiB),
# within a core's L2 cache (1-2 MiB on current x86 cores), where whole-array
# passes stream every array through memory once per operation.
ADAMW_BLOCK = 1 << 15


def _param_specs(cfg: EncoderConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init) of every tensor in the canonical order used for
    serialization; init is "normal", "zeros" or "ones"."""
    D, F = cfg.d_model, cfg.d_ff
    specs = [("token_embedding", (cfg.vocab_size, D), "normal"),
             ("position_embedding", (cfg.max_len, D), "normal")]
    for i in range(cfg.num_layers):
        pre = f"layers.{i}."
        for name in ("q", "k", "v", "o"):
            specs += [(pre + f"attn.{name}_w", (D, D), "normal"),
                      (pre + f"attn.{name}_b", (D,), "zeros")]
        specs += [(pre + "norm1.gain", (D,), "ones"),
                  (pre + "norm1.bias", (D,), "zeros"),
                  (pre + "ffn.w1", (D, F), "normal"),
                  (pre + "ffn.b1", (F,), "zeros"),
                  (pre + "ffn.w2", (F, D), "normal"),
                  (pre + "ffn.b2", (D,), "zeros"),
                  (pre + "norm2.gain", (D,), "ones"),
                  (pre + "norm2.bias", (D,), "zeros")]
    specs += [("head.w", (D, NUM_CLASSES), "normal"),
              ("head.b", (NUM_CLASSES,), "zeros")]
    return specs


def _views(flat: np.ndarray, cfg: EncoderConfig) -> dict[str, np.ndarray]:
    """Each tensor of a flat parameter (or gradient) array as a named view."""
    views, start = {}, 0
    for name, shape, _ in _param_specs(cfg):
        views[name] = flat[start:start + math.prod(shape)].reshape(shape)
        start += math.prod(shape)
    return views


def init_params(cfg: EncoderConfig, seed: int, dtype=np.float64) -> np.ndarray:
    """Seeded initialization as one flat array: N(0, 0.02) matrices, zero
    biases, unit layer norm gains, drawn in float64 in _param_specs order and
    rounded to dtype."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.concatenate([
        rng.normal(0.0, INIT_STD, size=math.prod(shape)) if init == "normal"
        else np.full(math.prod(shape), float(init == "ones"))
        for _, shape, init in _param_specs(cfg)]).astype(dtype, copy=False)


def _horner(z: np.ndarray, coefs: tuple, out: np.ndarray) -> np.ndarray:
    """coefs[0]*z^n + ... + coefs[n] into out, in Cephes' polevl order."""
    np.multiply(z, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= z
        out += c
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """The error function of a float32 or float64 array, evaluated as Cephes
    does in float64 and rounded to x's dtype.  Blocks of _ERF_BLOCK elements
    keep the float64 temporaries small; the |x| > 1 branch runs only on the
    elements that need it."""
    out = np.empty(x.shape, dtype=x.dtype)
    src, dst = x.reshape(-1), out.reshape(-1)
    size = min(dst.size, _ERF_BLOCK)
    scratch = [np.empty(size) for _ in range(4)]
    for start in range(0, dst.size, _ERF_BLOCK):
        xb = src[start:start + _ERF_BLOCK]
        v, z, num, den = (buf[:len(xb)] for buf in scratch)
        np.clip(xb, -1.0, 1.0, out=v)
        np.multiply(v, v, out=z)
        _horner(z, _ERF_T, num)
        num *= v
        num /= _horner(z, _ERF_U, den)
        big = np.flatnonzero(np.abs(xb) > 1.0)
        if len(big):
            xs = xb[big].astype(np.float64, copy=False)
            a = np.minimum(np.abs(xs), 8.0)
            y = _horner(a, _ERFC_P, np.empty_like(a))
            y *= np.exp(-(a * a))
            y /= _horner(a, _ERFC_Q, np.empty_like(a))
            num[big] = np.copysign(1.0 - y, xs)
        dst[start:start + len(xb)] = num
    return out


def _gelu_cdf2(h: np.ndarray) -> np.ndarray:
    """1 + erf(h/sqrt 2), twice the normal CDF at h: the one erf term that
    GELU's value and its derivative share."""
    t = _erf(h / math.sqrt(2.0))
    t += 1.0
    return t


def _gelu(h: np.ndarray, cdf2: np.ndarray) -> np.ndarray:
    return 0.5 * h * cdf2


def _gelu_grad(h: np.ndarray, cdf2: np.ndarray) -> np.ndarray:
    """0.5*cdf2 + h*phi(h), phi the normal density, in two buffers."""
    phi = -0.5 * h
    phi *= h
    np.exp(phi, out=phi)
    phi /= math.sqrt(2.0 * math.pi)
    phi *= h
    grad = 0.5 * cdf2
    grad += phi
    return grad


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in x; returns x."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _layer_norm(z: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    mu = z.mean(axis=-1, keepdims=True)
    zc = z - mu
    var = (zc * zc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = zc * inv
    return gain * xhat + bias, (xhat, inv)


def _layer_norm_backward(dout: np.ndarray, cache, gain: np.ndarray):
    """dz = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), with
    dxhat = dout * gain, built in one buffer the size of dout plus one
    scratch."""
    xhat, inv = cache
    scratch = dout * xhat
    dgain = _row_sum(scratch)
    dbias = _row_sum(dout)
    dxhat = dout * gain
    np.multiply(dxhat, xhat, out=scratch)
    proj = scratch.mean(axis=-1, keepdims=True)
    dz = dxhat - dxhat.mean(axis=-1, keepdims=True)
    np.multiply(xhat, proj, out=scratch)
    dz -= scratch
    dz *= inv
    return dz, dgain, dbias


def _row_sum(t: np.ndarray) -> np.ndarray:
    """The sum of t's rows, [T, D] or [B, 1, D], added in row order."""
    return t.reshape(-1, t.shape[-1]).sum(axis=0)


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    b, l, d = x.shape
    return x.reshape(b, l, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


class _Rows:
    """Where the real positions of a padded [B, L] batch go in the packed
    [T, D] activations, T = mask.sum(): row by row, each row's positions in
    order.  mask marks a prefix of each row, as _pad makes it."""

    def __init__(self, mask: np.ndarray):
        self.mask = mask.astype(bool)
        self.lengths = self.mask.sum(axis=1)
        self.starts = np.cumsum(self.lengths) - self.lengths   # [CLS] rows

    def scatter(self, t: np.ndarray) -> np.ndarray:
        """Packed [T, D] rows into a zero-filled [B, L, D] array, or viewed
        as one when no row is padded."""
        if len(t) == self.mask.size:
            return t.reshape(self.mask.shape + t.shape[-1:])
        out = np.zeros(self.mask.shape + t.shape[-1:], dtype=t.dtype)
        out[self.mask] = t
        return out

    def gather_heads(self, th: np.ndarray) -> np.ndarray:
        """The real rows of a [B, H, L, dh] array, merged to packed [T, D]."""
        packed = th.transpose(0, 2, 1, 3)[self.mask]
        return packed.reshape(len(packed), -1)


def _uniform_rows(rng, lengths: np.ndarray, d: int, max_len: int) -> np.ndarray:
    """rng.random((B, max_len, d)) at each row's first lengths[b] positions,
    stacked as [T, d]: PCG64 spends one output per double, so advancing the
    generator past a row's other max_len - lengths[b] positions leaves the
    stream where the full draw would."""
    lengths = lengths.tolist()
    u = np.empty((sum(lengths), d))
    start, advance = 0, rng.bit_generator.advance
    for n in lengths:
        rng.random(out=u[start:start + n])
        advance((max_len - n) * d)
        start += n
    return u


def _dropout(x: np.ndarray, rate: float, rng, lengths: np.ndarray, max_len: int):
    """Dropout runs when an rng is given, scaling x in place.  x holds the
    rows of a batch whose rows have the given lengths, packed as [T, D] (or
    [B, 1, D], lengths all 1).  The bool keep mask is that of a
    [B, max_len, D] draw at those positions, so the numbers drawn depend
    neither on how far the batch is padded nor on the packing."""
    if rng is None or rate == 0.0:
        return x, None
    keep = (_uniform_rows(rng, lengths, x.shape[-1], max_len) >= rate
            ).reshape(x.shape)
    x *= keep
    x /= 1.0 - rate
    return x, keep


def _dropout_backward(dout: np.ndarray, keep, rate: float) -> np.ndarray:
    if keep is None:
        return dout
    return dout * keep / (1.0 - rate)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, the bias added in place: one array allocated, not two."""
    y = x @ w
    y += b
    return y


def _pad(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """int64 ids / mask arrays [B, L], L the longest row, PAD past each row's
    end.  Padding further would add only positions masked in every row: they
    change no real position's output, and their gradients are exact zeros."""
    lengths = np.array([len(row) for row in rows])
    mask = (np.arange(lengths.max()) < lengths[:, None]).astype(np.int64)
    ids = np.full(mask.shape, PAD_ID, dtype=np.int64)
    ids[mask == 1] = np.concatenate(rows)
    return ids, mask


def _attention(params: dict, pre: str, xq: np.ndarray, x: np.ndarray,
               rows: _Rows, cfg: EncoderConfig,
               saved: dict | None) -> np.ndarray:
    """Multi-head attention of one block, through its output projection:
    keys and values from the packed rows x [T, D], queries from xq, which
    is x itself or the [CLS] rows [B, 1, D].

    The projections run on packed rows.  Only the attention core uses the
    padded layout: Q, K and V are scattered into zero-filled [B, L, D]
    arrays, and scale, PAD mask and softmax run in place on the [B, H, Q, L]
    scores buffer.  The context comes back packed as xq is.  What backward
    needs goes into saved when it is a dict; the rest is freed on return."""
    H = cfg.num_heads
    q = _affine(xq, params[pre + "attn.q_w"], params[pre + "attn.q_b"])
    qh = _split_heads(q if q.ndim == 3 else rows.scatter(q), H)
    kh, vh = (_split_heads(rows.scatter(_affine(x, params[pre + f"attn.{name}_w"],
                                                params[pre + f"attn.{name}_b"])), H)
              for name in ("k", "v"))
    attn = qh @ kh.transpose(0, 1, 3, 2)                      # [B,H,Q,L]
    attn *= 1.0 / math.sqrt(cfg.d_model // H)
    np.copyto(attn, -np.inf, where=~rows.mask[:, None, None, :])
    _softmax(attn)
    ctx_h = attn @ vh                                         # [B,H,Q,dh]
    ctx = _merge_heads(ctx_h) if q.ndim == 3 else rows.gather_heads(ctx_h)
    del ctx_h
    if saved is not None:
        saved.update(qh=qh, kh=kh, vh=vh, attn=attn, ctx=ctx)
    return _affine(ctx, params[pre + "attn.o_w"], params[pre + "attn.o_b"])


def _feed_forward(params: dict, pre: str, x1: np.ndarray,
                  saved: dict | None) -> np.ndarray:
    """The GELU feed-forward of one block; what backward needs goes into
    saved when it is a dict, the rest is freed on return."""
    h = _affine(x1, params[pre + "ffn.w1"], params[pre + "ffn.b1"])
    cdf2 = _gelu_cdf2(h)
    if saved is not None:
        saved.update(h=h, cdf2=cdf2)
    return _affine(_gelu(h, cdf2), params[pre + "ffn.w2"], params[pre + "ffn.b2"])


def _block(params: dict, pre: str, x: np.ndarray, rows: _Rows,
           cfg: EncoderConfig, rng, saved: dict | None,
           cls_only: bool) -> np.ndarray:
    """One post-norm residual block on packed rows x [T, D]:
    x1 = LN(x + dropout(attention(x))), then LN(x1 + dropout(ffn(x1))).
    With cls_only everything but the keys and values runs on the [CLS] rows
    alone, and the block returns [B, 1, D].  What backward needs goes into
    saved when it is a dict; the rest is freed on return."""
    if cls_only:
        xq, lengths = x[rows.starts][:, None, :], np.ones_like(rows.lengths)
    else:
        xq, lengths = x, rows.lengths
    od, keep_o = _dropout(_attention(params, pre, xq, x, rows, cfg, saved),
                          cfg.dropout, rng, lengths, cfg.max_len)
    od += xq
    x1, ln1 = _layer_norm(od, params[pre + "norm1.gain"],
                          params[pre + "norm1.bias"])
    fd, keep_f = _dropout(_feed_forward(params, pre, x1, saved),
                          cfg.dropout, rng, lengths, cfg.max_len)
    fd += x1
    x2, ln2 = _layer_norm(fd, params[pre + "norm2.gain"],
                          params[pre + "norm2.bias"])
    if saved is not None:
        saved.update(x_in=x, x_q=xq, keep_o=keep_o, ln1=ln1, x1=x1,
                     keep_f=keep_f, ln2=ln2)
    return x2


def forward_arrays(params: np.ndarray, cfg: EncoderConfig, ids: np.ndarray,
                   mask: np.ndarray, rng=None, keep_cache: bool = False):
    """Forward pass on id/mask arrays [B, L]; returns (logits, cache).

    Dropout runs, drawing from rng, exactly when an rng is given.  L may be
    smaller than cfg.max_len (position rows beyond L are unused).  The real
    positions are packed once into [T, D] activations, T = mask.sum(), and
    every position-wise layer runs on those rows alone; only attention
    scatters them into the padded layout, where PAD keys are masked.  The
    head reads only the [CLS] row, so the last block computes only that row
    ([B, 1, D]), with keys and values over every real position.  cache holds
    every activation backward_arrays needs, which takes it apart, and is
    built only when keep_cache is set; otherwise it is None and each block's
    activations are freed when the block returns.
    """
    if ids.max(initial=0) >= cfg.vocab_size or ids.min(initial=0) < 0:
        raise InputError("token id outside vocabulary range")
    p = _views(params, cfg)
    rows = _Rows(mask)
    real_ids = ids[rows.mask]
    x = p["token_embedding"][real_ids]
    x += p["position_embedding"][np.nonzero(rows.mask)[1]]
    cache = {"ids": real_ids, "rows": rows, "layers": []} if keep_cache else None

    for i in range(cfg.num_layers):
        saved = {} if keep_cache else None
        x = _block(p, f"layers.{i}.", x, rows, cfg, rng, saved,
                   cls_only=i == cfg.num_layers - 1)
        if keep_cache:
            cache["layers"].append(saved)

    logits = x[:, 0, :] @ p["head.w"] + p["head.b"]
    if keep_cache:
        cache["x_final"] = x
    if not np.all(np.isfinite(logits)):
        raise TrainingError("non-finite activations in forward pass")
    return logits, cache


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and dloss/dlogits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    n = logits.shape[0]
    loss = -float(log_probs[np.arange(n), labels].mean())
    dlogits = np.exp(log_probs)
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def _attention_backward(p: dict, g: dict, pre: str, saved: dict,
                        do: np.ndarray, rows: _Rows, dx: np.ndarray,
                        cfg: EncoderConfig) -> None:
    """Gradients of _attention's parameters into g, from do, the gradient of
    its output (packed as its queries); adds the gradient of its input to
    the packed dx [T, D].  Takes what it uses out of saved."""
    H, D = cfg.num_heads, cfg.d_model
    cls_only = do.ndim == 3
    dctx = do @ p[pre + "attn.o_w"].T
    dctx_h = _split_heads(dctx if cls_only else rows.scatter(dctx), H)
    del dctx
    g[pre + "attn.o_w"][...] = saved.pop("ctx").reshape(-1, D).T @ do.reshape(-1, D)
    g[pre + "attn.o_b"][...] = _row_sum(do)
    del do

    attn = saved.pop("attn")
    dattn = dctx_h @ saved.pop("vh").transpose(0, 1, 3, 2)    # [B,H,Q,L]
    dvh = attn.transpose(0, 1, 3, 2) @ dctx_h
    del dctx_h
    # Softmax backward in place: attn * (dattn - sum(dattn * attn)), scaled.
    dattn -= (dattn * attn).sum(axis=-1, keepdims=True)
    dattn *= attn
    dattn *= 1.0 / math.sqrt(D // H)
    del attn
    dqh = dattn @ saved.pop("kh")
    dkh = dattn.transpose(0, 1, 3, 2) @ saved.pop("qh")
    del dattn

    # The queries' rows (the [CLS] rows in the last block, else all T) take
    # the Q gradient; keys and values pass gradient to all T rows.
    x, xq = saved.pop("x_in"), saved.pop("x_q")
    q_rows = rows.starts if cls_only else slice(None)
    for name, dth, xs, at in (("q", dqh, xq, q_rows),
                              ("k", dkh, x, slice(None)),
                              ("v", dvh, x, slice(None))):
        dt = _merge_heads(dth) if xs.ndim == 3 else rows.gather_heads(dth)
        g[pre + f"attn.{name}_w"][...] = xs.reshape(-1, D).T @ dt.reshape(-1, D)
        g[pre + f"attn.{name}_b"][...] = _row_sum(dt)
        dx[at] += (dt @ p[pre + f"attn.{name}_w"].T).reshape(-1, D)


def _feed_forward_backward(p: dict, g: dict, pre: str, saved: dict,
                           df: np.ndarray, cfg: EncoderConfig) -> np.ndarray:
    """Gradients of _feed_forward's parameters into g, from df, the gradient
    of its output; returns the gradient of its input.  Takes what it uses
    out of saved."""
    D, F = cfg.d_model, cfg.d_ff
    h, cdf2 = saved.pop("h"), saved.pop("cdf2")
    dh = df @ p[pre + "ffn.w2"].T
    g[pre + "ffn.w2"][...] = _gelu(h, cdf2).reshape(-1, F).T @ df.reshape(-1, D)
    g[pre + "ffn.b2"][...] = _row_sum(df)
    del df
    dh *= _gelu_grad(h, cdf2)
    del h, cdf2
    g[pre + "ffn.w1"][...] = saved.pop("x1").reshape(-1, D).T @ dh.reshape(-1, F)
    g[pre + "ffn.b1"][...] = _row_sum(dh)
    return dh @ p[pre + "ffn.w1"].T


def _block_backward(p: dict, g: dict, pre: str, saved: dict, dx2: np.ndarray,
                    rows: _Rows, cfg: EncoderConfig) -> np.ndarray:
    """Gradients of one _block's parameters into g, from dx2, the gradient
    of its output; returns the gradient of its packed input x [T, D].  Takes
    what it uses out of saved, so each activation goes after its last use."""
    dx1, dgain2, dbias2 = _layer_norm_backward(dx2, saved.pop("ln2"),
                                               p[pre + "norm2.gain"])
    g[pre + "norm2.gain"][...] = dgain2
    g[pre + "norm2.bias"][...] = dbias2
    # The dropout gradient may be dx1 itself; the feed-forward's backward
    # has read all of it before dx1 is added to.
    dx1 += _feed_forward_backward(
        p, g, pre, saved, _dropout_backward(dx1, saved.pop("keep_f"), cfg.dropout),
        cfg)

    dr1, dgain1, dbias1 = _layer_norm_backward(dx1, saved.pop("ln1"),
                                               p[pre + "norm1.gain"])
    del dx1
    g[pre + "norm1.gain"][...] = dgain1
    g[pre + "norm1.bias"][...] = dbias1
    # The query rows take the residual.
    dx = np.zeros_like(saved["x_in"])
    dx[rows.starts if dr1.ndim == 3 else slice(None)] = dr1.reshape(-1, cfg.d_model)
    _attention_backward(
        p, g, pre, saved, _dropout_backward(dr1, saved.pop("keep_o"), cfg.dropout),
        rows, dx, cfg)
    return dx


def backward_arrays(params: np.ndarray, cfg: EncoderConfig, cache: dict,
                    dlogits: np.ndarray) -> np.ndarray:
    """Exact gradients for every parameter, mirroring forward_arrays, as one
    array laid out as params is.  Weight and bias gradients sum the T packed
    rows, and the embeddings take gradient at real positions only.

    Backward takes cache apart as it goes: each layer's saved activations
    leave cache when backward reaches that layer, and each array is released
    after its last use, so one layer's temporaries are live only beside the
    layers below it."""
    grads = np.zeros_like(params)
    p, g = _views(params, cfg), _views(grads, cfg)
    g["head.w"][...] = cache.pop("x_final")[:, 0, :].T @ dlogits
    g["head.b"][...] = dlogits.sum(axis=0)
    dx = (dlogits @ p["head.w"].T)[:, None, :]                # [B,1,D]
    layers, rows = cache["layers"], cache["rows"]
    while layers:
        pre = f"layers.{len(layers) - 1}."
        dx = _block_backward(p, g, pre, layers.pop(), dx, rows, cfg)

    # One scalar add per (position, column), in position order, as a 2-D
    # np.add.at over rows would make, without its per-row overhead.
    ids, D = cache["ids"], cfg.d_model
    np.add.at(g["token_embedding"].reshape(-1),
              (ids.reshape(-1, 1) * D + np.arange(D)).reshape(-1), dx.reshape(-1))
    g["position_embedding"][:rows.mask.shape[1]] = rows.scatter(dx).sum(axis=0)
    return grads


def loss_and_grads(params: np.ndarray, cfg: EncoderConfig, ids: np.ndarray,
                   mask: np.ndarray, y: np.ndarray, rng=None) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch plus exact gradients; dropout runs
    when an rng is given."""
    logits, cache = forward_arrays(params, cfg, ids, mask, rng, keep_cache=True)
    loss, dlogits = cross_entropy(logits, y)
    if not math.isfinite(loss):
        raise TrainingError("non-finite loss")
    grads = backward_arrays(params, cfg, cache, dlogits.astype(logits.dtype))
    return loss, grads


def lr_schedule(step: int, tc: TrainConfig, total_steps: int) -> float:
    """Linear warmup to the peak rate, then linear decay to zero at
    total_steps.  Warmup-only when the run is shorter than the warmup."""
    if step < 0 or (total_steps and step > total_steps):
        raise InputError(f"step {step} outside [0, {total_steps}]")
    if tc.warmup_steps > 0 and step < tc.warmup_steps:
        return tc.learning_rate * step / tc.warmup_steps
    if total_steps <= tc.warmup_steps:
        return tc.learning_rate
    span = total_steps - tc.warmup_steps
    return tc.learning_rate * (total_steps - step) / span


def adamw_init(params: np.ndarray, cfg: EncoderConfig) -> dict:
    """Zero moments laid out as params, two scratch arrays of one
    ADAMW_BLOCK for the update, and the mask of the matrix entries that
    weight decay applies to."""
    decay = np.concatenate([np.full(math.prod(shape), len(shape) >= 2)
                            for _, shape, _ in _param_specs(cfg)])
    block = min(ADAMW_BLOCK, params.size)
    return {"t": 0, "m": np.zeros_like(params), "v": np.zeros_like(params),
            "scratch": (np.empty(block, params.dtype), np.empty(block, params.dtype)),
            "decay": decay, "cfg": cfg}


def adamw_step(params: np.ndarray, grads: np.ndarray, state: dict,
               tc: TrainConfig, lr: float) -> None:
    """In-place AdamW update.  Weight decay is decoupled (p -= lr*wd*p) and
    applies only to matrices; biases and layer-norm vectors are exempt.
    Every pass runs block by block, a block the length of the state's two
    scratch arrays (its only temporaries), so each block stays in cache.  A
    non-finite update raises TrainingError naming the first tensor it hits;
    the blocks before it are then already updated, and the run is over."""
    state["t"] += 1
    t = state["t"]
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    m_all, v_all, decay = state["m"], state["v"], state["decay"]
    scratch_u, scratch_d = state["scratch"]
    block = len(scratch_u)
    for start in range(0, len(params), block):
        part = slice(start, start + block)
        p, g, m, v = params[part], grads[part], m_all[part], v_all[part]
        update, denom = scratch_u[:len(p)], scratch_d[:len(p)]
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=update)
        m += update
        v *= ADAM_BETA2
        np.multiply(g, g, out=update)
        update *= 1.0 - ADAM_BETA2
        v += update
        # update = (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, bc1, out=update)
        update /= denom
        finite = np.isfinite(update)
        if not finite.all():
            specs = _param_specs(state["cfg"])
            ends = itertools.accumulate(math.prod(shape) for _, shape, _ in specs)
            bad = start + int(np.argmin(finite))
            name = next(spec[0] for spec, end in zip(specs, ends) if bad < end)
            raise TrainingError(f"non-finite optimizer update for {name}")
        update *= lr
        p -= update
        if tc.weight_decay > 0:
            np.multiply(p, lr * tc.weight_decay, out=update)
            np.subtract(p, update, out=p, where=decay[part])


@dataclass
class TrainResult:
    final_params: np.ndarray
    best_params: np.ndarray
    best_epoch: int
    log: list[dict] = field(default_factory=list)


def train(train_texts: list[str], train_labels: list[SentimentLabel],
          val_texts: list[str], val_labels: list[SentimentLabel],
          vocab: Vocabulary, cfg: EncoderConfig, tc: TrainConfig) -> TrainResult:
    """Supervised training loop, in float32.

    Per epoch: seeded reshuffle, minibatch AdamW with the warmup/decay
    schedule, and a log entry with the mean train loss and the epoch's
    padded positions (rows times longest row, summed over batches) and
    real tokens; when a validation set is given the weighted F1 is logged
    and the best-epoch parameters are retained alongside the final ones.
    Training and validation texts are each encoded once per run.
    """
    if not train_texts:
        raise InputError("training split is empty")
    params = init_params(cfg, tc.seed, np.float32)
    if tc.epochs == 0:
        return TrainResult(params, params.copy(), 0, [])

    rows = [encode(t, vocab, cfg.max_len) for t in train_texts]
    val_rows = [encode(t, vocab, cfg.max_len) for t in val_texts]
    y_all = np.asarray([int(l) for l in train_labels], dtype=np.int64)
    n = len(rows)
    steps_per_epoch = math.ceil(n / tc.batch_size)
    total_steps = tc.epochs * steps_per_epoch

    state = adamw_init(params, cfg)
    drop_rng = np.random.Generator(np.random.PCG64(derive_seed(tc.seed, 101)))
    shuffle_rng = SplitMix64(derive_seed(tc.seed, 202))
    log: list[dict] = []
    best_params = None
    best_f1 = -1.0
    best_epoch = 0
    step = 0

    for epoch in range(1, tc.epochs + 1):
        order = shuffled(list(range(n)), shuffle_rng)
        epoch_loss = 0.0
        positions = tokens = 0
        for start in range(0, n, tc.batch_size):
            sel = order[start:start + tc.batch_size]
            step += 1
            lr = lr_schedule(step, tc, total_steps)
            ids, mask = _pad([rows[i] for i in sel])
            positions += ids.size
            tokens += int(mask.sum())
            loss, grads = loss_and_grads(params, cfg, ids, mask, y_all[sel],
                                         drop_rng)
            adamw_step(params, grads, state, tc, lr)
            del grads              # not held through the next step's forward
            epoch_loss += loss * len(sel)
        entry = {"epoch": epoch, "train_loss": epoch_loss / n,
                 "positions": positions, "tokens": tokens}
        if val_rows:
            preds, _ = _predict_rows(params, cfg, val_rows)
            entry["val_weighted_f1"] = evaluate(val_labels, preds)["weighted"]["f1"]
            if entry["val_weighted_f1"] > best_f1:
                best_f1 = entry["val_weighted_f1"]
                best_epoch = epoch
                best_params = params.copy()
        log.append(entry)

    if best_params is None:
        best_params = params.copy()
        best_epoch = tc.epochs
    return TrainResult(params, best_params, best_epoch, log)


def predict(params: np.ndarray, cfg: EncoderConfig, vocab: Vocabulary,
            texts: list[str]) -> tuple[list[SentimentLabel], np.ndarray]:
    """Eval-mode prediction: argmax label per text (lowest label id on exact
    ties) and [N, C] float64 softmax probabilities, in input order.

    Each text is encoded once."""
    return _predict_rows(params, cfg, [encode(t, vocab, cfg.max_len) for t in texts])


def _eval_batches(rows: list[list[int]], cfg: EncoderConfig):
    """Indices of rows in order of length (stable in input position), so
    each batch pads little, cut into batches whose largest activation,
    rows * max(num_heads * L^2, L * max(d_model, d_ff)) for L the batch's
    longest row, stays within EVAL_BUDGET; a row over budget goes alone."""
    width = max(cfg.d_model, cfg.d_ff)
    batch: list[int] = []
    for i in sorted(range(len(rows)), key=lambda i: len(rows[i])):
        longest = len(rows[i])
        if batch and ((len(batch) + 1) * longest
                      * max(cfg.num_heads * longest, width) > EVAL_BUDGET):
            yield batch
            batch = []
        batch.append(i)
    if batch:
        yield batch


def _predict_rows(params: np.ndarray, cfg: EncoderConfig, rows: list[list[int]]
                  ) -> tuple[list[SentimentLabel], np.ndarray]:
    """predict on encoded rows, one forward pass per _eval_batches batch."""
    probs = np.empty((len(rows), NUM_CLASSES))
    for sel in _eval_batches(rows, cfg):
        logits, _ = forward_arrays(params, cfg, *_pad([rows[i] for i in sel]))
        probs[sel] = _softmax(logits.astype(np.float64))
    return [SentimentLabel(int(i)) for i in np.argmax(probs, axis=1)], probs


# --- serialization ---------------------------------------------------------

def save_transformer(path: str | Path, params: np.ndarray, cfg: EncoderConfig,
                     vocab: Vocabulary, run: dict) -> None:
    """The model file: a header holding the encoder config, the vocabulary's
    tokens in id order and the run keys (see cli), then params as
    little-endian float32 in _param_specs order."""
    modelfile.write(path, {"kind": "transformer", "encoder_config": asdict(cfg),
                           "vocab": list(vocab.tokens), **run},
                    params.astype("<f4").tobytes())


def load_transformer(f: modelfile.ModelFile):
    """Returns (params, EncoderConfig, Vocabulary) of a transformer model file.

    The header's vocabulary must have the encoder config's vocab_size
    tokens, and the payload must hold exactly the float32 parameters the
    encoder config implies."""
    try:
        cfg = EncoderConfig(**f.header["encoder_config"])
        vocab = Vocabulary(tuple(f.header["vocab"]))
    except (KeyError, TypeError, InputError) as e:
        raise InputError(f"{f.path}: bad transformer header: {e!r}") from None
    if len(vocab) != cfg.vocab_size:
        raise InputError(f"{f.path}: the header's vocab has {len(vocab)} tokens, "
                         f"its encoder_config.vocab_size is {cfg.vocab_size}")
    count = sum(math.prod(shape) for _, shape, _ in _param_specs(cfg))
    return f.values("<f4", count, "the encoder's parameters").astype(np.float32), cfg, vocab
