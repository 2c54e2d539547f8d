"""Compact transformer-encoder classifier in plain numpy.

Token + learned position embeddings feed a stack of post-norm residual
blocks (multi-head scaled dot-product self-attention with PAD masking,
then a GELU feed-forward), and a linear head reads the first-position
([CLS]) hidden state into three class logits.  Backpropagation is exact
and hand-written; training uses AdamW with linear warmup/decay.

Parameters live in an ordered dict of numpy arrays so the same structure
serves the optimizer, gradient checking, and serialization.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import erf

from .corpus import SentimentLabel
from .errors import InputError, TrainingError
from .metrics import evaluate
from .rng import SplitMix64, derive_seed, shuffled
from .tokenizer import Encoding, TokenizerConfig, Vocabulary, encode

LN_EPS = 1e-5
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
INIT_STD = 0.02


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int = 2
    num_heads: int = 4
    d_model: int = 128
    d_ff: int = 256
    dropout: float = 0.1
    max_len: int = 128
    vocab_size: int = 4000
    num_classes: int = 3

    def __post_init__(self):
        if min(self.num_layers, self.num_heads, self.d_model, self.d_ff,
               self.max_len, self.vocab_size, self.num_classes) < 1:
            raise InputError("all encoder dimensions must be positive")
        if self.d_model % self.num_heads != 0:
            raise InputError(f"d_model {self.d_model} not divisible by "
                             f"num_heads {self.num_heads}")
        if not 0 <= self.dropout < 1:
            raise InputError("dropout must be in [0, 1)")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-5
    epochs: int = 3
    batch_size: int = 8
    weight_decay: float = 0.01
    warmup_steps: int = 500
    seed: int = 0
    precision: str = "single"            # "single" | "double"
    lr_constant_after_warmup: bool = False

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise InputError("learning_rate, batch_size must be positive; epochs >= 0")
        if self.warmup_steps < 0 or self.weight_decay < 0:
            raise InputError("warmup_steps and weight_decay must be >= 0")
        if self.precision not in ("single", "double"):
            raise InputError("precision must be 'single' or 'double'")


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
    specs += [("head.w", (D, cfg.num_classes), "normal"),
              ("head.b", (cfg.num_classes,), "zeros")]
    return specs


def init_params(cfg: EncoderConfig, seed: int, dtype=np.float64) -> dict[str, np.ndarray]:
    """Seeded initialization: N(0, 0.02) matrices, zero biases, unit layer
    norm gains.  Key order is the canonical tensor order for serialization."""
    rng = np.random.Generator(np.random.PCG64(seed))
    p: dict[str, np.ndarray] = {}
    for name, shape, init in _param_specs(cfg):
        if init == "normal":
            p[name] = rng.normal(0.0, INIT_STD, size=shape).astype(dtype)
        else:
            p[name] = (np.ones if init == "ones" else np.zeros)(shape, dtype=dtype)
    return p


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0))) + x * phi


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _layer_norm(z: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    mu = z.mean(axis=-1, keepdims=True)
    zc = z - mu
    var = (zc * zc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = zc * inv
    return gain * xhat + bias, (xhat, inv)


def _layer_norm_backward(dout: np.ndarray, cache, gain: np.ndarray):
    xhat, inv = cache
    dgain = (dout * xhat).sum(axis=(0, 1))
    dbias = dout.sum(axis=(0, 1))
    dxhat = dout * gain
    dz = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dz, dgain, dbias


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    b, l, d = x.shape
    return x.reshape(b, l, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def _dropout(x: np.ndarray, rate: float, train_mode: bool, rng, max_len: int):
    """The keep mask is drawn at [B, max_len, D] and cut to x's length, so a
    batch trimmed of padding draws the same numbers as an untrimmed one."""
    if not train_mode or rate == 0.0:
        return x, None
    b, l, d = x.shape
    keep = (rng.random((b, max_len, d)) >= rate)[:, :l].astype(x.dtype)
    return x * keep / (1.0 - rate), keep


def _dropout_backward(dout: np.ndarray, keep, rate: float) -> np.ndarray:
    if keep is None:
        return dout
    return dout * keep / (1.0 - rate)


def batch_arrays(batch: list[Encoding]) -> tuple[np.ndarray, np.ndarray]:
    ids = np.asarray([e.ids for e in batch], dtype=np.int64)
    mask = np.asarray([e.attention_mask for e in batch], dtype=np.int64)
    return ids, mask


def _trim(ids: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut a batch to its longest real sequence.  Positions past it are PAD
    in every row: masked as keys, they change no real position's output,
    and their gradients are exact zeros."""
    length = int(mask.sum(axis=1).max())
    return ids[:, :length], mask[:, :length]


def forward_arrays(params: dict, cfg: EncoderConfig, ids: np.ndarray,
                   mask: np.ndarray, train_mode: bool = False, rng=None):
    """Forward pass on id/mask arrays [B, L]; returns (logits, cache).

    L may be smaller than cfg.max_len (position rows beyond L are unused);
    PAD positions are excluded from attention via the key mask.
    """
    if ids.max(initial=0) >= cfg.vocab_size or ids.min(initial=0) < 0:
        raise InputError("token id outside vocabulary range")
    if train_mode and cfg.dropout > 0 and rng is None:
        raise InputError("train-mode forward with dropout needs an rng")
    B, L = ids.shape
    H = cfg.num_heads
    scale = 1.0 / math.sqrt(cfg.d_model // H)

    x = params["token_embedding"][ids] + params["position_embedding"][:L]
    key_mask = mask[:, None, None, :].astype(bool)           # [B,1,1,L]
    cache = {"ids": ids, "mask": mask, "x0": x, "layers": []}

    for i in range(cfg.num_layers):
        pre = f"layers.{i}."
        lc = {"x_in": x}
        q = x @ params[pre + "attn.q_w"] + params[pre + "attn.q_b"]
        k = x @ params[pre + "attn.k_w"] + params[pre + "attn.k_b"]
        v = x @ params[pre + "attn.v_w"] + params[pre + "attn.v_b"]
        qh, kh, vh = (_split_heads(t, H) for t in (q, k, v))
        scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale
        scores = np.where(key_mask, scores, -np.inf)
        attn = _softmax(scores)                               # [B,H,L,L]
        ctx = _merge_heads(attn @ vh)                         # [B,L,D]
        o = ctx @ params[pre + "attn.o_w"] + params[pre + "attn.o_b"]
        od, keep_o = _dropout(o, cfg.dropout, train_mode, rng, cfg.max_len)
        x1, ln1 = _layer_norm(x + od, params[pre + "norm1.gain"],
                              params[pre + "norm1.bias"])

        h = x1 @ params[pre + "ffn.w1"] + params[pre + "ffn.b1"]
        g = _gelu(h)
        f = g @ params[pre + "ffn.w2"] + params[pre + "ffn.b2"]
        fd, keep_f = _dropout(f, cfg.dropout, train_mode, rng, cfg.max_len)
        x2, ln2 = _layer_norm(x1 + fd, params[pre + "norm2.gain"],
                              params[pre + "norm2.bias"])

        lc.update(qh=qh, kh=kh, vh=vh, attn=attn, ctx=ctx, keep_o=keep_o,
                  ln1=ln1, x1=x1, h=h, g=g, keep_f=keep_f, ln2=ln2)
        cache["layers"].append(lc)
        x = x2

    logits = x[:, 0, :] @ params["head.w"] + params["head.b"]
    cache["x_final"] = x
    if not np.all(np.isfinite(logits)):
        raise TrainingError("non-finite activations in forward pass")
    return logits, cache


def forward(params: dict, cfg: EncoderConfig, batch: list[Encoding],
            train_mode: bool = False, seed: int = 0):
    """Encoding-list wrapper around forward_arrays."""
    ids, mask = batch_arrays(batch)
    rng = np.random.Generator(np.random.PCG64(seed)) if train_mode else None
    return forward_arrays(params, cfg, ids, mask, train_mode, rng)


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


def backward_arrays(params: dict, cfg: EncoderConfig, cache: dict,
                    dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients for every parameter, mirroring forward_arrays."""
    H = cfg.num_heads
    scale = 1.0 / math.sqrt(cfg.d_model // H)
    grads = {key: np.zeros_like(val) for key, val in params.items()}

    x_final = cache["x_final"]
    grads["head.w"] = x_final[:, 0, :].T @ dlogits
    grads["head.b"] = dlogits.sum(axis=0)
    dx = np.zeros_like(x_final)
    dx[:, 0, :] = dlogits @ params["head.w"].T

    for i in reversed(range(cfg.num_layers)):
        pre = f"layers.{i}."
        lc = cache["layers"][i]
        x_in, x1 = lc["x_in"], lc["x1"]
        D, F = cfg.d_model, cfg.d_ff

        dr2, dgain2, dbias2 = _layer_norm_backward(dx, lc["ln2"],
                                                   params[pre + "norm2.gain"])
        grads[pre + "norm2.gain"] = dgain2
        grads[pre + "norm2.bias"] = dbias2
        dx1 = dr2.copy()
        df = _dropout_backward(dr2, lc["keep_f"], cfg.dropout)
        dg = df @ params[pre + "ffn.w2"].T
        grads[pre + "ffn.w2"] = lc["g"].reshape(-1, F).T @ df.reshape(-1, D)
        grads[pre + "ffn.b2"] = df.sum(axis=(0, 1))
        dh = dg * _gelu_grad(lc["h"])
        dx1 += dh @ params[pre + "ffn.w1"].T
        grads[pre + "ffn.w1"] = x1.reshape(-1, D).T @ dh.reshape(-1, F)
        grads[pre + "ffn.b1"] = dh.sum(axis=(0, 1))

        dr1, dgain1, dbias1 = _layer_norm_backward(dx1, lc["ln1"],
                                                   params[pre + "norm1.gain"])
        grads[pre + "norm1.gain"] = dgain1
        grads[pre + "norm1.bias"] = dbias1
        dx = dr1.copy()
        do = _dropout_backward(dr1, lc["keep_o"], cfg.dropout)
        dctx = do @ params[pre + "attn.o_w"].T
        grads[pre + "attn.o_w"] = lc["ctx"].reshape(-1, D).T @ do.reshape(-1, D)
        grads[pre + "attn.o_b"] = do.sum(axis=(0, 1))

        dctx_h = _split_heads(dctx, H)                        # [B,H,L,dh]
        attn, qh, kh, vh = lc["attn"], lc["qh"], lc["kh"], lc["vh"]
        dattn = dctx_h @ vh.transpose(0, 1, 3, 2)             # [B,H,L,L]
        dvh = attn.transpose(0, 1, 3, 2) @ dctx_h
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dscores *= scale
        dqh = dscores @ kh
        dkh = dscores.transpose(0, 1, 3, 2) @ qh
        dq, dk, dv = (_merge_heads(t) for t in (dqh, dkh, dvh))

        x_in_flat = x_in.reshape(-1, D)
        for name, dt in (("q", dq), ("k", dk), ("v", dv)):
            grads[pre + f"attn.{name}_w"] = x_in_flat.T @ dt.reshape(-1, D)
            grads[pre + f"attn.{name}_b"] = dt.sum(axis=(0, 1))
            dx += dt @ params[pre + f"attn.{name}_w"].T

    ids = cache["ids"]
    L = ids.shape[1]
    np.add.at(grads["token_embedding"], ids.reshape(-1),
              dx.reshape(-1, cfg.d_model))
    grads["position_embedding"][:L] = dx.sum(axis=0)
    return grads


def loss_and_grads(params: dict, cfg: EncoderConfig, batch: list[Encoding],
                   labels: list[SentimentLabel], train_mode: bool = False,
                   seed: int = 0) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch plus exact gradients."""
    if len(batch) != len(labels):
        raise InputError("batch and labels must have equal length")
    ids, mask = batch_arrays(batch)
    y = np.asarray([int(l) for l in labels], dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(seed)) if train_mode else None
    return _loss_and_grads_arrays(params, cfg, ids, mask, y, train_mode, rng)


def _loss_and_grads_arrays(params, cfg, ids, mask, y, train_mode, rng):
    logits, cache = forward_arrays(params, cfg, ids, mask, train_mode, rng)
    loss, dlogits = cross_entropy(logits, y)
    if not math.isfinite(loss):
        raise TrainingError("non-finite loss")
    grads = backward_arrays(params, cfg, cache, dlogits.astype(logits.dtype))
    return loss, grads


def lr_schedule(step: int, tc: TrainConfig, total_steps: int) -> float:
    """Linear warmup to the peak rate, then linear decay to zero at
    total_steps (or flat, when configured).  Warmup-only when the run is
    shorter than the warmup."""
    if step < 0 or (total_steps and step > total_steps):
        raise InputError(f"step {step} outside [0, {total_steps}]")
    if tc.warmup_steps > 0 and step < tc.warmup_steps:
        return tc.learning_rate * step / tc.warmup_steps
    if tc.lr_constant_after_warmup or total_steps <= tc.warmup_steps:
        return tc.learning_rate
    span = total_steps - tc.warmup_steps
    return tc.learning_rate * (total_steps - step) / span


def adamw_init(params: dict) -> dict:
    return {"t": 0,
            "m": {k: np.zeros_like(v) for k, v in params.items()},
            "v": {k: np.zeros_like(v) for k, v in params.items()}}


def adamw_step(params: dict, grads: dict, state: dict, tc: TrainConfig,
               lr: float) -> None:
    """In-place AdamW update.  Weight decay is decoupled (p -= lr*wd*p) and
    applies only to matrices; biases and layer-norm vectors (ndim 1) are
    exempt."""
    state["t"] += 1
    t = state["t"]
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for key, p in params.items():
        g = grads[key]
        m = state["m"][key]
        v = state["v"][key]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        if not np.all(np.isfinite(update)):
            raise TrainingError(f"non-finite optimizer update for {key}")
        p -= lr * update
        if tc.weight_decay > 0 and p.ndim >= 2:
            p -= lr * tc.weight_decay * p


@dataclass
class TrainResult:
    final_params: dict[str, np.ndarray]
    best_params: dict[str, np.ndarray]
    best_epoch: int
    log: list[dict] = field(default_factory=list)


def train(train_texts: list[str], train_labels: list[SentimentLabel],
          val_texts: list[str], val_labels: list[SentimentLabel],
          vocab: Vocabulary, tok_cfg: TokenizerConfig,
          cfg: EncoderConfig, tc: TrainConfig) -> TrainResult:
    """Supervised training loop.

    Per epoch: seeded reshuffle, minibatch AdamW with the warmup/decay
    schedule, mean train loss recorded; when a validation set is given the
    weighted F1 is logged and the best-epoch parameters are retained
    alongside the final ones.
    """
    if not train_texts:
        raise InputError("training split is empty")
    dtype = np.float32 if tc.precision == "single" else np.float64
    params = {k: v.astype(dtype) for k, v in init_params(cfg, tc.seed).items()}
    if tc.epochs == 0:
        return TrainResult(params, _copy_params(params), 0, [])

    enc = [encode(t, vocab, tok_cfg) for t in train_texts]
    ids_all, mask_all = batch_arrays(enc)
    y_all = np.asarray([int(l) for l in train_labels], dtype=np.int64)
    n = len(enc)
    steps_per_epoch = math.ceil(n / tc.batch_size)
    total_steps = tc.epochs * steps_per_epoch

    state = adamw_init(params)
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
        for start in range(0, n, tc.batch_size):
            sel = order[start:start + tc.batch_size]
            step += 1
            lr = lr_schedule(step, tc, total_steps)
            ids, mask = _trim(ids_all[sel], mask_all[sel])
            loss, grads = _loss_and_grads_arrays(
                params, cfg, ids, mask, y_all[sel], train_mode=True, rng=drop_rng)
            if not math.isfinite(loss):
                raise TrainingError(f"training diverged at step {step}")
            adamw_step(params, grads, state, tc, lr)
            epoch_loss += loss * len(sel)
        entry = {"epoch": epoch, "train_loss": epoch_loss / n}
        if val_texts:
            preds = [label for label, _ in
                     predict(params, cfg, vocab, tok_cfg, val_texts)]
            entry["val_weighted_f1"] = evaluate(val_labels, preds).weighted_f1
            if entry["val_weighted_f1"] > best_f1:
                best_f1 = entry["val_weighted_f1"]
                best_epoch = epoch
                best_params = _copy_params(params)
        log.append(entry)

    if best_params is None:
        best_params = _copy_params(params)
        best_epoch = tc.epochs
    return TrainResult(params, best_params, best_epoch, log)


def _copy_params(params: dict) -> dict:
    return {k: v.copy() for k, v in params.items()}


def predict(params: dict, cfg: EncoderConfig, vocab: Vocabulary,
            tok_cfg: TokenizerConfig, texts: list[str], batch_size: int = 64
            ) -> list[tuple[SentimentLabel, np.ndarray]]:
    """Eval-mode prediction: softmax probabilities and argmax label
    (lowest label id on exact ties)."""
    out = []
    for start in range(0, len(texts), batch_size):
        chunk = texts[start:start + batch_size]
        enc = [encode(t, vocab, tok_cfg) for t in chunk]
        ids, mask = _trim(*batch_arrays(enc))
        logits, _ = forward_arrays(params, cfg, ids, mask, train_mode=False)
        probs = _softmax(logits.astype(np.float64))
        for row in probs:
            out.append((SentimentLabel(int(np.argmax(row))), row))
    return out


# --- serialization ---------------------------------------------------------

def save_transformer(path: str | Path, params: dict, cfg: EncoderConfig,
                     tc: TrainConfig, tok_cfg: TokenizerConfig,
                     vocab_ref: dict | None = None) -> None:
    """Single file: one JSON header line, then all tensors as little-endian
    float32 in the header's order with explicit shapes and byte offsets.
    The header records tok_cfg.max_word_chars; its max_len is the encoder's."""
    tensors = []
    offset = 0
    payloads = []
    for name, arr in params.items():
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        tensors.append({"name": name, "shape": list(arr.shape),
                        "offset": offset, "nbytes": len(data)})
        payloads.append(data)
        offset += len(data)
    header = {
        "format_version": 1,
        "kind": "transformer",
        "encoder_config": asdict(cfg),
        "train_config": asdict(tc),
        "max_word_chars": tok_cfg.max_word_chars,
        "vocab_ref": vocab_ref,
        "tensors": tensors,
    }
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for data in payloads:
            fh.write(data)


def load_transformer(path: str | Path):
    """Returns (params, EncoderConfig, TrainConfig, vocab_ref, TokenizerConfig).

    Every tensor spec must name the tensor and shape that the encoder config
    implies, in order, and lie inside the file; a header without
    max_word_chars gets the default."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"model file not found: {path}")
    with path.open("rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise InputError(f"{path}: bad transformer header: {e}") from None
        if not isinstance(header, dict) or header.get("kind") != "transformer":
            raise InputError(f"{path} is not a transformer model file")
        payload = fh.read()
    try:
        cfg = EncoderConfig(**header["encoder_config"])
        tc = TrainConfig(**header["train_config"])
        tok_cfg = TokenizerConfig(
            max_len=cfg.max_len,
            max_word_chars=header.get("max_word_chars",
                                      TokenizerConfig.max_word_chars))
        specs = list(header["tensors"])
    except (KeyError, TypeError) as e:
        raise InputError(f"{path}: bad transformer header: {e!r}") from None

    expected = _param_specs(cfg)
    if len(specs) != len(expected):
        raise InputError(f"{path}: header lists {len(specs)} tensors, the "
                         f"encoder config needs {len(expected)}")
    params = {}
    for spec, (name, shape, _) in zip(specs, expected):
        try:
            got = (spec["name"], tuple(spec["shape"]))
            start, nbytes = int(spec["offset"]), int(spec["nbytes"])
        except (KeyError, TypeError, ValueError):
            raise InputError(f"{path}: malformed tensor spec {spec!r}") from None
        if got != (name, shape):
            raise InputError(f"{path}: tensor {got[0]} {list(got[1])} does not "
                             f"match the encoder config's {name} {list(shape)}")
        count = math.prod(shape)
        if nbytes != 4 * count:
            raise InputError(f"{path}: tensor {name} has {nbytes} bytes, its "
                             f"shape needs {4 * count}")
        if start < 0 or start + nbytes > len(payload):
            raise InputError(f"{path}: tensor {name} lies outside the "
                             f"{len(payload)}-byte payload (file truncated?)")
        flat = np.frombuffer(payload, dtype="<f4", count=count, offset=start)
        params[name] = flat.reshape(shape).copy()
    return params, cfg, tc, header.get("vocab_ref"), tok_cfg
