import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from mixsent import modelfile
from mixsent.corpus import SentimentLabel
from mixsent.errors import InputError, TrainingError
from mixsent.metrics import evaluate
from mixsent.tokenizer import CLS_ID, PAD_ID, SEP_ID, Vocabulary, encode
from mixsent.transformer import (EVAL_BUDGET, EncoderConfig, TrainConfig,
                                 adamw_init, adamw_step, cross_entropy,
                                 forward_arrays,
                                 init_params, load_transformer,
                                 loss_and_grads, lr_schedule, predict,
                                 save_transformer, train, _dropout, _erf,
                                 _eval_batches, _layer_norm, _pad,
                                 _predict_rows, _views)

from transformer_reference import (backward_reference, forward_reference,
                                   padded_forward)

TINY = EncoderConfig(num_layers=1, num_heads=2, d_model=8, d_ff=16, dropout=0.0,
                     max_len=12, vocab_size=20)
TINY_2 = dataclasses.replace(TINY, num_layers=2)
TINY_VOCAB = Vocabulary.from_pieces([f"w{i}" for i in range(TINY.vocab_size - 4)])


def row(ids_core):
    """An encoded text: [CLS] + ids_core + [SEP]."""
    return [CLS_ID] + list(ids_core) + [SEP_ID]


def padded(rows, length):
    """ids / mask arrays with every row PAD-filled by hand to length."""
    ids = np.array([r + [PAD_ID] * (length - len(r)) for r in rows], dtype=np.int64)
    mask = np.array([[1] * len(r) + [0] * (length - len(r)) for r in rows],
                    dtype=np.int64)
    return ids, mask


class TestInitAndForward:
    def test_init_deterministic_and_shaped(self):
        a = init_params(TINY, seed=1)
        np.testing.assert_array_equal(a, init_params(TINY, seed=1))
        views = _views(a, TINY)
        assert a.ndim == 1 and a.size == sum(v.size for v in views.values())
        assert views["token_embedding"].shape == (20, 8)
        assert views["layers.0.ffn.w1"].shape == (8, 16)
        assert views["head.w"].shape == (8, 3)
        np.testing.assert_array_equal(views["layers.0.norm1.gain"], 1.0)
        np.testing.assert_array_equal(views["layers.0.norm1.bias"], 0.0)
        # Drawn tensor by tensor, in layout order, from one generator.
        rng = np.random.Generator(np.random.PCG64(1))
        np.testing.assert_array_equal(views["token_embedding"],
                                      rng.normal(0.0, 0.02, size=(20, 8)))
        np.testing.assert_array_equal(views["position_embedding"],
                                      rng.normal(0.0, 0.02, size=(12, 8)))

    def test_views_share_the_flat_array(self):
        params = init_params(TINY, seed=1)
        views = _views(params, TINY)
        assert list(views)[0] == "token_embedding" and list(views)[-1] == "head.b"
        assert all(np.shares_memory(v, params) for v in views.values())
        views["head.b"][:] = 7.0
        np.testing.assert_array_equal(params[-3:], 7.0)

    def test_attention_rows_sum_to_one_over_unmasked(self):
        params = init_params(TINY, seed=2)
        r = row([5, 6, 7])
        _, cache = forward_arrays(params, TINY, *padded([r], TINY.max_len),
                                  keep_cache=True)
        attn = cache["layers"][0]["attn"]          # [B,H,L,L]
        sums = attn.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        assert np.all(attn[..., len(r):] == 0.0)

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_logits_match_all_positions_reference(self, num_layers, dtype, atol):
        """Computing only the [CLS] row in the last block gives the logits of
        every block run on every position, up to summation order."""
        cfg = dataclasses.replace(TestPaddingTrim.CFG, num_layers=num_layers)
        params = init_params(cfg, seed=15, dtype=dtype)
        for v in _views(params, cfg).values():
            if v.ndim >= 2:
                v *= 5.0
        rng = np.random.default_rng(5)
        batch = _pad([row(rng.integers(4, cfg.vocab_size, size=n).tolist())
                      for n in (9, 0, 4, 22, 1)])
        logits, _ = forward_arrays(params, cfg, *batch)
        reference = forward_reference(params, cfg, *batch)
        assert logits.dtype == reference.dtype == dtype
        np.testing.assert_allclose(logits, reference, rtol=0, atol=atol)

    def test_last_block_attends_from_cls_only(self):
        """Earlier blocks attend from every position; the last block's
        queries are the [CLS] row alone, over every key."""
        cfg = TestPaddingTrim.CFG
        params = init_params(cfg, seed=2)
        ids, mask = _pad([row([4, 5, 6]), row([7])])
        _, cache = forward_arrays(params, cfg, ids, mask, keep_cache=True)
        (B, L), H = ids.shape, cfg.num_heads
        assert cache["layers"][0]["attn"].shape == (B, H, L, L)
        assert cache["layers"][-1]["attn"].shape == (B, H, 1, L)
        assert cache["x_final"].shape == (B, 1, cfg.d_model)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cache_does_not_change_logits(self, dtype):
        cfg = TestPaddingTrim.CFG
        params = init_params(cfg, seed=2, dtype=dtype)
        batch = _pad([row([4, 5, 6]), row([7]), row(list(range(8, 30)))])
        plain, no_cache = forward_arrays(params, cfg, *batch)
        cached, cache = forward_arrays(params, cfg, *batch, keep_cache=True)
        assert no_cache is None and len(cache["layers"]) == cfg.num_layers
        assert plain.dtype == dtype
        np.testing.assert_array_equal(plain, cached)

    def test_eval_forward_peak_memory(self):
        """Without a cache, an eval forward at B=64, L=128 on the default
        encoder peaks under four [B, H, L, L] float32 score buffers."""
        cfg = EncoderConfig()
        params = init_params(cfg, seed=0, dtype=np.float32)
        ids = np.random.default_rng(0).integers(4, cfg.vocab_size, size=(64, 128))
        mask = np.ones_like(ids)
        tracemalloc.start()
        try:
            forward_arrays(params, cfg, ids, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * (64 * cfg.num_heads * 128 * 128) * 4

    def test_predict_peak_memory_does_not_grow_with_rows(self):
        """Eval batches are sized by EVAL_BUDGET, not by row count: 256 rows
        of max_len peak within 1.2 times what 16 such rows do."""
        cfg = EncoderConfig()
        params = init_params(cfg, seed=0, dtype=np.float32)
        rng = np.random.default_rng(0)
        peaks = []
        for n in (16, 256):
            rows = [row(rng.integers(4, cfg.vocab_size, size=cfg.max_len - 2).tolist())
                    for _ in range(n)]
            tracemalloc.start()
            try:
                _predict_rows(params, cfg, rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0]

    def test_identical_inputs_identical_logits(self):
        params = init_params(TINY, seed=3)
        r = row([4, 9])
        logits, _ = forward_arrays(params, TINY, *padded([r, r], TINY.max_len))
        np.testing.assert_array_equal(logits[0], logits[1])

    def test_zero_position_embeddings_make_logits_permutation_invariant(self):
        params = init_params(TINY, seed=4)
        _views(params, TINY)["position_embedding"][:] = 0.0
        a = padded([row([5, 6, 7, 8])], TINY.max_len)
        b = padded([row([7, 5, 8, 6])], TINY.max_len)
        la, _ = forward_arrays(params, TINY, *a)
        lb, _ = forward_arrays(params, TINY, *b)
        np.testing.assert_allclose(la, lb, atol=1e-12)

    def test_pad_token_ids_do_not_affect_logits(self):
        params = init_params(TINY, seed=5)
        r = row([4, 5])
        ids, mask = padded([r], TINY.max_len)
        base, _ = forward_arrays(params, TINY, ids, mask)
        ids2 = ids.copy()
        ids2[0, len(r):] = 17  # garbage in the padding
        alt, _ = forward_arrays(params, TINY, ids2, mask)
        np.testing.assert_allclose(base, alt, atol=1e-12)

    def test_pad_extension_invariance(self):
        params = init_params(TINY, seed=6)
        r = row([4, 5, 6])
        unpadded, _ = forward_arrays(params, TINY, *_pad([r]))
        for length in (7, TINY.max_len):
            logits, _ = forward_arrays(params, TINY, *padded([r], length))
            np.testing.assert_allclose(logits, unpadded, atol=1e-12)

    def test_out_of_range_id_rejected(self):
        params = init_params(TINY, seed=0)
        with pytest.raises(InputError):
            forward_arrays(params, TINY, *_pad([row([TINY.vocab_size])]))

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(0)
        z = rng.normal(2.0, 3.0, size=(4, 6, 32))
        out, (xhat, _) = _layer_norm(z, np.ones(32), np.zeros(32))
        np.testing.assert_allclose(xhat.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(xhat.var(axis=-1), 1.0, atol=1e-4)
        np.testing.assert_array_equal(out, xhat)


class TestErf:
    @staticmethod
    def grid(dtype):
        """±0, ±1, ±8 and their float neighbours in dtype (the branch
        edges), ±30, a sweep across [-10, 10], and ±inf and NaN."""
        edges = np.array([0.0, 1.0, 8.0], dtype=dtype)
        pts = [edges, np.nextafter(edges, dtype(np.inf)),
               np.nextafter(edges, dtype(-np.inf)),
               np.array([30.0], dtype=dtype),
               np.linspace(0.0, 10.0, 1001, dtype=dtype)]
        half = np.concatenate(pts)
        return np.concatenate([half, -half, np.array([np.inf, -np.inf, np.nan],
                                                     dtype=dtype)])

    @staticmethod
    def math_erf(x):
        return np.array([math.erf(float(v)) for v in x])

    def test_float32_matches_rounded_math_erf(self):
        x = self.grid(np.float32)
        out = _erf(x)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, self.math_erf(x).astype(np.float32))

    def test_float64_within_4_ulp_of_math_erf(self):
        x = self.grid(np.float64)
        out, ref = _erf(x), self.math_erf(x)
        assert out.dtype == np.float64
        finite = ~np.isnan(ref)
        np.testing.assert_array_equal(np.isnan(out), ~finite)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))
        ulps = np.abs(out[finite].view(np.int64) - ref[finite].view(np.int64))
        assert ulps.max() <= 4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_infinities_and_nan_without_warnings(self, dtype):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _erf(np.array([np.inf, -np.inf, np.nan, -0.0], dtype=dtype))
        np.testing.assert_array_equal(out[:2], [1.0, -1.0])
        assert np.isnan(out[2])
        assert out[3] == 0.0 and np.signbit(out[3])

    def test_shapes_kept(self):
        assert _erf(np.zeros((0, 3), dtype=np.float32)).shape == (0, 3)
        rng = np.random.default_rng(0)
        # More elements than one block, with both branches in every block.
        x = rng.normal(0.0, 2.0, size=(7, 40, 100)).astype(np.float32)
        xt = x.transpose(2, 0, 1)
        assert not xt.flags.c_contiguous
        out = _erf(xt)
        assert out.shape == (100, 7, 40)
        np.testing.assert_array_equal(out, _erf(np.ascontiguousarray(xt)))
        picked = xt[::7, 3]                      # rows from every block
        expected = self.math_erf(picked.ravel()).astype(np.float32)
        np.testing.assert_array_equal(out[::7, 3], expected.reshape(picked.shape))


class TestLossAndGradients:
    def test_zero_head_loss_is_ln3(self):
        params = init_params(TINY, seed=7)
        _views(params, TINY)["head.w"][:] = 0.0
        batch = padded([row([4, 5]), row([9])], TINY.max_len)
        labels = np.array([SentimentLabel.NEGATIVE, SentimentLabel.POSITIVE])
        loss, _ = loss_and_grads(params, TINY, *batch, labels)
        assert abs(loss - math.log(3)) < 1e-12

    def test_duplicated_batch_keeps_mean_loss(self):
        params = init_params(TINY, seed=8)
        rows = [row([4, 5]), row([6, 7, 8])]
        labels = [SentimentLabel.NEUTRAL, SentimentLabel.POSITIVE]
        loss_once, _ = loss_and_grads(params, TINY, *padded(rows, TINY.max_len),
                                      np.array(labels))
        loss_twice, _ = loss_and_grads(params, TINY,
                                       *padded(rows * 2, TINY.max_len),
                                       np.array(labels * 2))
        assert abs(loss_once - loss_twice) < 1e-12

    @pytest.mark.parametrize("cfg", [TINY, TINY_2], ids=["1-layer", "2-layer"])
    def test_gradcheck_all_parameter_groups(self, cfg):
        """Backprop vs central finite differences at double precision.

        With two layers the first block runs on every position and the last
        on [CLS] alone, so both backward paths and the scatter from the last
        into the first are checked.  Matrices are scaled up so attention is
        non-degenerate; the denominator floor covers entries whose true
        gradient is ~0 (the key bias is exactly softmax-invariant).
        """
        params = init_params(cfg, seed=9)
        for v in _views(params, cfg).values():
            if v.ndim >= 2:
                v *= 20.0
        rng = np.random.default_rng(1)
        batch = padded([row(rng.integers(4, cfg.vocab_size, size=n).tolist())
                        for n in (6, 3, 1)], cfg.max_len)
        labels = np.array([0, 2, 1])
        _, grads = loss_and_grads(params, cfg, *batch, labels)

        h = 1e-5
        fd = np.zeros_like(params)
        for i in range(params.size):
            orig = params[i]
            params[i] = orig + h
            lp, _ = loss_and_grads(params, cfg, *batch, labels)
            params[i] = orig - h
            lm, _ = loss_and_grads(params, cfg, *batch, labels)
            params[i] = orig
            fd[i] = (lp - lm) / (2 * h)
        rel = np.abs(fd - grads) / np.maximum(1e-6, np.abs(fd) + np.abs(grads))
        failing = {key: r.max() for key, r in _views(rel, cfg).items()
                   if r.max() >= 1e-4}
        assert failing == {}

    @staticmethod
    def packing_case(dtype, num_layers, dropout, full=False):
        """An encoder, scaled-up parameters so attention is far from uniform,
        and a batch with rows of length 1 up to max_len, PAD and repeated
        token ids (with full, every row max_len long and no PAD)."""
        cfg = EncoderConfig(num_layers=num_layers, num_heads=2, d_model=16,
                            d_ff=32, dropout=dropout, max_len=24, vocab_size=9)
        params = init_params(cfg, seed=11, dtype=dtype)
        for v in _views(params, cfg).values():
            if v.ndim >= 2:
                v *= 20.0
        rng = np.random.default_rng(num_layers)
        lengths = [cfg.max_len - 2] * 3 if full else [17, 3, 0, cfg.max_len - 2, 9]
        rows = [row(rng.integers(4, cfg.vocab_size, size=n).tolist())
                for n in lengths]
        if not full:
            rows.insert(0, [CLS_ID])
        ids, mask = _pad(rows)
        return cfg, params, ids, mask, np.arange(len(rows)) % 3

    @pytest.mark.parametrize("full", [False, True], ids=["padded", "full"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_packed_forward_equals_padded(self, dtype, num_layers, dropout, full):
        """Running the position-wise layers on packed rows changes no bit of
        the eval logits, the training loss, the dropout masks or where the
        generator is left."""
        cfg, params, ids, mask, y = self.packing_case(dtype, num_layers, dropout,
                                                      full)
        np.testing.assert_array_equal(forward_arrays(params, cfg, ids, mask)[0],
                                      padded_forward(params, cfg, ids, mask)[0])
        gen, ref_gen = (np.random.Generator(np.random.PCG64(6)) for _ in range(2))
        logits, cache = forward_arrays(params, cfg, ids, mask, gen, keep_cache=True)
        ref_logits, ref_cache = padded_forward(params, cfg, ids, mask, ref_gen)
        assert logits.dtype == dtype
        np.testing.assert_array_equal(logits, ref_logits)
        assert cross_entropy(logits, y)[0] == cross_entropy(ref_logits, y)[0]
        assert gen.bit_generator.state == ref_gen.bit_generator.state
        real = mask == 1
        for i, (saved, ref) in enumerate(zip(cache["layers"], ref_cache["layers"])):
            for key in ("keep_o", "keep_f"):
                if dropout == 0.0:
                    assert saved[key] is None and ref[key] is None
                elif i == num_layers - 1:
                    np.testing.assert_array_equal(saved[key], ref[key])
                else:
                    np.testing.assert_array_equal(saved[key], ref[key][real])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_grads_equal_backward_reference(self, dtype, num_layers, dropout):
        """backward_arrays, which frees the packed cache as it goes and works
        in place, gives the padded reference's gradients up to the order in
        which BLAS sums T rows rather than B * L, with PAD in the batch or
        not."""
        for full in (False, True):
            cfg, params, ids, mask, y = self.packing_case(dtype, num_layers,
                                                          dropout, full)
            loss, grads = loss_and_grads(params, cfg, ids, mask, y,
                                         np.random.Generator(np.random.PCG64(6)))
            logits, cache = padded_forward(params, cfg, ids, mask,
                                           np.random.Generator(np.random.PCG64(6)))
            ref_loss, dlogits = cross_entropy(logits, y)
            ref = backward_reference(params, cfg, cache, dlogits.astype(dtype))
            assert loss == ref_loss
            assert grads.dtype == ref.dtype == dtype
            tol = 1e-6 if dtype == np.float32 else 1e-12
            np.testing.assert_allclose(grads, ref, rtol=0,
                                       atol=tol * np.abs(ref).max())

    def test_cache_holds_packed_rows(self):
        """Below the last block the cached activations have one row per real
        token, not B * L."""
        cfg, params, ids, mask, y = self.packing_case(np.float64, 2, 0.3)
        _, cache = forward_arrays(params, cfg, ids, mask,
                                  np.random.Generator(np.random.PCG64(6)),
                                  keep_cache=True)
        T, (B, L) = int(mask.sum()), ids.shape
        assert T < B * L
        layer0 = cache["layers"][0]
        for key in ("x_in", "x_q", "ctx", "x1", "h", "cdf2", "keep_o", "keep_f"):
            assert layer0[key].shape[0] == T, key
        assert layer0["ln1"][0].shape == layer0["ln2"][0].shape == (T, cfg.d_model)
        assert layer0["attn"].shape == (B, cfg.num_heads, L, L)
        assert cache["ids"].shape == (T,)

    def test_train_step_peak_memory(self):
        """One default-encoder step at B=8, L=128 frees each layer's
        activations as backward passes it: it peaks under ten [B, H, L, L]
        float32 score buffers (holding the whole cache through backward
        took about twelve and a half)."""
        cfg = EncoderConfig()
        params = init_params(cfg, seed=0, dtype=np.float32)
        ids = np.random.default_rng(0).integers(4, cfg.vocab_size, size=(8, 128))
        y = np.arange(8) % 3
        rng = np.random.Generator(np.random.PCG64(1))
        tracemalloc.start()
        try:
            loss_and_grads(params, cfg, ids, np.ones_like(ids), y, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * (8 * cfg.num_heads * 128 * 128) * 4

    def test_cross_entropy_gradient_shape_and_sign(self):
        logits = np.array([[2.0, 0.0, -1.0]])
        loss, dl = cross_entropy(logits, np.array([0]))
        assert dl.shape == logits.shape
        assert dl[0, 0] < 0 < dl[0, 1]
        assert loss == pytest.approx(-math.log(math.exp(2) /
                                               (math.exp(2) + 1 + math.exp(-1))))

    def test_dropout_changes_training_loss_only(self):
        cfg = EncoderConfig(num_layers=1, num_heads=2, d_model=8, d_ff=16,
                            dropout=0.5, max_len=12, vocab_size=20)
        params = init_params(cfg, seed=10)
        batch = padded([row([4, 5, 6])], cfg.max_len)
        labels = np.array([SentimentLabel.NEUTRAL])
        eval_loss, _ = loss_and_grads(params, cfg, *batch, labels)
        eval_loss2, _ = loss_and_grads(params, cfg, *batch, labels)
        train_loss, _ = loss_and_grads(params, cfg, *batch, labels,
                                       rng=np.random.Generator(np.random.PCG64(1)))
        assert eval_loss == eval_loss2
        assert train_loss != eval_loss


class TestDropout:
    @pytest.mark.parametrize("length", [1, 5, 12])
    def test_skip_ahead_matches_draw_and_cut(self, length):
        """Drawing only each row's real positions and skipping the rest
        gives the mask of a [B, max_len, D] draw at those positions, packed,
        and leaves the generator where that draw would."""
        max_len, rate = 12, 0.3
        lengths = np.array([length, 1, max_len])
        x = np.ones((int(lengths.sum()), 8), dtype=np.float32)
        gen = np.random.Generator(np.random.PCG64(7))
        ref = np.random.Generator(np.random.PCG64(7))
        out, keep = _dropout(x, rate, gen, lengths, max_len)
        draw = ref.random((3, max_len, 8)) >= rate
        expected = np.concatenate([draw[b, :n] for b, n in enumerate(lengths)])
        np.testing.assert_array_equal(keep, expected)
        np.testing.assert_array_equal(out, expected / np.float32(1.0 - rate))
        assert keep.dtype == bool and out.dtype == np.float32
        assert gen.bit_generator.state == ref.bit_generator.state


class TestPaddingTrim:
    CFG = EncoderConfig(num_layers=2, num_heads=2, d_model=16, d_ff=32,
                        dropout=0.1, max_len=24, vocab_size=40)

    def test_pad_mixed_lengths(self):
        rows = [row([7, 8, 9]), row([]), row([5])]
        ids, mask = _pad(rows)
        assert ids.dtype == mask.dtype == np.int64
        np.testing.assert_array_equal(ids, [[CLS_ID, 7, 8, 9, SEP_ID],
                                            [CLS_ID, SEP_ID, PAD_ID, PAD_ID, PAD_ID],
                                            [CLS_ID, 5, SEP_ID, PAD_ID, PAD_ID]])
        np.testing.assert_array_equal(mask, [[1, 1, 1, 1, 1],
                                             [1, 1, 0, 0, 0],
                                             [1, 1, 1, 0, 0]])

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_trimmed_batch_matches_full_length(self, dtype, tol):
        """Same loss, gradients and dropout stream whether a mixed-length
        batch is padded to its longest row or to max_len."""
        cfg = self.CFG
        params = init_params(cfg, seed=13, dtype=dtype)
        rng = np.random.default_rng(3)
        rows = [row(rng.integers(4, cfg.vocab_size, size=n).tolist())
                for n in (9, 2, 5, 0)]
        ids, mask = padded(rows, cfg.max_len)
        y = np.array([0, 2, 1, 1])
        short_ids, short_mask = _pad(rows)
        assert short_ids.shape == short_mask.shape == (4, 11)
        np.testing.assert_array_equal(short_ids, ids[:, :11])
        np.testing.assert_array_equal(short_mask, mask[:, :11])

        runs = []
        for a, m in ((ids, mask), (short_ids, short_mask)):
            gen = np.random.Generator(np.random.PCG64(21))
            loss, grads = loss_and_grads(params, cfg, a, m, y, gen)
            runs.append((loss, grads, gen.bit_generator.state))
        (loss_full, g_full, state_full), (loss_short, g_short, state_short) = runs
        assert abs(loss_short - loss_full) <= 1e-6 * abs(loss_full)
        assert g_short.dtype == g_full.dtype == dtype
        np.testing.assert_allclose(g_short, g_full, rtol=tol, atol=tol)
        assert state_short == state_full

    def test_predict_mixed_lengths_matches_single_texts(self, monkeypatch):
        """With a budget small enough for several batches, each text gets
        the label and probabilities it gets alone."""
        import mixsent.transformer as tfm
        vocab = Vocabulary.from_pieces([f"w{i}" for i in range(12)])
        cfg = EncoderConfig(num_layers=1, num_heads=2, d_model=16, d_ff=32,
                            max_len=10, vocab_size=len(vocab))
        params = init_params(cfg, seed=14)
        for v in _views(params, cfg).values():
            if v.ndim >= 2:
                v *= 20.0
        texts = ["w1", "w2 w3 w4 w5 w6 w7 w8", "", "w9 w10", "w11 " * 12]
        texts += [" ".join(f"w{(i + j) % 12}" for j in range(i * 5 % 11))
                  for i in range(64)]
        lengths = [len(t.split()) for t in texts]
        assert lengths != sorted(lengths)
        monkeypatch.setattr(tfm, "EVAL_BUDGET", 16 * 10 * 32)
        assert len(list(_eval_batches([encode(t, vocab, cfg.max_len) for t in texts],
                                      cfg))) > 1
        labels, probs_all = predict(params, cfg, vocab, texts)
        for text, label, probs in zip(texts, labels, probs_all):
            [alone_label], [alone_probs] = predict(params, cfg, vocab, [text])
            assert label == alone_label
            np.testing.assert_allclose(probs, alone_probs, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("cfg", [
        EncoderConfig(num_layers=1, num_heads=2, d_model=32, d_ff=64),
        EncoderConfig(num_heads=8, d_model=64, d_ff=512)])
    def test_eval_batches_fill_the_activation_budget(self, cfg, monkeypatch):
        """Each eval batch is the longest run of length-sorted rows whose
        largest activation, rows * max(H * L^2, L * max(d_model, d_ff)),
        stays within EVAL_BUDGET; a row over budget alone is a batch."""
        import mixsent.transformer as tfm
        rng = np.random.default_rng(5)
        rows = [[CLS_ID] * int(n) for n in rng.integers(2, cfg.max_len + 1, size=300)]
        order = sorted(range(len(rows)), key=lambda i: len(rows[i]))

        def cost(batch):
            longest = max(len(rows[i]) for i in batch)
            return len(batch) * longest * max(cfg.num_heads * longest,
                                               cfg.d_model, cfg.d_ff)

        for budget in (EVAL_BUDGET, 100):
            monkeypatch.setattr(tfm, "EVAL_BUDGET", budget)
            batches = list(_eval_batches(rows, cfg))
            assert [i for batch in batches for i in batch] == order
            start = 0
            for batch in batches:
                start += len(batch)
                assert len(batch) == 1 or cost(batch) <= budget
                assert start == len(rows) or cost(batch + [order[start]]) > budget
        assert all(len(batch) == 1 for batch in batches)


class TestSchedulerAndOptimizer:
    TC = TrainConfig(learning_rate=2e-5, warmup_steps=500)

    def test_warmup_midpoint(self):
        assert lr_schedule(250, self.TC, 2000) == pytest.approx(1e-5)

    def test_peak_at_warmup_end(self):
        assert lr_schedule(500, self.TC, 2000) == 2e-5

    def test_zero_at_total(self):
        assert lr_schedule(2000, self.TC, 2000) == 0.0

    def test_warmup_only_when_run_shorter_than_warmup(self):
        assert lr_schedule(400, self.TC, 400) == pytest.approx(2e-5 * 400 / 500)

    def test_step_out_of_range(self):
        with pytest.raises(InputError):
            lr_schedule(2001, self.TC, 2000)

    def test_zero_grad_zero_decay_is_fixed_point(self):
        params = init_params(TINY, seed=0)
        before = params.copy()
        state = adamw_init(params, TINY)
        tc = TrainConfig(weight_decay=0.0)
        adamw_step(params, np.zeros_like(params), state, tc, lr=0.5)
        np.testing.assert_array_equal(params, before)

    def test_decoupled_decay_multiplies_matrices_only(self):
        params = np.full_like(init_params(TINY, seed=0), 2.0)
        state = adamw_init(params, TINY)
        tc = TrainConfig(weight_decay=0.01)
        adamw_step(params, np.zeros_like(params), state, tc, lr=1.0)
        for key, view in _views(params, TINY).items():
            # biases and layer-norm vectors (1-D) are exempt
            expected = 2.0 * 0.99 if view.ndim >= 2 else 2.0
            np.testing.assert_allclose(view, expected, rtol=1e-15, err_msg=key)

    def test_first_adam_step_magnitude_is_lr(self):
        params = np.zeros_like(init_params(TINY, seed=0))
        state = adamw_init(params, TINY)
        tc = TrainConfig(weight_decay=0.0)
        adamw_step(params, np.ones_like(params), state, tc, lr=0.25)
        np.testing.assert_allclose(params, -0.25, rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_step_matches_per_tensor_reference(self, dtype):
        """The whole-array update equals AdamW run tensor by tensor, bit for
        bit: every element sees the same operations."""
        params = init_params(TINY, seed=0, dtype=dtype)
        ref = {key: v.copy() for key, v in _views(params, TINY).items()}
        moments = {key: [np.zeros_like(v), np.zeros_like(v)] for key, v in ref.items()}
        state = adamw_init(params, TINY)
        tc = TrainConfig(weight_decay=0.01)
        rng = np.random.default_rng(4)
        for t in (1, 2):
            grads = rng.normal(size=params.shape).astype(dtype)
            adamw_step(params, grads, state, tc, lr=1e-2)
            for key, g in _views(grads, TINY).items():
                p, (m, v) = ref[key], moments[key]
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * (g * g)
                p -= 1e-2 * ((m / (1.0 - 0.9 ** t))
                             / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8))
                if p.ndim >= 2:
                    p -= 1e-2 * 0.01 * p
        for key, view in _views(params, TINY).items():
            np.testing.assert_array_equal(view, ref[key], err_msg=key)

    @pytest.mark.parametrize("key, index", [
        ("token_embedding", 0), ("position_embedding", -1),
        ("layers.0.norm1.gain", 0), ("layers.0.ffn.b1", 5), ("head.b", -1)])
    def test_non_finite_update_names_the_first_bad_tensor(self, key, index):
        """The first tensor holding a non-finite update is named, also when
        the bad entry is at either end of the tensor's range."""
        params = init_params(TINY, seed=0)
        grads = np.zeros_like(params)
        views = _views(grads, TINY)
        views[key].reshape(-1)[index] = np.nan
        views["head.b"][-1] = np.nan
        state = adamw_init(params, TINY)
        with pytest.raises(TrainingError, match=rf"update for {re.escape(key)}$"):
            adamw_step(params, grads, state, TrainConfig(), lr=1e-3)

    @pytest.mark.parametrize("key, index", [
        ("layers.0.ffn.w1", 0), ("layers.0.ffn.b1", 5), ("head.b", -1)])
    def test_non_finite_update_past_the_first_block(self, key, index, monkeypatch):
        """Blocks of 64 elements: a bad entry in a later block is named by
        its block's offset plus its index inside the block."""
        import mixsent.transformer as tfm
        monkeypatch.setattr(tfm, "ADAMW_BLOCK", 64)
        params = init_params(TINY, seed=0)
        grads = np.zeros_like(params)
        views = _views(grads, TINY)
        views[key].reshape(-1)[index] = np.nan
        views["head.b"][-1] = np.nan
        state = adamw_init(params, TINY)
        assert len(state["scratch"][0]) == 64
        names = [name for name, _, _ in tfm._param_specs(TINY)]
        sizes = [math.prod(shape) for _, shape, _ in tfm._param_specs(TINY)]
        assert sum(sizes[:names.index(key)]) >= 64
        with pytest.raises(TrainingError, match=rf"update for {re.escape(key)}$"):
            adamw_step(params, grads, state, TrainConfig(), lr=1e-3)

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 15])
    def test_blocked_step_matches_one_block(self, block, monkeypatch):
        """Blocks that cut through tensors (the last one short) give the
        parameters and moments of one whole-array block, bit for bit."""
        import mixsent.transformer as tfm
        rng = np.random.default_rng(6)
        grads = [rng.normal(size=init_params(TINY_2, seed=0).shape).astype(np.float32)
                 for _ in range(3)]
        runs = []
        for size in (block, 1 << 30):
            monkeypatch.setattr(tfm, "ADAMW_BLOCK", size)
            params = init_params(TINY_2, seed=0)
            state = adamw_init(params, TINY_2)
            for t in range(6):
                adamw_step(params, grads[t % 3], state, TrainConfig(weight_decay=0.01),
                           lr=1e-2)
            runs.append((params, state["m"], state["v"]))
        for blocked, whole in zip(*runs):
            np.testing.assert_array_equal(blocked, whole)


class TestTrainLoop:
    VOCAB = Vocabulary.from_pieces([f"w{i}" for i in range(12)])
    CFG = EncoderConfig(num_layers=1, num_heads=2, d_model=16, d_ff=32,
                        dropout=0.0, max_len=8, vocab_size=16)

    def _data(self, n=9):
        rng = np.random.default_rng(2)
        texts = [" ".join(rng.choice([f"w{i}" for i in range(12)], size=3))
                 for _ in range(n)]
        labels = [SentimentLabel(int(l)) for l in rng.integers(0, 3, n)]
        return texts, labels

    def test_zero_epochs_returns_init(self):
        texts, labels = self._data()
        tc = TrainConfig(epochs=0, seed=3)
        res = train(texts, labels, [], [], self.VOCAB, self.CFG, tc)
        np.testing.assert_array_equal(res.final_params,
                                      init_params(self.CFG, 3, np.float32))
        np.testing.assert_array_equal(res.best_params, res.final_params)
        assert res.best_params is not res.final_params
        assert res.log == []

    def test_same_seed_identical_logs_and_params(self):
        texts, labels = self._data()
        tc = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=4,
                         warmup_steps=2, seed=5)
        a = train(texts, labels, texts, labels, self.VOCAB, self.CFG, tc)
        b = train(texts, labels, texts, labels, self.VOCAB, self.CFG, tc)
        assert a.log == b.log
        np.testing.assert_array_equal(a.final_params, b.final_params)

    def test_log_counts_positions_and_tokens(self):
        """Each epoch logs its real tokens and the positions its batches
        were padded to: the same at batch size 1, the rows times the
        longest row when one batch holds the whole split."""
        texts = ["w1", "w2 w3 w4", "", "w5 w6", "w7 w8 w9 w10 w11 w0"]
        labels = [SentimentLabel(i % 3) for i in range(len(texts))]
        lengths = [len(encode(t, self.VOCAB, self.CFG.max_len)) for t in texts]
        assert max(lengths) == self.CFG.max_len
        for batch_size, positions in ((1, sum(lengths)),
                                      (len(texts), len(texts) * max(lengths))):
            tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=batch_size,
                             warmup_steps=0, seed=5)
            res = train(texts, labels, [], [], self.VOCAB, self.CFG, tc)
            assert [(e["positions"], e["tokens"]) for e in res.log] == \
                [(positions, sum(lengths))] * 2

    def test_best_epoch_tracked_with_validation(self):
        texts, labels = self._data()
        tc = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=4,
                         warmup_steps=2, seed=5)
        res = train(texts, labels, texts, labels, self.VOCAB, self.CFG, tc)
        f1s = [e["val_weighted_f1"] for e in res.log]
        assert res.best_epoch == int(np.argmax(f1s)) + 1
        assert len(res.log) == 3

    def test_each_text_encoded_once_per_run(self, monkeypatch):
        """Validation rows are encoded once, not once per epoch, and score
        as predict scores the texts."""
        import mixsent.transformer as tfm
        calls = []

        def counting_encode(text, vocab, max_len):
            calls.append(text)
            return encode(text, vocab, max_len)

        monkeypatch.setattr(tfm, "encode", counting_encode)
        all_texts, all_labels = self._data(n=18)
        texts, val_texts = all_texts[:9], all_texts[9:]
        labels, val_labels = all_labels[:9], all_labels[9:]
        tc = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=4,
                         warmup_steps=2, seed=5)
        res = train(texts, labels, val_texts, val_labels, self.VOCAB, self.CFG, tc)
        assert len(calls) == 18
        preds, _ = predict(res.final_params, self.CFG, self.VOCAB, val_texts)
        assert res.log[-1]["val_weighted_f1"] == evaluate(val_labels, preds)["weighted"]["f1"]

    def test_predict_uniform_for_zero_head(self):
        params = init_params(self.CFG, seed=1)
        head = _views(params, self.CFG)
        head["head.w"][:] = 0.0
        head["head.b"][:] = 0.0
        out = predict(params, self.CFG, self.VOCAB, ["w1 w2", "w3"])
        for label, probs in zip(*out):
            np.testing.assert_allclose(probs, 1 / 3, atol=1e-12)
            assert label == SentimentLabel.NEGATIVE  # tie -> lowest id

    def test_predict_probabilities_sum_to_one(self):
        params = init_params(self.CFG, seed=12)
        out = predict(params, self.CFG, self.VOCAB, ["w1 w5 w9", "w2", "w11 w0"])
        for probs in out[1]:
            assert abs(probs.sum() - 1.0) < 1e-9


class TestSerialization:
    def test_roundtrip_float32_exact(self, tmp_path):
        cfg = TINY
        params = init_params(cfg, 3, np.float32)
        path = tmp_path / "model.bin"
        save_transformer(path, params, cfg, TINY_VOCAB, {})
        loaded, cfg2, vocab = load_transformer(modelfile.read(path))
        assert cfg2 == cfg
        assert vocab.tokens == TINY_VOCAB.tokens
        assert loaded.dtype == np.float32
        np.testing.assert_array_equal(loaded, params)

    def test_file_holds_the_header_and_the_parameters(self, tmp_path):
        """The header holds what loading reads and the run keys it is given,
        and the payload is the parameters in _param_specs order, 4 bytes each."""
        path, header, payload = self._saved(tmp_path)
        assert set(header) == {"format_version", "kind", "encoder_config", "vocab",
                               "sha256"}
        assert payload == init_params(TINY, 3, np.float32).astype("<f4").tobytes()
        run = {"preprocess": {}, "train_sha256": "0" * 64}
        save_transformer(path, init_params(TINY, 3, np.float32), TINY, TINY_VOCAB, run)
        header, with_run = modelfile.read(path)[1:3]
        assert {key: header.pop(key) for key in run} == run
        assert set(header) == {"format_version", "kind", "encoder_config", "vocab"}
        assert with_run == payload

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00\x01binary")
        with pytest.raises(InputError):
            load_transformer(modelfile.read(path))

    @staticmethod
    def _saved(tmp_path):
        params = init_params(TINY, 3, np.float32)
        path = tmp_path / "model.bin"
        save_transformer(path, params, TINY, TINY_VOCAB, {})
        header_line, payload = path.read_bytes().split(b"\n", 1)
        return path, json.loads(header_line), payload

    @staticmethod
    def _rewrite(path, header, payload):
        """The file as a writer with its own header and payload would sign it."""
        del header["sha256"]
        modelfile.write(path, header, payload)

    @pytest.mark.parametrize("key", ["encoder_config", "vocab"])
    def test_header_without_key_rejected(self, tmp_path, key):
        path, header, payload = self._saved(tmp_path)
        del header[key]
        self._rewrite(path, header, payload)
        with pytest.raises(InputError, match=f"bad transformer header: KeyError\\('{key}'"):
            load_transformer(modelfile.read(path))

    @pytest.mark.parametrize("version", [1, None, "2", 4])
    def test_other_format_version_rejected(self, tmp_path, version):
        path, header, payload = self._saved(tmp_path)
        header["format_version"] = version
        self._rewrite(path, header, payload)
        with pytest.raises(InputError, match=f"has format_version {version!r}, not 5"):
            load_transformer(modelfile.read(path))

    def test_vocab_size_must_match_vocab(self, tmp_path):
        path, header, payload = self._saved(tmp_path)
        header["vocab"].append("extra")
        self._rewrite(path, header, payload)
        with pytest.raises(InputError, match="vocab has 21 tokens.*vocab_size is 20"):
            load_transformer(modelfile.read(path))

    def test_truncated_file_rejected(self, tmp_path):
        path, header, payload = self._saved(tmp_path)
        self._rewrite(path, header, payload[:-10])
        with pytest.raises(InputError, match="truncated"):
            load_transformer(modelfile.read(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path, header, payload = self._saved(tmp_path)
        self._rewrite(path, header, payload + b"junk")
        with pytest.raises(InputError, match="payload has"):
            load_transformer(modelfile.read(path))

    def test_config_validation(self):
        with pytest.raises(InputError):
            EncoderConfig(d_model=10, num_heads=3)
        with pytest.raises(InputError):
            EncoderConfig(max_len=2)

    @pytest.mark.parametrize("cls, field, value", [
        (EncoderConfig, "num_layers", 1.0),
        (EncoderConfig, "d_model", True),
        (EncoderConfig, "dropout", "x"),
        (TrainConfig, "seed", "3"),
        (TrainConfig, "epochs", 1.5),
        (TrainConfig, "learning_rate", float("nan")),
        (EncoderConfig, "max_len", 12.0),
        (TrainConfig, "warmup_steps", "no"),
    ])
    def test_config_rejects_wrong_field_types(self, cls, field, value):
        with pytest.raises(InputError, match=f"{cls.__name__}.{field}"):
            cls(**{field: value})

    def test_config_takes_an_int_for_a_float_field(self):
        assert TrainConfig(learning_rate=1).learning_rate == 1
