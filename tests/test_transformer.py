import json
import math

import numpy as np
import pytest

from mixsent.corpus import SentimentLabel
from mixsent.errors import InputError
from mixsent.tokenizer import (CLS_ID, PAD_ID, SEP_ID, Encoding,
                               TokenizerConfig, Vocabulary)
from mixsent.transformer import (EncoderConfig, TrainConfig, adamw_init,
                                 adamw_step, batch_arrays, cross_entropy,
                                 forward, forward_arrays, init_params,
                                 load_transformer, loss_and_grads,
                                 lr_schedule, predict, save_transformer,
                                 train, _layer_norm, _loss_and_grads_arrays,
                                 _trim)

TINY = EncoderConfig(num_layers=1, num_heads=2, d_model=8, d_ff=16, dropout=0.0,
                     max_len=12, vocab_size=20, num_classes=3)


def make_encoding(ids_core, max_len):
    ids = [CLS_ID] + list(ids_core) + [SEP_ID]
    num_real = len(ids)
    ids += [PAD_ID] * (max_len - num_real)
    mask = [1] * num_real + [0] * (max_len - num_real)
    return Encoding(tuple(ids), tuple(mask), num_real)


def random_batch(cfg, rng, batch_size=3):
    out = []
    for _ in range(batch_size):
        n = int(rng.integers(0, cfg.max_len - 2))
        core = rng.integers(4, cfg.vocab_size, size=n).tolist()
        out.append(make_encoding(core, cfg.max_len))
    return out


class TestInitAndForward:
    def test_init_deterministic_and_shaped(self):
        a = init_params(TINY, seed=1)
        b = init_params(TINY, seed=1)
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])
        assert a["token_embedding"].shape == (20, 8)
        assert a["layers.0.ffn.w1"].shape == (8, 16)
        assert a["head.w"].shape == (8, 3)
        np.testing.assert_array_equal(a["layers.0.norm1.gain"], 1.0)
        np.testing.assert_array_equal(a["layers.0.norm1.bias"], 0.0)

    def test_attention_rows_sum_to_one_over_unmasked(self):
        params = init_params(TINY, seed=2)
        batch = [make_encoding([5, 6, 7], TINY.max_len)]
        _, cache = forward(params, TINY, batch)
        attn = cache["layers"][0]["attn"]          # [B,H,L,L]
        sums = attn.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        num_real = batch[0].num_real
        assert np.all(attn[..., num_real:] == 0.0)

    def test_identical_inputs_identical_logits(self):
        params = init_params(TINY, seed=3)
        enc = make_encoding([4, 9], TINY.max_len)
        logits, _ = forward(params, TINY, [enc, enc])
        np.testing.assert_array_equal(logits[0], logits[1])

    def test_zero_position_embeddings_make_logits_permutation_invariant(self):
        params = init_params(TINY, seed=4)
        params["position_embedding"][:] = 0.0
        a = make_encoding([5, 6, 7, 8], TINY.max_len)
        b = make_encoding([7, 5, 8, 6], TINY.max_len)
        la, _ = forward(params, TINY, [a])
        lb, _ = forward(params, TINY, [b])
        np.testing.assert_allclose(la, lb, atol=1e-12)

    def test_pad_token_ids_do_not_affect_logits(self):
        params = init_params(TINY, seed=5)
        enc = make_encoding([4, 5], TINY.max_len)
        ids, mask = batch_arrays([enc])
        base, _ = forward_arrays(params, TINY, ids, mask)
        ids2 = ids.copy()
        ids2[0, enc.num_real:] = 17  # garbage in the padding
        alt, _ = forward_arrays(params, TINY, ids2, mask)
        np.testing.assert_allclose(base, alt, atol=1e-12)

    def test_pad_extension_invariance(self):
        params = init_params(TINY, seed=6)
        short = batch_arrays([make_encoding([4, 5, 6], 7)])
        long_ = batch_arrays([make_encoding([4, 5, 6], TINY.max_len)])
        l_short, _ = forward_arrays(params, TINY, *short)
        l_long, _ = forward_arrays(params, TINY, *long_)
        np.testing.assert_allclose(l_short, l_long, atol=1e-12)

    def test_out_of_range_id_rejected(self):
        params = init_params(TINY, seed=0)
        enc = make_encoding([TINY.vocab_size], TINY.max_len)
        with pytest.raises(InputError):
            forward(params, TINY, [enc])

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(0)
        z = rng.normal(2.0, 3.0, size=(4, 6, 32))
        out, (xhat, _) = _layer_norm(z, np.ones(32), np.zeros(32))
        np.testing.assert_allclose(xhat.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(xhat.var(axis=-1), 1.0, atol=1e-4)
        np.testing.assert_array_equal(out, xhat)


class TestLossAndGradients:
    def test_zero_head_loss_is_ln3(self):
        params = init_params(TINY, seed=7)
        params["head.w"][:] = 0.0
        batch = [make_encoding([4, 5], TINY.max_len),
                 make_encoding([9], TINY.max_len)]
        labels = [SentimentLabel.NEGATIVE, SentimentLabel.POSITIVE]
        loss, _ = loss_and_grads(params, TINY, batch, labels)
        assert abs(loss - math.log(3)) < 1e-12

    def test_duplicated_batch_keeps_mean_loss(self):
        params = init_params(TINY, seed=8)
        batch = [make_encoding([4, 5], TINY.max_len),
                 make_encoding([6, 7, 8], TINY.max_len)]
        labels = [SentimentLabel.NEUTRAL, SentimentLabel.POSITIVE]
        loss_once, _ = loss_and_grads(params, TINY, batch, labels)
        loss_twice, _ = loss_and_grads(params, TINY, batch * 2, labels * 2)
        assert abs(loss_once - loss_twice) < 1e-12

    def test_gradcheck_all_parameter_groups(self):
        """Backprop vs central finite differences at double precision.

        Matrices are scaled up so attention is non-degenerate; the
        denominator floor covers entries whose true gradient is ~0 (the key
        bias is exactly softmax-invariant).
        """
        cfg = TINY
        params = init_params(cfg, seed=9)
        for v in params.values():
            if v.ndim >= 2:
                v *= 20.0
        rng = np.random.default_rng(1)
        batch = [make_encoding(rng.integers(4, cfg.vocab_size, size=n).tolist(),
                               cfg.max_len) for n in (6, 3, 1)]
        labels = [SentimentLabel(int(l)) for l in (0, 2, 1)]
        _, grads = loss_and_grads(params, cfg, batch, labels)

        h = 1e-5
        for key, arr in params.items():
            fd = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                mi = it.multi_index
                orig = arr[mi]
                arr[mi] = orig + h
                lp, _ = loss_and_grads(params, cfg, batch, labels)
                arr[mi] = orig - h
                lm, _ = loss_and_grads(params, cfg, batch, labels)
                arr[mi] = orig
                fd[mi] = (lp - lm) / (2 * h)
            rel = np.abs(fd - grads[key]) / np.maximum(1e-6, np.abs(fd) + np.abs(grads[key]))
            assert rel.max() < 1e-4, (key, rel.max())

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
        batch = [make_encoding([4, 5, 6], cfg.max_len)]
        labels = [SentimentLabel.NEUTRAL]
        eval_loss, _ = loss_and_grads(params, cfg, batch, labels, train_mode=False)
        eval_loss2, _ = loss_and_grads(params, cfg, batch, labels, train_mode=False)
        train_loss, _ = loss_and_grads(params, cfg, batch, labels,
                                       train_mode=True, seed=1)
        assert eval_loss == eval_loss2
        assert train_loss != eval_loss


class TestPaddingTrim:
    CFG = EncoderConfig(num_layers=2, num_heads=2, d_model=16, d_ff=32,
                        dropout=0.1, max_len=24, vocab_size=40)

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_trimmed_batch_matches_full_length(self, dtype, tol):
        """Same loss, gradients and dropout stream with or without the
        all-PAD tail of a mixed-length batch."""
        cfg = self.CFG
        params = {k: v.astype(dtype) for k, v in init_params(cfg, seed=13).items()}
        rng = np.random.default_rng(3)
        batch = [make_encoding(rng.integers(4, cfg.vocab_size, size=n).tolist(),
                               cfg.max_len) for n in (9, 2, 5, 0)]
        ids, mask = batch_arrays(batch)
        y = np.array([0, 2, 1, 1])
        short_ids, short_mask = _trim(ids, mask)
        assert short_ids.shape == short_mask.shape == (4, 11)

        runs = []
        for a, m in ((ids, mask), (short_ids, short_mask)):
            gen = np.random.Generator(np.random.PCG64(21))
            loss, grads = _loss_and_grads_arrays(params, cfg, a, m, y, True, gen)
            runs.append((loss, grads, gen.bit_generator.state))
        (loss_full, g_full, state_full), (loss_trim, g_trim, state_trim) = runs
        assert abs(loss_trim - loss_full) <= 1e-6 * abs(loss_full)
        for key in g_full:
            assert g_trim[key].dtype == dtype
            np.testing.assert_allclose(g_trim[key], g_full[key], rtol=tol,
                                       atol=tol, err_msg=key)
        assert state_trim == state_full

    def test_predict_mixed_lengths_matches_single_texts(self):
        vocab = Vocabulary.from_pieces([f"w{i}" for i in range(12)])
        tok = TokenizerConfig(max_len=10)
        cfg = EncoderConfig(num_layers=1, num_heads=2, d_model=16, d_ff=32,
                            max_len=10, vocab_size=len(vocab))
        params = init_params(cfg, seed=14)
        for v in params.values():
            if v.ndim >= 2:
                v *= 20.0
        texts = ["w1", "w2 w3 w4 w5 w6 w7 w8", "", "w9 w10", "w11 " * 12]
        together = predict(params, cfg, vocab, tok, texts)
        for text, (label, probs) in zip(texts, together):
            [(alone_label, alone_probs)] = predict(params, cfg, vocab, tok, [text])
            assert label == alone_label
            np.testing.assert_allclose(probs, alone_probs, rtol=0, atol=1e-6)


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

    def test_constant_after_warmup_flag(self):
        tc = TrainConfig(learning_rate=1e-3, warmup_steps=10,
                         lr_constant_after_warmup=True)
        assert lr_schedule(500, tc, 1000) == 1e-3

    def test_step_out_of_range(self):
        with pytest.raises(InputError):
            lr_schedule(2001, self.TC, 2000)

    def test_zero_grad_zero_decay_is_fixed_point(self):
        params = {"w": np.ones((2, 2)), "b": np.zeros(2)}
        grads = {"w": np.zeros((2, 2)), "b": np.zeros(2)}
        state = adamw_init(params)
        tc = TrainConfig(weight_decay=0.0)
        adamw_step(params, grads, state, tc, lr=0.5)
        np.testing.assert_array_equal(params["w"], 1.0)

    def test_decoupled_decay_multiplies_matrices_only(self):
        params = {"w": np.full((2, 2), 2.0), "gain": np.full(2, 2.0)}
        grads = {"w": np.zeros((2, 2)), "gain": np.zeros(2)}
        state = adamw_init(params)
        tc = TrainConfig(weight_decay=0.01)
        adamw_step(params, grads, state, tc, lr=1.0)
        np.testing.assert_allclose(params["w"], 2.0 * 0.99)
        np.testing.assert_array_equal(params["gain"], 2.0)  # 1-D exempt

    def test_first_adam_step_magnitude_is_lr(self):
        params = {"w": np.array([[0.0]])}
        grads = {"w": np.array([[1.0]])}
        state = adamw_init(params)
        tc = TrainConfig(weight_decay=0.0)
        adamw_step(params, grads, state, tc, lr=0.25)
        assert params["w"][0, 0] == pytest.approx(-0.25, rel=1e-6)


class TestTrainLoop:
    VOCAB = Vocabulary.from_pieces([f"w{i}" for i in range(12)])
    TOK = TokenizerConfig(max_len=8)
    CFG = EncoderConfig(num_layers=1, num_heads=2, d_model=16, d_ff=32,
                        dropout=0.0, max_len=8, vocab_size=16, num_classes=3)

    def _data(self, n=9):
        rng = np.random.default_rng(2)
        texts = [" ".join(rng.choice([f"w{i}" for i in range(12)], size=3))
                 for _ in range(n)]
        labels = [SentimentLabel(int(l)) for l in rng.integers(0, 3, n)]
        return texts, labels

    def test_zero_epochs_returns_init(self):
        texts, labels = self._data()
        tc = TrainConfig(epochs=0, seed=3, precision="double")
        res = train(texts, labels, [], [], self.VOCAB, self.TOK, self.CFG, tc)
        init = init_params(self.CFG, seed=3)
        for key in init:
            np.testing.assert_array_equal(res.final_params[key], init[key])
        assert res.log == []

    def test_same_seed_identical_logs_and_params(self):
        texts, labels = self._data()
        tc = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=4,
                         warmup_steps=2, seed=5, precision="double")
        a = train(texts, labels, texts, labels, self.VOCAB, self.TOK, self.CFG, tc)
        b = train(texts, labels, texts, labels, self.VOCAB, self.TOK, self.CFG, tc)
        assert a.log == b.log
        for key in a.final_params:
            np.testing.assert_array_equal(a.final_params[key], b.final_params[key])

    def test_best_epoch_tracked_with_validation(self):
        texts, labels = self._data()
        tc = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=4,
                         warmup_steps=2, seed=5, precision="double")
        res = train(texts, labels, texts, labels, self.VOCAB, self.TOK, self.CFG, tc)
        f1s = [e["val_weighted_f1"] for e in res.log]
        assert res.best_epoch == int(np.argmax(f1s)) + 1
        assert len(res.log) == 3

    def test_predict_uniform_for_zero_head(self):
        params = init_params(self.CFG, seed=1)
        params["head.w"][:] = 0.0
        params["head.b"][:] = 0.0
        out = predict(params, self.CFG, self.VOCAB, self.TOK, ["w1 w2", "w3"])
        for label, probs in out:
            np.testing.assert_allclose(probs, 1 / 3, atol=1e-12)
            assert label == SentimentLabel.NEGATIVE  # tie -> lowest id

    def test_predict_probabilities_sum_to_one(self):
        params = init_params(self.CFG, seed=12)
        out = predict(params, self.CFG, self.VOCAB, self.TOK,
                      ["w1 w5 w9", "w2", "w11 w0"])
        for _, probs in out:
            assert abs(probs.sum() - 1.0) < 1e-9


class TestSerialization:
    def test_roundtrip_float32_exact(self, tmp_path):
        cfg = TINY
        params = {k: v.astype(np.float32) for k, v in init_params(cfg, 3).items()}
        tc = TrainConfig()
        tok = TokenizerConfig(max_len=cfg.max_len, max_word_chars=3)
        path = tmp_path / "model.bin"
        save_transformer(path, params, cfg, tc, tok,
                         vocab_ref={"file": "v.txt", "sha256": "abc"})
        loaded, cfg2, tc2, ref, tok2 = load_transformer(path)
        assert cfg2 == cfg and tc2 == tc and tok2 == tok
        assert ref == {"file": "v.txt", "sha256": "abc"}
        for key in params:
            np.testing.assert_array_equal(loaded[key], params[key])

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00\x01binary")
        with pytest.raises(InputError):
            load_transformer(path)

    @staticmethod
    def _saved(tmp_path):
        params = {k: v.astype(np.float32) for k, v in init_params(TINY, 3).items()}
        path = tmp_path / "model.bin"
        save_transformer(path, params, TINY, TrainConfig(),
                         TokenizerConfig(max_len=TINY.max_len))
        header_line, payload = path.read_bytes().split(b"\n", 1)
        return path, json.loads(header_line), payload

    @staticmethod
    def _rewrite(path, header, payload):
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)

    def test_header_without_max_word_chars_gets_default(self, tmp_path):
        path, header, payload = self._saved(tmp_path)
        del header["max_word_chars"]
        self._rewrite(path, header, payload)
        assert load_transformer(path)[4] == TokenizerConfig(max_len=TINY.max_len)

    def test_truncated_file_rejected(self, tmp_path):
        path, _, _ = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(InputError, match="truncated"):
            load_transformer(path)

    @pytest.mark.parametrize("field, value", [
        ("shape", [3, 8]),            # head.w transposed: same byte count
        ("nbytes", 4 * 8 * 3 + 4),
        ("name", "head.weight"),
    ])
    def test_tampered_tensor_spec_rejected(self, tmp_path, field, value):
        path, header, payload = self._saved(tmp_path)
        [spec] = [t for t in header["tensors"] if t["name"] == "head.w"]
        spec[field] = value
        self._rewrite(path, header, payload)
        with pytest.raises(InputError, match="head.w"):
            load_transformer(path)

    def test_config_validation(self):
        with pytest.raises(InputError):
            EncoderConfig(d_model=10, num_heads=3)
        with pytest.raises(InputError):
            TrainConfig(precision="half")
