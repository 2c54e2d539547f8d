import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from vocab_reference import train_vocabulary_reference

from mixsent.errors import InputError
from mixsent.tokenizer import (CLS_ID, PAD_ID, SEP_ID, SPECIALS, UNK, UNK_ID,
                               Encoding, TokenizerConfig, Vocabulary, decode,
                               encode, load_vocabulary, save_vocabulary,
                               tokenize_word, train_vocabulary)


class TestTokenizeWord:
    def test_reference_segmentation(self, segment_vocab, tok_cfg):
        assert tokenize_word("likhna", segment_vocab, tok_cfg) == ["li", "##kh", "##na"]

    def test_whole_word_hit(self, tok_cfg):
        v = Vocabulary.from_pieces(["good", "go", "##od"])
        assert tokenize_word("good", v, tok_cfg) == ["good"]

    def test_no_cover_falls_back_to_unk(self, segment_vocab, tok_cfg):
        assert tokenize_word("xyz", segment_vocab, tok_cfg) == [UNK]

    def test_overlong_word_is_unk(self, segment_vocab):
        cfg = TokenizerConfig(max_len=16, max_word_chars=5)
        assert tokenize_word("likhna", segment_vocab, cfg) == [UNK]

    def test_rejects_whitespace(self, segment_vocab, tok_cfg):
        with pytest.raises(InputError):
            tokenize_word("two words", segment_vocab, tok_cfg)

    def test_greedy_property(self, tok_cfg):
        # for every produced piece, no longer vocabulary entry matches there
        v = Vocabulary.from_pieces(["l", "li", "likh", "##h", "##hna",
                                    "##k", "##kh", "##n", "##na", "##a"])
        word = "likhna"
        pieces = tokenize_word(word, v, tok_cfg)
        pos = 0
        for piece in pieces:
            bare = piece[2:] if piece.startswith("##") else piece
            for longer in range(len(bare) + 1, len(word) - pos + 1):
                candidate = word[pos:pos + longer]
                if pos > 0:
                    candidate = "##" + candidate
                assert candidate not in v, (piece, candidate)
            pos += len(bare)
        assert pos == len(word)


class TestEncode:
    def test_empty_text(self, segment_vocab, tok_cfg):
        e = encode("", segment_vocab, tok_cfg)
        assert e.ids[0] == CLS_ID and e.ids[1] == SEP_ID
        assert e.num_real == 2
        assert all(i == PAD_ID for i in e.ids[2:])
        assert len(e.ids) == tok_cfg.max_len

    def test_exact_fit_no_pad_no_truncation(self, segment_vocab):
        cfg = TokenizerConfig(max_len=8)
        e = encode("likhna likhna", segment_vocab, cfg)  # 6 pieces = max_len - 2
        assert e.num_real == 8
        assert e.ids[-1] == SEP_ID
        assert PAD_ID not in e.ids

    def test_two_words_concatenate(self, segment_vocab, tok_cfg):
        e = encode("likhna likhna", segment_vocab, tok_cfg)
        li, kh, na = (segment_vocab.id_of(t) for t in ("li", "##kh", "##na"))
        assert e.ids[:8] == (CLS_ID, li, kh, na, li, kh, na, SEP_ID)

    def test_truncation_keeps_head_and_sep(self, segment_vocab):
        cfg = TokenizerConfig(max_len=4)
        e = encode("likhna likhna likhna", segment_vocab, cfg)
        li, kh = segment_vocab.id_of("li"), segment_vocab.id_of("##kh")
        assert e.ids == (CLS_ID, li, kh, SEP_ID)
        assert e.num_real == 4

    @given(st.text(alphabet="likhna xyz", max_size=80))
    @settings(max_examples=60)
    def test_encoding_invariants_fuzz(self, text):
        v = Vocabulary.from_pieces(["li", "##kh", "##na", "x", "##y", "##z"])
        cfg = TokenizerConfig(max_len=12)
        e = encode(text, v, cfg)
        assert len(e.ids) == cfg.max_len == len(e.attention_mask)
        assert e.ids[0] == CLS_ID
        assert e.ids[e.num_real - 1] == SEP_ID
        assert all(m == (1 if i < e.num_real else 0)
                   for i, m in enumerate(e.attention_mask))
        assert all(i == PAD_ID for i in e.ids[e.num_real:])


class TestDecode:
    def test_roundtrip_reference_example(self, segment_vocab, tok_cfg):
        e = encode("likhna", segment_vocab, tok_cfg)
        assert decode(e, segment_vocab) == "likhna"

    def test_cls_sep_only(self, segment_vocab, tok_cfg):
        assert decode(encode("", segment_vocab, tok_cfg), segment_vocab) == ""

    def test_unk_surfaces_literally(self, segment_vocab, tok_cfg):
        e = encode("likhna qqq", segment_vocab, tok_cfg)
        assert decode(e, segment_vocab) == f"likhna {UNK}"

    def test_out_of_range_id_rejected(self, segment_vocab, tok_cfg):
        e = Encoding(ids=(CLS_ID, 99, SEP_ID) + (PAD_ID,) * 13,
                     attention_mask=(1, 1, 1) + (0,) * 13, num_real=3)
        with pytest.raises(InputError):
            decode(e, segment_vocab)

    @given(st.lists(st.sampled_from(["likhna", "x", "xyz"]), min_size=1, max_size=3))
    def test_decode_inverts_encode_for_covered_text(self, words):
        v = Vocabulary.from_pieces(["li", "##kh", "##na", "x", "##y", "##z", "xyz"])
        cfg = TokenizerConfig(max_len=16)
        text = " ".join(words)
        assert decode(encode(text, v, cfg), v) == text


class TestTrainVocabulary:
    def test_most_frequent_pair_merged(self):
        v = train_vocabulary(["aa aa aa"], target_size=10)
        assert "aa" in v.tokens
        assert "a" in v.tokens and "##a" in v.tokens

    def test_single_char_word(self):
        v = train_vocabulary(["a"], target_size=6)
        assert "a" in v.tokens

    def test_deterministic(self):
        texts = ["shukriya bhai", "shukria dost", "bhai bhai"]
        assert train_vocabulary(texts, 40).tokens == train_vocabulary(texts, 40).tokens

    def test_target_too_small_reports_minimum(self):
        with pytest.raises(InputError, match="at least"):
            train_vocabulary(["abc"], target_size=5)

    def test_encodes_training_words_without_unk(self, tok_cfg):
        texts = ["movie mast hai", "khana bekar tha", "mast mast"]
        v = train_vocabulary(texts, 60)
        for text in texts:
            e = encode(text, v, tok_cfg)
            assert UNK_ID not in e.ids

    def test_size_capped_by_target(self):
        v = train_vocabulary(["ab ab cd cd"], target_size=11)
        assert len(v) <= 11

    def test_spelling_variants_share_first_piece_fixture(self, tok_cfg):
        v = Vocabulary.from_pieces(["shukri", "##ya", "##a"])
        a = tokenize_word("shukriya", v, tok_cfg)
        b = tokenize_word("shukria", v, tok_cfg)
        assert a[0] == b[0] == "shukri"

    def test_spelling_variants_share_first_piece_trained(self, tok_cfg):
        v = train_vocabulary(["shukriya", "shukria"] * 5, target_size=17)
        a = tokenize_word("shukriya", v, tok_cfg)
        b = tokenize_word("shukria", v, tok_cfg)
        assert a[0] == b[0]
        assert len(a[0]) > 1


def _outcome(trainer, texts, target_size, cfg):
    """The trained tokens, or the InputError's text."""
    try:
        return trainer(texts, target_size, cfg).tokens
    except InputError as e:
        return str(e)


class TestIncrementalTrainerMatchesReference:
    """train_vocabulary updates pair counts incrementally; the reference in
    vocab_reference.py recounts every pair on every merge."""

    @given(st.lists(st.text(alphabet="ab c", max_size=30), max_size=12),
           st.integers(0, 60), st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_small_alphabets_ties_and_cutoffs(self, texts, target_size, max_chars):
        cfg = TokenizerConfig(max_len=16, max_word_chars=max_chars)
        assert (_outcome(train_vocabulary, texts, target_size, cfg)
                == _outcome(train_vocabulary_reference, texts, target_size, cfg))

    def test_benchmark_shaped_corpus(self):
        """Posts of 5-25 words drawn Zipf-like from a lexicon of syllable
        words, as in the transformer workload."""
        rng = np.random.default_rng(7)
        onsets = ["k", "kh", "g", "ch", "j", "t", "d", "n", "p", "b", "bh", "m",
                  "r", "l", "sh", "s", "h", "pr"]
        vowels = ["a", "aa", "i", "ee", "u", "oo", "e", "ai", "o", "au"]
        lexicon = sorted({"".join(rng.choice(onsets) + rng.choice(vowels)
                                  for _ in range(rng.integers(1, 4)))
                          for _ in range(600)})
        weights = 1.0 / np.arange(1, len(lexicon) + 1)
        weights /= weights.sum()
        texts = [" ".join(rng.choice(lexicon, size=rng.integers(5, 26), p=weights))
                 for _ in range(160)]
        cfg = TokenizerConfig()
        assert (train_vocabulary(texts, 500, cfg).tokens
                == train_vocabulary_reference(texts, 500, cfg).tokens)


class TestVocabularyIO:
    def test_roundtrip(self, tmp_path):
        v = train_vocabulary(["mast movie hai"], 30)
        path = tmp_path / "vocab.txt"
        save_vocabulary(v, path)
        assert load_vocabulary(path).tokens == v.tokens

    def test_missing_unk_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[PAD]\n[CLS]\n[SEP]\nli\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"\[UNK\]|specials"):
            load_vocabulary(path)

    def test_duplicate_line_reported(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(SPECIALS + ("li", "li")) + "\n", encoding="utf-8")
        with pytest.raises(InputError, match=":6"):
            load_vocabulary(path)

    def test_handwritten_seven_line_file(self, tmp_path, tok_cfg):
        path = tmp_path / "vocab.txt"
        path.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\nli\n##kh\n##na\n", encoding="utf-8")
        v = load_vocabulary(path)
        assert tokenize_word("likhna", v, tok_cfg) == ["li", "##kh", "##na"]

    def test_bad_continuation_piece(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(SPECIALS + ("##",)) + "\n", encoding="utf-8")
        with pytest.raises(InputError):
            load_vocabulary(path)


def test_vocabulary_invariants():
    with pytest.raises(InputError):
        Vocabulary(("[PAD]", "[UNK]", "[CLS]"))
    with pytest.raises(InputError):
        Vocabulary.from_pieces(["li", "li"])
    with pytest.raises(InputError):
        Vocabulary.from_pieces(["[UNK]"])
    with pytest.raises(InputError):
        TokenizerConfig(max_len=2)
