import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import decode, rewrite_model_file
from tokenizer_reference import encode_reference, tokenize_word_reference
from vocab_reference import train_vocabulary_reference

from mixsent import modelfile
from mixsent.errors import InputError
from mixsent.tokenizer import (CLS_ID, MAX_WORD_CHARS, PAD_ID, SEP_ID, SPECIALS,
                               UNK, UNK_ID, Vocabulary, encode, train_vocabulary)
from mixsent.transformer import (EncoderConfig, _pad, init_params,
                                 load_transformer, save_transformer)


def _pieces(word, v):
    """The pieces encode gives one word, as token strings (max_len leaves
    room for every character of the word)."""
    return [v.tokens[i] for i in encode(word, v, len(word) + 2)[1:-1]]


class TestTokenizeWord:
    def test_reference_segmentation(self, segment_vocab):
        assert _pieces("likhna", segment_vocab) == ["li", "##kh", "##na"]

    def test_whole_word_hit(self):
        v = Vocabulary.from_pieces(["good", "go", "##od"])
        assert _pieces("good", v) == ["good"]

    def test_no_cover_falls_back_to_unk(self, segment_vocab):
        assert _pieces("xyz", segment_vocab) == [UNK]

    def test_overlong_word_is_unk(self, segment_vocab):
        """A word of MAX_WORD_CHARS is segmented; one character more is [UNK]."""
        kh = (MAX_WORD_CHARS - 4) // 2
        fits = "li" + "kh" * kh + "na"
        assert len(fits) == MAX_WORD_CHARS
        assert _pieces(fits, segment_vocab) == ["li"] + ["##kh"] * kh + ["##na"]
        assert _pieces(fits + "a", segment_vocab) == [UNK]

    def test_whitespace_separates_words(self, segment_vocab, max_len):
        """Any Unicode whitespace ends a word, so no segmented word holds one."""
        spaced = "likhna\tli\u2003likhna\n"
        assert (encode(spaced, segment_vocab, max_len)
                == encode("likhna li likhna", segment_vocab, max_len)
                == encode_reference(spaced, segment_vocab, max_len))
        assert UNK_ID not in encode(spaced, segment_vocab, max_len)

    def test_greedy_property(self):
        # for every produced piece, no longer vocabulary entry matches there
        v = Vocabulary.from_pieces(["l", "li", "likh", "##h", "##hna",
                                    "##k", "##kh", "##n", "##na", "##a"])
        word = "likhna"
        pieces = _pieces(word, v)
        pos = 0
        for piece in pieces:
            bare = piece[2:] if piece.startswith("##") else piece
            for longer in range(len(bare) + 1, len(word) - pos + 1):
                candidate = word[pos:pos + longer]
                if pos > 0:
                    candidate = "##" + candidate
                assert candidate not in v.tokens, (piece, candidate)
            pos += len(bare)
        assert pos == len(word)

    @pytest.mark.parametrize("pieces,word", [
        (["##ab", "a", "##b"], "##ab"),          # a word spelled as a "##" piece
        (["##ab", "a", "##b"], "##abb"),
        (["#", "##a", "##b"], "#ab"),            # "#" is a piece; "##" is no word start
        (["#", "##a", "##b"], "##a"),
        (["#", "###", "##a"], "###a"),
        (["[", "##U"], "[UNK]"),                 # a word equal to a special
        (["[", "##U", "##x"], "[UNK]x"),         # a word starting with one
        (["[", "##U"], "[UN"),
        (["a", "abcd", "##b", "##c", "##e"], "abce"),  # no token end on "abc"
        (["a", "abcd", "##bce"], "abce"),
        (["a", "abcd"], "abce"),
        (["ab", "a"], "ab"),                     # no continuation pieces at all
        (["ab", "a"], "aba"),
        (["#", "ab"], "ab#"),                    # "#" node, no "##" node
        (["#", "ab"], "##"),
    ])
    def test_trie_edge_cases(self, pieces, word, max_len):
        """Words and vocabularies where a trie walk could part from trying
        every candidate string: ids and pieces equal the reference's."""
        v = Vocabulary.from_pieces(pieces)
        assert _pieces(word, v) == tokenize_word_reference(word, v)
        assert encode(word, v, max_len) == encode_reference(word, v, max_len)


class TestEncode:
    def test_empty_text(self, segment_vocab, max_len):
        e = encode("", segment_vocab, max_len)
        assert e == [CLS_ID, SEP_ID]
        full = [CLS_ID] * max_len
        ids, mask = _pad([e, full])
        assert ids.shape == mask.shape == (2, max_len)
        assert all(i == PAD_ID for i in ids[0, 2:])
        assert mask[0].tolist() == [1, 1] + [0] * (max_len - 2)

    def test_exact_fit_no_pad_no_truncation(self, segment_vocab):
        e = encode("likhna likhna", segment_vocab, 8)  # 6 pieces = max_len - 2
        assert len(e) == 8
        assert e[-1] == SEP_ID
        ids, mask = _pad([e])
        assert PAD_ID not in ids
        assert mask.all()

    def test_two_words_concatenate(self, segment_vocab, max_len):
        e = encode("likhna likhna", segment_vocab, max_len)
        li, kh, na = (segment_vocab.tokens.index(t) for t in ("li", "##kh", "##na"))
        assert e == [CLS_ID, li, kh, na, li, kh, na, SEP_ID]

    def test_truncation_keeps_head_and_sep(self, segment_vocab):
        e = encode("likhna likhna likhna", segment_vocab, 4)
        li, kh = segment_vocab.tokens.index("li"), segment_vocab.tokens.index("##kh")
        assert e == [CLS_ID, li, kh, SEP_ID]

    @given(st.text(alphabet="likhna xyz", max_size=80))
    @settings(max_examples=60)
    def test_encoding_invariants_fuzz(self, text):
        v = Vocabulary.from_pieces(["li", "##kh", "##na", "x", "##y", "##z"])
        max_len = 12
        e = encode(text, v, max_len)
        n = len(e)
        assert 2 <= n <= max_len
        assert e[0] == CLS_ID and e[-1] == SEP_ID
        assert PAD_ID not in e
        ids, mask = _pad([e, [CLS_ID] * max_len])
        assert ids.shape == mask.shape == (2, max_len)
        assert ids[0, :n].tolist() == e
        assert mask[0].tolist() == [1] * n + [0] * (max_len - n)
        assert all(i == PAD_ID for i in ids[0, n:])


# Initial or "##" continuation pieces over "abc#" (so words and pieces may
# start with "#" or "##"); texts may also hold "d", which no piece covers.
# "##" alone is no piece.
_PIECES = st.tuples(st.booleans(), st.text(alphabet="abc#", min_size=1, max_size=4)
                    ).map(lambda t: ("##" if t[0] else "") + t[1]
                          ).filter(lambda p: p != "##")


class TestEncodeMatchesReference:
    """encode walks a trie of the vocabulary and memoizes each word's ids on
    the vocabulary; tokenizer_reference.py segments every word afresh,
    looking up each candidate string from the rest of the word down."""

    @given(st.lists(_PIECES, unique=True, max_size=12),
           st.lists(st.text(alphabet="abcd# ", max_size=40), min_size=1, max_size=6),
           st.integers(3, 12))
    @settings(max_examples=300, deadline=None)
    def test_random_vocabularies_and_texts(self, pieces, texts, max_len):
        v = Vocabulary.from_pieces(pieces)
        for text in texts + texts:  # the second pass reads memoized words
            assert encode(text, v, max_len) == encode_reference(text, v, max_len)
        for word in {w for text in texts for w in text.split()}:
            assert _pieces(word, v) == tokenize_word_reference(word, v)

    @pytest.mark.parametrize("text,max_len", [
        ("li" + "kh" * 49 + "na li", 16),     # over-long word
        ("likhnax xli likhna", 16),           # no piece at 'x'
        ("likhna likhna likhna", 6),          # cut inside the second word
        ("li " * 20 + "likhna qqq", 8),       # cut long before the last words
        ("  ", 3),
    ], ids=["over-long", "no-match", "cut-mid-word", "cut-early", "blank"])
    def test_edge_cases(self, segment_vocab, text, max_len):
        assert (encode(text, segment_vocab, max_len)
                == encode_reference(text, segment_vocab, max_len))

    def test_longest_token_bounds_candidates(self, max_len):
        """The walk for "##abab" reads past the longest initial token."""
        v = Vocabulary.from_pieces(["a", "##b", "ab", "##abab"])
        assert _pieces("ababab", v) == ["ab", "##abab"]
        assert (_pieces("ababab", v)
                == tokenize_word_reference("ababab", v))
        assert encode("ababab", v, max_len) == encode_reference("ababab", v, max_len)


class TestDecode:
    def test_roundtrip_reference_example(self, segment_vocab, max_len):
        e = encode("likhna", segment_vocab, max_len)
        assert decode(e, segment_vocab) == "likhna"

    def test_cls_sep_only(self, segment_vocab, max_len):
        assert decode(encode("", segment_vocab, max_len), segment_vocab) == ""

    def test_unk_surfaces_literally(self, segment_vocab, max_len):
        e = encode("likhna qqq", segment_vocab, max_len)
        assert decode(e, segment_vocab) == f"likhna {UNK}"

    def test_out_of_range_id_rejected(self, segment_vocab):
        with pytest.raises(InputError):
            decode([CLS_ID, 99, SEP_ID] + [PAD_ID] * 13, segment_vocab)

    @given(st.lists(st.sampled_from(["likhna", "x", "xyz"]), min_size=1, max_size=3))
    def test_decode_inverts_encode_for_covered_text(self, words):
        v = Vocabulary.from_pieces(["li", "##kh", "##na", "x", "##y", "##z", "xyz"])
        text = " ".join(words)
        assert decode(encode(text, v, 16), v) == text


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

    def test_encodes_training_words_without_unk(self, max_len):
        texts = ["movie mast hai", "khana bekar tha", "mast mast"]
        v = train_vocabulary(texts, 60)
        for text in texts:
            assert UNK_ID not in encode(text, v, max_len)

    def test_size_capped_by_target(self):
        v = train_vocabulary(["ab ab cd cd"], target_size=11)
        assert len(v) <= 11

    def test_spelling_variants_share_first_piece_fixture(self):
        v = Vocabulary.from_pieces(["shukri", "##ya", "##a"])
        a = _pieces("shukriya", v)
        b = _pieces("shukria", v)
        assert a[0] == b[0] == "shukri"

    def test_spelling_variants_share_first_piece_trained(self):
        v = train_vocabulary(["shukriya", "shukria"] * 5, target_size=17)
        a = _pieces("shukriya", v)
        b = _pieces("shukria", v)
        assert a[0] == b[0]
        assert len(a[0]) > 1


def _outcome(trainer, texts, target_size):
    """The trained tokens, or the InputError's text."""
    try:
        return trainer(texts, target_size).tokens
    except InputError as e:
        return str(e)


class TestIncrementalTrainerMatchesReference:
    """train_vocabulary updates pair counts incrementally; the reference in
    vocab_reference.py recounts every pair on every merge."""

    @given(st.lists(st.text(alphabet="ab c", max_size=30), max_size=12),
           st.integers(0, 60))
    @settings(max_examples=300, deadline=None)
    def test_small_alphabets_ties_and_cutoffs(self, texts, target_size):
        assert (_outcome(train_vocabulary, texts, target_size)
                == _outcome(train_vocabulary_reference, texts, target_size))

    @pytest.mark.parametrize("texts", [
        ["aaaa"], ["abab"], ["aaa aa"], ["aaaaaaa aaaa aa"], ["abababa abab ab"],
        ["aabaab aab", "baabaa"], ["abcabc abc", "cabcab"],
    ])
    def test_overlapping_merges(self, texts):
        """Merge sites next to each other in one word, and pieces equal to a
        new merge already present from an earlier one."""
        for target_size in range(5, 40):
            assert (_outcome(train_vocabulary, texts, target_size)
                    == _outcome(train_vocabulary_reference, texts, target_size))

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
        assert (train_vocabulary(texts, 500).tokens
                == train_vocabulary_reference(texts, 500).tokens)


class TestVocabularyIO:
    """The vocabulary travels as the "vocab" list of the transformer model
    file's header."""

    @staticmethod
    def _saved(path, vocab):
        """A tiny transformer model file for vocab; its header, as a dict."""
        cfg = EncoderConfig(num_layers=1, num_heads=1, d_model=2, d_ff=2,
                            max_len=8, vocab_size=len(vocab))
        save_transformer(path, init_params(cfg, 0, np.float32), cfg, vocab, {})
        return json.loads(path.read_bytes().split(b"\n", 1)[0])

    def _with_tokens(self, tmp_path, tokens):
        """A model file whose header's vocab is tokens, as written by hand."""
        path = tmp_path / "model.bin"
        self._saved(path, Vocabulary.from_pieces([f"p{i}" for i in range(len(tokens) - 4)]))
        rewrite_model_file(path, lambda header: header.update(vocab=tokens))
        return path

    def test_roundtrip(self, tmp_path):
        texts = ["mast movie hai", "movie bakwas hai"]
        v = train_vocabulary(texts, 30)
        path = tmp_path / "model.bin"
        assert self._saved(path, v)["vocab"] == list(v.tokens)
        loaded = load_transformer(modelfile.read(path))[2]
        assert loaded.tokens == v.tokens
        assert ([encode(t, loaded, 16) for t in texts]
                == [encode(t, v, 16) for t in texts])

    def test_missing_unk_line(self, tmp_path):
        path = self._with_tokens(tmp_path, ["[PAD]", "[CLS]", "[SEP]", "li", "na"])
        with pytest.raises(InputError, match=r"\[UNK\]"):
            load_transformer(modelfile.read(path))

    def test_duplicate_line_reported(self, tmp_path):
        path = self._with_tokens(tmp_path, list(SPECIALS) + ["li", "li"])
        with pytest.raises(InputError, match="repeats token 'li'"):
            load_transformer(modelfile.read(path))

    def test_handwritten_seven_line_file(self, tmp_path):
        path = self._with_tokens(tmp_path, list(SPECIALS) + ["li", "##kh", "##na"])
        v = load_transformer(modelfile.read(path))[2]
        assert _pieces("likhna", v) == ["li", "##kh", "##na"]

    def test_bad_continuation_piece(self, tmp_path):
        path = self._with_tokens(tmp_path, list(SPECIALS) + ["##"])
        with pytest.raises(InputError, match="continuation"):
            load_transformer(modelfile.read(path))

    @pytest.mark.parametrize("token", [7, ["li"], None, ""])
    def test_token_not_a_nonempty_string(self, tmp_path, token):
        path = self._with_tokens(tmp_path, list(SPECIALS) + ["li", token])
        with pytest.raises(InputError, match="not a non-empty string"):
            load_transformer(modelfile.read(path))


def test_vocabulary_invariants():
    with pytest.raises(InputError):
        Vocabulary(("[PAD]", "[UNK]", "[CLS]"))
    with pytest.raises(InputError):
        Vocabulary.from_pieces(["li", "li"])
    with pytest.raises(InputError):
        Vocabulary.from_pieces(["[UNK]"])
    with pytest.raises(InputError, match="not a non-empty string"):
        Vocabulary.from_pieces([("l", "i")])
