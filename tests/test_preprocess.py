import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsent.corpus import Corpus, LabeledTweet, SentimentLabel
from mixsent.errors import InputError
from mixsent.preprocess import (DROP_REASONS, EmojiLexicon, FillerList,
                                PreprocessConfig, StopWordList, clean_text,
                                normalize_case_and_stopwords, normalize_text,
                                preprocess_corpus, replace_emojis)
from preprocess_reference import clean_text_reference, normalize_text_reference

CFG = PreprocessConfig()
# The packaged lexicon plus an all-ASCII key, which turns off the ASCII
# fast path of replace_emojis.
SMILEY = EmojiLexicon({**CFG.emoji_lexicon.mapping, ":)": "smile"})


def one_record_corpus(text):
    return Corpus([LabeledTweet("0", text, SentimentLabel.NEUTRAL)])


class TestNormalizeText:
    def test_urls_mentions_hashtags_removed(self):
        assert normalize_text("check https://t.co/x @user #sale now") == "check now"

    def test_clean_text_untouched(self):
        assert normalize_text("hello world") == "hello world"

    def test_whitespace_collapsed(self):
        assert normalize_text("   ") == ""
        assert normalize_text("a   b\t c") == "a b c"

    def test_bare_www_token_removed(self):
        assert normalize_text("visit www.example.com now") == "visit now"

    def test_keep_hashtag_text_mode(self):
        assert normalize_text("#Sale now", keep_hashtag_text=True) == "Sale now"
        assert normalize_text("#Sale now", keep_hashtag_text=False) == "now"

    def test_no_hash_character_survives_either_mode(self):
        for keep in (False, True):
            assert "#" not in normalize_text("a#b #tag c#", keep_hashtag_text=keep)

    @settings(max_examples=500)
    @given(text=st.lists(st.sampled_from(
               ["http://", "https://", "www.", "@", "#", "a", "Z", "k", "😂", "❤️",
                " ", "\t", "\n", "\u00a0"]), max_size=30).map("".join),
           keep=st.booleans())
    def test_one_pass_matches_a_pass_per_kind(self, text, keep):
        assert normalize_text(text, keep) == normalize_text_reference(text, keep)


class TestReplaceEmojis:
    def test_normative_mappings(self):
        lex = CFG.emoji_lexicon
        assert replace_emojis("great 😂", lex) == "great laugh"
        assert replace_emojis("love it ❤️", lex) == "love it love"
        assert replace_emojis("so 😞 today", lex) == "so sad today"

    def test_no_emoji_identity(self):
        assert replace_emojis("koi emoji nahi", CFG.emoji_lexicon) == "koi emoji nahi"

    def test_unmapped_pictographs_removed(self):
        assert replace_emojis("party 🦖 time", CFG.emoji_lexicon) == "party time"

    def test_variation_selector_longest_match(self):
        lex = EmojiLexicon({"❤️": "love", "❤": "heart"})
        assert replace_emojis("a ❤️ b", lex) == "a love b"
        assert replace_emojis("a ❤ b", lex) == "a heart b"

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FFF),
                   max_size=60))
    def test_empty_lexicon_never_removes_alphabetic_text(self, text):
        out = replace_emojis(text, EmojiLexicon({}))
        kept_alpha = [ch for ch in out if ch.isalpha()]
        original_alpha = [ch for ch in text if ch.isalpha()]
        assert kept_alpha == original_alpha

    def test_ascii_key_maps_inside_ascii_text(self):
        assert not CFG.emoji_lexicon.ascii_key and SMILEY.ascii_key
        assert replace_emojis("movie :) mast", SMILEY) == "movie smile mast"
        assert replace_emojis("mast:)", SMILEY) == "mast smile"
        assert replace_emojis("movie :) mast", CFG.emoji_lexicon) == "movie :) mast"
        cfg = PreprocessConfig(emoji_lexicon=SMILEY)
        assert clean_text("Movie :) MAST", cfg) == "movie smile mast"

    def test_lexicon_validation(self):
        with pytest.raises(InputError):
            EmojiLexicon({"😂": "LAUGH"})
        with pytest.raises(InputError):
            EmojiLexicon({"😂": "ha ha"})
        with pytest.raises(InputError):
            EmojiLexicon({"😂": ""})
        with pytest.raises(InputError, match="empty emoji key"):
            EmojiLexicon({"": "sad"})

    def test_default_lexicon_has_normative_entries(self):
        lex = PreprocessConfig().emoji_lexicon
        assert lex.mapping["😞"] == "sad"
        assert lex.mapping["❤️"] == "love"
        assert lex.mapping["😂"] == "laugh"


class TestCaseAndStopwords:
    def test_lowercase_and_drop(self):
        cfg = PreprocessConfig(stop_words=StopWordList(frozenset({"the", "is"})))
        assert normalize_case_and_stopwords("The Movie IS good", cfg) == "movie good"

    def test_empty(self):
        assert normalize_case_and_stopwords("", CFG) == ""

    def test_flag_disables_removal(self):
        cfg = PreprocessConfig(remove_stop_words=False)
        assert normalize_case_and_stopwords("The Movie IS good", cfg) == \
            "the movie is good"

    def test_stop_word_list_validation(self):
        with pytest.raises(InputError):
            StopWordList(frozenset({"The"}))
        with pytest.raises(InputError):
            StopWordList(frozenset({"a b"}))


class TestIsNoise:
    """preprocess_corpus drops noise under one reason per record."""

    def test_symbols_only(self):
        clean, drops = preprocess_corpus(one_record_corpus("!!!???"), CFG)
        assert len(clean) == 0 and drops["no_alpha"] == 1

    def test_fillers(self):
        for f in ("ok", "hmm", "k", "haan"):
            clean, drops = preprocess_corpus(one_record_corpus(f), CFG)
            assert len(clean) == 0 and drops["filler"] == 1, f

    def test_sentiment_text_kept(self):
        clean, drops = preprocess_corpus(one_record_corpus("movie mast hai"), CFG)
        assert [r.text for r in clean.records] == ["movie mast"]
        assert sum(drops.values()) == 0

    def test_filler_list_requires_minimum(self):
        with pytest.raises(InputError, match="haan"):
            FillerList(frozenset({"ok", "hmm", "k"}))


class TestPreprocessCorpus:
    def test_golden_cases(self, preprocess_golden):
        for case in preprocess_golden:
            clean, drops = preprocess_corpus(one_record_corpus(case["input"]), CFG)
            if "output" in case:
                assert len(clean) == 1, case
                assert clean.records[0].text == case["output"], case
            else:
                assert len(clean) == 0, case
                assert drops[case["drop"]] == 1, case

    def test_golden_idempotence(self, preprocess_golden):
        kept = [c["output"] for c in preprocess_golden if "output" in c]
        corpus = Corpus([LabeledTweet(str(i), t, SentimentLabel.NEUTRAL)
                         for i, t in enumerate(kept)])
        clean, drops = preprocess_corpus(corpus, CFG)
        assert [r.text for r in clean.records] == kept
        assert sum(drops.values()) == 0

    def test_drop_reasons_partition_input(self):
        texts = ["Ok", "good movie", "good movie", "!!!", "  ", "nice song"]
        corpus = Corpus([LabeledTweet(str(i), t, SentimentLabel.POSITIVE)
                         for i, t in enumerate(texts)])
        clean, drops = preprocess_corpus(corpus, CFG)
        assert len(clean) + sum(drops.values()) == len(texts)
        assert drops == {"no_alpha": 1, "filler": 1, "empty": 1, "duplicate": 1}
        assert set(drops) == set(DROP_REASONS)

    def test_sequential_example(self):
        clean, _ = preprocess_corpus(
            one_record_corpus("@user 😞 service bohot slow https://x.co"), CFG)
        assert clean.records[0].text == "sad service bohot slow"

    def test_already_clean_corpus_untouched(self):
        texts = ["movie mast", "khana bekar", "song accha laga"]
        corpus = Corpus([LabeledTweet(str(i), t, SentimentLabel.NEUTRAL)
                         for i, t in enumerate(texts)])
        clean, drops = preprocess_corpus(corpus, CFG)
        assert [r.text for r in clean.records] == texts
        assert sum(drops.values()) == 0

    @given(st.lists(st.text(max_size=50), max_size=25))
    def test_output_invariants_fuzz(self, texts):
        corpus = Corpus([LabeledTweet(str(i), t or "x", SentimentLabel.NEUTRAL)
                         for i, t in enumerate(texts)])
        clean, drops = preprocess_corpus(corpus, CFG)
        assert len(clean) + sum(drops.values()) == len(corpus)
        for rec in clean.records:
            t = rec.text
            assert "http://" not in t and "https://" not in t
            assert "#" not in t
            assert not any(tok.startswith("@") for tok in t.split())
            assert t == t.lower()
            assert "  " not in t and t == t.strip()
            assert not any(e in t for e in CFG.emoji_lexicon.mapping)
        # idempotence on the cleaned output
        again, again_drops = preprocess_corpus(clean, CFG)
        assert [r.text for r in again.records] == [r.text for r in clean.records]
        assert sum(again_drops.values()) == 0


# Pieces that reach every branch of the cleaning fast paths: the noise
# marks, an ASCII lexicon key, mapped and unmapped pictographs, non-ASCII
# letters and whitespace.  Half the texts are drawn from ASCII pieces only.
_ASCII_PIECES = ["movie", "MAST", "hai", "ok", "http://x", "https://x", "www.x",
                 "@x", "#x", "#", "@", "http", "www", ".", ":)", ":", ")",
                 " ", " ", " ", "\t", "\n"]
_PIECES = _ASCII_PIECES + ["😂", "❤️", "❤", "😞", "🦖", "⚽", "\u200d", "\ufe0f",
                           "é", "खाना", "नमस्ते", "\u00a0", "\u2028"]


@pytest.mark.parametrize("lex", [CFG.emoji_lexicon, SMILEY], ids=["packaged", "smiley"])
@pytest.mark.parametrize("keep", [False, True], ids=["drop_hashtag", "keep_hashtag"])
@given(text=st.sampled_from([_ASCII_PIECES, _PIECES]).flatmap(
           lambda pieces: st.lists(st.sampled_from(pieces), max_size=10)).map("".join))
def test_clean_text_matches_every_pass_reference(keep, lex, text):
    cfg = PreprocessConfig(emoji_lexicon=lex, keep_hashtag_text=keep)
    assert clean_text(text, cfg) == clean_text_reference(text, cfg)


def test_clean_text_matches_pipeline_steps():
    raw = "Wow!! @shop ka #Service 😂 https://x.co ek dum mast"
    step = normalize_text(raw, CFG.keep_hashtag_text)
    step = replace_emojis(step, CFG.emoji_lexicon)
    step = normalize_case_and_stopwords(step, CFG)
    assert clean_text(raw, CFG) == step
    assert re.fullmatch(r"[^\sA-Z]+( [^\sA-Z]+)*", step)
