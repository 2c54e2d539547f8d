"""Reference cleaning that runs every pass on every text.

`normalize_text_reference` strips noise with one regex pass each for URLs,
@-mentions and hashtag tokens; `mixsent.preprocess.normalize_text` removes
all three in one pass, and skips it on a text that none can match.
`clean_text_reference` always runs that noise stripping and both emoji
substitutions; `mixsent.preprocess.clean_text` skips the emoji passes on an
ASCII text when no lexicon key is ASCII.  The tests require equal output."""

from __future__ import annotations

import re

from mixsent.preprocess import _PICTO_RE, normalize_case_and_stopwords

_URL_RE = re.compile(r"https?://\S*|(?<!\S)www\.\S*")
_MENTION_RE = re.compile(r"(?<!\S)@\S*")
_HASHTAG_TOKEN_RE = re.compile(r"(?<!\S)#\S*")


def normalize_text_reference(text: str, keep_hashtag_text: bool = False) -> str:
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    if not keep_hashtag_text:
        text = _HASHTAG_TOKEN_RE.sub(" ", text)
    text = text.replace("#", "")
    return " ".join(text.split())


def clean_text_reference(text: str, cfg) -> str:
    text = normalize_text_reference(text, cfg.keep_hashtag_text)
    lex = cfg.emoji_lexicon
    if lex.pattern is not None:
        text = lex.pattern.sub(lambda m: f" {lex.mapping[m.group(0)]} ", text)
    text = " ".join(_PICTO_RE.sub("", text).split())
    return normalize_case_and_stopwords(text, cfg)
