"""Reference noise stripping: one regex pass each for URLs, @-mentions and
hashtag tokens.  `mixsent.preprocess.normalize_text` removes all three in
one pass and must return the same text; the tests compare the two."""

from __future__ import annotations

import re

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
