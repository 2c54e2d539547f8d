"""Reference encoder: segments every word of every text afresh, trying each
candidate string from the rest of the word down to one character and
looking each up among the vocabulary's tokens.
`mixsent.tokenizer.encode` walks a trie of the tokens once per piece and
memoizes each word's ids, and must return the same ids; the tests compare
the two."""

from __future__ import annotations

from mixsent.tokenizer import (CLS_ID, CONTINUATION_PREFIX, MAX_WORD_CHARS,
                               SEP_ID, UNK, Vocabulary)


def tokenize_word_reference(word: str, v: Vocabulary) -> list[str]:
    if len(word) > MAX_WORD_CHARS:
        return [UNK]
    tokens = set(v.tokens)
    pieces = []
    start = 0
    while start < len(word):
        end = len(word)
        match = None
        while start < end:
            candidate = word[start:end]
            if start > 0:
                candidate = CONTINUATION_PREFIX + candidate
            if candidate in tokens:
                match = candidate
                break
            end -= 1
        if match is None:
            return [UNK]
        pieces.append(match)
        start = end
    return pieces


def encode_reference(text: str, v: Vocabulary, max_len: int) -> list[int]:
    pieces = [p for word in text.split()
              for p in tokenize_word_reference(word, v)]
    return [CLS_ID] + [v.tokens.index(p) for p in pieces[:max_len - 2]] + [SEP_ID]
