"""Reference vocabulary trainer: recounts every adjacent pair of every word
on each merge.  `mixsent.tokenizer.train_vocabulary` updates its counts
incrementally and must return the same vocabulary; the tests compare the
two."""

from __future__ import annotations

from collections import Counter

from mixsent.errors import InputError
from mixsent.tokenizer import (CONTINUATION_PREFIX, MAX_WORD_CHARS, SPECIALS,
                               Vocabulary)


def _word_to_initial_pieces(word: str) -> tuple[str, ...]:
    return tuple(ch if i == 0 else CONTINUATION_PREFIX + ch
                 for i, ch in enumerate(word))


def train_vocabulary_reference(texts: list[str], target_size: int) -> Vocabulary:
    word_counts: Counter[str] = Counter()
    for text in texts:
        for word in text.split():
            if len(word) <= MAX_WORD_CHARS:
                word_counts[word] += 1

    word_pieces = {w: _word_to_initial_pieces(w) for w in word_counts}
    base: list[str] = []
    seen = set(SPECIALS)
    for w in word_counts:
        for piece in word_pieces[w]:
            if piece not in seen:
                seen.add(piece)
                base.append(piece)
    minimum = len(SPECIALS) + len(base) + 1
    if target_size < minimum:
        raise InputError(
            f"target_size {target_size} too small: need at least {minimum} "
            f"({len(SPECIALS)} specials + {len(base)} single-character pieces + 1)")

    vocab = sorted(base)
    merged_tokens: list[str] = []
    known = set(vocab)

    def merge_str(pair: tuple[str, str]) -> str:
        a, b = pair
        return a + b[len(CONTINUATION_PREFIX):]

    while len(SPECIALS) + len(vocab) + len(merged_tokens) < target_size:
        pair_counts: Counter[tuple[str, str]] = Counter()
        for w, pieces in word_pieces.items():
            n = word_counts[w]
            for i in range(len(pieces) - 1):
                pair_counts[(pieces[i], pieces[i + 1])] += n
        if not pair_counts:
            break
        best_count = max(pair_counts.values())
        if best_count < 2:
            break
        best = min((p for p, c in pair_counts.items() if c == best_count),
                   key=lambda p: (merge_str(p), p))
        new_piece = merge_str(best)
        if new_piece not in known:
            known.add(new_piece)
            merged_tokens.append(new_piece)
        for w, pieces in word_pieces.items():
            if best[0] not in pieces:
                continue
            out = []
            i = 0
            while i < len(pieces):
                if i + 1 < len(pieces) and (pieces[i], pieces[i + 1]) == best:
                    out.append(new_piece)
                    i += 2
                else:
                    out.append(pieces[i])
                    i += 1
            word_pieces[w] = tuple(out)

    return Vocabulary.from_pieces(vocab + merged_tokens)
