"""WordPiece subword tokenizer.

Greedy longest-match-first encoding over a vocabulary whose non-initial
pieces carry the "##" continuation prefix; special tokens [PAD]/[UNK]/
[CLS]/[SEP] are pinned to ids 0-3.  Sequences are assembled as
[CLS] pieces [SEP], truncated from the tail and left unpadded.

Because pretrained checkpoints are out of scope, a deterministic
frequency-driven trainer (iterative most-frequent pair merging) builds
desk-scale vocabularies from raw text.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .errors import InputError

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
SPECIALS = (PAD, UNK, CLS, SEP)
PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3
CONTINUATION_PREFIX = "##"
# A longer word encodes as [UNK] and adds no pieces to a trained vocabulary.
MAX_WORD_CHARS = 100


@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple[str, ...]
    # A trie of every token's full string, specials and "##" pieces included:
    # each node maps a character to its child, and "" to the id of the token
    # that ends there.
    _trie: dict = field(init=False, hash=False, compare=False, repr=False)
    # encode's memo: word -> the word's ids.
    _word_ids: dict[str, tuple[int, ...]] = field(
        init=False, hash=False, compare=False, repr=False)

    def __post_init__(self):
        if tuple(self.tokens[:4]) != SPECIALS:
            raise InputError(f"vocabulary must start with {SPECIALS} at ids 0-3")
        trie: dict = {}
        for i, tok in enumerate(self.tokens):
            if not isinstance(tok, str) or not tok:
                raise InputError(f"vocabulary token {tok!r} is not a non-empty string")
            if tok.startswith(CONTINUATION_PREFIX) and len(tok) <= 2:
                raise InputError(f"continuation piece needs >=1 char after '##': {tok!r}")
            node = trie
            for ch in tok:
                node = node.setdefault(ch, {})
            if "" in node:
                raise InputError(f"vocabulary repeats token {tok!r}")
            node[""] = i
        object.__setattr__(self, "_trie", trie)
        object.__setattr__(self, "_word_ids", {})

    def __len__(self) -> int:
        return len(self.tokens)

    @classmethod
    def from_pieces(cls, pieces: list[str] | tuple[str, ...]) -> "Vocabulary":
        """Build a vocabulary from non-special pieces, prepending the specials."""
        return cls(tuple(SPECIALS) + tuple(pieces))


def _segment(word: str, trie: dict) -> tuple[int, ...]:
    """Greedy longest-match-first ids of one whitespace-free word, or
    (UNK_ID,) when some position starts no piece.

    Each piece is one walk down the vocabulary trie: a word-initial piece
    from the root, a continuation piece from the node reached by "##".  The
    last token end passed is the longest match (Song et al., "Fast
    WordPiece Tokenization", EMNLP 2021).
    """
    continuation = trie  # the node reached by "##", or {} if no token has it
    for ch in CONTINUATION_PREFIX:
        continuation = continuation.get(ch, {})
    node = trie
    start, n = 0, len(word)
    ids = []
    while True:
        best = -1
        i = start
        while i < n:
            node = node.get(word[i])
            if node is None:
                break
            i += 1
            end_id = node.get("")
            if end_id is not None:
                best, start = end_id, i
        if best < 0:
            return (UNK_ID,)
        ids.append(best)
        if start == n:
            return tuple(ids)
        node = continuation


def encode(text: str, v: Vocabulary, max_len: int) -> list[int]:
    """[CLS] + pieces + [SEP], tail-truncated to max_len; no padding.

    A word longer than MAX_WORD_CHARS is [UNK].  Each distinct word is
    segmented once per vocabulary; its ids are kept on the vocabulary for
    later texts.
    """
    word_ids = v._word_ids
    budget = max_len - 2
    ids: list[int] = []
    for word in text.split():
        if len(ids) >= budget:
            break
        hit = word_ids.get(word)
        if hit is None:
            hit = word_ids[word] = (_segment(word, v._trie)
                                    if len(word) <= MAX_WORD_CHARS else (UNK_ID,))
        ids.extend(hit)
    return [CLS_ID] + ids[:budget] + [SEP_ID]


def _word_to_initial_pieces(word: str) -> list[str]:
    return [word[0], *[CONTINUATION_PREFIX + ch for ch in word[1:]]]


def _merge_str(pair: tuple[str, str]) -> str:
    a, b = pair
    return a + b[len(CONTINUATION_PREFIX):]


def train_vocabulary(texts: list[str], target_size: int) -> Vocabulary:
    """Frequency-driven vocabulary trainer.

    Starts from the specials plus every observed single-character piece
    (word-initial and continuation forms), then repeatedly merges the most
    frequent adjacent pair (ties broken by lexicographically smallest
    merged string) until target_size is reached or no pair occurs twice.
    The result encodes every training word of at most MAX_WORD_CHARS
    without [UNK].

    Pair counts and a pair -> words index persist across merges, so each
    merge visits only the words listed for the merged pair, and in them
    recounts only the pairs next to a merge site (Sennrich et al., 2016):
    (left, a), (a, b) and (b, right) give way to (left, new) and
    (new, right).  Sites are found by position, left to right, so a piece
    equal to the new one from an earlier merge is left alone.  A heap keyed
    on (-count, merged string, pair) picks the merge; entries whose count
    is out of date are skipped when popped.  The key is total, so a pair
    pushed again with an unchanged count changes no merge.
    """
    word_counts = {word: n for word, n in
                   Counter(w for text in texts for w in text.split()).items()
                   if len(word) <= MAX_WORD_CHARS}

    freqs = list(word_counts.values())
    word_pieces = [_word_to_initial_pieces(w) for w in word_counts]
    base: list[str] = []
    seen = set(SPECIALS)
    for pieces in word_pieces:  # first-seen order; membership is what matters
        for piece in pieces:
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

    pair_counts: defaultdict[tuple[str, str], int] = defaultdict(int)
    pair_words: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for w, pieces in enumerate(word_pieces):
        n = freqs[w]
        for pair in zip(pieces, pieces[1:]):
            pair_counts[pair] += n
            pair_words[pair].add(w)
    heap = [(-c, _merge_str(p), p) for p, c in pair_counts.items()]
    heapq.heapify(heap)

    while len(SPECIALS) + len(vocab) + len(merged_tokens) < target_size:
        while heap and pair_counts.get(heap[0][2]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < 2:
            break
        _, new_piece, best = heapq.heappop(heap)
        if new_piece not in known:
            known.add(new_piece)
            merged_tokens.append(new_piece)
        # After the merge no word holds the pair, so its index entry goes.
        # A word listed there may have lost the pair to an earlier merge.
        a, b = best
        changed = {best}
        for w in pair_words.pop(best):
            pieces = word_pieces[w]
            if a not in pieces:
                continue
            n = freqs[w]
            i = pieces.index(a)
            while i < len(pieces) - 1:
                if pieces[i] == a and pieces[i + 1] == b:
                    pair_counts[best] -= n
                    if i:
                        left = pieces[i - 1]
                        lost, gained = (left, a), (left, new_piece)
                        pair_counts[lost] -= n
                        pair_counts[gained] += n
                        pair_words[gained].add(w)
                        changed.add(lost)
                        changed.add(gained)
                    pieces[i:i + 2] = [new_piece]
                    if i + 1 < len(pieces):
                        right = pieces[i + 1]
                        lost, gained = (b, right), (new_piece, right)
                        pair_counts[lost] -= n
                        pair_counts[gained] += n
                        pair_words[gained].add(w)
                        changed.add(lost)
                        changed.add(gained)
                i += 1
        for pair in changed:
            count = pair_counts[pair]
            if count:
                heapq.heappush(heap, (-count, _merge_str(pair), pair))
            else:
                del pair_counts[pair]

    return Vocabulary.from_pieces(vocab + merged_tokens)

