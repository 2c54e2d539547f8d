"""WordPiece subword tokenizer.

Greedy longest-match-first encoding over a vocabulary whose non-initial
pieces carry the "##" continuation prefix; special tokens [PAD]/[UNK]/
[CLS]/[SEP] are pinned to ids 0-3.  Sequences are assembled as
[CLS] pieces [SEP], truncated from the tail and padded to a fixed length.

Because pretrained checkpoints are out of scope, a deterministic
frequency-driven trainer (iterative most-frequent pair merging) builds
desk-scale vocabularies from raw text.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InputError

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
SPECIALS = (PAD, UNK, CLS, SEP)
PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3
CONTINUATION_PREFIX = "##"


@dataclass(frozen=True)
class TokenizerConfig:
    max_len: int = 128
    max_word_chars: int = 100

    def __post_init__(self):
        if self.max_len < 3:
            raise InputError("max_len must be >= 3 (room for [CLS], a piece, [SEP])")
        if self.max_word_chars < 1:
            raise InputError("max_word_chars must be positive")


@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple[str, ...]
    token_to_id: dict[str, int] = field(hash=False, compare=False, default=None)

    def __post_init__(self):
        if tuple(self.tokens[:4]) != SPECIALS:
            raise InputError(f"vocabulary must start with {SPECIALS} at ids 0-3")
        if len(set(self.tokens)) != len(self.tokens):
            raise InputError("vocabulary contains duplicate tokens")
        for tok in self.tokens[4:]:
            if tok in SPECIALS:
                raise InputError(f"special token {tok} repeated past id 3")
            if tok.startswith(CONTINUATION_PREFIX) and len(tok) <= 2:
                raise InputError(f"continuation piece needs >=1 char after '##': {tok!r}")
            if not tok:
                raise InputError("empty token in vocabulary")
        object.__setattr__(self, "token_to_id",
                           {tok: i for i, tok in enumerate(self.tokens)})

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id_of(self, token: str) -> int:
        return self.token_to_id[token]

    @classmethod
    def from_pieces(cls, pieces: list[str] | tuple[str, ...]) -> "Vocabulary":
        """Build a vocabulary from non-special pieces, prepending the specials."""
        return cls(tuple(SPECIALS) + tuple(pieces))


@dataclass(frozen=True)
class Encoding:
    ids: tuple[int, ...]
    attention_mask: tuple[int, ...]
    num_real: int


def tokenize_word(word: str, v: Vocabulary, cfg: TokenizerConfig) -> list[str]:
    """Greedy longest-match segmentation of one whitespace-free word.

    Returns [UNK] when the word is over-long or any position has no
    matching piece.
    """
    if not word or any(ch.isspace() for ch in word):
        raise InputError(f"tokenize_word expects a non-empty whitespace-free word: {word!r}")
    if len(word) > cfg.max_word_chars:
        return [UNK]
    pieces = []
    start = 0
    while start < len(word):
        end = len(word)
        match = None
        while start < end:
            candidate = word[start:end]
            if start > 0:
                candidate = CONTINUATION_PREFIX + candidate
            if candidate in v:
                match = candidate
                break
            end -= 1
        if match is None:
            return [UNK]
        pieces.append(match)
        start = end
    return pieces


def encode(text: str, v: Vocabulary, cfg: TokenizerConfig) -> Encoding:
    """[CLS] + pieces + [SEP], tail-truncated to max_len and PAD-filled."""
    pieces: list[str] = []
    for word in text.split():
        pieces.extend(tokenize_word(word, v, cfg))
    pieces = pieces[:cfg.max_len - 2]
    ids = [CLS_ID] + [v.id_of(p) for p in pieces] + [SEP_ID]
    num_real = len(ids)
    ids.extend([PAD_ID] * (cfg.max_len - num_real))
    mask = [1] * num_real + [0] * (cfg.max_len - num_real)
    return Encoding(ids=tuple(ids), attention_mask=tuple(mask), num_real=num_real)


def decode(e: Encoding, v: Vocabulary) -> str:
    """Invert encode: drop specials/padding and fuse '##' continuations."""
    words: list[str] = []
    for i in e.ids:
        if i >= len(v) or i < 0:
            raise InputError(f"token id {i} outside vocabulary of size {len(v)}")
        if i in (PAD_ID, CLS_ID, SEP_ID):
            continue
        tok = v.tokens[i]
        if tok.startswith(CONTINUATION_PREFIX) and words:
            words[-1] += tok[len(CONTINUATION_PREFIX):]
        else:
            words.append(tok)
    return " ".join(words)


def _word_to_initial_pieces(word: str) -> tuple[str, ...]:
    return tuple(ch if i == 0 else CONTINUATION_PREFIX + ch
                 for i, ch in enumerate(word))


def _merge_str(pair: tuple[str, str]) -> str:
    a, b = pair
    return a + b[len(CONTINUATION_PREFIX):]


def _apply_merge(pieces: tuple[str, ...], pair: tuple[str, str],
                 new_piece: str) -> tuple[str, ...]:
    """Replace each occurrence of pair, scanning left to right."""
    out = []
    i = 0
    while i < len(pieces):
        if i + 1 < len(pieces) and (pieces[i], pieces[i + 1]) == pair:
            out.append(new_piece)
            i += 2
        else:
            out.append(pieces[i])
            i += 1
    return tuple(out)


def train_vocabulary(texts: list[str], target_size: int,
                     cfg: TokenizerConfig | None = None) -> Vocabulary:
    """Frequency-driven vocabulary trainer.

    Starts from the specials plus every observed single-character piece
    (word-initial and continuation forms), then repeatedly merges the most
    frequent adjacent pair (ties broken by lexicographically smallest
    merged string) until target_size is reached or no pair occurs twice.
    The result encodes every in-limit training word without [UNK].

    Pair counts and a pair -> words index persist across merges, so each
    merge recounts only the words that contain the merged pair (Sennrich
    et al., 2016).  A heap keyed on (-count, merged string, pair) picks
    the merge; entries whose count is out of date are skipped when popped.
    """
    cfg = cfg or TokenizerConfig()
    word_counts: Counter[str] = Counter()
    for text in texts:
        for word in text.split():
            if len(word) <= cfg.max_word_chars:
                word_counts[word] += 1

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

    pair_counts: Counter[tuple[str, str]] = Counter()
    pair_words: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for w, pieces in enumerate(word_pieces):
        for pair in zip(pieces, pieces[1:]):
            pair_counts[pair] += freqs[w]
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
        changed = set()
        for w in pair_words.pop(best):
            old = word_pieces[w]
            new = _apply_merge(old, best, new_piece)
            if new == old:  # merged away by an earlier merge
                continue
            n = freqs[w]
            for pair in zip(old, old[1:]):
                pair_counts[pair] -= n
                changed.add(pair)
            for pair in zip(new, new[1:]):
                pair_counts[pair] += n
                pair_words[pair].add(w)
                changed.add(pair)
            word_pieces[w] = new
        for pair in changed:
            count = pair_counts[pair]
            if count:
                heapq.heappush(heap, (-count, _merge_str(pair), pair))
            else:
                del pair_counts[pair]

    return Vocabulary.from_pieces(vocab + merged_tokens)


def save_vocabulary(v: Vocabulary, path: str | Path) -> None:
    """One token per line; the line index is the token id."""
    Path(path).write_text("\n".join(v.tokens) + "\n", encoding="utf-8")


def load_vocabulary(path: str | Path) -> Vocabulary:
    path = Path(path)
    if not path.exists():
        raise InputError(f"vocabulary file not found: {path}")
    tokens = []
    seen = set()
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh):
            tok = line.rstrip("\n")
            if not tok:
                raise InputError(f"{path}:{line_no + 1}: empty vocabulary line")
            if tok in seen:
                raise InputError(f"{path}:{line_no + 1}: duplicate token {tok!r}")
            seen.add(tok)
            tokens.append(tok)
    if len(tokens) < 4 or tuple(tokens[:4]) != SPECIALS:
        raise InputError(
            f"{path}: lines 0-3 must be the specials {' '.join(SPECIALS)}")
    try:
        return Vocabulary(tuple(tokens))
    except InputError as e:
        raise InputError(f"{path}: {e}") from None
