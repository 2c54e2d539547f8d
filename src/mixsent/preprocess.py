"""Noisy-text cleaning pipeline for code-mixed social-media posts.

Per record, in order: strip URLs / mentions / hashtags and collapse
whitespace; map emojis to affect words (unmapped pictographs are noise and
are dropped); lowercase and remove stop words; then discard messages that
are empty, contain no alphabetic character, or are bare filler responses;
finally dedup by exact text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .corpus import Corpus, LabeledTweet
from .errors import InputError, parse_json_object, read_file

DROP_REASONS = ("no_alpha", "filler", "empty", "duplicate")

# URLs, @-mentions and, unless hashtag text is kept, hashtag tokens, keyed
# by keep_hashtag_text.  Each match runs to the next whitespace, so removing
# one never starts a new token: one pass removes what a pass per kind would.
# Every match holds "http", "www.", "@" or "#": a text without them has none.
_NOISE_RE = {False: re.compile(r"https?://\S*|(?<!\S)(?:www\.|[@#])\S*"),
             True: re.compile(r"https?://\S*|(?<!\S)(?:www\.|@)\S*")}

# Pictographic / emoji codepoint ranges; none of these contain letters, so
# removing them can never delete alphabetic text, and none is ASCII.
_PICTO_RANGES = (
    (0x1F000, 0x1F0FF),   # mahjong, dominoes, playing cards
    (0x1F1E6, 0x1F1FF),   # regional indicators (flags)
    (0x1F300, 0x1F5FF),
    (0x1F600, 0x1F64F),
    (0x1F680, 0x1F6FF),
    (0x1F700, 0x1F8FF),
    (0x1F900, 0x1FAFF),
    (0x2600, 0x26FF),     # misc symbols
    (0x2700, 0x27BF),     # dingbats (includes the bare heavy heart)
    (0x2B00, 0x2BFF),
    (0xFE00, 0xFE0F),     # variation selectors
    (0x200D, 0x200D),     # zero-width joiner
    (0x20E3, 0x20E3),     # combining keycap
)
_PICTO_RE = re.compile(
    "[" + "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _PICTO_RANGES) + "]")


@dataclass(frozen=True)
class EmojiLexicon:
    """Emoji sequence -> lowercase affect word.

    `pattern` matches any mapped sequence, longest first, so variation
    selector forms take precedence over the bare codepoint; it is None for
    an empty mapping.  `ascii_key` says whether some key is all ASCII (such
    as ":)"); without one, no key can match inside an ASCII text.
    """
    mapping: dict[str, str]
    pattern: re.Pattern | None = field(init=False, repr=False, compare=False)
    ascii_key: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for emoji, token in self.mapping.items():
            if not emoji:
                raise InputError("emoji lexicon has an empty emoji key")
            if not (isinstance(token, str) and token.isalpha() and token == token.lower()):
                raise InputError(
                    f"emoji lexicon token for {emoji!r} must be a lowercase "
                    f"alphabetic word, got {token!r}")
        pattern = None
        if self.mapping:
            pattern = re.compile("|".join(
                re.escape(e) for e in sorted(self.mapping, key=len, reverse=True)))
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "ascii_key", any(e.isascii() for e in self.mapping))


@dataclass(frozen=True)
class StopWordList:
    words: frozenset[str]

    def __post_init__(self):
        for w in self.words:
            if w != w.lower() or any(ch.isspace() for ch in w):
                raise InputError(f"stop word must be lowercase without whitespace: {w!r}")


REQUIRED_FILLERS = frozenset({"ok", "hmm", "k", "haan"})


@dataclass(frozen=True)
class FillerList:
    phrases: frozenset[str]

    def __post_init__(self):
        missing = REQUIRED_FILLERS - self.phrases
        if missing:
            raise InputError(f"filler list must include {sorted(missing)}")
        for p in self.phrases:
            if p != p.lower():
                raise InputError(f"filler phrase must be lowercase: {p!r}")


def source_file(path: str | Path | None, default_name: str):
    """path, or the packaged data file default_name when path is empty."""
    return path or resources.files("mixsent") / "data" / default_name


def load_emoji_lexicon(path: str | Path | None = None) -> EmojiLexicon:
    """JSON object of emoji string -> affect token; default ships ~45 entries."""
    source = source_file(path, "emoji_lexicon.json")
    return EmojiLexicon(parse_json_object(read_file(source, "emoji lexicon"),
                                          f"malformed emoji lexicon {source}"))


def _word_list(path: str | Path | None, default_name: str) -> frozenset[str]:
    """One entry per line; blank lines and '#'-prefixed comments ignored."""
    text = read_file(source_file(path, default_name), "word list")
    lines = (line.strip() for line in text.splitlines())
    return frozenset(line for line in lines if line and not line.startswith("#"))


def load_stop_words(path: str | Path | None = None) -> StopWordList:
    return StopWordList(_word_list(path, "stopwords.txt"))


def load_fillers(path: str | Path | None = None) -> FillerList:
    return FillerList(_word_list(path, "fillers.txt"))


@dataclass(frozen=True)
class PreprocessConfig:
    emoji_lexicon: EmojiLexicon = field(default_factory=load_emoji_lexicon)
    stop_words: StopWordList = field(default_factory=load_stop_words)
    fillers: FillerList = field(default_factory=load_fillers)
    keep_hashtag_text: bool = False
    remove_stop_words: bool = True


def normalize_text(text: str, keep_hashtag_text: bool = False) -> str:
    """Strip URLs, @-mentions, and hashtags; collapse whitespace.

    keep_hashtag_text=False removes hashtag tokens whole; True keeps the
    word and drops only the '#'.  No '#' survives in either mode.
    """
    if "http" in text or "www." in text or "@" in text or "#" in text:
        text = _NOISE_RE[keep_hashtag_text].sub(" ", text).replace("#", "")
    return " ".join(text.split())


def replace_emojis(text: str, lex: EmojiLexicon) -> str:
    """Swap mapped emoji sequences for their affect words and delete any
    remaining pictographic codepoints.  Longest sequence wins, so variation
    selector forms take precedence over the bare codepoint.  An ASCII text
    holds no pictograph, nor any key of a lexicon without ASCII keys."""
    if text.isascii() and not lex.ascii_key:
        return " ".join(text.split())
    if lex.pattern is not None:
        text = lex.pattern.sub(lambda m: f" {lex.mapping[m.group(0)]} ", text)
    text = _PICTO_RE.sub("", text)
    return " ".join(text.split())


def normalize_case_and_stopwords(text: str, cfg: PreprocessConfig) -> str:
    """Lowercase; drop stop-word tokens when the config asks for it."""
    tokens = text.lower().split()
    if cfg.remove_stop_words:
        tokens = [t for t in tokens if t not in cfg.stop_words.words]
    return " ".join(tokens)


def clean_text(text: str, cfg: PreprocessConfig) -> str:
    """The three text transforms in pipeline order."""
    t = normalize_text(text, cfg.keep_hashtag_text)
    t = replace_emojis(t, cfg.emoji_lexicon)
    return normalize_case_and_stopwords(t, cfg)


def preprocess_corpus(c: Corpus, cfg: PreprocessConfig | None = None
                      ) -> tuple[Corpus, dict[str, int]]:
    """Clean every record; drop noise and duplicates.

    Returns the cleaned corpus and drop counts keyed by reason
    (no_alpha, filler, empty, duplicate); each dropped record counts
    under exactly one reason.
    """
    cfg = cfg or PreprocessConfig()
    drops = {reason: 0 for reason in DROP_REASONS}
    kept: list[LabeledTweet] = []
    seen: set[str] = set()
    for rec in c.records:
        text = clean_text(rec.text, cfg)
        if not text:
            drops["empty"] += 1
        elif not any(ch.isalpha() for ch in text):
            drops["no_alpha"] += 1
        elif text in cfg.fillers.phrases:
            drops["filler"] += 1
        elif text in seen:
            drops["duplicate"] += 1
        else:
            seen.add(text)
            kept.append(LabeledTweet(id=rec.id, text=text, label=rec.label,
                                     source=rec.source))
    return Corpus(kept), drops
