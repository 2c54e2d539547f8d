"""Noisy-text cleaning pipeline for code-mixed social-media posts.

Per record, in order: strip URLs / mentions / hashtags and collapse
whitespace; map emojis to affect words (unmapped pictographs are noise and
are dropped); lowercase and remove stop words; then discard messages that
are empty, contain no alphabetic character, or are bare filler responses;
finally dedup by exact text.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .corpus import Corpus, LabeledTweet
from .errors import InputError

DROP_REASONS = ("no_alpha", "filler", "empty", "duplicate")

_URL_RE = re.compile(r"https?://\S*|(?<!\S)www\.\S*")
_MENTION_RE = re.compile(r"(?<!\S)@\S*")
_HASHTAG_TOKEN_RE = re.compile(r"(?<!\S)#\S*")

# Pictographic / emoji codepoint ranges; none of these contain letters, so
# removing them can never delete alphabetic text.
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
    an empty mapping.
    """
    mapping: dict[str, str]
    pattern: re.Pattern | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for emoji, token in self.mapping.items():
            if not emoji:
                raise InputError("emoji lexicon has an empty emoji key")
            if not token or not token.isalpha() or token != token.lower():
                raise InputError(
                    f"emoji lexicon token for {emoji!r} must be a lowercase "
                    f"alphabetic word, got {token!r}")
        pattern = None
        if self.mapping:
            pattern = re.compile("|".join(
                re.escape(e) for e in sorted(self.mapping, key=len, reverse=True)))
        object.__setattr__(self, "pattern", pattern)


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


def _data_text(name: str) -> str:
    return (resources.files("mixsent") / "data" / name).read_text(encoding="utf-8")


def load_emoji_lexicon(path: str | Path | None = None) -> EmojiLexicon:
    """JSON object of emoji string -> affect token; default ships ~45 entries."""
    text = Path(path).read_text(encoding="utf-8") if path else _data_text("emoji_lexicon.json")
    try:
        mapping = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"emoji lexicon is not valid JSON: {e}") from None
    return EmojiLexicon(mapping)


def load_word_list(path: str | Path | None, default_name: str) -> frozenset[str]:
    """One entry per line; blank lines and '#'-prefixed comments ignored."""
    text = Path(path).read_text(encoding="utf-8") if path else _data_text(default_name)
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(line)
    return frozenset(entries)


def default_stop_words() -> StopWordList:
    return StopWordList(load_word_list(None, "stopwords.txt"))


def default_fillers() -> FillerList:
    return FillerList(load_word_list(None, "fillers.txt"))


@dataclass(frozen=True)
class PreprocessConfig:
    emoji_lexicon: EmojiLexicon = field(default_factory=load_emoji_lexicon)
    stop_words: StopWordList = field(default_factory=default_stop_words)
    fillers: FillerList = field(default_factory=default_fillers)
    keep_hashtag_text: bool = False
    remove_stop_words: bool = True


def normalize_text(text: str, keep_hashtag_text: bool = False) -> str:
    """Strip URLs, @-mentions, and hashtags; collapse whitespace.

    keep_hashtag_text=False removes hashtag tokens whole; True keeps the
    word and drops only the '#'.  No '#' survives in either mode.
    """
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    if not keep_hashtag_text:
        text = _HASHTAG_TOKEN_RE.sub(" ", text)
    text = text.replace("#", "")
    return " ".join(text.split())


def replace_emojis(text: str, lex: EmojiLexicon) -> str:
    """Swap mapped emoji sequences for their affect words and delete any
    remaining pictographic codepoints.  Longest sequence wins, so variation
    selector forms take precedence over the bare codepoint."""
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


def _has_alpha(text: str) -> bool:
    return any(ch.isalpha() for ch in text)


def is_noise(text: str, cfg: PreprocessConfig) -> bool:
    """True for messages with no alphabetic character or bare fillers.
    Expects text already normalized by the earlier steps."""
    stripped = text.strip()
    return not _has_alpha(stripped) or stripped in cfg.fillers.phrases


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
        elif not _has_alpha(text):
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
