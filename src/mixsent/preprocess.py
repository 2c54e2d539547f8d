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

from .corpus import Corpus, LabeledTweet
from .errors import InputError, check_value, parse_json_object, read_file

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


REQUIRED_FILLERS = frozenset({"ok", "hmm", "k", "haan"})


@dataclass(frozen=True)
class PreprocessConfig:
    """The cleaning setup; cleaning_config builds it from a cleaning record."""
    emoji_lexicon: EmojiLexicon
    stop_words: frozenset[str]
    fillers: frozenset[str]
    keep_hashtag_text: bool
    remove_stop_words: bool

    def __post_init__(self):
        for w in self.stop_words:
            if w != w.lower() or any(ch.isspace() for ch in w):
                raise InputError(f"stop word must be lowercase without whitespace: {w!r}")
        missing = REQUIRED_FILLERS - self.fillers
        if missing:
            raise InputError(f"filler list must include {sorted(missing)}")
        for p in self.fillers:
            if p != p.lower():
                raise InputError(f"filler phrase must be lowercase: {p!r}")


# The cleaning record, which prepare writes as preprocess.json, train copies
# into every model header and predict reads from there: each key and the
# kind of its value.  Each list's text is held by its packaged file's name.
CLEANING_RECORD = {"keep_hashtag_text": "bool", "remove_stop_words": "bool",
                   "emoji_lexicon.json": "str", "stopwords.txt": "str", "fillers.txt": "str"}


def cleaning_record(emoji_lexicon_file: str | None = None, stopwords_file: str | None = None,
                    fillers_file: str | None = None, keep_hashtag_text: bool = False,
                    remove_stop_words: bool = True) -> dict:
    """The cleaning record of the --config preprocess section: the two flags,
    and the text of each named list file, or of the packaged list (the
    lexicon ships ~45 entries) where none is named."""
    files = {"emoji_lexicon.json": ("emoji_lexicon_file", emoji_lexicon_file),
             "stopwords.txt": ("stopwords_file", stopwords_file),
             "fillers.txt": ("fillers_file", fillers_file)}
    return {"keep_hashtag_text": keep_hashtag_text, "remove_stop_words": remove_stop_words,
            **{name: read_file(path or resources.files("mixsent") / "data" / name,
                               f"preprocess.{key}")
               for name, (key, path) in files.items()}}


def cleaning_config(record, source: str, lexicon: str | None = None) -> PreprocessConfig:
    """The cleaning config of a cleaning record, as preprocess.json and a
    model header hold it.  Its errors start with source; a malformed lexicon
    is named lexicon, the file it was read from (by default the packaged
    one)."""
    try:
        if not isinstance(record, dict) or not set(CLEANING_RECORD) <= set(record):
            raise InputError(f"preprocess must be a JSON object with the keys "
                             f"{sorted(CLEANING_RECORD)}")
        for key, kind in CLEANING_RECORD.items():
            check_value(f"preprocess.{key}", record[key], kind)
        return PreprocessConfig(
            emoji_lexicon=EmojiLexicon(parse_json_object(
                record["emoji_lexicon.json"],
                f"malformed emoji lexicon {lexicon or 'emoji_lexicon.json'}")),
            stop_words=parse_word_list(record["stopwords.txt"]),
            fillers=parse_word_list(record["fillers.txt"]),
            keep_hashtag_text=record["keep_hashtag_text"],
            remove_stop_words=record["remove_stop_words"])
    except InputError as e:
        raise InputError(f"{source}: {e}") from None


def parse_word_list(text: str) -> frozenset[str]:
    """One entry per line; blank lines and '#'-prefixed comments ignored."""
    lines = (line.strip() for line in text.splitlines())
    return frozenset(line for line in lines if line and not line.startswith("#"))


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
        tokens = [t for t in tokens if t not in cfg.stop_words]
    return " ".join(tokens)


def clean_text(text: str, cfg: PreprocessConfig) -> str:
    """The three text transforms in pipeline order."""
    t = normalize_text(text, cfg.keep_hashtag_text)
    t = replace_emojis(t, cfg.emoji_lexicon)
    return normalize_case_and_stopwords(t, cfg)


def preprocess_corpus(c: Corpus, cfg: PreprocessConfig) -> tuple[Corpus, dict[str, int]]:
    """Clean every record; drop noise and duplicates.

    Returns the cleaned corpus and drop counts keyed by reason
    (no_alpha, filler, empty, duplicate); each dropped record counts
    under exactly one reason.
    """
    drops = {reason: 0 for reason in DROP_REASONS}
    kept: list[LabeledTweet] = []
    seen: set[str] = set()
    for rec in c.records:
        text = clean_text(rec.text, cfg)
        if not text:
            drops["empty"] += 1
        elif not any(ch.isalpha() for ch in text):
            drops["no_alpha"] += 1
        elif text in cfg.fillers:
            drops["filler"] += 1
        elif text in seen:
            drops["duplicate"] += 1
        else:
            seen.add(text)
            kept.append(LabeledTweet(id=rec.id, text=text, label=rec.label,
                                     source=rec.source))
    return Corpus(kept), drops
