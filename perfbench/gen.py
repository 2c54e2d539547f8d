"""Seeded generator of noisy code-mixed (Hinglish-style) sentiment corpora.

Each workload is a `Shape`: record count, words per post, lexicon size and
noise rates.  From a shape and a seed the generator writes

    corpus.jsonl     labelled posts with raw labels POS / NEG / NEU
    label_map.json   raw label -> canonical class name
    predict.txt      unlabelled raw posts, one per line, plus blank lines

and returns the properties of what it wrote.  The same shape and seed give
the same bytes: every random draw comes from `random.Random` seeded with a
string, which Python hashes with SHA-512 independently of PYTHONHASHSEED.

Usage:  python3 perfbench/gen.py --workload short_posts --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import string
from dataclasses import dataclass
from pathlib import Path

# Class shares of the source corpus: 8,987 negative, 7,940 neutral and
# 7,184 positive posts out of 24,111.
CLASS_COUNTS = {"NEG": 8987, "NEU": 7940, "POS": 7184}
LABEL_MAP = {"NEG": "negative", "NEU": "neutral", "POS": "positive"}
# The emoji lexicon bundled with the mixsent sources of this checkout.
EMOJI_LEXICON = (Path(__file__).resolve().parent.parent
                 / "src" / "mixsent" / "data" / "emoji_lexicon.json")

# Affect words of the bundled emoji lexicon, grouped by the class they cue.
AFFECT_CLASS = {
    "POS": {"happy", "grin", "laugh", "smile", "blessed", "love", "kiss",
            "playful", "party", "good", "thanks", "fire", "perfect",
            "sparkle", "celebrate", "yum", "relief"},
    "NEG": {"heartbroken", "sad", "frown", "cry", "angry", "furious", "bad",
            "eyeroll", "shock", "fear", "awkward"},
    "NEU": {"thinking", "meh", "sleepy"},
}
CUE_WORDS = {
    "POS": ["mast", "badhiya", "zabardast", "awesome", "shandaar", "pyaar",
            "kamaal", "superb", "khush", "accha", "maza", "best"],
    "NEG": ["bakwas", "bekar", "ghatiya", "worst", "faltu", "bura",
            "pathetic", "dukhi", "gussa", "boring", "waste", "bekaar"],
    "NEU": ["shayad", "pata", "news", "update", "kal", "schedule",
            "normal", "theek", "dekhte", "info", "waiting", "sawaal"],
}
# Pictographs outside the emoji lexicon: preprocessing deletes them.
UNMAPPED_PICTOGRAPHS = ["🚀", "🌟", "🍕", "🎶", "📱", "🌈", "🏏", "🎬"]
# Common words of the default stop-word list, so stop-word removal has work.
STOP_WORDS = ["hai", "ka", "ki", "ke", "ko", "se", "me", "aur", "the", "is",
              "to", "a", "and", "yeh", "bhi", "kya", "tha", "i", "you", "it"]
FILLERS = ["ok", "okay", "hmm", "haan", "k", "Ok", "HMM"]

ONSETS = ["k", "kh", "g", "gh", "ch", "j", "jh", "t", "th", "d", "dh", "n",
          "p", "ph", "b", "bh", "m", "y", "r", "l", "v", "w", "sh", "s", "h",
          "z", "f", "st", "tr", "pr", "br", "gr", "cl", "sp"]
VOWELS = ["a", "aa", "i", "ee", "u", "oo", "e", "ai", "o", "au", "ei", "ou"]
CODAS = ["", "", "", "n", "r", "l", "t", "k", "m", "s", "ng", "sh", "nd"]


@dataclass(frozen=True)
class Shape:
    """What one workload's corpus looks like."""
    records: int
    min_words: int
    max_words: int
    lexicon: int          # distinct generated words
    predict_texts: int


# Chance per word of a stop word, of a word from the class's own share of the
# lexicon, and of a capitalised word; chance per post of a class cue word and
# of each kind of noise.
STOP_WORD, TOPIC, CAPITAL = 0.12, 0.45, 0.08
CUE = 0.8
EMOJI, PICTOGRAPH, MENTION, URL, HASHTAG = 0.3, 0.1, 0.15, 0.1, 0.12
FILLER, NO_ALPHA, DUPLICATE = 0.01, 0.005, 0.02


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def _lexicon(rng: random.Random, size: int) -> list[str]:
    reserved = set(STOP_WORDS) | {f.lower() for f in FILLERS}
    for words in CUE_WORDS.values():
        reserved.update(words)
    for words in AFFECT_CLASS.values():
        reserved.update(words)
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < size:
        n = rng.choice((1, 2, 2, 3, 3, 4))
        w = "".join(rng.choice(ONSETS) + rng.choice(VOWELS) for _ in range(n))
        w += rng.choice(CODAS)
        if w not in seen and w not in reserved:
            seen.add(w)
            words.append(w)
    return words


def _cum_zipf(n: int, exponent: float = 1.05) -> list[float]:
    total = 0.0
    out = []
    for rank in range(1, n + 1):
        total += rank ** -exponent
        out.append(total)
    return out


def _emoji_by_class() -> dict[str, list[str]]:
    mapping = json.loads(EMOJI_LEXICON.read_text(encoding="utf-8"))
    out: dict[str, list[str]] = {c: [] for c in AFFECT_CLASS}
    for emoji, word in sorted(mapping.items()):
        for cls, words in AFFECT_CLASS.items():
            if word in words:
                out[cls].append(emoji)
    return out


class _PostMaker:
    def __init__(self, shape: Shape, rng: random.Random,
                 emoji: dict[str, list[str]]):
        self.shape, self.rng, self.emoji = shape, rng, emoji
        words = _lexicon(rng, shape.lexicon)
        self.words, self.cum = words, _cum_zipf(len(words))
        self.topic_words = {}
        for i, cls in enumerate(sorted(CUE_WORDS)):
            own = words[i::3]
            self.topic_words[cls] = (own, _cum_zipf(len(own)))
        self.all_emoji = [e for group in emoji.values() for e in group]

    def _word(self, cls: str) -> str:
        rng = self.rng
        if rng.random() < STOP_WORD:
            return rng.choice(STOP_WORDS)
        if rng.random() < TOPIC:
            own, cum = self.topic_words[cls]
            w = rng.choices(own, cum_weights=cum)[0]
        else:
            w = rng.choices(self.words, cum_weights=self.cum)[0]
        return w.capitalize() if rng.random() < CAPITAL else w

    def post(self, cls: str) -> tuple[str, set[str]]:
        """One raw post of class `cls` and the kinds of noise it carries."""
        s, rng = self.shape, self.rng
        if rng.random() < FILLER:
            return rng.choice(FILLERS), {"filler"}
        if rng.random() < NO_ALPHA:
            return f"{rng.randint(1, 999)} !!! {rng.choice(UNMAPPED_PICTOGRAPHS)}", {"no_alpha"}
        kinds = set()
        tokens = [self._word(cls)
                  for _ in range(rng.randint(s.min_words, s.max_words))]
        if rng.random() < CUE:
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(CUE_WORDS[cls]))
        extras = []
        if rng.random() < EMOJI:
            kinds.add("emoji")
            pool = self.emoji[cls] if rng.random() < 0.8 else self.all_emoji
            extras.append("".join(rng.choice(pool) for _ in range(rng.randint(1, 2))))
        if rng.random() < PICTOGRAPH:
            kinds.add("pictograph")
            extras.append(rng.choice(UNMAPPED_PICTOGRAPHS))
        if rng.random() < MENTION:
            kinds.add("mention")
            extras.append(f"@{rng.choice(self.words)}{rng.randint(1, 99)}")
        if rng.random() < URL:
            kinds.add("url")
            slug = "".join(rng.choice(string.ascii_letters + string.digits)
                           for _ in range(8))
            extras.append(f"https://t.co/{slug}")
        if rng.random() < HASHTAG:
            kinds.add("hashtag")
            extras.append("#" + rng.choice(self.words))
        for extra in extras:
            tokens.insert(rng.randrange(len(tokens) + 1), extra)
        return " ".join(tokens), kinds


def _labels(shape: Shape, rng: random.Random) -> list[str]:
    total = sum(CLASS_COUNTS.values())
    counts = {c: shape.records * n // total for c, n in CLASS_COUNTS.items()}
    counts["NEG"] += shape.records - sum(counts.values())
    labels = [c for c in sorted(counts) for _ in range(counts[c])]
    rng.shuffle(labels)
    return labels


def generate(workload: str, shape: Shape, seed: int, out_dir: Path) -> dict:
    """Write the workload's inputs into out_dir and return their properties."""
    emoji = _emoji_by_class()
    maker = _PostMaker(shape, _rng(workload, seed, "posts"), emoji)
    rng = maker.rng
    noise = {k: 0 for k in ("emoji", "pictograph", "mention", "url", "hashtag",
                            "filler", "no_alpha", "duplicate")}
    rows = []
    by_class: dict[str, list[str]] = {c: [] for c in CLASS_COUNTS}
    for i, cls in enumerate(_labels(shape, _rng(workload, seed, "labels"))):
        if by_class[cls] and rng.random() < DUPLICATE:
            text, kinds = rng.choice(by_class[cls]), {"duplicate"}
        else:
            text, kinds = maker.post(cls)
            by_class[cls].append(text)
        for kind in kinds:
            noise[kind] += 1
        rows.append({"id": f"p{i}", "text": text, "label": cls})

    lines = []
    for i in range(shape.predict_texts):
        text, _ = maker.post(rng.choice(sorted(CLASS_COUNTS)))
        lines.append(text)
        if i % 50 == 49:
            lines.append("")

    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "corpus.jsonl").open("w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    (out_dir / "label_map.json").write_text(json.dumps(LABEL_MAP, sort_keys=True) + "\n",
                                            encoding="utf-8")
    (out_dir / "predict.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    words = [w for row in rows for w in row["text"].split()]
    n = len(rows)
    return {
        "records": n,
        "class_counts": {c: sum(r["label"] == c for r in rows) for c in sorted(CLASS_COUNTS)},
        "mean_words": round(len(words) / n, 3),
        "distinct_words": len({w.lower() for w in words if w.isalpha()}),
        "noise_rates": {k: round(v / n, 4) for k, v in noise.items()},
        "predict_texts": sum(1 for line in lines if line.strip()),
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    props = generate(args.workload, WORKLOADS[args.workload].shape, args.seed, args.out)
    print(json.dumps(props, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
