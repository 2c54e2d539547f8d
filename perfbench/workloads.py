"""The benchmark's workloads: corpus shape plus the `--config` passed to
`prepare` and to each model's `train`.  Every workload runs the whole
pipeline with all three models, so every metric exists on every workload;
the shapes differ in which layer dominates.  Why each workload exists is
registered in BENCHMARK.json."""

from __future__ import annotations

from dataclasses import dataclass, field

from gen import Shape


@dataclass(frozen=True)
class Workload:
    shape: Shape
    configs: dict = field(default_factory=dict)   # command or model -> --config


# Learning rate and warmup for a one-epoch run over at most a thousand or so
# posts (the defaults are the paper's recipe for 24k posts and three epochs).
_SMALL_RECIPE = {"learning_rate": 1e-3, "epochs": 1, "warmup_steps": 10}
# A 40% test split keeps the baselines' test F1 steady across seeds and
# halves training cost, so a run fits several rounds.
_SPLIT = {"split": {"train_frac": 0.5, "val_frac": 0.1}}

WORKLOADS = {
    "short_posts": Workload(
        shape=Shape(records=1600, min_words=5, max_words=25, lexicon=20000,
                    predict_texts=400),
        configs={"prepare": _SPLIT, "transformer": {
            "tokenizer": {"max_len": 128, "vocab_size": 150},
            "encoder": {"num_layers": 1, "num_heads": 2, "d_model": 32, "d_ff": 64},
            "train": _SMALL_RECIPE}}),
    "transformer_short": Workload(
        shape=Shape(records=320, min_words=5, max_words=25, lexicon=1500,
                    predict_texts=64),
        configs={"prepare": _SPLIT, "transformer": {
            "tokenizer": {"max_len": 128, "vocab_size": 500},
            "train": _SMALL_RECIPE}}),
    "long_posts": Workload(
        shape=Shape(records=200, min_words=30, max_words=100, lexicon=3000,
                    predict_texts=64),
        configs={"prepare": _SPLIT, "transformer": {
            "tokenizer": {"max_len": 128, "vocab_size": 400},
            "train": _SMALL_RECIPE}}),
}
