"""Command-line front end: prepare / train / evaluate / predict / report.

Every artifact is written with a manifest (pipeline version, input
digests, config snapshot, seed, sizes) and no timestamps, so identical
inputs reproduce byte-identical outputs.  Exit codes: 0 success, 1
runtime failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import baselines
from . import transformer as tfm
from .corpus import (CANONICAL_LABEL_MAP, LABELS, Corpus, SplitSpec,
                     class_distribution, load_corpus, load_label_map, merge,
                     save_corpus, split)
from .errors import InputError, MixsentError, check_value
from .features import (fit_term_index, load_term_index, save_term_index,
                       tfidf_transform)
from .metrics import (compare_models, evaluate, format_report, load_report,
                      per_class_f1_report, round_half_up, save_report)
from .preprocess import (FillerList, PreprocessConfig, StopWordList,
                         clean_text, load_emoji_lexicon, load_word_list,
                         preprocess_corpus)
from .tokenizer import (TokenizerConfig, load_vocabulary, save_vocabulary,
                        train_vocabulary)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, ensure_ascii=False, indent=2,
                               sort_keys=True) + "\n", encoding="utf-8")


def _load_overrides(arg: str | None) -> dict:
    """--config accepts a JSON file path or an inline JSON object."""
    if not arg:
        return {}
    path = Path(arg)
    if path.exists():
        text = path.read_text(encoding="utf-8")
    elif arg.lstrip().startswith("{"):
        text = arg
    else:
        raise InputError(f"config file not found: {arg}")
    try:
        overrides = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"config is not valid JSON: {e}") from None
    if not isinstance(overrides, dict):
        raise InputError("config must be a JSON object")
    return overrides


def _section(overrides: dict, name: str, defaults: dict) -> dict:
    """defaults updated from overrides[name]: a JSON object with no other
    keys, holding an int where the default is an int and a number where it
    is a float."""
    section = overrides.get(name, {})
    if not isinstance(section, dict) or not set(section) <= set(defaults):
        raise InputError(f"config section {name!r} must be a JSON object with "
                         f"keys among {sorted(defaults)}")
    for key, value in section.items():
        if type(defaults[key]) in (int, float):
            check_value(f"config value {name}.{key}", value,
                        type(defaults[key]).__name__)
    return {**defaults, **section}


def _preprocess_config(args, overrides: dict) -> PreprocessConfig:
    section = _section(overrides, "preprocess", {
        "emoji_lexicon_file": None, "stopwords_file": None, "fillers_file": None,
        "keep_hashtag_text": False, "remove_stop_words": True})
    lexicon = load_emoji_lexicon(section["emoji_lexicon_file"])
    stop_words = StopWordList(load_word_list(section["stopwords_file"], "stopwords.txt"))
    fillers = FillerList(load_word_list(section["fillers_file"], "fillers.txt"))
    keep_hashtags = bool(getattr(args, "keep_hashtag_text", False)
                         or section["keep_hashtag_text"])
    remove_stop = (bool(section["remove_stop_words"])
                   and not getattr(args, "no_stop_words", False))
    return PreprocessConfig(emoji_lexicon=lexicon, stop_words=stop_words,
                            fillers=fillers, keep_hashtag_text=keep_hashtags,
                            remove_stop_words=remove_stop)


def _distribution_report(dist) -> str:
    rows = sorted(LABELS, key=lambda l: (-dist.counts[l], int(l)))
    lines = ["Sentiment Class  Label ID  Tweet Count  Percentage"]
    for label in rows:
        pct = round_half_up(dist.percentages[label] * 100, 1)
        lines.append(f"{label.display_name:<15}  {int(label):<8}  "
                     f"{dist.counts[label]:>11,}  {pct:>9}%")
    lines.append(f"{'Total':<15}  {'':<8}  {dist.total:>11,}  {'100.0':>9}%")
    return "\n".join(lines)


def _split_corpus_file(out_dir: Path, name: str) -> Corpus:
    path = out_dir / f"{name}.jsonl"
    if not path.exists():
        raise InputError(f"missing split file {path}; run 'prepare' first")
    return load_corpus(path, "jsonl", CANONICAL_LABEL_MAP)


def cmd_prepare(args) -> int:
    overrides = _load_overrides(args.config)
    if not args.input:
        raise InputError("prepare needs at least one --input file")
    if not args.label_map:
        raise InputError("prepare needs --label-map")
    label_map = load_label_map(args.label_map)
    pre_cfg = _preprocess_config(args, overrides)

    corpus = None
    for item in args.input:
        part = load_corpus(item, None, label_map)
        corpus = part if corpus is None else merge(corpus, part)

    clean, drops = preprocess_corpus(corpus, pre_cfg)
    if len(clean) == 0:
        raise InputError("no records survived preprocessing")
    dist = class_distribution(clean)

    spec = SplitSpec(**_section(overrides, "split",
                                {"train_frac": 0.8, "val_frac": 0.1}), seed=args.seed)
    train_c, val_c, test_c = split(clean, spec)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_corpus(clean, out_dir / "clean.jsonl")
    save_corpus(train_c, out_dir / "train.jsonl")
    save_corpus(val_c, out_dir / "val.jsonl")
    save_corpus(test_c, out_dir / "test.jsonl")
    (out_dir / "distribution.txt").write_text(_distribution_report(dist) + "\n",
                                              encoding="utf-8")
    _write_json(out_dir / "drops.json", drops)
    manifest = {
        "pipeline_version": __version__,
        "command": "prepare",
        "inputs": {Path(p).name: _sha256(Path(p)) for p in args.input},
        "label_map": _sha256(Path(args.label_map)),
        "seed": args.seed,
        "config": {
            "preprocess": {"keep_hashtag_text": pre_cfg.keep_hashtag_text,
                           "remove_stop_words": pre_cfg.remove_stop_words},
            "split": {"train_frac": spec.train_frac, "val_frac": spec.val_frac},
            "overrides": overrides,
        },
        "split_sizes": {"train": len(train_c), "val": len(val_c),
                        "test": len(test_c)},
        "outputs": ["clean.jsonl", "train.jsonl", "val.jsonl", "test.jsonl",
                    "distribution.txt", "drops.json"],
    }
    _write_json(out_dir / "manifest.json", manifest)
    print(_distribution_report(dist))
    print(f"dropped: {json.dumps(drops, sort_keys=True)}")
    print(f"splits: train={len(train_c)} val={len(val_c)} test={len(test_c)}")
    return 0


def _train_manifest(out_dir: Path, model_name: str, inputs: dict, config: dict,
                    seed: int, outputs: list[str]) -> None:
    manifest = {
        "pipeline_version": __version__,
        "command": "train",
        "model": model_name,
        "inputs": inputs,
        "config": config,
        "seed": seed,
        "outputs": outputs,
    }
    _write_json(out_dir / f"{model_name}.manifest.json", manifest)


def _fit_features(out_dir: Path, train_c: Corpus, min_df: int):
    idx = fit_term_index(train_c.texts(), min_df=min_df)
    index_path = out_dir / "term_index.json"
    save_term_index(idx, index_path)
    return idx, {"file": index_path.name, "sha256": _sha256(index_path)}


def cmd_train(args) -> int:
    overrides = _load_overrides(args.config)
    out_dir = Path(args.out_dir)
    train_c = _split_corpus_file(out_dir, "train")
    min_df = _section(overrides, "features", {"min_df": 1})["min_df"]

    if args.model in ("nb", "svm"):
        idx, ref = _fit_features(out_dir, train_c, min_df)
        X = tfidf_transform(train_c.texts(), idx)
        if args.model == "nb":
            alpha = float(_section(overrides, "nb", {"alpha": 1.0})["alpha"])
            model = baselines.nb_train(X, train_c.labels(), alpha=alpha)
            config = {"alpha": alpha, "min_df": min_df}
        else:
            svm = _section(overrides, "svm", {"lambda": 1e-4, "epochs": 20})
            hyper = baselines.SvmHyper(lambda_=float(svm["lambda"]),
                                       epochs=svm["epochs"], seed=args.seed)
            model = baselines.svm_train(X, train_c.labels(), hyper)
            config = {"lambda": hyper.lambda_, "epochs": hyper.epochs,
                      "min_df": min_df}
        model_path = out_dir / f"{args.model}.json"
        baselines.save_baseline(model, model_path, term_index_ref=ref)
        _train_manifest(out_dir, args.model,
                        {"train.jsonl": _sha256(out_dir / "train.jsonl"),
                         "term_index.json": ref["sha256"]},
                        config, args.seed, [model_path.name, "term_index.json"])
        print(f"wrote {model_path}")
        return 0

    if args.model == "transformer":
        val_c = _split_corpus_file(out_dir, "val")
        tok = _section(overrides, "tokenizer",
                       {"max_len": 128, "max_word_chars": 100, "vocab_size": 4000})
        tok_cfg = TokenizerConfig(max_len=tok["max_len"],
                                  max_word_chars=tok["max_word_chars"])
        vocab = train_vocabulary(train_c.texts(), tok["vocab_size"], tok_cfg)
        vocab_path = out_dir / "vocab.txt"
        save_vocabulary(vocab, vocab_path)
        vocab_ref = {"file": vocab_path.name, "sha256": _sha256(vocab_path)}

        enc = _section(overrides, "encoder", dataclasses.asdict(tfm.EncoderConfig()))
        cfg = tfm.EncoderConfig(**{**enc, "max_len": tok_cfg.max_len,
                                   "vocab_size": len(vocab), "num_classes": 3})
        tc = tfm.TrainConfig(**_section(overrides, "train", {
            **dataclasses.asdict(tfm.TrainConfig()), "seed": args.seed}))

        result = tfm.train(train_c.texts(), train_c.labels(), val_c.texts(),
                           val_c.labels(), vocab, tok_cfg, cfg, tc)
        tfm.save_transformer(out_dir / "transformer.bin", result.final_params,
                             cfg, tc, tok_cfg, vocab_ref)
        tfm.save_transformer(out_dir / "transformer_best.bin", result.best_params,
                             cfg, tc, tok_cfg, vocab_ref)
        _write_json(out_dir / "training_log.json",
                    {"epochs": result.log, "best_epoch": result.best_epoch})
        _train_manifest(out_dir, "transformer",
                        {"train.jsonl": _sha256(out_dir / "train.jsonl"),
                         "val.jsonl": _sha256(out_dir / "val.jsonl"),
                         "vocab.txt": vocab_ref["sha256"]},
                        {"tokenizer": {"max_len": tok_cfg.max_len,
                                       "max_word_chars": tok_cfg.max_word_chars,
                                       "vocab_size": len(vocab)},
                         "encoder": dataclasses.asdict(cfg),
                         "train": dataclasses.asdict(tc)}, args.seed,
                        ["transformer.bin", "transformer_best.bin", "vocab.txt",
                         "training_log.json"])
        for entry in result.log:
            line = f"epoch {entry['epoch']}: loss {entry['train_loss']:.4f}"
            if "val_weighted_f1" in entry:
                line += f" val_weighted_f1 {entry['val_weighted_f1']:.4f}"
            print(line)
        print(f"wrote {out_dir / 'transformer.bin'}")
        return 0

    raise InputError(f"unknown model {args.model!r}")


def _detect_model_kind(path: Path) -> str:
    with path.open("rb") as fh:
        first = fh.readline()
    try:
        header = json.loads(first.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        header = None
    if isinstance(header, dict):
        if header.get("kind") == "transformer":
            return "transformer"
        if header.get("model_type") in ("nb", "svm"):
            return header["model_type"]
    raise InputError(f"{path} is not a recognized model file")


def _verify_ref(model_dir: Path, ref: dict | None, what: str) -> Path:
    if not ref or "file" not in ref:
        raise InputError(f"model file lacks a {what} reference")
    path = model_dir / ref["file"]
    if not path.exists():
        raise InputError(f"{what} file referenced by model is missing: {path}")
    digest = _sha256(path)
    if ref.get("sha256") and ref["sha256"] != digest:
        raise InputError(
            f"{what} digest mismatch for {path}: model expects {ref['sha256'][:12]}..., "
            f"file has {digest[:12]}... (artifacts out of sync)")
    return path


def _predict_texts(model_path: Path, texts: list[str]):
    """Returns (kind, [(label, per-class score array)])."""
    kind = _detect_model_kind(model_path)
    model_dir = model_path.parent
    if kind in ("nb", "svm"):
        model, ref = baselines.load_baseline(model_path)
        idx = load_term_index(_verify_ref(model_dir, ref, "term index"))
        X = tfidf_transform(texts, idx)
        if kind == "nb":
            labels, log_posterior = baselines.nb_predict(model, X)
            return kind, list(zip(labels, np.exp(log_posterior)))
        return kind, list(zip(*baselines.svm_predict(model, X)))
    params, cfg, _tc, vocab_ref, tok_cfg = tfm.load_transformer(model_path)
    vocab = load_vocabulary(_verify_ref(model_dir, vocab_ref, "vocabulary"))
    return kind, tfm.predict(params, cfg, vocab, tok_cfg, texts)


def cmd_evaluate(args) -> int:
    model_path = Path(args.model_file)
    if not model_path.exists():
        raise InputError(f"model file not found: {model_path}")
    out_dir = Path(args.out_dir) if args.out_dir else model_path.parent
    split_c = _split_corpus_file(out_dir, args.split)
    kind, preds = _predict_texts(model_path, split_c.texts())
    report = evaluate(split_c.labels(), [label for label, _ in preds])

    print(format_report(report))
    print(per_class_f1_report(report))
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    out_path = out_dir / f"eval_{model_path.stem}_{args.split}.json"
    save_report(report, out_path,
                extra={"model": kind, "split": args.split,
                       "manifest": {"pipeline_version": __version__,
                                    "model_file": model_path.name,
                                    "model_sha256": _sha256(model_path)}})
    print(f"wrote {out_path}")
    return 0


def cmd_predict(args) -> int:
    model_path = Path(args.model_file)
    if not model_path.exists():
        raise InputError(f"model file not found: {model_path}")
    overrides = _load_overrides(args.config)
    pre_cfg = _preprocess_config(args, overrides)

    if args.input:
        lines = []
        for item in args.input:
            path = Path(item)
            if not path.exists():
                raise InputError(f"input file not found: {path}")
            lines.extend(path.read_text(encoding="utf-8").splitlines())
    elif not sys.stdin.isatty():
        lines = sys.stdin.read().splitlines()
    else:
        raise InputError("predict needs --input or text on stdin")

    lines = [line for line in lines if line.strip()]
    if not lines:
        return 0
    cleaned = [clean_text(line, pre_cfg) for line in lines]
    _, preds = _predict_texts(model_path, cleaned)
    for label, scores in preds:
        values = " ".join(f"{v:.6f}" for v in scores)
        print(f"{label.name.lower()}\t{values}")
    return 0


_REPORT_ORDER = {"nb": 0, "svm": 1, "transformer": 2}


def cmd_report(args) -> int:
    out_dir = Path(args.out_dir)
    eval_paths = sorted(out_dir.glob("eval_*.json"))
    if not eval_paths:
        raise InputError(f"no eval_*.json files in {out_dir}; run 'evaluate' first")
    loaded = []
    for path in eval_paths:
        report, payload = load_report(path)
        loaded.append((str(payload.get("model", path.stem)),
                       str(payload.get("split", "")), report))
    model_counts = {}
    for model, _, _ in loaded:
        model_counts[model] = model_counts.get(model, 0) + 1
    entries = [(f"{model}:{split_name}" if model_counts[model] > 1 else model, report)
               for model, split_name, report in loaded]
    entries.sort(key=lambda e: (_REPORT_ORDER.get(e[0].split(":")[0], 99), e[0]))
    table, csv_text = compare_models(entries)
    (out_dir / "comparison.csv").write_text(csv_text, encoding="utf-8")
    print(table)
    print(f"wrote {out_dir / 'comparison.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixsent",
        description="Three-class sentiment classification for code-mixed "
                    "social-media text: prepare data, train baselines or a "
                    "transformer encoder, evaluate, and compare.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="clean, harmonize, and split a corpus")
    p.add_argument("--input", action="append", default=[],
                   help="input JSONL/CSV file (repeatable)")
    p.add_argument("--label-map", help="JSON file mapping raw labels to "
                                       "negative/neutral/positive")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON overrides (file path or inline)")
    p.add_argument("--keep-hashtag-text", action="store_true",
                   help="keep hashtag words, dropping only the '#'")
    p.add_argument("--no-stop-words", action="store_true",
                   help="disable stop-word removal")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model on the prepared splits")
    p.add_argument("--model", required=True, choices=("nb", "svm", "transformer"))
    p.add_argument("--out-dir", required=True,
                   help="directory holding the prepared splits")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON overrides (file path or inline)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a model file on a split")
    p.add_argument("--model-file", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--out-dir", help="defaults to the model file's directory")
    p.add_argument("--json", action="store_true",
                   help="also print the report as JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="label raw text from files or stdin")
    p.add_argument("--model-file", required=True)
    p.add_argument("--input", action="append", default=[],
                   help="text file, one message per line (repeatable)")
    p.add_argument("--config", help="JSON overrides (file path or inline)")
    p.add_argument("--keep-hashtag-text", action="store_true")
    p.add_argument("--no-stop-words", action="store_true")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="comparison table from saved evaluations")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MixsentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
