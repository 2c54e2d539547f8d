"""Command-line front end: prepare / train / evaluate / predict / report.

Every artifact is written with a manifest (pipeline version, input
digests, config snapshot, seed, sizes) and no timestamps, so identical
inputs reproduce byte-identical outputs.  Exit codes: 0 success, 1
runtime failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import importlib.util
import inspect
import io
import json
import os
import sys
from functools import partial, reduce
from pathlib import Path

import numpy as np

from . import __version__
from . import baselines, modelfile
from .corpus import (CANONICAL_LABEL_MAP, LABELS, Corpus, SplitSpec,
                     class_distribution, load_corpus, load_label_map, merge,
                     save_corpus, split)
from .errors import (InputError, MixsentError, TrainingError, check_value,
                     decode, open_file, parse_json_object, read_file)
from .features import fit_term_index, tfidf_transform
from .preprocess import (FillerList, PreprocessConfig, StopWordList, clean_text,
                         parse_emoji_lexicon, parse_word_list, preprocess_corpus,
                         source_file)


def _lazy_import(name: str):
    """The module `name`, bound in sys.modules and on its package as
    `import name` binds it, but executed on the first use of one of its
    names.  A module already imported is returned as it is, so there is
    only ever one module object."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    setattr(sys.modules[parent], child, module)
    return module


# The encoder is loaded only by the commands that run it: train on a
# transformer, and evaluate or predict on a transformer file.  It is bound
# here, not imported inside those commands, because perfbench/trace_run.py
# wraps sys.modules["mixsent.transformer"]'s functions once mixsent.cli is
# imported; once ROADMAP item 2 replaces that patching, a plain import in
# the commands will do.
tfm = _lazy_import(__package__ + ".transformer")


# metrics and tokenizer are imported by the commands that use them.  These
# two layers are reached through names of this module, which
# perfbench/trace_run.py wraps; each command imports the module before the
# call, so a wrapper times the layer, not the import.
def evaluate(y_true, y_pred):
    from . import metrics
    return metrics.evaluate(y_true, y_pred)


def train_vocabulary(texts, target_size):
    from . import tokenizer
    return tokenizer.train_vocabulary(texts, target_size)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open_file(path, "file") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, ensure_ascii=False, indent=2,
                               sort_keys=True) + "\n", encoding="utf-8")


# Each --config key that names a list, and the key under which prepare's
# preprocess.json and every model header hold that list's text: the name of
# the packaged default.  predict reads the lists from the model file only.
_PREPROCESS_FILES = {"emoji_lexicon_file": "emoji_lexicon.json",
                     "stopwords_file": "stopwords.txt",
                     "fillers_file": "fillers.txt"}
# A model header's preprocess section: each key and the kind of its value.
_PREPROCESS_HEADER = {"keep_hashtag_text": "bool", "remove_stop_words": "bool",
                      **dict.fromkeys(_PREPROCESS_FILES.values(), "str")}


def _defaults(source, *set_by_code: str) -> dict:
    """The argument defaults of a library function or dataclass, less
    set_by_code, keyed by config key: the name less a trailing "_" (lambda_)."""
    return {name.rstrip("_"): p.default
            for name, p in inspect.signature(source).parameters.items()
            if name not in set_by_code}


def _recorded(cfg, *set_by_code: str) -> dict:
    """A dataclass's fields as _defaults keys them, less set_by_code."""
    return {f.name.rstrip("_"): getattr(cfg, f.name) for f in dataclasses.fields(cfg)
            if f.name not in set_by_code}


def _settings() -> dict:
    """Every --config section: key -> default.  --config is checked whole
    when it is read, so one config file serves every command and model.
    Built per call, so that only the commands that read a --config, prepare
    and train, load encoder_config."""
    from .encoder_config import EncoderConfig, TrainConfig
    return {
        "preprocess": {**dict.fromkeys(_PREPROCESS_FILES),
                       **_defaults(PreprocessConfig, "emoji_lexicon", "stop_words",
                                   "fillers")},
        "split": _defaults(SplitSpec, "seed"),
        "features": _defaults(fit_term_index, "texts"),
        "nb": _defaults(baselines.nb_train, "X", "y"),
        "svm": _defaults(baselines.SvmHyper, "seed"),
        # The encoder's max_len and vocab_size are set in the tokenizer section.
        "tokenizer": {key: getattr(EncoderConfig, key) for key in ("max_len", "vocab_size")},
        "encoder": _defaults(EncoderConfig, "max_len", "vocab_size"),
        "train": _defaults(TrainConfig, "seed"),
    }


def _section(name: str, defaults: dict, given) -> dict:
    """Section name's defaults updated from given: a JSON object with no
    other keys, each value of its default's kind (an int, a number,
    true/false or a string; a string or null where the default is None)."""
    if not isinstance(given, dict) or not set(given) <= set(defaults):
        raise InputError(f"config section {name!r} must be a JSON object with "
                         f"keys among {sorted(defaults)}")
    for key, value in given.items():
        kind = "str | None" if defaults[key] is None else type(defaults[key]).__name__
        check_value(f"config value {name}.{key}", value, kind)
    return {**defaults, **given}


def _load_config(arg: str) -> tuple[dict, dict]:
    """--config as given, and the settings: each section of _settings() resolved
    from it and built, once, into the value the library takes, which checks
    its ranges, so a config fails alike for every command.  Commands set only
    the seed and the vocabulary's size, with dataclasses.replace.  Inline
    JSON when arg starts with '{', else a JSON file path; a top-level key
    that is not a section is refused."""
    from .encoder_config import EncoderConfig, TrainConfig
    sections = _settings()
    if arg.lstrip().startswith("{"):
        overrides = parse_json_object(arg, "malformed config")
    else:
        overrides = parse_json_object(read_file(arg, "config file"),
                                      f"malformed config {arg}")
    unknown = sorted(set(overrides) - set(sections))
    if unknown:
        raise InputError(f"config sections {unknown} unknown; "
                         f"the sections are {list(sections)}")
    # preprocess (whose files only the cleaning commands read), features and nb stay dicts.
    settings = {name: _section(name, defaults, overrides.get(name, {}))
                for name, defaults in sections.items()}
    svm = settings["svm"]
    builds = [
        ("split", lambda: SplitSpec(**settings["split"])),
        ("svm", lambda: baselines.SvmHyper(float(svm["lambda"]), svm["epochs"])),
        # The default encoder with the tokenizer's keys, so that an error in
        # them names the section that sets them; then the encoder's keys.
        ("tokenizer", lambda: EncoderConfig(**settings["tokenizer"])),
        ("encoder", lambda: dataclasses.replace(settings["tokenizer"], **settings["encoder"])),
        ("train", lambda: TrainConfig(**settings["train"])),
    ]
    for name, build in builds:
        try:
            settings[name] = build()
        except InputError as e:
            raise InputError(f"config {name}: {e}") from None
    # nb_train and fit_term_index check these only once given data.
    if settings["nb"]["alpha"] <= 0:
        raise InputError("config nb: alpha must be > 0")
    if settings["features"]["min_df"] < 1:
        raise InputError("config features: min_df must be >= 1")
    settings["nb"] = {"alpha": float(settings["nb"]["alpha"])}
    return overrides, settings


def _preprocess_config(section, source: str,
                       lexicon: str = "emoji_lexicon.json") -> PreprocessConfig:
    """The cleaning config of a preprocess section, as preprocess.json and a
    model header hold it: the two flags, and each list's text by its name.
    Its errors start with source; a malformed lexicon is named lexicon."""
    try:
        if not isinstance(section, dict) or not set(_PREPROCESS_HEADER) <= set(section):
            raise InputError(f"preprocess must be a JSON object with the keys "
                             f"{sorted(_PREPROCESS_HEADER)}")
        for key, kind in _PREPROCESS_HEADER.items():
            check_value(f"preprocess.{key}", section[key], kind)
        return PreprocessConfig(
            emoji_lexicon=parse_emoji_lexicon(section["emoji_lexicon.json"], lexicon),
            stop_words=StopWordList(parse_word_list(section["stopwords.txt"])),
            fillers=FillerList(parse_word_list(section["fillers.txt"])),
            keep_hashtag_text=section["keep_hashtag_text"],
            remove_stop_words=section["remove_stop_words"])
    except InputError as e:
        raise InputError(f"{source}: {e}") from None


def _prepare_manifest(run_dir: Path) -> dict:
    """The outputs map of the manifest 'prepare' wrote in run_dir: the
    digest of each file it wrote there."""
    path = run_dir / "manifest.json"
    manifest = parse_json_object(read_file(path, "manifest"), f"malformed manifest {path}")
    if not isinstance(manifest.get("outputs"), dict):
        raise InputError(f"{path} records no file digests; run 'prepare' again")
    return manifest["outputs"]


def _prepared(run_dir: Path, digests: dict, name: str) -> tuple[Path, str]:
    """run_dir / name and its digest, hashed once and refused unless it is
    the digest 'prepare' recorded: an edited split may hold another's rows."""
    path, digest = run_dir / name, _sha256(run_dir / name)
    if digest != digests.get(name):
        raise InputError(f"digest mismatch for {path}: not the file 'prepare' "
                         f"wrote (edited since?); run 'prepare' again")
    return path, digest


def _distribution_report(dist) -> str:
    from .metrics import round_half_up
    rows = sorted(LABELS, key=lambda l: (-dist.counts[l], int(l)))
    lines = ["Sentiment Class  Label ID  Tweet Count  Percentage"]
    for label in rows:
        pct = round_half_up(dist.percentages[label] * 100, 1)
        lines.append(f"{label.display_name:<15}  {int(label):<8}  "
                     f"{dist.counts[label]:>11,}  {pct:>9}%")
    lines.append(f"{'Total':<15}  {'':<8}  {dist.total:>11,}  {'100.0':>9}%")
    return "\n".join(lines)


def cmd_prepare(args) -> int:
    overrides, settings = _load_config(args.config)
    if not args.input:
        raise InputError("prepare needs at least one --input file")
    if not args.label_map:
        raise InputError("prepare needs --label-map")
    label_map = load_label_map(args.label_map)
    section = settings["preprocess"]
    # The cleaning setup as every model header holds it.
    preprocess = {key: section[key] for key in ("keep_hashtag_text", "remove_stop_words")}
    for key, name in _PREPROCESS_FILES.items():
        preprocess[name] = read_file(source_file(section[key], name), f"preprocess.{key}")
    # A malformed lexicon is named by the file read.
    pre_cfg = _preprocess_config(preprocess, "config preprocess",
                                 section["emoji_lexicon_file"] or "emoji_lexicon.json")

    corpus = reduce(merge, [load_corpus(item, label_map) for item in args.input])

    clean, drops = preprocess_corpus(corpus, pre_cfg)
    if len(clean) == 0:
        raise InputError("no records survived preprocessing")
    dist = class_distribution(clean)

    spec = dataclasses.replace(settings["split"], seed=args.seed)
    train_c, val_c, test_c = split(clean, spec)

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:     # a file at out_dir or above it, say
        raise InputError(f"cannot make --out-dir {out_dir}: {e.strerror or e}") from None
    corpora = {"clean": clean, "train": train_c, "val": val_c, "test": test_c}
    lines: dict[str, str] = {}
    for name, part in corpora.items():
        save_corpus(part, out_dir / f"{name}.jsonl", lines)
    (out_dir / "distribution.txt").write_text(_distribution_report(dist) + "\n",
                                              encoding="utf-8")
    _write_json(out_dir / "drops.json", drops)
    _write_json(out_dir / "preprocess.json", preprocess)
    written = [*(f"{name}.jsonl" for name in corpora), "distribution.txt",
               "drops.json", "preprocess.json"]
    _write_json(out_dir / "manifest.json", {
        "pipeline_version": __version__,
        "command": "prepare",
        "inputs": [{"file": Path(p).name, "sha256": _sha256(Path(p))} for p in args.input],
        "label_map": _sha256(Path(args.label_map)),
        "seed": args.seed,
        "config": {
            "preprocess": section,
            "split": _recorded(spec, "seed"),
            "overrides": overrides,
        },
        "split_sizes": {"train": len(train_c), "val": len(val_c),
                        "test": len(test_c)},
        # A later command reads each file through _prepared, which checks it.
        "outputs": {name: _sha256(out_dir / name) for name in written},
    })
    print(_distribution_report(dist))
    print(f"dropped: {json.dumps(drops, sort_keys=True)}")
    print(f"splits: train={len(train_c)} val={len(val_c)} test={len(test_c)}")
    return 0


def _fit_nb(X, labels, settings: dict, seed: int):
    return baselines.nb_train(X, labels, **settings["nb"]), settings["nb"]


def _fit_svm(X, labels, settings: dict, seed: int):
    hyper = dataclasses.replace(settings["svm"], seed=seed)
    return baselines.svm_train(X, labels, hyper), _recorded(hyper, "seed")


def _train_baseline(fit, model_path: Path, train_c: Corpus, settings: dict, seed: int,
                    digests: dict, preprocess: dict):
    idx = fit_term_index(train_c.texts(), **settings["features"])
    model, config = fit(tfidf_transform(train_c.texts(), idx), train_c.labels(),
                        settings, seed)
    # Written once the fit has returned: a failed train keeps the old run.
    baselines.save_baseline(model, idx, model_path, preprocess)
    return {}, {**config, **settings["features"]}, []


def _nb_scores(model, X):
    labels, log_posterior = baselines.nb_predict(model, X)
    return labels, np.exp(log_posterior)


def _load_baseline(scores, f: modelfile.ModelFile):
    model, idx = baselines.load_baseline(f)
    return lambda texts: scores(model, tfidf_transform(texts, idx))


def _train_transformer(model_path: Path, train_c: Corpus, settings: dict, seed: int,
                       digests: dict, preprocess: dict):
    out_dir = model_path.parent
    val_path, val_sha256 = _prepared(out_dir, digests, "val.jsonl")
    val_c = load_corpus(val_path, CANONICAL_LABEL_MAP)
    cfg = settings["encoder"]
    from . import tokenizer  # noqa: F401  (imported before train_vocabulary runs)
    vocab = train_vocabulary(train_c.texts(), cfg.vocab_size)
    cfg = dataclasses.replace(cfg, vocab_size=len(vocab))
    tc = dataclasses.replace(settings["train"], seed=seed)

    result = tfm.train(train_c.texts(), train_c.labels(), val_c.texts(),
                       val_c.labels(), vocab, cfg, tc)
    # Written once training has returned: a failed train keeps the old run.
    tfm.save_transformer(model_path, result.final_params, cfg, vocab, preprocess)
    tfm.save_transformer(out_dir / "transformer_best.bin", result.best_params,
                         cfg, vocab, preprocess)
    _write_json(out_dir / "training_log.json",
                {"epochs": result.log, "best_epoch": result.best_epoch})
    for entry in result.log:
        line = f"epoch {entry['epoch']}: loss {entry['train_loss']:.4f}"
        if "val_weighted_f1" in entry:
            line += f" val_weighted_f1 {entry['val_weighted_f1']:.4f}"
        print(line)
    return ({"val.jsonl": val_sha256},
            {"encoder": dataclasses.asdict(cfg), "train": dataclasses.asdict(tc)},
            ["transformer_best.bin", "training_log.json"])


def _load_transformer(f: modelfile.ModelFile):
    params, cfg, vocab = tfm.load_transformer(f)

    def predict(texts):
        # Served weights that overflow are a bad input file, not a failed
        # run: one error line, with no numpy overflow warnings before it.
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return tfm.predict(params, cfg, vocab, texts)
        except TrainingError as e:
            raise InputError(f"{f.path}: {e} (damaged model file?)") from None
    return predict


# kind -> (artifact file, train, load).  train(model_path, train_corpus, settings,
# seed, digests, preprocess) writes the artifact, reading any other split by
# _prepared, and returns the train manifest's other inputs, config and other
# outputs; load(model_file) returns texts -> (labels, [N, 3] scores).  Entries
# reach the library through module attributes and this module's globals at
# call time, so wrappers set on those names see calls.
MODELS = {
    "nb": ("nb.json", partial(_train_baseline, _fit_nb),
           partial(_load_baseline, _nb_scores)),
    "svm": ("svm.json", partial(_train_baseline, _fit_svm),
            partial(_load_baseline, lambda model, X: baselines.svm_predict(model, X))),
    "transformer": ("transformer.bin", _train_transformer, _load_transformer),
}


def _load_model(path: Path):
    """(kind, texts -> (labels, scores), cleaning config) for a model file: the
    MODELS entry its header's kind names, and the preprocessing it was
    trained with."""
    f = modelfile.read(path)
    predict = MODELS[f.header["kind"]][2](f)
    pre_cfg = _preprocess_config(f.header.get("preprocess"), f"malformed model file {path}")
    return f.header["kind"], predict, pre_cfg


def cmd_train(args) -> int:
    settings = _load_config(args.config)[1]
    out_dir = Path(args.out_dir)
    digests = _prepare_manifest(out_dir)
    train_path, train_sha256 = _prepared(out_dir, digests, "train.jsonl")
    path = _prepared(out_dir, digests, "preprocess.json")[0]
    recorded = parse_json_object(read_file(path, "preprocess"), f"malformed {path}")
    _preprocess_config(recorded, f"malformed {path}")
    # Exactly the keys predict reads, so a key added to the file is not read.
    preprocess = {key: recorded[key] for key in _PREPROCESS_HEADER}
    train_c = load_corpus(train_path, CANONICAL_LABEL_MAP)
    file, train, _ = MODELS[args.model]
    model_path = out_dir / file
    inputs, config, outputs = train(model_path, train_c, settings, args.seed, digests,
                                    preprocess)
    _write_json(out_dir / f"{args.model}.manifest.json", {
        "pipeline_version": __version__, "command": "train", "model": args.model,
        "inputs": {"train.jsonl": train_sha256, **inputs},
        "config": config, "seed": args.seed,
        # evaluate scores only a model file listed here with its digest.
        "outputs": {name: _sha256(out_dir / name) for name in [file, *outputs]}})
    print(f"wrote {model_path}")
    return 0


def _check_held_out(model_path: Path, kind: str, model_sha256: str, digests: dict) -> None:
    """Refuse a model file unless its train manifest lists it with the digest
    model_sha256 (not a copy, nor changed since) and records the train.jsonl
    that digests does: after a re-run 'prepare' the other splits may hold
    the model's training rows."""
    path = model_path.parent / f"{kind}.manifest.json"
    manifest = parse_json_object(read_file(path, "train manifest"),
                                 f"malformed manifest {path}")
    outputs, inputs = manifest.get("outputs"), manifest.get("inputs")
    if not isinstance(outputs, dict) or outputs.get(model_path.name) != model_sha256:
        raise InputError(f"{path} does not list {model_path.name} with its digest "
                         f"(copied or changed since?); evaluate a model file as "
                         f"'train' wrote it")
    recorded = inputs.get("train.jsonl") if isinstance(inputs, dict) else None
    if not isinstance(recorded, str) or recorded != digests.get("train.jsonl"):
        raise InputError(f"{path} records another train.jsonl than manifest.json "
                         f"does ('prepare' run since?); train the model again")


def cmd_evaluate(args) -> int:
    from .metrics import format_report, per_class_f1_report, save_report
    model_path = Path(args.model_file)
    kind, predict, _ = _load_model(model_path)
    run_dir = model_path.parent
    digests = _prepare_manifest(run_dir)
    model_sha256 = _sha256(model_path)
    _check_held_out(model_path, kind, model_sha256, digests)
    split_path, split_sha256 = _prepared(run_dir, digests, f"{args.split}.jsonl")
    split_c = load_corpus(split_path, CANONICAL_LABEL_MAP)
    report = evaluate(split_c.labels(), predict(split_c.texts())[0])
    # Saved before anything is printed, so a reader that closes stdout
    # early cannot cost the evaluation file.
    out_path = run_dir / f"eval_{model_path.stem}_{args.split}.json"
    save_report(report, out_path,
                extra={"model": kind, "split": args.split,
                       "manifest": {"pipeline_version": __version__,
                                    "model_file": model_path.name,
                                    "model_sha256": model_sha256,
                                    "split_sha256": split_sha256}})

    print(format_report(report))
    print(per_class_f1_report(report))
    print(f"wrote {out_path}")
    return 0


def cmd_predict(args) -> int:
    _, predict, pre_cfg = _load_model(Path(args.model_file))
    if not args.input and sys.stdin.isatty():
        raise InputError("predict needs --input or text on stdin")
    # stdin is read as --input files are, strictly as UTF-8, whatever the locale.
    texts = ([read_file(item, "input") for item in args.input]
             or [decode(sys.stdin.buffer.read(), "stdin")])
    # Lines end at LF, CRLF or CR only, as load_corpus reads JSONL.
    lines = [line for text in texts for line in io.StringIO(text, newline=None)
             if line.strip()]
    if not lines:
        return 0
    labels, scores = predict([clean_text(line, pre_cfg) for line in lines])
    for label, row in zip(labels, scores):
        print(f"{label.name.lower()}\t" + " ".join(f"{v:.6f}" for v in row))
    return 0


def _check_evaluated_model(eval_path: Path, payload: dict) -> None:
    """Refuse an evaluation whose model file, beside it, is gone or no longer
    holds the bytes that were evaluated (the model was trained again)."""
    manifest = payload.get("manifest")
    name = manifest.get("model_file") if isinstance(manifest, dict) else None
    if not isinstance(name, str):
        raise InputError(f"{eval_path} names no model file; evaluate the model again")
    model_path = eval_path.parent / name
    if not model_path.is_file() or _sha256(model_path) != manifest.get("model_sha256"):
        raise InputError(f"{eval_path} is not an evaluation of {model_path} as it is "
                         f"now (missing or changed since); evaluate the model again")


def cmd_report(args) -> int:
    from .metrics import compare_models, load_report
    out_dir = Path(args.out_dir)
    eval_paths = sorted(out_dir.glob("eval_*.json"))
    if not eval_paths:
        raise InputError(f"no eval_*.json files in {out_dir}; run 'evaluate' first")
    rows = []
    for path in eval_paths:
        report, payload = load_report(path)
        _check_evaluated_model(path, payload)
        # A row is named by its file: eval_transformer_best_test.json is
        # transformer_best_test.
        rows.append((path.stem.removeprefix("eval_"), report))
    table, csv_text = compare_models(rows)
    (out_dir / "comparison.csv").write_text(csv_text, encoding="utf-8")
    print(table)
    print(f"wrote {out_dir / 'comparison.csv'}")
    return 0


def _seed(text: str) -> int:
    """A --seed: an integer >= 0, on every command, as numpy's PCG64, which
    seeds the encoder, requires."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


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
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--config", default="{}", help="JSON overrides (file path or inline)")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model on the prepared splits")
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--out-dir", required=True,
                   help="directory holding the prepared splits")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--config", default="{}", help="JSON overrides (file path or inline)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a model file on a split")
    p.add_argument("--model-file", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="label raw text from files or stdin")
    p.add_argument("--model-file", required=True)
    p.add_argument("--input", action="append", default=[],
                   help="text file, one message per line (repeatable)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="comparison table from saved evaluations")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


# glibc's mallopt parameters (malloc.h) and the values main sets.  The mmap
# threshold is glibc's largest on 64-bit; the trim threshold is far above the
# heap an encoder step frees.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 1 << 30


def _keep_freed_memory() -> None:
    """On glibc, keep freed heap memory in the process for reuse.  By default
    glibc serves each block over 128 KiB (most numpy arrays here) by mmap and
    returns it to the OS on free, so every encoder step page-faults its
    attention, dropout and hidden buffers in afresh.  Called by main only:
    library callers keep their allocator settings.  Any other libc, or a
    mallopt that refuses the mmap threshold, keeps the defaults."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _keep_freed_memory()
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except MixsentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, InputError) else 1
    except MemoryError as e:
        # A runtime failure: the same inputs may fit on a larger machine.
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader of stdout went away (`mixsent ... | head -1`).  Point
        # stdout at devnull so the flush at exit cannot fail again; see the
        # "Note on SIGPIPE" in the Python docs of the signal module.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
