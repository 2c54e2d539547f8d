"""mixsent benchmark: one workload's CLI pipeline, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Set-up generates the workload's
corpus from the seed (twice, checking the bytes repeat) and starts the CLI
(`mixsent --help`, five times; only these starts are timed).  A round then
runs every command of the pipeline as its own subprocess, one at a time, the
way a user would, and checks its outputs.  Each goes through
perfbench/launch.py, which does what `python -m mixsent` does and also
reports how long the command ran once `mixsent.cli` was imported:

    prepare, train nb / svm / transformer, evaluate each on the test split,
    report, batch predict with each model over raw posts, and one-message
    predicts with nb (cold start) spread through the round

Rounds repeat while the next one fits in --seconds (at least two), each in a
fresh run directory, and every round's run directory must hold the same
bytes as the first.  Timings are medians over rounds.  A command's wall
time is measured from here; its work time is the part spent in
`mixsent.cli.main`, i.e. without interpreter start-up and imports.

With --trace 0 the last stdout line reports the end-to-end metrics, and the
line before it each command's own timing.  With --trace 1 rounds alternate
between untraced and traced (perfbench/trace_run.py), and the per-layer
metrics come from the traced rounds' spans.  Metric names and units are
those registered in BENCHMARK.json.

Every subprocess runs with PYTHONPATH=src and BLAS limited to one thread;
everything written goes under .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from gen import EMOJI_LEXICON, generate
from layers import layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_ROUNDS = 2
COMMAND_TIMEOUT_S = 150
PREDICT_LINE = re.compile(r"(negative|neutral|positive)\t-?\d+\.\d{6}( -?\d+\.\d{6}){2}")
# Mean time of one yardstick sample on the machine this was built on, in a
# quiet stretch; see Yardstick.
YARDSTICK_NOMINAL_S = 0.045


def _env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_VARS:
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def machine_facts() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    return {"nproc": os.cpu_count(), "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
            "cpus_used": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(),
            "commit": commit}


class Yardstick:
    """A fixed piece of the benchmark's own code, timed before every command
    to follow the host's speed.

    On a shared two-core host the same pipeline took a third longer in one
    run than in the next, in stretches of seconds to minutes, and start-up
    and work slowed alike, as did this yardstick.  Each round's times (and
    set-up's) are scaled by YARDSTICK_NOMINAL_S over the mean of the samples
    taken in it, i.e. reported at the speed of a quiet host.  No change to
    mixsent moves the yardstick: it is interpreter work (counting words in a
    dict) and numpy work (small matrix products), the two kinds of work
    mixsent does.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        self.words = [f"w{i * 7919 % 1009}" for i in range(2000)]
        self.matrix = np.random.default_rng(0).standard_normal((64, 64)) / 8
        self.samples: list[float] = []

    def sample(self) -> None:
        np, start = self.np, time.perf_counter()
        counts: dict[str, int] = {}
        for _ in range(120):
            for w in self.words:
                counts[w] = counts.get(w, 0) + len(w)
        a = np.ones((128, 64))
        for _ in range(400):
            a = np.tanh(a @ self.matrix)
        self.samples.append(time.perf_counter() - start)

    def scale_since(self, first: int) -> float:
        """The scale to a quiet host's speed over the samples from `first` on."""
        return YARDSTICK_NOMINAL_S / statistics.fmean(self.samples[first:])


@dataclass
class Round:
    wall: dict[str, float]      # command -> wall seconds of its process
    work: dict[str, float]      # command -> seconds in mixsent.cli.main (untraced)
    scale: float                # the round's yardstick scale
    spans: Path | None          # span files of a traced round


class Pipeline:
    """Runs one workload's commands and tallies the checks: per group, set-up
    first and then each round, so that one failure shows in its group's
    ratio however many rounds a run makes."""

    def __init__(self, name: str, seed: int, inputs: Path, yardstick: Yardstick):
        self.name, self.seed, self.inputs = name, seed, inputs
        self.yardstick = yardstick
        self.workload = WORKLOADS[name]
        self.env = _env()
        self.attempted = 0
        self.failures: list[str] = []
        self.groups: list[list[int]] = [[0, 0]]     # [attempted, failed]
        self.f1: dict[str, float] = {}
        self.train_loss = 0.0
        self.predict_texts = sum(
            1 for line in (inputs / "predict.txt").read_text(encoding="utf-8").splitlines()
            if line.strip())

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        self.groups[-1][0] += 1
        if not ok:
            self.failures.append(what)
            self.groups[-1][1] += 1
        return ok

    def command(self, args: list[str], spans: Path | None = None,
                stdin: str | None = None) -> tuple[float, float, subprocess.CompletedProcess]:
        """Wall time, work time (0 when traced) and the finished process."""
        times_file = WORK / self.name / "times.json"
        times_file.unlink(missing_ok=True)
        launcher = ([str(ROOT / "perfbench" / "launch.py"), str(times_file)] if spans is None
                    else [str(ROOT / "perfbench" / "trace_run.py"), str(spans)])
        self.yardstick.sample()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *launcher, *args], cwd=ROOT,
                              env=self.env, input=stdin or "", text=True,
                              capture_output=True, timeout=COMMAND_TIMEOUT_S)
        wall = time.perf_counter() - start
        work = 0.0
        if spans is None and times_file.is_file():
            work = json.loads(times_file.read_text(encoding="utf-8"))["main_s"]
        return wall, work, proc

    def round(self, run_dir: Path, spans_dir: Path | None) -> Round:
        """One pass over the pipeline."""
        self.groups.append([0, 0])
        shutil.rmtree(run_dir, ignore_errors=True)
        if spans_dir is not None:
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir(parents=True)
        seed = str(self.seed)
        first_sample = len(self.yardstick.samples)
        times: dict[str, float] = {}
        work: dict[str, float] = {}

        def run(key, args, stdin=None):
            spans = spans_dir / f"{len(times):02d}_{key}.jsonl" if spans_dir else None
            times[key], work[key], proc = self.command(args, spans, stdin)
            self.check(proc.returncode == 0,
                       f"{key}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return proc

        predict_file = self.inputs / "predict.txt"
        message = predict_file.read_text(encoding="utf-8").splitlines()[0] + "\n"

        def cold_start():
            # Spread through the round, so that the samples do not all fall
            # into one stretch of a fast or slow host.
            key = f"cold_{sum(k.startswith('cold_') for k in times)}"
            proc = run(key, ["predict", "--model-file", str(run_dir / "nb.json")],
                       stdin=message)
            self._check_predict(proc.stdout, 1, key)

        run("prepare", ["prepare", "--input", str(self.inputs / "corpus.jsonl"),
                        "--label-map", str(self.inputs / "label_map.json"),
                        "--out-dir", str(run_dir), "--seed", seed,
                        *self._config("prepare")])
        self._check_splits(run_dir)
        for model in ("nb", "svm", "transformer"):
            run(f"train_{model}", ["train", "--model", model, "--out-dir", str(run_dir),
                                   "--seed", seed, *self._config(model)])
        cold_start()
        files = {"nb": "nb.json", "svm": "svm.json", "transformer": "transformer.bin"}
        for model, file in files.items():
            run(f"evaluate_{model}", ["evaluate", "--model-file", str(run_dir / file),
                                      "--split", "test"])
            self._check_eval(run_dir / f"eval_{Path(file).stem}_test.json", model)
        cold_start()
        self._check_training_log(run_dir / "training_log.json")
        run("report", ["report", "--out-dir", str(run_dir)])
        cold_start()
        for model, file in files.items():
            proc = run(f"predict_{model}", ["predict", "--model-file", str(run_dir / file),
                                            "--input", str(predict_file)])
            self._check_predict(proc.stdout, self.predict_texts, f"predict_{model}")
        cold_start()
        self.yardstick.sample()
        return Round(times, work, self.yardstick.scale_since(first_sample), spans_dir)

    def _config(self, key: str) -> list[str]:
        config = self.workload.configs.get(key)
        return ["--config", json.dumps(config)] if config else []

    def _check_splits(self, run_dir: Path) -> None:
        try:
            manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
            sizes = {s: sum(1 for _ in (run_dir / f"{s}.jsonl").open(encoding="utf-8"))
                     for s in ("train", "val", "test")}
        except (OSError, ValueError) as e:
            self.check(False, f"prepare outputs unreadable: {e}")
            return
        self.check(manifest.get("split_sizes") == sizes,
                   f"split sizes {sizes} differ from manifest {manifest.get('split_sizes')}")

    def _check_eval(self, path: Path, model: str) -> None:
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
            ok = report["weighted"]["recall"] == report["accuracy"]
        except (OSError, ValueError, KeyError, TypeError) as e:
            self.check(False, f"{path.name} unreadable: {e}")
            return
        if self.check(ok, f"{path.name}: weighted recall != accuracy"):
            self.f1[model] = report["weighted"]["f1"]

    def _check_training_log(self, path: Path) -> None:
        try:
            loss = json.loads(path.read_text(encoding="utf-8"))["epochs"][-1]["train_loss"]
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            self.check(False, f"{path.name} unreadable: {e}")
            return
        if self.check(isinstance(loss, float) and math.isfinite(loss),
                      f"{path.name}: training loss {loss!r}"):
            self.train_loss = loss

    def _check_predict(self, stdout: str, expected: int, what: str) -> None:
        lines = stdout.splitlines()
        bad = [line for line in lines if not PREDICT_LINE.fullmatch(line)]
        self.check(len(lines) == expected and not bad,
                   f"{what}: {len(lines)} lines for {expected} inputs, {len(bad)} malformed")

    def rounds(self, seconds: float, traced: bool) -> list[Round]:
        """Run rounds until the next would overrun `seconds` (at least two).
        Traced mode alternates untraced and traced rounds."""
        out = []
        first_digests = None
        start = time.perf_counter()
        while True:
            i = len(out)
            run_dir = WORK / self.name / f"run{i}"
            spans_dir = WORK / self.name / f"spans{i}" if traced and i % 2 else None
            this = self.round(run_dir, spans_dir)
            digests = _digests(run_dir)
            if first_digests is None:
                first_digests = digests
            else:
                self.check(digests == first_digests,
                           f"round {i} artifacts differ from round 0: " +
                           ", ".join(sorted(k for k in set(digests) | set(first_digests)
                                            if digests.get(k) != first_digests.get(k))))
            out.append(this)
            print(json.dumps({"round": i, "traced": spans_dir is not None,
                              "seconds": {k: round(v, 4) for k, v in this.wall.items()},
                              "work": {k: round(v, 4) for k, v in this.work.items()},
                              "scale": this.scale}))
            elapsed = time.perf_counter() - start
            per_round = elapsed / len(out)
            if len(out) >= MIN_ROUNDS and (not traced or len(out) % 2 == 0) \
                    and elapsed + per_round * (2 if traced else 1) > seconds:
                return out


def _round_total(times: list[dict], prefixes: tuple[str, ...] = ("",)) -> float:
    """Median over rounds of the summed time of the matching commands."""
    return statistics.median(sum(v for k, v in t.items() if k.startswith(prefixes))
                             for t in times)


def _median(times: list[dict], prefix: str) -> float:
    """Median over every sample of the matching commands."""
    return statistics.median(v for t in times for k, v in t.items() if k.startswith(prefix))


def per_command(pipe: Pipeline, rounds: list[Round]) -> dict:
    """Each kind of command on its own, over the untraced rounds, and how
    much of the pipeline is start-up.  Printed for reading, not registered:
    a command of a second or less swings by a quarter or more between runs
    on a shared host, too much to gate."""
    wall = [r.wall for r in rounds if r.spans is None]
    work = [r.work for r in rounds if r.spans is None]
    out = {f"{key}_s": _median(wall, key)
           for key in ("prepare", "train_nb", "train_svm", "train_transformer", "report")}
    out["train_s"] = _round_total(wall, ("train_",))
    out["evaluate_s"] = _round_total(wall, ("evaluate_",))
    for model in ("nb", "svm", "transformer"):
        out[f"predict_{model}_texts_per_s"] = pipe.predict_texts / _median(wall, f"predict_{model}")
    out["commands_per_round"] = len(wall[0])
    out["startup_s"] = statistics.median(t[k] - w[k] for t, w in zip(wall, work) for k in t)
    out["startup_share"] = 1 - _round_total(work) / _round_total(wall)
    return out


def _sum_of_min(times: list[dict]) -> float:
    """Each command's least time over rounds, summed over the commands."""
    return sum(min(t[k] for t in times) for k in times[0])


def timings(rounds: list[Round], setup: list[float], setup_scale: float,
            scaled: bool) -> dict:
    """The end-to-end times, scaled to a quiet host's speed or as measured.
    A pipeline's time is the sum of each command's best round: on a shared
    host the slow samples are the host's, not the program's (see
    Yardstick).  A cold start's time is the median of its samples."""
    def times(r: Round, kind: dict) -> dict:
        return {k: v * r.scale if scaled else v for k, v in kind.items()}
    wall = [times(r, r.wall) for r in rounds]
    return {
        "setup_s": statistics.median(setup) * (setup_scale if scaled else 1),
        "pipeline_s": _sum_of_min(wall),
        "work_s": _sum_of_min([times(r, r.work) for r in rounds]),
        "cold_start_s": _median(wall, "cold_"),
    }


def end_to_end(pipe: Pipeline, rounds: list[Round], setup: list[float],
               setup_scale: float) -> dict:
    return {
        **timings(rounds, setup, setup_scale, scaled=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "weighted_f1_nb": pipe.f1.get("nb", 0.0),
        "weighted_f1_svm": pipe.f1.get("svm", 0.0),
        "train_loss_transformer": pipe.train_loss,
        # The worst group's share, so that a single failure always shows.
        "ops_ok_ratio": min(1 - failed / attempted for attempted, failed in pipe.groups
                            if attempted),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mixsent benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mixsent" / "cli.py").is_file() or not EMOJI_LEXICON.is_file():
        print(f"error: no mixsent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    registry = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in registry["per_layer" if args.trace else "end_to_end"]}

    # One CPU for the benchmark and every command it starts.  On a shared
    # two-core host, repeated timings of one command varied by about 10%
    # unpinned and about 3% pinned.  Commands are single-threaded, BLAS too.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    # The corpus is the benchmark's own input, not the program's set-up: it
    # is made (twice, to check it repeats) outside the timed set-up.
    for i in range(2):
        props = generate(args.workload, WORKLOADS[args.workload].shape, args.seed,
                         work / f"inputs{i}")
    env = _env()
    os.environ.update({k: env[k] for k in BLAS_VARS})   # for the yardstick's numpy
    yardstick = Yardstick()
    pipe = Pipeline(args.workload, args.seed, work / "inputs0", yardstick)
    pipe.check(_digests(work / "inputs0") == _digests(work / "inputs1"),
               "generator output differs across repeats")
    setup, help_codes = [], []
    for _ in range(SETUP_REPEATS):
        yardstick.sample()
        start = time.perf_counter()
        help_codes.append(subprocess.run(
            [sys.executable, "-m", "mixsent", "--help"], cwd=ROOT, env=env,
            capture_output=True, timeout=COMMAND_TIMEOUT_S).returncode)
        setup.append(time.perf_counter() - start)
    yardstick.sample()
    setup_scale = yardstick.scale_since(0)
    pipe.check(help_codes == [0] * SETUP_REPEATS, f"mixsent --help exited {help_codes}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "corpus": props}))
    print(json.dumps({"machine": machine_facts()}))

    rounds = pipe.rounds(args.seconds, traced=bool(args.trace))
    print(json.dumps({"weighted_f1": pipe.f1, "per_command": per_command(pipe, rounds)}))
    print(json.dumps({"yardstick": {"mean_s": statistics.fmean(yardstick.samples),
                                    "samples": len(yardstick.samples),
                                    "unscaled": timings(rounds, setup, setup_scale,
                                                        scaled=False)}}))
    if args.trace:
        metrics = layer_metrics(rounds)
    else:
        metrics = end_to_end(pipe, rounds, setup, setup_scale)
    for failure in pipe.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} are not "
              "both measured and registered", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not pipe.failures,
        "attempted": pipe.attempted,
        "failed": len(pipe.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
