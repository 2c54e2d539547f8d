"""The bytes of a seed-1 baseline run, pinned across Pythons and CPUs.

Criterion 11 reruns the pipeline on one machine.  This test pins the
sha256 of every portable file of a tiny seed-1 run on a committed corpus
(tests/data/portable_*: 100 generated posts, plus one duplicate and one
filler post), so the CI matrix checks that Python 3.10 to 3.13 and CI's CPU
write the same bytes.  The encoder's files are left out: their bytes hold
only per machine, BLAS kernel and numpy SIMD level (README, "Determinism").
A change that alters these bytes on purpose updates the digests here and
says why in CHANGES.md; a digest is never pinned per platform."""

import hashlib

from mixsent.cli import main

from conftest import DATA_DIR

DIGESTS = {
    "train.jsonl": "491593d8ff1b58ad5406a0463270fb695b3442b994e2439d66eca08ed1524fd0",
    "val.jsonl": "d46d9278179fd2a73d7771f33f3bf5bf25e6fa11f36ba639fc42348f01ef1ad6",
    "test.jsonl": "efedaee4ed0086812bb707177ceae6362c9e0648a3f50b3f6591ed91b5b830db",
    "clean.jsonl": "6261582b9f7d9b264eb82b2ef971754924198feca849216631352bba4ca64e5b",
    "manifest.json": "72314bf899d0e8ae483eefec2fff3add98e72d08a2d7ef011bd0cb44895c40ed",
    "preprocess.json": "268b59f59336aca0bcfd4b81ec124e24e662bd8d3cd7ee2b06624c9a8b12d0f2",
    "drops.json": "c22cff8434737a9c431d0450e0c322abc9111c1e126c99fad1c5f92655726cbf",
    "distribution.txt": "ab051361621da789690508864342c51d54279434d1aa083bf1e78c8fcf003e77",
    "nb.json": "9bfeed2e48777f88b98a7f9a202ff7a7b2d1571a48a05b43725210d1a4d62ea2",
    "svm.json": "ac0d6679d396a3184091356cc5315e8cab698f39d483677ba031617e2730b970",
    "eval_nb_test.json": "c1bc98f4ac3f2f199fd84053832d07c1b06e42c2ccb9cef115d007ae6c5fca1b",
    "eval_svm_test.json": "d960568c0998b6ea0c626861915dc67edbc79abd7acb9e874f267c117998c840",
}


def test_seed_1_baseline_run_writes_the_pinned_bytes(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["prepare", "--input", str(DATA_DIR / "portable_corpus.jsonl"),
                 "--label-map", str(DATA_DIR / "portable_label_map.json"),
                 "--out-dir", str(run), "--seed", "1"]) == 0
    for model in ("nb", "svm"):
        assert main(["train", "--model", model, "--out-dir", str(run), "--seed", "1"]) == 0
        assert main(["evaluate", "--model-file", str(run / f"{model}.json")]) == 0
    capsys.readouterr()
    written = {name: hashlib.sha256((run / name).read_bytes()).hexdigest()
               for name in DIGESTS}
    assert written == DIGESTS
