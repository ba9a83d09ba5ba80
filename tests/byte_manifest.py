"""The SHA-256 of every command's output bytes: stdout and every file it
writes, for every subcommand in both ``--format``s, on the acceptance
study (generation seed 7, trial seed 11) and on one small corpus.

``test_acceptance.test_byte_manifest`` runs the cases and compares the
digests with ``byte_manifest.json``. To record that file, run from the
repository root

    PYTHONPATH=src python tests/byte_manifest.py

at a commit whose outputs are the ones to pin.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

from fomo.cli import main
from fomo.corpus import Corpus, save_corpus

MANIFEST = pathlib.Path(__file__).with_name("byte_manifest.json")
FORMATS = ("csv", "json")
# The options that name a file a command writes.
WRITES = ("--out", "--summary-json", "--histogram-csv")
# The inputs made before the cases run: the study corpus saved as the
# fixture holds it, and its empirical prevalences as a --probs file,
# divided by their sum (1.208), since coupon probabilities sum to at most
# 1. compare feeds the sum route the prevalences as they are.
INPUTS = ("study.jsonl", "study-prevalences.json")


def cases():
    """(name, argv) in run order, paths relative to the working directory."""
    yield "gen-corpus small", [
        "gen-corpus", "--docs", "300", "--topics", "6", "--max-prev", "0.5",
        "--min-prev", "0.02", "--seed", "3", "--out", "small.jsonl",
    ]
    for fmt in FORMATS:
        for corpus, trials, seed in (("small", "50", "4"), ("study", "200", "11")):
            yield f"simulate {corpus} {fmt}", [
                "simulate", "--corpus", f"{corpus}.jsonl", "--trials", trials, "--seed", seed,
                "--summary-json", f"{corpus}-summary-{fmt}.json",
                "--histogram-csv", f"{corpus}-histogram-{fmt}.csv", "--format", fmt,
            ]
            yield f"compare {corpus} {fmt}", [
                "compare", "--corpus", f"{corpus}.jsonl",
                "--summary", f"{corpus}-summary-{fmt}.json", "--format", fmt,
            ]
            yield f"curve {corpus} {fmt}", ["curve", "--corpus", f"{corpus}.jsonl", "--format", fmt]
        yield f"table {fmt}", ["table", "--format", fmt]
        yield f"bound {fmt}", ["bound", "--produced", "2000000", "--format", fmt]
        collector = {
            "exact dice": ["--dice"],
            "sum uniform-365": ["--uniform", "365", "--method", "sum"],
            "sum study": ["--probs", "study-prevalences.json", "--method", "sum"],
            "montecarlo dice": ["--dice", "--method", "montecarlo", "--trials", "20000",
                                "--seed", "5"],
        }
        for route, argv in collector.items():
            yield f"collector {route} {fmt}", ["collector", *argv, "--format", fmt]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cases(study: Corpus) -> dict[str, dict[str, str]]:
    """Every case's digests, run in the current directory: case name ->
    {"stdout" or a written file's name: SHA-256}."""
    save_corpus(study, INPUTS[0])
    prevalences = list(study.empirical_prevalences().values())
    total = sum(prevalences)
    pathlib.Path(INPUTS[1]).write_text(json.dumps([p / total for p in prevalences]))
    digests = {"inputs": {name: sha256(pathlib.Path(name).read_bytes()) for name in INPUTS}}
    for name, argv in cases():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, name
        written = [argv[i + 1] for i, arg in enumerate(argv) if arg in WRITES]
        digests[name] = {
            "stdout": sha256(out.getvalue().encode()),
            **{path: sha256(pathlib.Path(path).read_bytes()) for path in written},
        }
    return digests


if __name__ == "__main__":
    from test_acceptance import (
        STUDY_DOCS, STUDY_GEN_SEED, STUDY_MAX_PREV, STUDY_MIN_PREV, STUDY_TOPICS
    )
    from fomo.corpus import generate_corpus, zipf_prevalences

    dist = zipf_prevalences(STUDY_TOPICS, STUDY_MAX_PREV, STUDY_MIN_PREV)
    corpus = generate_corpus(STUDY_DOCS, dist, seed=STUDY_GEN_SEED)
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        digests = run_cases(corpus)
    MANIFEST.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
