"""Alternating perfbench pairs: a parent commit against the working tree.

    python3 bench/pairs.py --parent HEAD --pairs 10 --out BENCH_N.json
    python3 bench/pairs.py --parent HEAD~1 --pairs 10 --aa-pairs 4 --out BENCH_N.json

Run from the root of a git checkout. The parent tree is built with
``git archive``; the change is a copy of the working tree's tracked and
untracked files (ignored ones left out). Both go under the ignored
``.bench_build``, fresh each run. For every workload, each pair runs
``perfbench/run.py --workload W --seed 0 --seconds T --trace 0``, with T
the ``run_seconds`` of ``BENCHMARK.json``, once in each tree, the parent
first in even pairs and the change first in odd ones. Every run takes
the same seed, so the runs differ only by the host's noise, and the
parent's quartiles measure that noise. ``--aa-pairs`` adds an A/A round:
the same pairs over two separate builds of the parent, which shows how
far identical trees read apart on this host.

The JSON written holds the commits, ``nproc``, the Python and numpy
versions, the seed and every run; per metric of each side the median,
the quartiles (inclusive method) and the runs; the move of each median,
the pairs in which the change read lower, and whether the claim rule
holds. The change's ``head`` is the commit measured when the working
tree is clean, and null otherwise; ``diff_sha256`` digests ``git diff``
from the parent commit to the working tree, and ``tree_sha256`` every
file copied. The claim rule: the change is lower in at least
``LOWER_SHARE`` of the pairs, and its median is lower than the parent's
by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from functools import partial
from importlib import metadata
from pathlib import Path

LOWER_SHARE = 0.9
RUNNER = ("perfbench", "run.py")
SEED = 0
WORK = ".bench_build"  # ignored by git, so never copied into the change


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def build_parent(root: Path, rev: str, dest: Path) -> None:
    """The committed tree of ``rev``, written to ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def build_change(root: Path, dest: Path) -> str:
    """The working tree's tracked and untracked files, not the ignored ones,
    copied to ``dest``; returns the SHA-256 of their paths and bytes."""
    shutil.rmtree(dest, ignore_errors=True)
    digest = hashlib.sha256()
    listed = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in sorted(set(filter(None, listed.split("\0")))):
        source = root / name
        if not source.is_file():  # deleted from the working tree
            continue
        target = dest / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target)
        digest.update(name.encode() + b"\0" + source.read_bytes() + b"\0")
    return digest.hexdigest()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``: the JSON of its last line of stdout."""
    command = [sys.executable, str(Path(*RUNNER)), "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(command)} in {tree}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return {"metrics": metrics, **{k: result[k] for k in ("correct", "attempted", "failed")}}


def first_side(pair: int) -> str:
    return "parent" if pair % 2 == 0 else "change"


def run_pairs(trees: dict, workload: str, seeds: list[int], seconds: float, log=print) -> dict:
    """Both sides of each pair, the side that runs first alternating."""
    runs = {"parent": [], "change": []}
    for pair, seed in enumerate(seeds):
        first = first_side(pair)
        for side in (first, "change" if first == "parent" else "parent"):
            runs[side].append(run_once(trees[side], workload, seed, seconds))
            log(f"{workload} pair {pair} seed {seed} {side}: "
                f"{json.dumps(runs[side][-1]['metrics'])}")
    return runs


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def claim_holds(parent: list[float], change: list[float]) -> bool:
    """Lower in at least LOWER_SHARE of the pairs, and a median gap wider
    than the parent's interquartile range."""
    lower = sum(c < p for p, c in zip(parent, change, strict=True))
    p, c = spread(parent), spread(change)
    wide = p["median"] - c["median"] > p["q3"] - p["q1"]
    return lower >= math.ceil(LOWER_SHARE * len(parent)) and wide


def compare(runs: dict, seeds: list[int], metrics: list[str]) -> dict:
    """The record of one workload's pairs, for the named metrics."""
    record = {"seeds": seeds, "pairs": len(seeds),
              "first_side": [first_side(pair) for pair in range(len(seeds))]}
    values = {side: {m: [r["metrics"][m] for r in runs[side]] for m in metrics}
              for side in ("parent", "change")}
    for side in ("parent", "change"):
        record[side] = {name: spread(v) for name, v in values[side].items()}
        for key in ("failed", "attempted", "correct"):
            record[side][key] = [r[key] for r in runs[side]]
    record["median_move_pct"], record["change_lower_pairs"], record["claim_rule_holds"] = {}, {}, {}
    for m in metrics:
        parent, change = values["parent"][m], values["change"][m]
        p, c = statistics.median(parent), statistics.median(change)
        record["median_move_pct"][m] = round(100 * (c - p) / p, 2) if p else 0.0
        record["change_lower_pairs"][m] = sum(y < x for x, y in zip(parent, change))
        record["claim_rule_holds"][m] = claim_holds(parent, change)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="the commit to measure against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--aa-pairs", type=int, default=0, help="pairs of an A/A round (0: none)")
    parser.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    work = root / WORK
    parent_commit = git(root, "rev-parse", args.parent)
    trees = {"parent": work / "parent", "change": work / "change"}
    build_parent(root, parent_commit, trees["parent"])
    tree_sha256 = build_change(root, trees["change"])
    diff = subprocess.run(["git", "diff", "--binary", parent_commit], cwd=root, check=True,
                          capture_output=True).stdout
    # An uncommitted change has no commit of its own: HEAD would name the tree it started from.
    head = None if git(root, "status", "--porcelain") else git(root, "rev-parse", "HEAD")
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [m["name"] for m in spec["end_to_end"] if m["better"] == "lower"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = [SEED] * args.pairs
    log = partial(print, file=sys.stderr, flush=True)

    report = {
        "what": (f"{' '.join(RUNNER)} --workload W --seed {SEED} --seconds {seconds:g} --trace 0, "
                 "parent tree against change tree, in alternating pairs (bench/pairs.py)"),
        "claim_rule": (f"the change is lower in at least {LOWER_SHARE:g} of the pairs and its "
                       "median is lower than the parent's by more than the parent's q3 - q1"),
        "parent_commit": parent_commit,
        "change": {"head": head, "diff_sha256": hashlib.sha256(diff).hexdigest(),
                   "tree_sha256": tree_sha256},
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": metadata.version("numpy")},
        "workloads": {w: compare(run_pairs(trees, w, seeds, seconds, log), seeds, metrics)
                      for w in workloads},
    }
    if args.aa_pairs:
        again = {"parent": trees["parent"], "change": work / "parent_again"}
        build_parent(root, parent_commit, again["change"])
        aa_seeds = seeds[: args.aa_pairs]
        report["aa"] = {
            "what": "the parent against a second build of itself; 'change' is the second build",
            "workloads": {w: compare(run_pairs(again, w, aa_seeds, seconds, log), aa_seeds, metrics)
                          for w in workloads},
        }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for w, record in report["workloads"].items():
        print(f"{w}: move % {record['median_move_pct']} lower pairs {record['change_lower_pairs']} "
              f"claim rule {record['claim_rule_holds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
