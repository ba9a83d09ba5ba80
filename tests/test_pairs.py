"""bench/pairs.py: its schema, its alternation and its claim rule, with a
stub in place of perfbench/run.py."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("pairs", ROOT / "bench" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

METRICS = ["wall_s", "peak_rss_mb"]

# Prints what perfbench/run.py prints last: wall_s from the tree's speed
# file, times one plus a hundredth of the seed. Logs each run's tree,
# workload, seed and seconds to the file named in PAIRS_LOG.
STUB = """
import argparse, json, os, pathlib
parser = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(name)
args = parser.parse_args()
wall = float(pathlib.Path("speed.txt").read_text()) * (1 + int(args.seed) / 100)
with open(os.environ["PAIRS_LOG"], "a") as log:
    log.write(f"{pathlib.Path.cwd().name} {args.workload} {args.seed} {args.seconds}\\n")
metrics = {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": 50.0, "unit": "MiB"}}
print("metric lines")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
"""

BENCHMARK = {
    "run_seconds": 10,
    "workloads": [{"name": "study"}, {"name": "ingest"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    ],
}


def runs_of(values):
    return [{"metrics": {"wall_s": v, "peak_rss_mb": 50.0}, "correct": True, "attempted": 3,
             "failed": 0} for v in values]


@pytest.mark.parametrize(
    "parent, change, holds",
    [
        ([1.0] * 10, [0.5] * 10, True),  # lower in every pair, the parent's spread 0
        ([1.0, 1.1] * 5, [0.95, 1.05] * 5, False),  # lower in every pair, by less than q3 - q1
        ([1.0] * 10, [0.5] * 9 + [1.5], True),  # 9 of 10 pairs lower
        ([1.0] * 10, [0.5] * 8 + [1.5] * 2, False),  # 8 of 10
        ([1.0] * 10, [1.0] * 10, False),  # the same: never lower
    ],
)
def test_claim_rule(parent, change, holds):
    assert pairs.claim_holds(parent, change) is holds


def test_compare_records_each_metric_of_each_side():
    parent, change = [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.0, 4.0, 1.0, 1.0]
    record = pairs.compare({"parent": runs_of(parent), "change": runs_of(change)},
                           [7, 8, 9, 10, 11], METRICS)
    assert record["seeds"] == [7, 8, 9, 10, 11] and record["pairs"] == 5
    assert record["first_side"] == ["parent", "change", "parent", "change", "parent"]
    assert record["parent"]["wall_s"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": parent}
    assert record["change"]["wall_s"]["median"] == 1.0
    assert record["parent"]["failed"] == [0] * 5 and record["change"]["correct"] == [True] * 5
    assert record["median_move_pct"] == {"wall_s": -66.67, "peak_rss_mb": 0.0}
    assert record["change_lower_pairs"] == {"wall_s": 4, "peak_rss_mb": 0}
    assert record["claim_rule_holds"] == {"wall_s": False, "peak_rss_mb": False}  # 4 of 5


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                   check=True, capture_output=True)


def head_of(repo):
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True,
                          text=True, check=True).stdout.strip()


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A git repository whose commit runs at speed 1.0, with the stub runner."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB)
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (repo / ".gitignore").write_text(".bench_build/\nignored.txt\n")
    (repo / "speed.txt").write_text("1.0")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "parent")
    monkeypatch.setenv("PAIRS_LOG", str(tmp_path / "runs.log"))
    monkeypatch.chdir(repo)
    return repo


def test_pairs_alternate_over_built_trees(repo, tmp_path):
    # The working tree reads 0.5, with one untracked file copied and one
    # ignored file left out of the change.
    (repo / "speed.txt").write_text("0.5")
    (repo / "untracked.txt").write_text("new")
    (repo / "ignored.txt").write_text("left out")
    out = tmp_path / "bench.json"
    argv = ["--pairs", "4", "--aa-pairs", "2", "--workloads", "study", "--out", str(out)]
    assert pairs.main(argv) == 0

    runs = [line.split() for line in (tmp_path / "runs.log").read_text().splitlines()]
    sides = [tree for tree, _, _, _ in runs]
    assert sides == ["parent", "change", "change", "parent"] * 2 + [
        "parent", "parent_again", "parent_again", "parent"]
    # Every run at seed 0 and at the benchmark's own run length.
    assert {(seed, float(seconds)) for _, _, seed, seconds in runs} == {("0", 10.0)}
    built = repo / ".bench_build"
    assert (built / "change" / "untracked.txt").is_file()
    assert not (built / "change" / "ignored.txt").exists()
    assert (built / "parent" / "speed.txt").read_text() == "1.0"

    report = json.loads(out.read_text())
    assert report["parent_commit"] == head_of(repo)
    # The change is uncommitted: no commit names it, its diff and tree do.
    assert report["change"]["head"] is None
    assert len(report["change"]["diff_sha256"]) == len(report["change"]["tree_sha256"]) == 64
    assert report["machine"]["nproc"] >= 1 and report["machine"]["python"]
    study = report["workloads"]["study"]
    assert study["seeds"] == [0] * 4
    assert study["parent"]["wall_s"]["runs"] == [1.0] * 4
    assert study["change"]["wall_s"]["runs"] == [0.5] * 4
    assert study["first_side"] == ["parent", "change", "parent", "change"]
    assert study["claim_rule_holds"] == {"wall_s": True, "peak_rss_mb": False}
    aa = report["aa"]["workloads"]["study"]
    assert aa["seeds"] == [0, 0] and aa["median_move_pct"]["wall_s"] == 0.0
    assert not aa["claim_rule_holds"]["wall_s"]


def test_a_committed_change_is_named_by_its_commit(repo, tmp_path):
    parent = head_of(repo)
    (repo / "speed.txt").write_text("0.5")
    git(repo, "commit", "-q", "-am", "change")
    out = tmp_path / "bench.json"
    assert pairs.main(["--parent", parent, "--pairs", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["parent_commit"] == parent
    assert report["change"]["head"] == head_of(repo) != parent
    assert set(report["workloads"]) == {"study", "ingest"}

