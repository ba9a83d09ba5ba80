"""The benchmark's workloads: inputs made from the seed, the CLI commands
each one runs, and the checks on what those commands write.

Every input is a pure function of (workload, seed, size), so the same
seed always gives the same commands. At DEFAULT_SEED the corpus
workloads reproduce the acceptance test's experiment (generation seed 7,
trial seed 11) and the collector workload the acceptance test's dice
seed 2024.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

DEFAULT_SEED = 0
SEED_STRIDE = 1_000_003

# The paper's criterion-6 experiment: 64 power-law topics between the
# extremes 0.36 and 1/8571.
TOPICS = 64
MAX_PREV = 0.36
MIN_PREV = 1 / 8571

FULL = {
    "study": {"docs": 120_000, "trials": 200},
    "ingest": {"docs": 1_000_000, "trials": 20},
    "collector": {
        "exact_coupons": 25,
        "sum_coupons": 80_000,
        "dice_trials": 1_000_000,
        "power_trials": 100_000,
        "table_side": 100,
    },
}
TINY = {
    "study": {"docs": 3_000, "trials": 20},
    "ingest": {"docs": 8_000, "trials": 5},
    "collector": {
        "exact_coupons": 12,
        "sum_coupons": 2_000,
        "dice_trials": 20_000,
        "power_trials": 5_000,
        "table_side": 10,
    },
}

# SHA-256 of outputs at DEFAULT_SEED and full size. The table grid does
# not depend on the seed, so its pin holds at every seed.
PINNED = {
    "study_corpus": "e4b9e8a01af720fd8f0ae3e5064a6de2510b52b7b10ffc241ed57e4b8b190003",
    "study_summary": "73cf3b2b023afdd70dc320c2aa19eafcf3bf1937e1ab7b2b3d14cf8f5bfb6253",
    "table": "e88f31bc809c16cc6497a7eff5c135ed238059e9b0d6bad243a45288f5c29162",
}

# Answers the collector routes must reproduce: two-die sums take
# 61.2173... rolls, every one of 365 birthdays about 2364.65 people.
DICE_EXPECTED = 61.2173
BIRTHDAY_EXPECTED = 2364.65


class Workload:
    """One workload at one seed and size: its inputs, commands and checks."""

    def __init__(self, name: str, seed: int, tiny: bool, work: str):
        if name not in FULL:
            raise ValueError(f"unknown workload {name!r}; choose from {sorted(FULL)}")
        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.work = work
        self.size = (TINY if tiny else FULL)[name]
        self.pinned = seed == DEFAULT_SEED and not tiny

    def path(self, filename: str) -> str:
        return os.path.join(self.work, filename)

    def params(self) -> dict:
        """Input sizes and derived seeds, recorded with every result."""
        params = {"workload": self.name, "seed": self.seed, "tiny": self.tiny, **self.size}
        if self.name == "collector":
            params["mc_seeds"] = self._mc_seeds()
        else:
            gen_seed, trial_seed = self._corpus_seeds()
            params.update(topics=TOPICS, gen_seed=gen_seed, trial_seed=trial_seed)
        return params

    def _corpus_seeds(self) -> tuple[int, int]:
        return 7 + SEED_STRIDE * self.seed, 11 + SEED_STRIDE * self.seed

    def _mc_seeds(self) -> tuple[int, int]:
        return 2024 + SEED_STRIDE * self.seed, 2025 + SEED_STRIDE * self.seed

    # -- inputs ----------------------------------------------------------

    def prepare(self) -> None:
        """Write the input files the commands read."""
        if self.name != "collector":
            return
        for label, count, exponent in (
            ("exact", self.size["exact_coupons"], 1.0),
            ("exact-flat", self.size["exact_coupons"], 0.5),
            ("sum", self.size["sum_coupons"], 1.0),
        ):
            with open(self.path(f"probs-{label}.json"), "w", encoding="utf-8") as fh:
                json.dump(power_law(count, exponent), fh)

    def commands(self) -> list[tuple[str, list[str]]]:
        """(end-to-end metric, argv) for each CLI command, in run order."""
        if self.name == "collector":
            return self._collector_commands()
        gen_seed, trial_seed = self._corpus_seeds()
        corpus = self.path("corpus.jsonl")
        commands = [
            ("gen_corpus_s", [
                "gen-corpus", "--docs", str(self.size["docs"]), "--topics", str(TOPICS),
                "--max-prev", repr(MAX_PREV), "--min-prev", repr(MIN_PREV),
                "--seed", str(gen_seed), "--out", corpus,
            ]),
            ("simulate_s", [
                "simulate", "--corpus", corpus, "--trials", str(self.size["trials"]),
                "--seed", str(trial_seed), "--summary-json", self.path("summary.json"),
                "--histogram-csv", self.path("histogram.csv"),
                "--output", self.path("simulate.csv"),
            ]),
        ]
        if self.name == "study":
            commands.append(("compare_s", [
                "compare", "--corpus", corpus, "--summary", self.path("summary.json"),
                "--output", self.path("compare.csv"),
            ]))
        commands.append(
            ("curve_s", ["curve", "--corpus", corpus, "--output", self.path("curve.csv")])
        )
        return commands

    def _collector_commands(self) -> list[tuple[str, list[str]]]:
        dice_seed, power_seed = self._mc_seeds()
        exact_probs = self.path("probs-exact.json")
        side = self.size["table_side"]
        produced = ",".join(str(1000 * (k + 1)) for k in range(side))
        recalls = ",".join(f"{0.05 + 0.9 * k / side:.3f}" for k in range(side))

        def collector(label: str, source: list[str], method: str, *extra: str):
            return ["collector", *source, "--method", method, *extra,
                    "--output", self.path(f"collector-{label}.csv")]

        return [
            ("collector_exact_s", collector("exact-dice", ["--dice"], "exact")),
            ("collector_exact_s", collector("exact-power", ["--probs", exact_probs], "exact")),
            ("collector_exact_s", collector(
                "exact-flat", ["--probs", self.path("probs-exact-flat.json")], "exact")),
            ("collector_sum_s", collector("sum-power", ["--probs", exact_probs], "sum")),
            ("collector_sum_s", collector("sum-birthday", ["--uniform", "365"], "sum")),
            ("collector_sum_s",
             collector("sum-large", ["--probs", self.path("probs-sum.json")], "sum")),
            ("collector_montecarlo_s", collector(
                "mc-dice", ["--dice"], "montecarlo",
                "--trials", str(self.size["dice_trials"]), "--seed", str(dice_seed))),
            ("collector_montecarlo_s", collector(
                "mc-power", ["--probs", exact_probs], "montecarlo",
                "--trials", str(self.size["power_trials"]), "--seed", str(power_seed))),
            ("table_s", ["table", "--produced", produced, "--recall", recalls,
                         "--confidence", "0.95", "--output", self.path("table.csv")]),
        ]

    # -- checks ------------------------------------------------------------

    def checks(self, summary=None) -> list[tuple[str, bool, str]]:
        """Check the outputs the last run of the commands left behind.

        ``summary`` may be passed in when the caller already holds what
        ``run_shuffles`` returned for these inputs; otherwise the library
        recomputes it.
        """
        if self.name == "collector":
            return self._collector_checks()
        return self._corpus_checks(summary)

    def _corpus_checks(self, summary) -> list[tuple[str, bool, str]]:
        from fomo.corpus import generate_corpus, load_corpus, zipf_prevalences
        from fomo.simulation import run_shuffles

        gen_seed, trial_seed = self._corpus_seeds()
        trials = self.size["trials"]
        results = []
        loaded = load_corpus(self.path("corpus.jsonl"))
        dist = zipf_prevalences(TOPICS, MAX_PREV, MIN_PREV)
        generated = generate_corpus(self.size["docs"], dist, gen_seed)
        results.append(("corpus_roundtrip", loaded == generated,
                        f"{len(loaded)} documents"))
        del generated
        if summary is None:
            summary = run_shuffles(loaded, trials, trial_seed)
        written = _read(self.path("summary.json"))
        results.append(("summary_matches_library", written == summary.to_json() + "\n",
                        f"{len(written)} bytes"))
        histogram = _csv_rows(self.path("histogram.csv"))
        total = sum(int(row["count"]) for row in histogram)
        results.append(("histogram_counts_trials", total == trials, f"{total} of {trials}"))
        curve = _csv_rows(self.path("curve.csv"))
        reached = int(curve[-1]["distinct_topics_seen"]) if curve else -1
        present = len(loaded.topics_present)
        results.append(("curve_reaches_every_topic", reached == present,
                        f"{reached} of {present}"))
        if self.name == "study":
            rows = _csv_rows(self.path("compare.csv"))
            ok = [row["metric"] for row in rows] == ["median_completion", "mean_completion"]
            ok = ok and all(math.isfinite(float(row["relative_difference"])) for row in rows)
            results.append(("compare_rows", ok, f"{len(rows)} rows"))
            if self.pinned:
                results.append(_pin("study_corpus", self.path("corpus.jsonl")))
                results.append(_pin("study_summary", self.path("summary.json")))
        return results

    def _collector_checks(self) -> list[tuple[str, bool, str]]:
        from fomo.collector import (
            dice_sum_distribution,
            expected_draws_equal,
            expected_draws_unequal_sum,
        )

        def answer(label: str) -> dict:
            return _csv_rows(self.path(f"collector-{label}.csv"))[0]

        results = []
        dice = float(answer("exact-dice")["expected_draws"])
        results.append(("dice_exact", 0.0 <= dice - DICE_EXPECTED < 1e-4, f"{dice!r}"))
        dice_sum = expected_draws_unequal_sum(dice_sum_distribution())
        power = float(answer("exact-power")["expected_draws"])
        power_sum = float(answer("sum-power")["expected_draws"])
        worst = max(abs(dice_sum - dice) / dice, abs(power_sum - power) / power)
        results.append(("exact_matches_integral", worst <= 1e-9, f"worst {worst:.2e}"))
        birthday = float(answer("sum-birthday")["expected_draws"])
        gap = abs(birthday - expected_draws_equal(365)) / birthday
        results.append(("birthday_365", abs(birthday - BIRTHDAY_EXPECTED) <= 0.01
                        and gap <= 1e-9, f"{birthday!r}"))
        large = answer("sum-large")
        lower = 1 / power_law(self.size["sum_coupons"])[-1]
        results.append(("large_sum_above_rarest_wait",
                        float(large["expected_draws"]) >= lower
                        and int(large["coupons"]) == self.size["sum_coupons"],
                        large["expected_draws"]))
        for label, exact in (("mc-dice", dice), ("mc-power", power)):
            row = answer(label)
            distance = abs(float(row["expected_draws"]) - exact) / float(row["std_error"])
            results.append((f"{label}_within_5_se", distance <= 5.0,
                            f"{distance:.2f} standard errors"))
        table = _csv_rows(self.path("table.csv"))
        side = self.size["table_side"]
        ok = len(table) == side * side and all(
            0.0 <= float(row["fomo_confidence"]) <= 0.05 * (1 + 1e-12) for row in table
        )
        results.append(("table_rows", ok, f"{len(table)} rows"))
        if not self.tiny:
            results.append(_pin("table", self.path("table.csv")))
        return results


def power_law(count: int, exponent: float = 1.0) -> list[float]:
    """Coupon probabilities proportional to (i+1)**-exponent, summing to 0.999."""
    weights = [(i + 1) ** -exponent for i in range(count)]
    scale = 0.999 / math.fsum(weights)
    return [w * scale for w in weights]


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _pin(key: str, path: str) -> tuple[str, bool, str]:
    actual = sha256_file(path)
    return (f"sha256_{key}", actual == PINNED[key], actual)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def _csv_rows(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
