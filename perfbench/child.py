"""Runs one workload in a fresh interpreter and writes raw results as JSON.

Started by run.py with ``src`` on PYTHONPATH; not meant to be run by hand.
With ``--trace 0`` it repeats the workload's CLI commands through
``fomo.cli.main`` for ``--seconds``, timing each command and the whole
pass, then checks the outputs. With ``--trace 1`` it makes one untraced
pass, then one traced pass in which every call from ``fomo.cli`` (and
from ``fomo.simulation`` into the collector) into a layer is a span, and
then times every shuffle trial through ``fomo.simulation.shuffle_trial``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import fomo.cli
import fomo.simulation
from fomo.prng import derive_key
from fomo.simulation import shuffle_trial

from tracing import Tracer, duration, instrument
from workloads import Workload


def call_cli(argv: list[str]) -> bool:
    """One CLI command; True when it exits 0."""
    try:
        return fomo.cli.main(argv) == 0
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code == 0
    except Exception:  # a crash counts as a failed command; keep measuring
        traceback.print_exc()
        return False


def run_pass(workload: Workload) -> tuple[dict, int]:
    """All commands once: seconds per end-to-end metric, and failures."""
    timings = {"wall_s": 0.0}
    failed = 0
    started = time.perf_counter()
    for metric, argv in workload.commands():
        begin = time.perf_counter()
        failed += not call_cli(argv)
        timings[metric] = timings.get(metric, 0.0) + time.perf_counter() - begin
    timings["wall_s"] = time.perf_counter() - started
    return timings, failed


def untraced(workload: Workload, seconds: float) -> dict:
    passes = []
    failed = 0
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        timings, pass_failed = run_pass(workload)
        if not passes:  # later passes reuse a heap the first one shaped
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        passes.append(timings)
        failed += pass_failed
    return {
        "params": workload.params(),
        "passes": passes,
        "peak_rss_kb": peak_rss_kb,
        "commands_attempted": len(passes) * len(workload.commands()),
        "commands_failed": failed,
        "checks": workload.checks(),
    }


def layer_targets(captured: dict) -> list:
    """(module, name, span, counter) for every call into a layer. The
    counters also keep the last loaded corpus, for the per-trial pass, and
    the summary, for the output checks. The generated corpus is not kept:
    holding a second corpus would slow every later load through the
    garbage collector."""

    def loaded(args, result):
        captured["loaded"] = result
        return {"docs": len(result), "bytes": os.path.getsize(args[0])}

    def shuffled(args, result):
        captured["summary"] = result
        return {"trials": result.trial_count}

    def coupons(args, result):
        return {"coupons": len(args[0])}

    cli, sim = fomo.cli, fomo.simulation
    return [
        (cli, "zipf_prevalences", "corpus.zipf_prevalences", None),
        (cli, "generate_corpus", "corpus.generate_corpus",
         lambda args, result: {"docs": len(result)}),
        (cli, "save_corpus", "corpus.save_corpus",
         lambda args, result: {"docs": len(args[0]), "bytes": os.path.getsize(args[1])}),
        (cli, "load_corpus", "corpus.load_corpus", loaded),
        (cli, "run_shuffles", "simulation.run_shuffles", shuffled),
        (cli, "scan_accession", "simulation.scan_accession",
         lambda args, result: {"docs": result.total_documents}),
        (cli, "summary_from_json", "simulation.summary_from_json", None),
        (cli, "completion_vs_analytic", "simulation.completion_vs_analytic", None),
        (sim, "completion_quantile", "collector.completion_quantile", None),
        (sim, "expected_draws_unequal_sum", "collector.expected_draws_unequal_sum", coupons),
        (cli, "expected_draws_unequal_sum", "collector.expected_draws_unequal_sum", coupons),
        (cli, "expected_draws_unequal_exact", "collector.expected_draws_unequal_exact",
         lambda args, result: {"subsets": 2 ** len(args[0]) - 1}),
        (cli, "simulate_expected_draws", "collector.simulate_expected_draws",
         lambda args, result: {"draws": round(result.mean * result.trials)}),
        (cli, "fomo_table", "analytic.fomo_table",
         lambda args, result: {"rows": len(result)}),
    ]


def time_trials(tracer: Tracer, corpus, trials: int, trial_seed: int) -> None:
    """Each trial of ``simulate`` again, one span per trial, keyed as
    run_trials keys them."""
    with tracer.span("bench.trials"):
        for index in range(trials):
            with tracer.span("simulation.shuffle_trial") as record:
                result = shuffle_trial(corpus, derive_key(trial_seed, index))
            n = len(corpus)
            record["counts"] = {"completion": result.completion_position,
                                "swaps": min(result.completion_position, n - 1)}


def traced(workload: Workload, spans_path: str) -> dict:
    untraced_pass, untraced_failed = run_pass(workload)
    tracer = Tracer()
    captured: dict = {}
    failed = 0
    params = workload.params()
    with instrument(tracer, layer_targets(captured)):
        for _, argv in workload.commands():
            with tracer.span("cli." + argv[0]):
                failed += not call_cli(argv)
            # Dropped as soon as the command ends, as in an untraced pass.
            corpus = captured.pop("loaded", None)
            if argv[0] == "simulate" and corpus is not None:
                time_trials(tracer, corpus, params["trials"], params["trial_seed"])
            corpus = None
    checks = workload.checks(summary=captured.pop("summary", None))
    cli_spans = [s for s in tracer.spans if s["name"].startswith("cli.")]
    overhead_by_command: dict = {}
    for s in cli_spans:
        overhead_by_command[s["name"]] = (
            overhead_by_command.get(s["name"], 0.0) + tracer.self_time(s))
    tracer.dump(spans_path, {"params": params})
    return {
        "params": params,
        "layers": layer_metrics(tracer, cli_spans),
        "cli_overhead_by_command": overhead_by_command,
        "untraced_wall_s": untraced_pass["wall_s"],
        "traced_wall_s": sum(duration(s) for s in cli_spans),
        "spans": len(tracer.spans),
        "commands_attempted": 2 * len(workload.commands()),
        "commands_failed": untraced_failed + failed,
        "checks": checks,
    }


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    """numerator/denominator * scale, or 0 when the layer did no work."""
    return numerator / denominator * scale if denominator else 0.0


def trial_fit(trials: list[dict]) -> tuple[float, float]:
    """Least-squares (intercept s, slope s/doc) of trial time on completion."""
    if len(trials) < 2:
        return 0.0, 0.0
    xs = [t["counts"]["completion"] for t in trials]
    ys = [duration(t) for t in trials]
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x == 0:
        return mean_y, 0.0
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var_x
    return mean_y - slope * mean_x, slope


LAYERS = ("corpus", "simulation", "collector", "analytic", "cli")


def time_shares(tracer: Tracer, cli_spans: list[dict]) -> dict:
    """Percent of the traced commands' wall time spent in each layer's own
    code (span self time), so a layer a workload bypasses reads 0."""
    roots = {s["id"] for s in cli_spans}
    wall = sum(duration(s) for s in cli_spans)
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for span in tracer.spans:
        if span["trace"] in roots:
            self_by_layer[span["name"].split(".")[0]] += tracer.self_time(span)
    return {f"{layer}.time_pct": (ratio(t, wall, 100.0), "%")
            for layer, t in self_by_layer.items()}


def layer_metrics(tracer: Tracer, cli_spans: list[dict]) -> dict:
    """Per-layer metrics as {name: (value, unit)}."""
    gen_s = tracer.total("corpus.generate_corpus")
    save_s = tracer.total("corpus.save_corpus")
    load_s = tracer.total("corpus.load_corpus")
    saved = tracer.named("corpus.save_corpus")
    trials = tracer.named("simulation.shuffle_trial")
    trial_ms = [duration(t) * 1e3 for t in trials] or [0.0]
    fixed_s, per_doc_s = trial_fit(trials)
    exact_s = tracer.total("collector.expected_draws_unequal_exact")
    mc_s = tracer.total("collector.simulate_expected_draws")
    table_s = tracer.total("analytic.fomo_table")
    return {
        "corpus.generate_s": (gen_s, "s"),
        "corpus.generate_ns_per_doc": (ratio(
            gen_s, tracer.count("corpus.generate_corpus", "docs"), 1e9), "ns/doc"),
        "corpus.save_s": (save_s, "s"),
        "corpus.save_mb_per_s": (ratio(
            tracer.count("corpus.save_corpus", "bytes") / 1e6, save_s), "MB/s"),
        "corpus.load_s": (load_s, "s"),
        "corpus.load_mb_per_s": (ratio(
            tracer.count("corpus.load_corpus", "bytes") / 1e6, load_s), "MB/s"),
        "corpus.file_bytes": (saved[-1]["counts"]["bytes"] if saved else 0, "B"),
        "simulation.trials_s": (tracer.total("simulation.run_shuffles"), "s"),
        "simulation.trial_ms_p50": (statistics.median(trial_ms), "ms"),
        "simulation.trial_ms_p95": (nearest_rank(trial_ms, 0.95), "ms"),
        "simulation.trial_fixed_ms": (fixed_s * 1e3, "ms"),
        "simulation.trial_ns_per_doc": (per_doc_s * 1e9, "ns/doc"),
        "simulation.docs_scanned": (sum(t["counts"]["completion"] for t in trials), "count"),
        "simulation.swaps": (sum(t["counts"]["swaps"] for t in trials), "count"),
        "simulation.curve_s": (tracer.total("simulation.scan_accession"), "s"),
        "simulation.compare_s": (tracer.total("simulation.completion_vs_analytic"), "s"),
        "collector.exact_s": (exact_s, "s"),
        "collector.exact_ns_per_subset": (ratio(
            exact_s, tracer.count("collector.expected_draws_unequal_exact", "subsets"),
            1e9), "ns/subset"),
        "collector.sum_s": (tracer.total("collector.expected_draws_unequal_sum"), "s"),
        "collector.montecarlo_s": (mc_s, "s"),
        "collector.montecarlo_ns_per_draw": (ratio(
            mc_s, tracer.count("collector.simulate_expected_draws", "draws"), 1e9),
            "ns/draw"),
        "analytic.table_s": (table_s, "s"),
        "analytic.table_us_per_row": (ratio(
            table_s, tracer.count("analytic.fomo_table", "rows"), 1e6), "us/row"),
        "cli.overhead_s": (sum(tracer.self_time(s) for s in cli_spans), "s"),
        **time_shares(tracer, cli_spans),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    workload = Workload(args.workload, args.seed, bool(args.tiny), args.work)
    workload.prepare()
    if args.trace:
        result = traced(workload, args.spans)
    else:
        result = untraced(workload, args.seconds)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
