"""Command-line front end: ``fomo <subcommand>``.

Every report is machine-readable: CSV (RFC 4180, header row) or JSON
(always versioned), written to stdout or ``--output``. Plots are data
emission only; any plotting tool can consume the CSV.

Subcommands:
    table       confidence-of-a-missed-topic table over production sizes
                and recall levels
    bound       zero-sighting prevalence bound for one production
    collector   expected draws to collect every coupon (exact, integral,
                or Monte Carlo)
    simulate    shuffle-and-scan a corpus; summary JSON + histogram CSV
    curve       coverage curve of a corpus in accession order
    gen-corpus  synthesize a power-law multi-label corpus
    compare     simulated completion versus the analytic scan model

Validation failures, a malformed command line included, and inputs too
large to allocate exit with status 1 and a one-line ``error: ...``
diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Any, Callable, Iterable, NoReturn, Sequence

from .analytic import RecallScenario, fomo_table, format_percent, prevalence_upper_bound
from .collector import (
    SUM_COUPON_LIMIT,
    CouponDistribution,
    check_coupon_count,
    dice_sum_distribution,
    expected_draws_unequal_exact,
    expected_draws_unequal_sum,
    simulate_expected_draws,
)
from .corpus import (
    MAX_DOCUMENTS, MAX_ZIPF_TOPICS, generate_corpus, load_corpus, save_corpus, zipf_prevalences
)
from .simulation import (
    DEFAULT_BIN_COUNT,
    DEFAULT_QUANTILES,
    MAX_BIN_COUNT,
    completion_vs_analytic,
    read_json,
    run_shuffles,
    scan_accession,
    summary_from_json,
)


def _parse_list(text: str, convert: Callable[[str], Any], noun: str) -> list:
    try:
        return [convert(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated {noun}, got {text!r}") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(fieldnames: Sequence[str], rows: Iterable[dict]) -> str:
    import io

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _json_text(kind: str, payload: dict) -> str:
    document = {"format": kind, "version": 1, **payload}
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(args: argparse.Namespace, kind: str, fieldnames: Sequence[str], rows: list[dict]) -> None:
    if args.format == "json":
        _write_text(args.output, _json_text(kind, {"rows": rows}))
    else:
        _write_text(args.output, _csv_text(fieldnames, rows))


def _cmd_table(args: argparse.Namespace) -> int:
    produced = _parse_list(args.produced, int, "integers")
    recalls = _parse_list(args.recall, float, "numbers")
    if not produced or not recalls:
        raise ValueError("need at least one production size and one recall level")
    scenarios = [
        RecallScenario(n, r, args.confidence) for r in recalls for n in produced
    ]
    rows = []
    for row in fomo_table(scenarios):
        rows.append(
            {
                "produced": row.scenario.produced_count,
                "recall": repr(row.scenario.recall),
                "confidence": repr(row.scenario.confidence),
                "prevalence_bound": repr(row.prevalence_bound),
                "prevalence_bound_pct": format_percent(row.prevalence_bound),
                "missed_count": row.missed_count,
                "prob_in_missed": repr(row.prob_in_missed),
                "prob_in_missed_pct": format_percent(row.prob_in_missed),
                "fomo_confidence": repr(row.fomo_confidence),
                "fomo_confidence_pct": format_percent(row.fomo_confidence),
            }
        )
    _emit(args, "fomo-table", list(rows[0].keys()), rows)
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    bound = prevalence_upper_bound(args.produced, args.confidence)
    row = {
        "produced": args.produced,
        "confidence": repr(args.confidence),
        "prevalence_bound": repr(bound),
        "prevalence_bound_pct": format_percent(bound),
        "one_in": repr(1.0 / bound),
    }
    _emit(args, "fomo-bound", list(row.keys()), [row])
    return 0


def _load_probabilities(path: str) -> CouponDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        data = read_json(fh.read())
    if not isinstance(data, list) or not all(type(p) in (int, float) for p in data):
        raise ValueError(f"{path}: expected a JSON array of probabilities")
    return CouponDistribution(tuple(float(p) for p in data))


def _cmd_collector(args: argparse.Namespace) -> int:
    if args.dice:
        dist = dice_sum_distribution()
        source = "dice"
    elif args.uniform is not None:
        check_coupon_count(args.uniform, args.method)  # before building m floats
        dist = CouponDistribution.uniform(args.uniform)
        source = f"uniform-{args.uniform}"
    else:
        dist = _load_probabilities(args.probs)
        source = args.probs

    std_error = ""
    if args.method == "exact":
        expected = expected_draws_unequal_exact(dist)
    elif args.method == "sum":
        expected = expected_draws_unequal_sum(dist)
    else:
        sample = simulate_expected_draws(dist, args.trials, args.seed)
        expected = sample.mean
        std_error = repr(sample.std_error)

    row = {
        "source": source,
        "method": args.method,
        "coupons": len(dist),
        "expected_draws": repr(expected),
        "expected_draws_2dp": f"{expected:.2f}",
        "std_error": std_error,
    }
    _emit(args, "fomo-collector", list(row.keys()), [row])
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    quantiles = _parse_list(args.quantiles, float, "numbers")
    summary = run_shuffles(
        corpus,
        trial_count=args.trials,
        master_seed=args.seed,
        quantiles=quantiles,
        bin_count=args.bins,
    )
    if args.summary_json:
        _write_text(args.summary_json, summary.to_json() + "\n")
    if args.histogram_csv:
        hist_rows = [
            {"bin_lower": repr(b.lower), "bin_upper": repr(b.upper), "count": b.count}
            for b in summary.histogram
        ]
        _write_text(
            args.histogram_csv, _csv_text(["bin_lower", "bin_upper", "count"], hist_rows)
        )
    rows = [
        {
            "quantile": repr(q),
            "completion_position": summary.percentiles[q],
            "recall": repr(summary.recall_at[q]),
            "recall_pct": format_percent(summary.recall_at[q]),
        }
        for q in sorted(summary.percentiles)
    ]
    _emit(args, "fomo-simulate", list(rows[0].keys()), rows)
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    curve = scan_accession(corpus)
    rows = [
        {"documents_scanned": scanned, "distinct_topics_seen": seen}
        for scanned, seen in curve.points
    ]
    _emit(args, "fomo-curve", ["documents_scanned", "distinct_topics_seen"], rows)
    return 0


def _cmd_gen_corpus(args: argparse.Namespace) -> int:
    dist = zipf_prevalences(args.topics, args.max_prev, args.min_prev)
    corpus = generate_corpus(args.docs, dist, args.seed)
    save_corpus(corpus, args.out)
    print(
        f"wrote {len(corpus)} documents, {corpus.topic_count} topics -> {args.out}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    with open(args.summary, "r", encoding="utf-8") as fh:
        summary = summary_from_json(fh.read())
    report = completion_vs_analytic(corpus, summary)
    rows = [
        {
            "metric": "median_completion",
            "analytic": repr(float(report.analytic_median)),
            "empirical": repr(float(report.empirical_median)),
            "relative_difference": repr(report.median_relative_difference),
        },
        {
            "metric": "mean_completion",
            "analytic": repr(report.analytic_mean),
            "empirical": repr(report.empirical_mean),
            "relative_difference": repr(report.mean_relative_difference),
        },
    ]
    _emit(args, "fomo-compare", ["metric", "analytic", "empirical", "relative_difference"], rows)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose usage errors reach ``main`` as ValueError, so a bad
    command line ends like any other bad input."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(f"{self.prog}: {message}")


def _add_output_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", default=None, help="write report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fomo",
        description="How likely is it that an incomplete search missed a novel topic?",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    table = commands.add_parser("table", help="confidence table over sizes and recalls")
    table.add_argument("--produced", default="50000,100000,200000")
    table.add_argument("--recall", default="0.8,0.7,0.6,0.5")
    table.add_argument("--confidence", type=float, default=0.95)
    _add_output_options(table)
    table.set_defaults(handler=_cmd_table)

    bound = commands.add_parser("bound", help="zero-sighting prevalence bound")
    bound.add_argument("--produced", type=int, required=True)
    bound.add_argument("--confidence", type=float, default=0.95)
    _add_output_options(bound)
    bound.set_defaults(handler=_cmd_bound)

    collector = commands.add_parser("collector", help="expected draws to see every coupon")
    source = collector.add_mutually_exclusive_group(required=True)
    source.add_argument("--dice", action="store_true", help="two-die sums 2..12")
    source.add_argument(
        "--uniform", type=int, help=f"m equally likely coupons (at most {SUM_COUPON_LIMIT} for sum)"
    )
    source.add_argument("--probs", help="JSON file with a probability array")
    collector.add_argument("--method", choices=("exact", "sum", "montecarlo"), default="exact")
    collector.add_argument("--trials", type=int, default=100_000)
    collector.add_argument("--seed", type=int, default=0)
    _add_output_options(collector)
    collector.set_defaults(handler=_cmd_collector)

    simulate = commands.add_parser("simulate", help="shuffle-and-scan a corpus")
    simulate.add_argument("--corpus", required=True)
    simulate.add_argument("--trials", type=int, default=2000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--quantiles", default=",".join(repr(q) for q in DEFAULT_QUANTILES)
    )
    simulate.add_argument(
        "--bins",
        type=int,
        default=DEFAULT_BIN_COUNT,
        help=f"histogram bins, 1..{MAX_BIN_COUNT} (default {DEFAULT_BIN_COUNT})",
    )
    simulate.add_argument("--summary-json", default=None)
    simulate.add_argument("--histogram-csv", default=None)
    _add_output_options(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    curve = commands.add_parser("curve", help="accession-order coverage curve")
    curve.add_argument("--corpus", required=True)
    _add_output_options(curve)
    curve.set_defaults(handler=_cmd_curve)

    gen = commands.add_parser("gen-corpus", help="synthesize a power-law corpus")
    gen.add_argument("--docs", type=int, required=True, help=f"document count, 1..{MAX_DOCUMENTS}")
    gen.add_argument(
        "--topics", type=int, required=True, help=f"topic count, 2..{MAX_ZIPF_TOPICS}"
    )
    gen.add_argument("--max-prev", type=float, required=True)
    gen.add_argument("--min-prev", type=float, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=_cmd_gen_corpus)

    compare = commands.add_parser("compare", help="simulation versus analytic model")
    compare.add_argument("--corpus", required=True)
    compare.add_argument("--summary", required=True, help="summary JSON from simulate")
    _add_output_options(compare)
    compare.set_defaults(handler=_cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:  # a size option or header too large to allocate
        detail = f" ({exc})" if str(exc) else ""  # list growth gives no message
        print(f"error: out of memory{detail}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
