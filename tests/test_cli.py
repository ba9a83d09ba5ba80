"""CLI surface: reports, exit codes, reproducible bytes."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fomo.cli
from fomo.analytic import MAX_TABLE_ROWS, RecallScenario, fomo_table
from fomo.cli import main
from fomo.collector import EXACT_COUPON_LIMIT, SUM_COUPON_LIMIT
from fomo.corpus import (
    MAX_DOCUMENTS,
    MAX_DRAWS,
    MAX_TOPIC_ID,
    MAX_TOPIC_IDS,
    MAX_ZIPF_TOPICS,
    load_corpus,
    zipf_prevalences,
)
from fomo.prng import MAX_TRIALS
from fomo.simulation import MAX_BIN_COUNT

TINY_CORPUS = (
    '{"format":"fomo-corpus","version":1,"topic_count":2}\n'
    '{"doc_id":"a","topics":[0]}\n'
    '{"doc_id":"b","topics":[0]}\n'
    '{"doc_id":"c","topics":[1]}\n'
)


@pytest.fixture
def tiny_corpus(tmp_path):
    path = tmp_path / "tiny.jsonl"
    path.write_text(TINY_CORPUS, encoding="utf-8")
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestTable:
    def test_default_invocation_reproduces_reference_table(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 12
        assert [r["fomo_confidence_pct"] for r in rows[:3]] == ["2.636%"] * 3
        assert rows[3]["fomo_confidence_pct"] == "3.615%"
        assert rows[6]["fomo_confidence_pct"] == "4.321%"
        assert rows[11]["fomo_confidence_pct"] == "4.75%"
        assert [int(r["missed_count"]) for r in rows] == [
            12500, 25000, 50000, 21428, 42857, 85714,
            33333, 66666, 133333, 50000, 100000, 200000,
        ]

    def test_values_equal_library_outputs_exactly(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        rows = parse_csv(out)
        scenarios = [
            RecallScenario(n, r, 0.95)
            for r in (0.8, 0.7, 0.6, 0.5)
            for n in (50000, 100000, 200000)
        ]
        for row, expected in zip(rows, fomo_table(scenarios)):
            assert float(row["prevalence_bound"]) == expected.prevalence_bound
            assert int(row["missed_count"]) == expected.missed_count
            assert float(row["prob_in_missed"]) == expected.prob_in_missed
            assert float(row["fomo_confidence"]) == expected.fomo_confidence

    def test_perfect_recall_means_no_fomo(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--recall", "1.0")
        assert code == 0
        assert all(float(r["fomo_confidence"]) == 0.0 for r in parse_csv(out))

    def test_csv_uses_crlf_and_header(self, capsys):
        _, out, _ = run_cli(capsys, "table")
        assert out.startswith("produced,")
        assert "\r\n" in out

    def test_json_format_carries_version(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["version"] == 1
        assert payload["format"] == "fomo-table"
        assert len(payload["rows"]) == 12

    def test_two_million_production_at_low_recall(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--produced", "2202935", "--recall", "0.184",
            "--confidence", "0.95",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["prevalence_bound"]) == pytest.approx(1.36e-6, rel=1e-3)

    def test_bad_recall_is_a_one_line_error(self, capsys):
        code, out, err = run_cli(capsys, "table", "--recall", "1.5")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1


class TestBound:
    def test_two_million_production(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--produced", "2202935", "--confidence", "0.95"
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["prevalence_bound"]) == pytest.approx(1.36e-6, rel=1e-3)
        assert float(row["one_in"]) == pytest.approx(735358, rel=1e-3)

    def test_rejects_zero_produced(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--produced", "0")
        assert code == 1
        assert "error:" in err


class TestCollector:
    def test_dice_exact_prints_61_22(self, capsys):
        code, out, _ = run_cli(capsys, "collector", "--dice", "--method", "exact")
        assert code == 0
        assert parse_csv(out)[0]["expected_draws_2dp"] == "61.22"

    def test_uniform_365_exact_directs_to_sum(self, capsys):
        code, _, err = run_cli(capsys, "collector", "--uniform", "365", "--method", "exact")
        assert code == 1
        assert "--method sum" in err or "expected_draws_unequal_sum" in err

    @pytest.mark.parametrize("method", ["exact", "sum", "montecarlo"])
    def test_uniform_above_the_route_limit_fails_before_allocating(self, capsys, method):
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys, "collector", "--uniform", "3000000", "--method", method
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert peak < 4 * 2**20  # 3,000,000 probabilities would take ~100 MiB

    def test_uniform_365_sum_gives_harmonic_answer(self, capsys):
        code, out, _ = run_cli(capsys, "collector", "--uniform", "365", "--method", "sum")
        assert code == 0
        assert parse_csv(out)[0]["expected_draws_2dp"] == "2364.65"

    def test_probs_file_exact(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text("[0.9, 0.1]", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "collector", "--probs", str(path), "--method", "exact"
        )
        assert code == 0
        row = parse_csv(out)[0]
        # closed form 1/0.9 + 1/0.1 - 1/1.0
        assert row["expected_draws_2dp"] == "10.11"

    def test_probs_file_violating_invariants(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[0.9, 0.9]", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "collector", "--probs", str(path), "--method", "exact"
        )
        assert code == 1
        assert "error:" in err

    def test_montecarlo_reports_standard_error(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "collector", "--dice", "--method", "montecarlo",
            "--trials", "20000", "--seed", "11",
        )
        assert code == 0
        row = parse_csv(out)[0]
        mean = float(row["expected_draws"])
        std_error = float(row["std_error"])
        assert abs(mean - 61.217) <= 3 * std_error


class TestSimulate:
    def test_outputs_are_byte_identical_across_runs(self, capsys, tiny_corpus, tmp_path):
        paths = []
        for name in ("one", "two"):
            summary = tmp_path / f"{name}.json"
            hist = tmp_path / f"{name}.csv"
            code, out, _ = run_cli(
                capsys,
                "simulate", "--corpus", str(tiny_corpus),
                "--trials", "100", "--seed", "1",
                "--summary-json", str(summary), "--histogram-csv", str(hist),
            )
            assert code == 0
            paths.append((summary.read_bytes(), hist.read_bytes(), out))
        assert paths[0] == paths[1]

    def test_stdout_reports_quantiles_and_recall(self, capsys, tiny_corpus):
        code, out, _ = run_cli(
            capsys, "simulate", "--corpus", str(tiny_corpus),
            "--trials", "50", "--seed", "2",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["quantile"] for r in rows] == ["0.1", "0.2", "0.5", "0.95"]
        for row in rows:
            assert float(row["recall"]) == int(row["completion_position"]) / 3

    def test_zero_trials_rejected(self, capsys, tiny_corpus):
        code, _, err = run_cli(
            capsys, "simulate", "--corpus", str(tiny_corpus), "--trials", "0"
        )
        assert code == 1
        assert "error:" in err

    def test_corpus_errors_carry_line_context(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"format":"fomo-corpus","version":1,"topic_count":2}\n'
            '{"doc_id":"a","topics":[]}\n',
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "simulate", "--corpus", str(bad))
        assert code == 1
        assert "line 2" in err


class TestCurve:
    def test_fixture_curve(self, capsys, tiny_corpus):
        code, out, _ = run_cli(capsys, "curve", "--corpus", str(tiny_corpus))
        assert code == 0
        rows = parse_csv(out)
        assert [(int(r["documents_scanned"]), int(r["distinct_topics_seen"])) for r in rows] == [
            (1, 1),
            (3, 2),
        ]

    def test_empty_file_is_an_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code, _, err = run_cli(capsys, "curve", "--corpus", str(empty))
        assert code == 1
        assert "error:" in err


class TestGenCorpus:
    def test_generates_a_loadable_corpus(self, capsys, tmp_path):
        out_path = tmp_path / "gen.jsonl"
        code, out, _ = run_cli(
            capsys,
            "gen-corpus", "--docs", "500", "--topics", "16",
            "--max-prev", "0.4", "--min-prev", "0.02",
            "--seed", "7", "--out", str(out_path),
        )
        assert code == 0
        corpus = load_corpus(out_path)
        assert len(corpus) == 500
        assert corpus.topic_count == 16

    def test_identical_flags_identical_bytes(self, capsys, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out_path = tmp_path / f"{name}.jsonl"
            code, _, _ = run_cli(
                capsys,
                "gen-corpus", "--docs", "200", "--topics", "8",
                "--max-prev", "0.5", "--min-prev", "0.05",
                "--seed", "3", "--out", str(out_path),
            )
            assert code == 0
            blobs.append(out_path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_single_topic_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "gen-corpus", "--docs", "10", "--topics", "1",
            "--max-prev", "0.5", "--min-prev", "0.05",
            "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 1
        assert "error:" in err


class TestOutputPaths:
    def test_gen_corpus_checks_its_output_before_generating(self, capsys, monkeypatch, tmp_path):
        def no_corpus(*args):
            raise AssertionError("a corpus was generated before its output path was checked")

        monkeypatch.setattr(fomo.cli, "generate_corpus", no_corpus)
        missing = tmp_path / "missing" / "c.jsonl"
        code, out, err = run_cli(
            capsys,
            "gen-corpus", "--docs", "1000000", "--topics", "64",
            "--max-prev", "0.36", "--min-prev", "0.0001", "--out", str(missing),
        )
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"

    def test_simulate_writes_no_output_when_a_later_one_is_bad(
        self, capsys, monkeypatch, tiny_corpus, tmp_path
    ):
        def no_corpus(path):
            raise AssertionError("the corpus was loaded before the output paths were checked")

        monkeypatch.setattr(fomo.cli, "load_corpus", no_corpus)
        summary = tmp_path / "ok.json"
        code, out, err = run_cli(
            capsys,
            "simulate", "--corpus", str(tiny_corpus), "--trials", "5",
            "--summary-json", str(summary), "--output", str(tmp_path / "missing" / "o.csv"),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno 2] No such file or directory: ")
        assert list(tmp_path.iterdir()) == [tiny_corpus]

    def test_an_existing_output_is_left_untouched(self, capsys, tiny_corpus, tmp_path):
        summary = tmp_path / "ok.json"
        summary.write_text("kept", encoding="utf-8")
        before = summary.stat()
        code, _, _ = run_cli(
            capsys,
            "simulate", "--corpus", str(tiny_corpus), "--trials", "5",
            "--summary-json", str(summary), "--histogram-csv", str(tmp_path),
        )
        assert code == 1
        assert summary.read_text(encoding="utf-8") == "kept"
        assert summary.stat().st_mtime_ns == before.st_mtime_ns


def benchmark_table_argv(side=100):
    """``fomo table`` over the benchmark's side × side grid of production
    sizes and recalls."""
    produced = ",".join(str(1000 * (k + 1)) for k in range(side))
    recalls = ",".join(f"{0.05 + 0.9 * k / side:.3f}" for k in range(side))
    return ["table", "--produced", produced, "--recall", recalls, "--confidence", "0.95"]


class TestReportWriter:
    def test_table_streams_its_rows(self, tmp_path):
        # The scenario and row lists of the 10^4-row grid stand in memory at
        # once, about 3 MiB; its 2 MiB of CSV text and a dict a row do not.
        tracemalloc.start()
        try:
            code = main([*benchmark_table_argv(), "--output", str(tmp_path / "t.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 6 * 2**20

    def test_table_streams_its_json_rows(self, tmp_path):
        # As for CSV: a list of every row's dict and the document's text
        # traced 13.8 MiB. The bytes are those of one json.dumps of the
        # whole document with sorted keys.
        path = tmp_path / "t.json"
        tracemalloc.start()
        try:
            code = main([*benchmark_table_argv(), "--format", "json", "--output", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 6 * 2**20
        document = json.loads(path.read_text(encoding="utf-8"))
        assert len(document["rows"]) == 10**4
        text = json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
        assert path.read_text(encoding="utf-8") == text

    def test_a_reader_that_closes_early_ends_in_a_one_line_error(self):
        src = str(Path(fomo.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.Popen(
            [sys.executable, "-m", "fomo.cli", *benchmark_table_argv()],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert child.stdout.readline().startswith(b"produced,")
        child.stdout.close()  # about 2 MiB still to write
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 1
        assert err == "error: [Errno 32] Broken pipe\n"

    def test_a_table_at_the_row_cap_is_written(self, capsys, monkeypatch):
        monkeypatch.setattr(fomo.cli, "MAX_TABLE_ROWS", 4)
        code, out, _ = run_cli(capsys, "table", "--produced", "10,20", "--recall", "0.5,0.8")
        assert code == 0
        assert len(parse_csv(out)) == 4


class TestCompare:
    def test_report_has_median_and_mean_rows(self, capsys, tmp_path):
        corpus_path = tmp_path / "c.jsonl"
        summary_path = tmp_path / "s.json"
        code, _, _ = run_cli(
            capsys,
            "gen-corpus", "--docs", "2000", "--topics", "8",
            "--max-prev", "0.4", "--min-prev", "0.01",
            "--seed", "5", "--out", str(corpus_path),
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys,
            "simulate", "--corpus", str(corpus_path),
            "--trials", "80", "--seed", "1",
            "--summary-json", str(summary_path),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys,
            "compare", "--corpus", str(corpus_path), "--summary", str(summary_path),
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["metric"] for r in rows] == ["median_completion", "mean_completion"]
        for row in rows:
            assert float(row["relative_difference"]) >= 0.0


VALID_SUMMARY = {
    "format": "fomo-summary",
    "version": 1,
    "trial_count": 4,
    "seed": 1,
    "min_completion": 3,
    "max_completion": 3,
    "mean_completion": 3.0,
    "percentiles": {"0.5": 3},
    "recall_at": {"0.5": 1.0},
    "histogram": [{"lower": 3.0, "upper": 3.0, "count": 4}],
}

# VALID_SUMMARY's completions moved from 3 to 5.
FIVE = {
    "min_completion": 5,
    "max_completion": 5,
    "mean_completion": 5.0,
    "percentiles": {"0.5": 5},
    "histogram": [{"lower": 5.0, "upper": 5.0, "count": 4}],
}

TOO_LARGE = "1000000000000"
DEEPLY_NESTED = "[" * 100_000 + "]" * 100_000
HUGE_INTEGER = 10**400  # 401 digits, beyond float range
LONG_INTEGER = "9" * 5000  # more digits than int() converts


def corpus_header(topic_count):
    """A corpus of one document under a header declaring ``topic_count``."""
    return (
        '{"format":"fomo-corpus","version":1,"topic_count":%d}\n'
        '{"doc_id":"a","topics":[0]}\n' % topic_count
    )


def gen_corpus(docs, topics, prevalence):
    """gen-corpus argv for ``topics`` topics all of one prevalence."""
    return ["gen-corpus", "--docs", str(docs), "--topics", str(topics), "--max-prev",
            repr(prevalence), "--min-prev", repr(prevalence), "--out", "{file}"]


# 1000 topics of prevalence 1e-4 take 10.5 redraw rounds a document, so
# this many documents take just over MAX_DRAWS draws.
DOCS_ABOVE_THE_DRAW_CAP = math.floor(
    MAX_DRAWS * (1 - zipf_prevalences(1000, 1e-4, 1e-4).empty_document_probability()) / 1000
) + 1

RAREST = 1 / (fomo.collector._SAMPLER_RAREST_LIMIT + 1)

# Each size driver one step above its cap (its smallest refused value the
# options reach): case name -> (file contents, argv), as MALFORMED_INPUTS.
ONE_ABOVE_CAP = {
    "gen-corpus-docs-one-above-cap": ("", gen_corpus(MAX_DOCUMENTS + 1, 4, 0.5)),
    "gen-corpus-topics-one-above-cap": ("", gen_corpus(3, MAX_ZIPF_TOPICS + 1, 0.5)),
    # 11 certain topics a document.
    "gen-corpus-topic-ids-one-above-cap": ("", gen_corpus(MAX_TOPIC_IDS // 11 + 1, 11, 1.0)),
    # Nonempty with probability 1 - (1 - 5e-4)^2: 1000.25 rounds a document.
    "gen-corpus-redraw-rounds-one-above-cap": ("", gen_corpus(1, 2, 5e-4)),
    "gen-corpus-draws-one-above-cap": ("", gen_corpus(DOCS_ABOVE_THE_DRAW_CAP, 1000, 1e-4)),
    "simulate-trials-above-cap": (
        "", ["simulate", "--corpus", "{corpus}", "--trials", str(MAX_TRIALS + 1)]
    ),
    "collector-trials-above-cap": (
        "", ["collector", "--dice", "--method", "montecarlo", "--trials", str(MAX_TRIALS + 1)]
    ),
    "simulate-bins-one-above-cap": (
        "", ["simulate", "--corpus", "{corpus}", "--bins", str(MAX_BIN_COUNT + 1)]
    ),
    "table-rows-above-cap": (
        "", ["table", "--produced", ",".join(["1"] * (MAX_TABLE_ROWS + 1)), "--recall", "0.5"]
    ),
    "simulate-topic-count-one-above-cap": (
        corpus_header(MAX_ZIPF_TOPICS + 1), ["simulate", "--corpus", "{file}", "--trials", "3"]
    ),
    "compare-topic-count-one-above-cap": (
        corpus_header(MAX_ZIPF_TOPICS + 1),
        ["compare", "--corpus", "{file}", "--summary", "{summary}"],
    ),
    "corpus-topic-id-one-above-cap": (
        corpus_header(2**32).replace("[0]", "[%d]" % (MAX_TOPIC_ID + 1)),
        ["curve", "--corpus", "{file}"],
    ),
    "collector-exact-coupons-one-above-cap": (
        "", ["collector", "--uniform", str(EXACT_COUPON_LIMIT + 1), "--method", "exact"]
    ),
    "collector-sum-coupons-one-above-cap": (
        "", ["collector", "--uniform", str(SUM_COUPON_LIMIT + 1), "--method", "sum"]
    ),
    "collector-sampler-coupons-one-above-cap": (
        "",
        ["collector", "--uniform", str(fomo.collector._SAMPLER_COUPON_LIMIT + 1), "--method",
         "montecarlo", "--trials", "10"],
    ),
    # The rarest coupon's 1 / p is just above its limit.
    "collector-sampler-rarest-one-above-cap": (
        "[%r, %r]" % (RAREST, 1 - RAREST),
        ["collector", "--probs", "{file}", "--method", "montecarlo", "--trials", "10"],
    ),
}

# name -> (file contents, argv with {file}, {corpus} and {summary} placeholders)
MALFORMED_INPUTS = {
    **ONE_ABOVE_CAP,
    "probs-nested-array": ("[[0.5],0.5]", ["collector", "--probs", "{file}"]),
    "summary-without-trial-count": (
        json.dumps({k: v for k, v in VALID_SUMMARY.items() if k != "trial_count"}),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
    "summary-negative-seed": (
        json.dumps({**VALID_SUMMARY, "seed": -1}),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
    "summary-text-percentile": (
        json.dumps({**VALID_SUMMARY, "percentiles": {"0.5": "x"}}),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
    "corpus-boolean-topic-count": (
        '{"format":"fomo-corpus","version":1,"topic_count":true}\n'
        '{"doc_id":"a","topics":[0]}\n',
        ["curve", "--corpus", "{file}"],
    ),
    "probs-rarer-than-one-in-a-million": (
        "[1e-12,0.5]",
        ["collector", "--probs", "{file}", "--method", "montecarlo", "--trials", "10"],
    ),
    # Each size below is too large to allocate or above its limit.
    "simulate-huge-bins": ("", ["simulate", "--corpus", "{corpus}", "--bins", TOO_LARGE]),
    "collector-huge-trials": (
        "",
        ["collector", "--dice", "--method", "montecarlo", "--trials", TOO_LARGE],
    ),
    "gen-corpus-huge-docs": (
        "",
        ["gen-corpus", "--docs", TOO_LARGE, "--topics", "4", "--max-prev", "0.5",
         "--min-prev", "0.1", "--out", "{file}"],
    ),
    "gen-corpus-docs-above-cap": (
        "",
        ["gen-corpus", "--docs", "1000000000", "--topics", "4", "--max-prev", "0.5",
         "--min-prev", "0.1", "--out", "{file}"],
    ),
    "gen-corpus-topic-ids-above-cap": (
        "",
        ["gen-corpus", "--docs", "10000000", "--topics", "1000000", "--max-prev", "1",
         "--min-prev", "1", "--out", "{file}"],
    ),
    "gen-corpus-huge-topics": (
        "",
        ["gen-corpus", "--docs", "3", "--topics", TOO_LARGE, "--max-prev", "0.5",
         "--min-prev", "0.1", "--out", "{file}"],
    ),
    "compare-huge-topic-count": (
        '{"format":"fomo-corpus","version":1,"topic_count":%s}\n'
        '{"doc_id":"a","topics":[0]}\n' % TOO_LARGE,
        ["compare", "--corpus", "{file}", "--summary", "{summary}"],
    ),
    "simulate-huge-topic-count": (
        '{"format":"fomo-corpus","version":1,"topic_count":%s}\n'
        '{"doc_id":"a","topics":[0]}\n' % TOO_LARGE,
        ["simulate", "--corpus", "{file}", "--trials", "1"],
    ),
    # The runaway generations and the 88-byte corpus of 10^7 topics.
    "gen-corpus-nearly-always-empty": ("", gen_corpus(1, 2, 1e-8)),
    "gen-corpus-draws-far-above-cap": ("", gen_corpus(10_000, 10**6, 1e-6)),
    "simulate-ten-million-topics": (
        corpus_header(10**7), ["simulate", "--corpus", "{file}", "--trials", "3"]
    ),
    "corpus-deeply-nested-topics": (
        TINY_CORPUS + '{"doc_id":"d","topics":%s}\n' % DEEPLY_NESTED,
        ["curve", "--corpus", "{file}"],
    ),
    "corpus-deeply-nested-header": (DEEPLY_NESTED + "\n", ["curve", "--corpus", "{file}"]),
    "probs-deeply-nested": (DEEPLY_NESTED, ["collector", "--probs", "{file}"]),
    "summary-deeply-nested": (
        DEEPLY_NESTED, ["compare", "--corpus", "{corpus}", "--summary", "{file}"]
    ),
    "probs-huge-integer": (f"[{HUGE_INTEGER}]", ["collector", "--probs", "{file}"]),
    "summary-huge-mean": (
        json.dumps({**VALID_SUMMARY, "mean_completion": HUGE_INTEGER}),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
    "summary-huge-percentile": (
        json.dumps({**VALID_SUMMARY, "percentiles": {"0.5": HUGE_INTEGER}}),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
    "probs-subnormal-exact": ("[5e-324]", ["collector", "--probs", "{file}"]),
    # 1/p_min, a panel edge of the sum route, or only the sum of the last
    # panel's ends, leaves float range.
    "probs-subnormal-sum": (
        "[1e-320, 0.5]", ["collector", "--probs", "{file}", "--method", "sum"]
    ),
    "probs-smallest-normal-sum": (
        "[2.2250738585072014e-308, 2.2250738585072014e-308, 0.5]",
        ["collector", "--probs", "{file}", "--method", "sum"],
    ),
    "probs-last-panel-sum": (
        "[0.078125, 1.7793782522367785e-307]",
        ["collector", "--probs", "{file}", "--method", "sum"],
    ),
    "summary-nan-mean": (
        json.dumps({**VALID_SUMMARY, "mean_completion": math.nan}),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
    "summary-negative-trial-count": (
        json.dumps({**VALID_SUMMARY, "trial_count": -3, "histogram": []}),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
    # Summaries simulate cannot write: each breaks a SimulationSummary rule.
    "summary-three-faults": (
        json.dumps({**VALID_SUMMARY, "trial_count": 2.5, "max_completion": 1}),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
    "summary-fractional-trial-count": (
        json.dumps({**VALID_SUMMARY, "trial_count": 2.5}),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
    "summary-max-below-min": (
        json.dumps({**VALID_SUMMARY, "min_completion": 3, "max_completion": 1}),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
    "summary-histogram-counts-five-of-four": (
        json.dumps({**VALID_SUMMARY, "histogram": [{"lower": 3.0, "upper": 3.0, "count": 5}]}),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
    "summary-empty-histogram": (
        json.dumps({**VALID_SUMMARY, "histogram": []}),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
    "summary-quantile-seven": (
        json.dumps({**VALID_SUMMARY, "percentiles": {"7": 3}, "recall_at": {"7": 1.0}}),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
    "summary-recall-keys-differ": (
        json.dumps({**VALID_SUMMARY, "recall_at": {"0.25": 1.0}}),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
    "corpus-long-integer-topic": (
        '{"format":"fomo-corpus","version":1,"topic_count":2}\n'
        '{"doc_id":"a","topics":[0]}\n'
        '{"doc_id":"b","topics":[%s]}\n' % LONG_INTEGER,
        ["curve", "--corpus", "{file}"],
    ),
    "corpus-long-integer-header": (
        '{"format":"fomo-corpus","version":1,"topic_count":%s}\n'
        '{"doc_id":"a","topics":[0]}\n' % LONG_INTEGER,
        ["curve", "--corpus", "{file}"],
    ),
    "probs-long-integer": (f"[{LONG_INTEGER}]", ["collector", "--probs", "{file}"]),
    "summary-long-integer": (
        json.dumps(VALID_SUMMARY).replace('"seed": 1', f'"seed": {LONG_INTEGER}'),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
    # Seeds outside 0..2**64-1, refused as the command line is parsed.
    "simulate-negative-seed": ("", ["simulate", "--corpus", "{corpus}", "--seed", "-1"]),
    "simulate-401-digit-seed": (
        "", ["simulate", "--corpus", "{corpus}", "--seed", str(HUGE_INTEGER)]
    ),
    "collector-seed-above-range": ("", ["collector", "--dice", "--seed", str(2**64)]),
    # A count beyond float range, a recall whose missed-to-produced ratio
    # leaves it, and a bound too small for its 1 / bound.
    "table-huge-produced": ("", ["table", "--produced", str(HUGE_INTEGER), "--recall", "0.5"]),
    "bound-huge-produced": ("", ["bound", "--produced", str(HUGE_INTEGER)]),
    "table-subnormal-recall": ("", ["table", "--produced", "1", "--recall", "5e-324"]),
    "bound-subnormal-confidence": ("", ["bound", "--produced", "1", "--confidence", "1e-320"]),
    # Summaries of another corpus: recall above 1, a completion past the
    # three documents of {corpus}, and a recall other than 3 / 3.
    "summary-recall-above-one": (
        json.dumps({**VALID_SUMMARY, **FIVE, "recall_at": {"0.5": 2.5}}),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
    "summary-completion-beyond-the-corpus": (
        json.dumps({**VALID_SUMMARY, **FIVE}),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
    "summary-recall-not-of-the-corpus": (
        json.dumps({**VALID_SUMMARY, "recall_at": {"0.5": 0.5}}),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
    "simulate-repeated-quantile": (
        "", ["simulate", "--corpus", "{corpus}", "--quantiles", "0.5,0.2,0.50"]
    ),
    "summary-two-spellings-of-one-quantile": (
        json.dumps(
            {**VALID_SUMMARY, "percentiles": {"0.5": 3, "0.50": 3},
             "recall_at": {"0.5": 1.0, "0.50": 1.0}}
        ),
        ["compare", "--corpus", "{corpus}", "--summary", "{file}"],
    ),
}


def test_gen_corpus_help_names_the_docs_cap(capsys):
    with pytest.raises(SystemExit):
        main(["gen-corpus", "--help"])
    assert f"1..{MAX_DOCUMENTS}" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "collector"])
def test_trials_help_names_the_cap(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert f"1..{MAX_TRIALS}" in capsys.readouterr().out


def test_table_at_a_tiny_confidence_prints_a_positive_row(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--produced", "100", "--recall", "0.5", "--confidence", "1e-20"
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[6:] == ["1e-20", "1e-18%", "1e-20", "1e-18%"]


def test_table_help_names_the_row_cap(capsys):
    with pytest.raises(SystemExit):
        main(["table", "--help"])
    assert f"at most {MAX_TABLE_ROWS}" in capsys.readouterr().out


def test_table_above_the_row_cap_builds_no_scenario(capsys, monkeypatch):
    def no_scenario(*args):
        raise AssertionError("a scenario was built before the row count was checked")

    monkeypatch.setattr(fomo.cli, "RecallScenario", no_scenario)
    code, _, err = run_cli(capsys, *MALFORMED_INPUTS["table-rows-above-cap"][1])
    assert code == 1
    assert err == (
        f"error: a table of {MAX_TABLE_ROWS + 1} rows (production sizes times recall levels) "
        f"is above the limit of {MAX_TABLE_ROWS}\n"
    )


def test_valid_summary_compares(capsys, tiny_corpus, tmp_path):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(VALID_SUMMARY), encoding="utf-8")
    code, _, err = run_cli(
        capsys, "compare", "--corpus", str(tiny_corpus), "--summary", str(path)
    )
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "case, line",
    [
        ("summary-recall-above-one", "summary recall_at values must be in (0, 1]"),
        ("summary-completion-beyond-the-corpus", "summary max_completion 5 exceeds corpus size 3"),
        (
            "summary-recall-not-of-the-corpus",
            "summary recall_at must be its percentiles / corpus size 3",
        ),
        ("simulate-repeated-quantile", "each quantile may be asked once, got [0.5, 0.2, 0.5]"),
    ],
)
def test_a_summary_of_another_corpus_or_a_repeated_quantile_is_named(
    case, line, capsys, tiny_corpus, tmp_path
):
    contents, argv = MALFORMED_INPUTS[case]
    path = tmp_path / "input"
    path.write_text(contents, encoding="utf-8")
    argv = [a.format(file=path, corpus=tiny_corpus) for a in argv]
    assert run_cli(capsys, *argv) == (1, "", f"error: {line}\n")


@pytest.mark.parametrize(
    "error, line",
    [(MemoryError("cannot allocate 8 TiB"), "error: out of memory (cannot allocate 8 TiB)\n"),
     (MemoryError(), "error: out of memory\n")],
)
def test_out_of_memory_is_a_one_line_error(capsys, monkeypatch, error, line):
    def out_of_memory(args):
        raise error

    monkeypatch.setattr(fomo.cli, "_cmd_bound", out_of_memory)
    assert run_cli(capsys, "bound", "--produced", "10") == (1, "", line)


def test_huge_declared_topic_count_fails_at_once(capsys, tmp_path):
    path = tmp_path / "huge.jsonl"
    path.write_text(MALFORMED_INPUTS["simulate-huge-topic-count"][0], encoding="utf-8")
    code, _, err = run_cli(capsys, "simulate", "--corpus", str(path), "--trials", "1")
    assert code == 1
    assert err == (
        f"error: topic_count {TOO_LARGE} is above the limit of {MAX_ZIPF_TOPICS} "
        "topics that per-topic counts are built for\n"
    )


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_a_one_line_error(case, capsys, tiny_corpus, tmp_path):
    contents, argv = MALFORMED_INPUTS[case]
    path = tmp_path / "input"
    path.write_text(contents, encoding="utf-8")
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(VALID_SUMMARY), encoding="utf-8")
    argv = [a.format(file=path, corpus=tiny_corpus, summary=summary) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("case", sorted(ONE_ABOVE_CAP))
def test_one_above_a_cap_fails_before_any_work(case, capsys, tiny_corpus, tmp_path):
    # The work each cap bounds would take far more: 10^7 trials or
    # documents, or 10^6 topics, hold tens of MiB at least.
    tracemalloc.start()
    try:
        test_malformed_input_is_a_one_line_error(case, capsys, tiny_corpus, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# Malformed values for the option kinds the commands take. Sizes drawn as
# valid stay far below every cap (MAX_DOCUMENTS, MAX_ZIPF_TOPICS,
# SUM_COUPON_LIMIT, MAX_BIN_COUNT), so each drawn command runs in
# milliseconds; malformed sizes are zero or negative, or huge only where
# they allocate nothing (the production sizes of table and bound).
NOT_A_NUMBER = st.sampled_from(["", "abc", "1.5.2", "0x10", "--1", "1e", "half"])
NOT_A_COUNT = st.one_of(
    NOT_A_NUMBER, st.sampled_from(["1.5", "1e3"]), st.integers(-10**6, 0).map(str)
)
NOT_A_PROBABILITY = st.one_of(
    NOT_A_NUMBER, st.sampled_from(["nan", "inf", "-inf", "0", "-0.5", "1.5", "1e300"])
)
NOT_A_CHOICE = st.sampled_from(["", "xml", "CSV", "exact ", "monte-carlo"])


HUGE_COUNT = st.integers(10**309, HUGE_INTEGER).map(str)  # beyond float range


def counts(high):
    return st.integers(1, high).map(str)


def fractions(low=0.01, high=0.99):
    return st.floats(low, high).map(repr)


def joined(values):
    return st.lists(values, min_size=1, max_size=3).map(",".join)


def bad_file(*extra):
    return st.sampled_from(["{missing}", "{directory}", *extra])


BAD_OUTPUT = st.sampled_from(["{missing}/out", "{directory}"])


# Per command, each option's valid values and malformed ones; "{name}"
# stands for a path made by the cli_files fixture.
COMMANDS = {
    "table": {
        "--produced": (joined(counts(10**7)), st.one_of(NOT_A_COUNT, st.just(","), HUGE_COUNT)),
        "--recall": (joined(fractions(high=1.0)), NOT_A_PROBABILITY),
        "--confidence": (fractions(), st.one_of(NOT_A_PROBABILITY, st.just("1"))),
        "--format": (st.sampled_from(["csv", "json"]), NOT_A_CHOICE),
        "--output": (st.just("{out}"), BAD_OUTPUT),
    },
    "bound": {
        "--produced": (counts(10**9), st.one_of(NOT_A_COUNT, HUGE_COUNT)),
        "--confidence": (fractions(), st.one_of(NOT_A_PROBABILITY, st.just("1"))),
    },
    "collector": {
        "--uniform": (counts(12), NOT_A_COUNT),
        "--method": (st.sampled_from(["exact", "sum", "montecarlo"]), NOT_A_CHOICE),
        "--seed": (
            st.integers(0, 2**64 - 1).map(str),
            st.one_of(
                NOT_A_NUMBER,
                st.integers(-10**20, -1).map(str),
                st.integers(2**64, 10**20).map(str),
            ),
        ),
    },
    "collector-montecarlo": {
        "--probs": (st.just("{probs}"), bad_file("{bad_probs}")),
        "--method": (st.just("montecarlo"), NOT_A_CHOICE),
        "--trials": (counts(200), NOT_A_COUNT),
    },
    "simulate": {
        "--corpus": (st.just("{corpus}"), bad_file("{bad_corpus}")),
        "--trials": (counts(20), NOT_A_COUNT),
        "--quantiles": (joined(fractions()), st.one_of(NOT_A_PROBABILITY, st.just("1"))),
        "--bins": (counts(1000), NOT_A_COUNT),
        "--summary-json": (st.just("{out}"), BAD_OUTPUT),
    },
    "curve": {
        "--corpus": (st.just("{corpus}"), bad_file("{bad_corpus}")),
        "--format": (st.sampled_from(["csv", "json"]), NOT_A_CHOICE),
    },
    "gen-corpus": {
        "--docs": (counts(200), NOT_A_COUNT),
        "--topics": (st.integers(2, 20).map(str), st.one_of(NOT_A_COUNT, st.just("1"))),
        "--max-prev": (fractions(0.3, 1.0), NOT_A_PROBABILITY),
        "--min-prev": (fractions(0.01, 0.3), NOT_A_PROBABILITY),
        "--out": (st.just("{out}"), BAD_OUTPUT),
    },
    "compare": {
        "--corpus": (st.just("{corpus}"), bad_file("{bad_corpus}")),
        "--summary": (st.just("{summary}"), bad_file("{bad_summary}", "{corpus}")),
    },
}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("argv")
    contents = {
        "corpus": TINY_CORPUS,
        "summary": json.dumps(VALID_SUMMARY),
        "probs": "[0.25, 0.75]",
        "bad_corpus": TINY_CORPUS.replace('"topics":[1]', '"topics":[2]'),
        "bad_summary": json.dumps({**VALID_SUMMARY, "trial_count": "4"}),
        "bad_probs": "[0.5, 0.6]",
    }
    for name, text in contents.items():
        (base / name).write_text(text, encoding="utf-8")
    (base / "directory").mkdir()
    names = {**contents, "directory": None, "out": None, "missing": None}
    return {name: str(base / name) for name in names}


@st.composite
def malformed_command_line(draw):
    """A command line with every option valid but one."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = COMMANDS[command]
    spoiled = draw(st.sampled_from(sorted(options)))
    argv = [command.removesuffix("-montecarlo")]
    for option, (valid, malformed) in options.items():
        argv += [option, draw(malformed if option == spoiled else valid)]
    return argv


@given(malformed_command_line())
@settings(max_examples=300, deadline=None)
def test_a_malformed_command_line_is_a_one_line_error(cli_files, argv):
    argv = [arg.format(**cli_files) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# Any JSON value Python's json module writes, NaN and Infinity included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=10,
)
PROBABILITY_LISTS = st.lists(
    st.floats(0.0, 1.0) | st.integers(-1, 2) | st.sampled_from([5e-324, 1e-300, 1.0]),
    min_size=1,
    max_size=6,
)
# Coupon vectors (five coupons of at most 0.2 sum to at most 1) down to
# the smallest subnormal, where a collector route may refuse as out of
# float range.
COUPON_VECTORS = st.lists(st.floats(5e-324, 0.2), min_size=1, max_size=5)


@st.composite
def summaries(draw):
    """VALID_SUMMARY with one field, percentile or histogram bin redrawn."""
    summary = json.loads(json.dumps(VALID_SUMMARY))
    where = draw(st.sampled_from([summary, summary["percentiles"], summary["histogram"][0]]))
    where[draw(st.sampled_from(sorted(where)))] = draw(JSON_VALUES)
    return summary


@st.composite
def one_byte_changed(draw, text):
    """``text`` as UTF-8 with one byte inserted, replaced or deleted."""
    valid = text.encode()
    at = draw(st.integers(0, len(valid) - 1))
    byte = bytes([draw(st.integers(0, 255))])
    inserted, replaced = valid[:at] + byte + valid[at:], valid[:at] + byte + valid[at + 1 :]
    return draw(st.sampled_from([inserted, replaced, valid[:at] + valid[at + 1 :]]))


def as_bytes(values):
    return values.map(json.dumps).map(str.encode)


INPUT_FILES = {
    "--probs": st.one_of(
        as_bytes(JSON_VALUES),
        as_bytes(PROBABILITY_LISTS),
        as_bytes(COUPON_VECTORS),
        one_byte_changed("[0.25, 0.75]"),
    ),
    "--summary": st.one_of(
        as_bytes(JSON_VALUES), as_bytes(summaries()), one_byte_changed(json.dumps(VALID_SUMMARY))
    ),
}


def output_or_one_line_error(argv, rows):
    """Run the CLI: its CSV table, which must have ``rows`` rows, or None
    when it ends with exit 1 and one ``error:`` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return None
    assert err.getvalue() == ""
    table = parse_csv(out.getvalue())
    assert len(table) == rows
    return table


@pytest.mark.parametrize("option", sorted(INPUT_FILES))
@given(data=st.data())
@settings(max_examples=250, deadline=None)
def test_a_drawn_input_file_gives_output_or_a_one_line_error(
    cli_files, tmp_path_factory, option, data
):
    path = tmp_path_factory.getbasetemp() / "drawn_input"
    path.write_bytes(data.draw(INPUT_FILES[option]))
    if option == "--summary":
        argv = ["compare", "--corpus", cli_files["corpus"], "--summary", str(path)]
        output_or_one_line_error(argv, rows=2)
        return
    # Both routes to the expectation: each answers or refuses, and where
    # both answer they agree within the sum route's 1e-9 relative error.
    exact = output_or_one_line_error(["collector", "--probs", str(path)], rows=1)
    summed = output_or_one_line_error(
        ["collector", "--probs", str(path), "--method", "sum"], rows=1
    )
    if exact and summed:
        expected = float(exact[0]["expected_draws"])
        assert float(summed[0]["expected_draws"]) == pytest.approx(expected, rel=1e-9)
