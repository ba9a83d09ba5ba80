"""CLI surface: reports, exit codes, reproducible bytes."""

import csv
import io
import json

import pytest

from fomo.analytic import RecallScenario, fomo_table
from fomo.cli import main
from fomo.corpus import load_corpus

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

TOO_LARGE = "1000000000000"

# name -> (file contents, argv with {file}, {corpus} and {summary} placeholders)
MALFORMED_INPUTS = {
    "probs-nested-array": ("[[0.5],0.5]", ["collector", "--probs", "{file}"]),
    "summary-without-trial-count": (
        json.dumps({k: v for k, v in VALID_SUMMARY.items() if k != "trial_count"}),
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
    # Each size below is too large to allocate.
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
    "compare-huge-topic-count": (
        '{"format":"fomo-corpus","version":1,"topic_count":%s}\n'
        '{"doc_id":"a","topics":[0]}\n' % TOO_LARGE,
        ["compare", "--corpus", "{file}", "--summary", "{summary}"],
    ),
}


def test_valid_summary_compares(capsys, tiny_corpus, tmp_path):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(VALID_SUMMARY), encoding="utf-8")
    code, _, err = run_cli(
        capsys, "compare", "--corpus", str(tiny_corpus), "--summary", str(path)
    )
    assert (code, err) == (0, "")


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
