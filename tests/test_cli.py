"""CLI surface: reports, exit codes, reproducible bytes."""

import contextlib
import csv
import io
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fomo.analytic import RecallScenario, fomo_table
from fomo.cli import main
from fomo.corpus import MAX_DOCUMENTS, load_corpus

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
DEEPLY_NESTED = "[" * 100_000 + "]" * 100_000
HUGE_INTEGER = 10**400  # 401 digits, beyond float range
LONG_INTEGER = "9" * 5000  # more digits than int() converts

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
}


def test_gen_corpus_help_names_the_docs_cap(capsys):
    with pytest.raises(SystemExit):
        main(["gen-corpus", "--help"])
    assert f"1..{MAX_DOCUMENTS}" in capsys.readouterr().out


def test_valid_summary_compares(capsys, tiny_corpus, tmp_path):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(VALID_SUMMARY), encoding="utf-8")
    code, _, err = run_cli(
        capsys, "compare", "--corpus", str(tiny_corpus), "--summary", str(path)
    )
    assert (code, err) == (0, "")


def test_huge_declared_topic_count_fails_at_once(capsys, tmp_path):
    path = tmp_path / "huge.jsonl"
    path.write_text(MALFORMED_INPUTS["simulate-huge-topic-count"][0], encoding="utf-8")
    code, _, err = run_cli(capsys, "simulate", "--corpus", str(path), "--trials", "1")
    assert code == 1
    assert err.startswith("error: out of memory")


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


# Malformed values for the option kinds the commands take. Sizes drawn as
# valid stay far below every cap (MAX_DOCUMENTS, MAX_ZIPF_TOPICS,
# SUM_COUPON_LIMIT, MAX_BIN_COUNT), so each drawn command runs in
# milliseconds; malformed sizes are zero or negative, never huge.
NOT_A_NUMBER = st.sampled_from(["", "abc", "1.5.2", "0x10", "--1", "1e", "half"])
NOT_A_COUNT = st.one_of(
    NOT_A_NUMBER, st.sampled_from(["1.5", "1e3"]), st.integers(-10**6, 0).map(str)
)
NOT_A_PROBABILITY = st.one_of(
    NOT_A_NUMBER, st.sampled_from(["nan", "inf", "-inf", "0", "-0.5", "1.5", "1e300"])
)
NOT_A_CHOICE = st.sampled_from(["", "xml", "CSV", "exact ", "monte-carlo"])


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
        "--produced": (joined(counts(10**7)), st.one_of(NOT_A_COUNT, st.just(","))),
        "--recall": (joined(fractions(high=1.0)), NOT_A_PROBABILITY),
        "--confidence": (fractions(), st.one_of(NOT_A_PROBABILITY, st.just("1"))),
        "--format": (st.sampled_from(["csv", "json"]), NOT_A_CHOICE),
        "--output": (st.just("{out}"), BAD_OUTPUT),
    },
    "bound": {
        "--produced": (counts(10**9), NOT_A_COUNT),
        "--confidence": (fractions(), st.one_of(NOT_A_PROBABILITY, st.just("1"))),
    },
    "collector": {
        "--uniform": (counts(12), NOT_A_COUNT),
        "--method": (st.sampled_from(["exact", "sum", "montecarlo"]), NOT_A_CHOICE),
        "--seed": (st.integers(-10**20, 10**20).map(str), NOT_A_NUMBER),
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
