"""Prevalence models, synthetic generation, and the corpus file format."""

import hashlib
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from corpus_documents import Document, corpus_from_documents, documents_of
from hypothesis import given, settings
from hypothesis import strategies as st

from fomo.corpus import (
    BLOCK_BYTES,
    MAX_DOCUMENTS,
    MAX_TOPIC_ID,
    Corpus,
    CorpusFormatError,
    DegenerateDistributionError,
    TopicDistribution,
    _parse_record,
    generate_corpus,
    load_corpus,
    save_corpus,
    zipf_prevalences,
)

# The loader's own block size, and one so small that lines straddle
# blocks, a block mixes saved-form and spaced lines, and a bad line can
# fail in a later block than an earlier line with a bad topic id.
BLOCK_SIZES = (BLOCK_BYTES, 64)
HEADER_3 = '{"format":"fomo-corpus","version":1,"topic_count":3}'


class TestZipfPrevalences:
    def test_hits_both_extremes_exactly(self):
        dist = zipf_prevalences(64, 0.36, 1.4e-6)
        assert dist.prevalences[0] == 0.36
        assert dist.prevalences[63] == pytest.approx(1.4e-6, rel=1e-12)

    def test_flat_when_extremes_coincide(self):
        assert zipf_prevalences(2, 0.5, 0.5).prevalences == (0.5, 0.5)

    def test_moderate_range(self):
        dist = zipf_prevalences(100, 0.015, 0.001)
        assert dist.prevalences[0] == pytest.approx(0.015)
        assert dist.prevalences[99] == pytest.approx(0.001, rel=1e-12)

    @given(
        st.integers(2, 200),
        st.floats(1e-6, 1.0),
        st.floats(0.01, 1.0),
    )
    @settings(max_examples=150)
    def test_nonincreasing(self, m, min_prev, ratio):
        max_prev = min(1.0, min_prev / ratio)
        dist = zipf_prevalences(m, max_prev, min_prev)
        pairs = zip(dist.prevalences, dist.prevalences[1:])
        assert all(a >= b for a, b in pairs)

    def test_rejects_min_above_max(self):
        with pytest.raises(ValueError):
            zipf_prevalences(10, 0.01, 0.5)

    def test_rejects_single_topic(self):
        with pytest.raises(ValueError):
            zipf_prevalences(1, 0.5, 0.1)

    def test_rejects_zero_min(self):
        with pytest.raises(ValueError):
            zipf_prevalences(10, 0.5, 0.0)


class TestTopicDistribution:
    def test_rejects_out_of_range_prevalence(self):
        with pytest.raises(ValueError):
            TopicDistribution((0.5, 1.5))
        with pytest.raises(ValueError):
            TopicDistribution((0.0,))

    def test_may_sum_above_one(self):
        TopicDistribution((0.9, 0.9, 0.9))  # multi-label

    def test_expected_topics_per_document(self):
        dist = TopicDistribution((0.5, 0.5))
        # sum q = 1.0, P(empty) = 0.25, conditional mean = 1/0.75
        assert dist.expected_topics_per_document() == pytest.approx(4 / 3)


class TestGenerateCorpus:
    def test_seed_determinism(self):
        dist = zipf_prevalences(8, 0.5, 0.01)
        first = generate_corpus(500, dist, seed=3)
        second = generate_corpus(500, dist, seed=3)
        assert first == second
        assert first != generate_corpus(500, dist, seed=4)

    def test_single_certain_topic(self):
        corpus = generate_corpus(1, TopicDistribution((1.0,)), seed=12345)
        assert len(corpus) == 1
        assert documents_of(corpus)[0].topics == (0,)

    def test_every_document_nonempty(self):
        dist = TopicDistribution((0.05, 0.02))  # empty draws are common
        corpus = generate_corpus(2000, dist, seed=9)
        assert all(doc.topics for doc in documents_of(corpus))

    def test_document_count_above_the_cap_fails_before_allocating(self):
        dist = zipf_prevalences(4, 0.5, 0.1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"1..{MAX_DOCUMENTS}"):
                generate_corpus(MAX_DOCUMENTS + 1, dist, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_degenerate_distribution_refused(self):
        with pytest.raises(DegenerateDistributionError):
            generate_corpus(10, TopicDistribution((1e-12, 1e-12)), seed=0)

    def test_observed_frequencies_concentrate(self):
        # rejecting empty draws scales every marginal by 1/(1 - P(empty));
        # observed counts should sit within 3 binomial standard deviations
        # wherever at least ~50 are expected
        n = 30_000
        dist = zipf_prevalences(16, 0.3, 0.005)
        corpus = generate_corpus(n, dist, seed=7)
        inflation = 1.0 / (1.0 - dist.empty_document_probability())
        counts = corpus.topic_counts()
        checked = 0
        for topic, q in enumerate(dist.prevalences):
            scaled = min(1.0, q * inflation)
            expected = n * scaled
            if expected < 50:
                continue
            sd = math.sqrt(n * scaled * (1.0 - scaled))
            assert abs(counts[topic] - expected) <= 3 * sd, f"topic {topic}"
            checked += 1
        assert checked >= 10

    def test_mean_topics_per_document(self):
        n = 30_000
        dist = zipf_prevalences(16, 0.3, 0.005)
        corpus = generate_corpus(n, dist, seed=7)
        per_doc = [len(doc.topics) for doc in documents_of(corpus)]
        mean = sum(per_doc) / n
        spread = math.sqrt(
            sum((x - mean) ** 2 for x in per_doc) / (n - 1)
        )
        std_error = spread / math.sqrt(n)
        assert abs(mean - dist.expected_topics_per_document()) <= 2 * std_error

    def test_working_memory_is_bounded_for_many_topics(self):
        # One block of 4096 documents x 2000 topics would take ~133 MiB.
        dist = zipf_prevalences(2000, 0.3, 1e-4)
        tracemalloc.start()
        try:
            generate_corpus(4096, dist, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_many_topic_corpus_bytes_are_pinned(self, tmp_path):
        # 87 documents per block at 3000 topics: the bytes must not depend
        # on how generation is blocked.
        corpus = generate_corpus(300, zipf_prevalences(3000, 0.4, 0.0002), seed=5)
        path = tmp_path / "many.jsonl"
        save_corpus(corpus, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "f958b677ac8163e9a23babf639b3046c2a4a369fb2452aa396f400c779456bc2"
        )

    def test_most_common_topic_frequency_at_scale(self):
        # 120k documents, 64 topics spanning 0.36 down to about 1/8571
        n = 120_000
        dist = zipf_prevalences(64, 0.36, 1 / 8571)
        corpus = generate_corpus(n, dist, seed=7)
        inflation = 1.0 / (1.0 - dist.empty_document_probability())
        scaled = dist.prevalences[0] * inflation
        expected = n * scaled
        sd = math.sqrt(n * scaled * (1.0 - scaled))
        assert abs(corpus.topic_counts()[0] - expected) <= 3 * sd


class TestCorpusInvariants:
    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            corpus_from_documents((), topic_count=3)

    def test_rejects_document_without_topics(self):
        with pytest.raises(ValueError):
            corpus_from_documents((Document("a", ()),), topic_count=3)

    def test_rejects_out_of_range_topic(self):
        with pytest.raises(ValueError):
            corpus_from_documents((Document("a", (3,)),), topic_count=3)

    def test_rejects_unsorted_or_duplicate_topics(self):
        with pytest.raises(ValueError):
            corpus_from_documents((Document("a", (1, 0)),), topic_count=3)
        with pytest.raises(ValueError):
            corpus_from_documents((Document("a", (1, 1)),), topic_count=3)

    @given(
        st.integers(1, 5) | st.just(MAX_TOPIC_ID + 2),
        st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True).map(sorted)
            | st.lists(
                st.integers(-2, 6) | st.sampled_from([MAX_TOPIC_ID, MAX_TOPIC_ID + 1, 2**40]),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=200)
    def test_names_the_first_document_with_bad_topic_ids(self, topic_count, rows):
        limit = min(topic_count, MAX_TOPIC_ID + 1)
        bad = [
            d
            for d, row in enumerate(rows)
            if not all(0 <= t < limit for t in row)
            or any(a >= b for a, b in zip(row, row[1:]))
        ]
        documents = tuple(Document(f"d{d}", tuple(row)) for d, row in enumerate(rows))
        if bad:
            with pytest.raises(ValueError) as info:
                corpus_from_documents(documents, topic_count)
            assert str(info.value).startswith(f"document {bad[0]}: ")
        else:
            assert documents_of(corpus_from_documents(documents, topic_count)) == documents

    def test_csr_arrays_are_read_only(self):
        corpus = generate_corpus(20, zipf_prevalences(4, 0.8, 0.2), seed=5)
        assert (corpus.indptr.dtype, corpus.indices.dtype) == (np.int64, np.int32)
        assert corpus.indptr.shape == (21,) and corpus.indptr[-1] == corpus.indices.size
        for column in (corpus.doc_ids, corpus.indptr, corpus.indices):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = column[0]

    def test_topics_present_and_counts(self):
        corpus = corpus_from_documents(
            (Document("a", (0,)), Document("b", (0, 2))), topic_count=4
        )
        assert corpus.topics_present == frozenset({0, 2})
        assert corpus.topic_counts() == [2, 0, 1, 0]
        assert corpus.empirical_prevalences() == {0: 1.0, 2: 0.5}


class TestSaveLoad:
    def test_hand_built_fixture(self, tmp_path):
        path = tmp_path / "tiny.jsonl"
        path.write_text(
            '{"format":"fomo-corpus","version":1,"topic_count":2}\n'
            '{"doc_id":"a","topics":[0]}\n'
            '{"doc_id":"b","topics":[1]}\n'
            '{"doc_id":"c","topics":[0,1]}\n',
            encoding="utf-8",
        )
        corpus = load_corpus(path)
        assert len(corpus) == 3
        assert corpus.topic_count == 2
        assert documents_of(corpus)[2] == Document("c", (0, 1))

    def test_round_trip_is_identity(self, tmp_path):
        dist = zipf_prevalences(6, 0.6, 0.05)
        corpus = generate_corpus(300, dist, seed=21)
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    def test_save_bytes_are_reproducible(self, tmp_path):
        corpus = generate_corpus(50, zipf_prevalences(4, 0.8, 0.2), seed=5)
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        save_corpus(corpus, first)
        save_corpus(corpus, second)
        assert first.read_bytes() == second.read_bytes()

    def test_unicode_doc_ids_survive(self, tmp_path):
        corpus = corpus_from_documents(
            (Document("ドキュメント-1", (0,)), Document("café", (1,))), topic_count=2
        )
        path = tmp_path / "u.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    def test_empty_topics_line_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format":"fomo-corpus","version":1,"topic_count":2}\n'
            '{"doc_id":"a","topics":[0]}\n'
            '{"doc_id":"b","topics":[]}\n',
            encoding="utf-8",
        )
        with pytest.raises(CorpusFormatError, match="line 3"):
            load_corpus(path)

    def test_malformed_json_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format":"fomo-corpus","version":1,"topic_count":2}\n'
            '{"doc_id":"a","topics":[0]\n',
            encoding="utf-8",
        )
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(path)

    @pytest.mark.parametrize("number", [1, 3])
    def test_deep_nesting_names_the_line(self, tmp_path, number):
        nested = "[" * 100_000 + "]" * 100_000
        lines = [
            '{"format":"fomo-corpus","version":1,"topic_count":2}',
            '{"doc_id":"a","topics":[0]}',
            '{"doc_id":"b","topics":%s}' % nested,
        ]
        path = tmp_path / "nested.jsonl"
        path.write_text("\n".join([nested] if number == 1 else lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as info:
            load_corpus(path)
        assert str(info.value) == f"line {number}: invalid JSON (nested too deeply)"

    @pytest.mark.parametrize("number", [1, 3])
    def test_an_integer_too_long_to_convert_names_the_line(self, tmp_path, number):
        digits = "9" * 5000  # int() converts at most 4,300
        lines = [
            '{"format":"fomo-corpus","version":1,"topic_count":%s}' % (digits if number == 1 else 2),
            '{"doc_id":"a","topics":[0]}',
            '{"doc_id":"b","topics":[%s]}' % digits,
        ]
        path = tmp_path / "long.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as info:
            load_corpus(path)
        assert str(info.value) == f"line {number}: invalid JSON (an integer with too many digits)"

    def test_topic_id_beyond_declared_count(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format":"fomo-corpus","version":1,"topic_count":2}\n'
            '{"doc_id":"a","topics":[5]}\n',
            encoding="utf-8",
        )
        with pytest.raises(CorpusFormatError, match="topic id 5"):
            load_corpus(path)

    def test_duplicate_topic_ids_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format":"fomo-corpus","version":1,"topic_count":2}\n'
            '{"doc_id":"a","topics":[1,1]}\n',
            encoding="utf-8",
        )
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format":"something-else","version":1}\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_corpus(path)

    def test_header_without_documents_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text(
            '{"format":"fomo-corpus","version":1,"topic_count":2}\n', encoding="utf-8"
        )
        with pytest.raises(CorpusFormatError, match="no documents"):
            load_corpus(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize(
        "record, line, message",
        [
            ("   ", 3, "blank line"),
            ("[1, 2]", 3, "expected an object"),
            ('{"doc_id":7,"topics":[0]}', 3, "bad doc_id 7"),
            ('{"doc_id":"b","topics":[true]}', 3, "bad topics [True]"),
            ('{"doc_id":"b","topics":[0.0]}', 3, "bad topics [0.0]"),
            ('{"doc_id":"b","topics":[-1]}', 3, "topic id -1 outside 0..2"),
            ('{"doc_id":"b","topics":[2,0,2]}', 3, "duplicate topic ids in [2, 0, 2]"),
            ('{"doc_id":"b","topics":[3]}', 3, "topic id 3 outside 0..2"),
            ('{"doc_id":"b","topics":[10000000000000000000000]}', 3, "outside 0..2"),
            ('{"doc_id":"b","topics":[]}', 3, "document 'b' has no topics"),
            ('{"doc_id":"b","topics":[1,1]}\n{"doc_id":"c","topics":[0', 3, "duplicate"),
            ('{"doc_id":"b","topics":[0]}\n{"doc_id":"c","topics":[9]}', 4, "topic id 9"),
            ('{"doc_id":"b","topics":[0]}\n{"doc_id":"c","topics":[5,5]}', 4, "duplicate"),
            # "\udcXX" writes the byte 0xXX, which is not UTF-8 on its own.
            ('{"doc_id":"b","topics":[0]}\n' * 199 + '{"doc_id":"c\udcff","topics":[0]}', 202,
             "invalid UTF-8 byte 0xff"),
            ('{"doc_id":"b","topics":[0]} \udcfe', 3, "invalid UTF-8 byte 0xfe"),
            ('{"doc_id":"b","topics":[1,1]}\n{"doc_id":"c\udcff","topics":[0]}', 3, "duplicate"),
            ('{"doc_id":"\\ud800","topics":[0]}', 3, "bad doc_id '\\ud800'"),
        ],
    )
    def test_every_loader_error_names_its_line(self, tmp_path, monkeypatch, record, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format":"fomo-corpus","version":1,"topic_count":3}\n'
            '{"doc_id":"a","topics":[0]}\n' + record + "\n",
            encoding="utf-8",
            errors="surrogateescape",
        )
        for block_bytes in BLOCK_SIZES:
            monkeypatch.setattr("fomo.corpus.BLOCK_BYTES", block_bytes)
            with pytest.raises(CorpusFormatError) as info:
                load_corpus(path)
            assert str(info.value).startswith(f"line {line}: ")
            assert message in str(info.value)

    @pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"doc_id":"b","topics":[01]}', "invalid JSON"),
            ('{"doc_id":"b","topics":[00]}', "invalid JSON"),
            ('{"doc_id":"b","topics":[9999999999]}', "topic id 9999999999 outside 0..2"),
            ('{"doc_id":"b","topics":[0,,1]}', "invalid JSON"),
            ('{"doc_id":"b","topics":[,1]}', "invalid JSON"),
            ('{"doc_id":"b","topics":[1,]}', "invalid JSON"),
            ('{"doc_id":"b\x01","topics":[0]}', "invalid JSON"),
            ('{"doc_id","b","topics":[0]}', "invalid JSON"),
            ('{"doc_id":"b","topics",[0]}', "invalid JSON"),
            ('{"doc_id":"b","topics":[0]]', "invalid JSON"),
            ('{"doc_id":"b","topics":[0]1]}', "invalid JSON"),
            # Twelve quotes over two lines, in rows of six that straddle them.
            ('1d":""d":"{"doc_id":"1""doc_id"\n]"doc_i', "invalid JSON"),
            ('{"doc_id":"b","topics":[0 ]}', None),
            ('{"doc_id":"b\\u00e9","topics":[0]}', None),
        ],
    )
    def test_lines_near_the_saved_form_parse_as_json(
        self, tmp_path, monkeypatch, block_bytes, record, message
    ):
        # Each differs from the form save_corpus writes in one place, so
        # it must load, or fail, exactly as the JSON parser says.
        monkeypatch.setattr("fomo.corpus.BLOCK_BYTES", block_bytes)
        path = tmp_path / "near.jsonl"
        path.write_text(
            "\n".join([HEADER_3, '{"doc_id":"a","topics":[0]}', record, ""]), encoding="utf-8"
        )
        if message is None:
            doc_id = json.loads(record)["doc_id"]
            assert documents_of(load_corpus(path))[1] == Document(doc_id, (0,))
        else:
            with pytest.raises(CorpusFormatError, match=f"^line 3: {message}"):
                load_corpus(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_ends_are_universal(self, tmp_path, monkeypatch, newline):
        # Every block size from 8 to 80 characters puts a block boundary
        # at each place in the first lines, between a "\r" and its "\n" too.
        lines = ['{"doc_id":"a","topics":[0]}', '{"doc_id":"b","topics":[1,2]}']
        good = tmp_path / "good.jsonl"
        good.write_bytes(newline.join([HEADER_3, *lines, ""]).encode())
        bad = tmp_path / "bad.jsonl"
        lines.append('{"doc_id":"c","topics":[5]}')
        bad.write_bytes(newline.join([HEADER_3, *lines, ""]).encode())
        expected = corpus_from_documents([Document("a", (0,)), Document("b", (1, 2))], 3)
        for block_bytes in range(8, 81):
            monkeypatch.setattr("fomo.corpus.BLOCK_BYTES", block_bytes)
            assert load_corpus(good) == expected
            with pytest.raises(CorpusFormatError, match=r"^line 4: topic id 5 outside 0\.\.2$"):
                load_corpus(bad)

    @pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
    def test_only_line_feeds_and_carriage_returns_end_lines(
        self, tmp_path, monkeypatch, block_bytes
    ):
        # str.splitlines would also end a line at each of these, raw in an id.
        monkeypatch.setattr("fomo.corpus.BLOCK_BYTES", block_bytes)
        ids = ["a\u2028b", "c\u2029d", "e\x85f"]
        saved = ['{"doc_id":"%s","topics":[0]}' % doc_id for doc_id in ids]
        spaced = ['{"doc_id": "%s", "topics": [0]}' % doc_id for doc_id in ids]
        path = tmp_path / "ids.jsonl"
        path.write_text("\n".join([HEADER_3, *saved, ""]), encoding="utf-8")
        assert load_corpus(path).doc_ids.tolist() == ids
        path.write_text("\n".join([HEADER_3, *saved, *spaced, ""]), encoding="utf-8")
        assert load_corpus(path).doc_ids.tolist() == ids + ids

    @pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
    @pytest.mark.parametrize(
        "last, error",
        [
            ('{"doc_id":"c","topics":[2,0]}', None),
            ('{"doc_id": "c", "topics": [2, 0]}', None),
            ('{"doc_id":"c","topics":[3]}', "line 4: topic id 3 outside 0..2"),
            ('{"doc_id":"c","topics":[2,0', "line 4: invalid JSON"),
        ],
    )
    def test_last_line_without_line_end(self, tmp_path, monkeypatch, block_bytes, last, error):
        monkeypatch.setattr("fomo.corpus.BLOCK_BYTES", block_bytes)
        lines = ['{"doc_id":"a","topics":[0]}', '{"doc_id":"b","topics":[1]}', last]
        path = tmp_path / "open.jsonl"
        path.write_text("\n".join([HEADER_3, *lines]), encoding="utf-8")
        if error is None:
            assert documents_of(load_corpus(path))[2] == Document("c", (0, 2))
        else:
            with pytest.raises(CorpusFormatError, match=f"^{error}"):
                load_corpus(path)

    @pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
    def test_line_longer_than_a_block(self, tmp_path, monkeypatch, block_bytes):
        monkeypatch.setattr("fomo.corpus.BLOCK_BYTES", block_bytes)
        long_id = "x" * (BLOCK_BYTES + 1000)
        corpus = corpus_from_documents(
            [Document("a", (0,)), Document(long_id, tuple(range(300))), Document("c", (7,))],
            topic_count=300,
        )
        path = tmp_path / "long.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    def test_loading_the_study_corpus_keeps_memory_bounded(self, tmp_path):
        # The loaded arrays take 3.3 MiB; blocks bound the rest.
        path = tmp_path / "study.jsonl"
        save_corpus(generate_corpus(120_000, zipf_prevalences(64, 0.36, 1 / 8571), seed=7), path)
        tracemalloc.start()
        try:
            load_corpus(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_a_long_id_costs_only_its_own_bytes(self, tmp_path):
        # No array as wide as the longest id for every line of its block.
        lines = ['{"doc_id":"d%d","topics":[0]}' % d for d in range(10_000)]
        lines.insert(5_000, '{"doc_id":"%s","topics":[1]}' % ("x" * 2**20))
        path = tmp_path / "long.jsonl"
        path.write_text("\n".join([HEADER_3, *lines, ""]), encoding="utf-8")
        tracemalloc.start()
        try:
            corpus = load_corpus(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(corpus) == 10_001 and len(corpus.doc_ids[5_000]) == 2**20
        assert peak < 16 * 2**20

    def test_header_bytes_must_be_utf8(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(
            b'{"format":"fomo-corpus","version":1,"topic_count":3,"note":"\xc3"}\n'
            b'{"doc_id":"a","topics":[0]}\n'
        )
        with pytest.raises(CorpusFormatError, match="^line 1: invalid UTF-8 byte 0xc3$"):
            load_corpus(path)

    def test_unsorted_topics_load_sorted(self, tmp_path):
        path = tmp_path / "unsorted.jsonl"
        path.write_text(
            '{"format":"fomo-corpus","version":1,"topic_count":3}\n'
            '{"doc_id":"a","topics":[2,0]}\n'
            '{"doc_id":"b","topics":[1]}\n',
            encoding="utf-8",
        )
        corpus = load_corpus(path)
        assert documents_of(corpus) == (Document("a", (0, 2)), Document("b", (1,)))

    def test_header_is_the_documented_literal(self, tmp_path):
        corpus = corpus_from_documents((Document("a", (0,)),), topic_count=7)
        path = tmp_path / "h.jsonl"
        save_corpus(corpus, path)
        first_line = path.read_text(encoding="utf-8").splitlines()[0]
        assert first_line == '{"format":"fomo-corpus","version":1,"topic_count":7}'
        assert json.loads(first_line)["topic_count"] == 7


def spelled(doc_id, topics, compact, ascii_only):
    """A document line: canonical (compact) or spaced, with its keys reversed."""
    if compact:
        record = {"doc_id": doc_id, "topics": topics}
        return json.dumps(record, separators=(",", ":"), ensure_ascii=ascii_only)
    return json.dumps({"topics": topics, "doc_id": doc_id}, ensure_ascii=ascii_only)


@st.composite
def document_line(draw, topic_count):
    """One line of a corpus file as bytes: a good document or a broken one."""
    doc_id = draw(st.text(st.characters(codec="utf-8"), max_size=6))
    topics = draw(st.lists(st.integers(0, topic_count - 1), min_size=1, max_size=5, unique=True))
    compact, ascii_only = draw(st.booleans()), draw(st.booleans())
    kind = draw(st.sampled_from([
        "good", "good", "good", "blank", "cut", "bad_id", "duplicate", "empty", "byte", "surrogate",
        "mangled", "listed",
    ]))
    if kind == "good":
        return spelled(doc_id, sorted(topics) if compact else topics, compact, ascii_only).encode()
    if kind == "mangled":
        # One byte of a saved-form line replaced or removed.
        line = spelled(doc_id, sorted(topics), True, True).encode()
        at = draw(st.integers(0, len(line) - 1))
        put = draw(st.sampled_from([b"", *(bytes([c]) for c in b'"\\,09]}{ :\x1f')]))
        return line[:at] + put + line[at + 1 :]
    if kind == "listed":
        # A saved-form line whose topic list is any digits and commas.
        listed = draw(st.text("0123456789,", max_size=12))
        return b'{"doc_id":"%s","topics":[%s]}' % (doc_id.encode(), listed.encode())
    if kind == "blank":
        return draw(st.sampled_from([b"", b"  \t"]))
    if kind == "cut":
        return spelled(doc_id, topics, compact, ascii_only)[: -draw(st.integers(1, 5))].encode()
    if kind == "bad_id":
        bad = draw(st.sampled_from([True, 1.0, -1, 2**31, 10**9 - 1, topic_count]))
        topics.insert(draw(st.integers(0, len(topics))), bad)
    elif kind == "duplicate":
        topics = sorted(topics + topics[:1])
    elif kind == "empty":
        topics = []
    elif kind == "surrogate":
        return b'{"doc_id":"\\u%04x","topics":[0]}' % draw(st.integers(0xD800, 0xDFFF))
    line = spelled(doc_id, topics, compact, ascii_only).encode()
    if kind == "byte":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + b"\xff" + line[at:]
    return line


def loaded_by_oracle(lines, topic_count):
    """Check each line on its own: the documents before the first bad
    line, and that line's number (None when every line is good)."""
    documents = []
    for number, line in enumerate(lines, start=2):
        try:
            record = json.loads(line.decode("utf-8"))
            doc_id, topics = record["doc_id"], record["topics"]
            doc_id.encode("utf-8")
            good = (
                isinstance(topics, list)
                and len(topics) > 0
                and all(type(t) is int and 0 <= t < topic_count for t in topics)
                and len(set(topics)) == len(topics)
            )
        except (ValueError, TypeError, KeyError, AttributeError):
            good = False
        if not good:
            return documents, number
        documents.append(Document(doc_id, tuple(sorted(topics))))
    return documents, None


@given(st.data(), st.integers(1, 5))
@settings(max_examples=300, deadline=None)
def test_loader_agrees_with_a_per_line_oracle(tmp_path_factory, data, topic_count):
    lines = data.draw(st.lists(document_line(topic_count), min_size=1, max_size=30))
    header = b'{"format":"fomo-corpus","version":1,"topic_count":%d}' % topic_count
    path = tmp_path_factory.getbasetemp() / "fuzzed.jsonl"
    path.write_bytes(b"\n".join([header, *lines]) + b"\n")
    documents, bad_line = loaded_by_oracle(lines, topic_count)
    for block_bytes in BLOCK_SIZES:
        with mock.patch("fomo.corpus.BLOCK_BYTES", block_bytes):
            if bad_line is None:
                assert load_corpus(path) == corpus_from_documents(documents, topic_count)
            else:
                with pytest.raises(CorpusFormatError) as info:
                    load_corpus(path)
                assert str(info.value).startswith(f"line {bad_line}: ")


# Ids save_corpus writes without any escape: every character StringDType
# holds but quote, backslash and control characters below U+0020, with
# the ones JSON writers often escape anyway drawn on purpose.
UNESCAPED_IDS = st.text(
    st.one_of(
        st.sampled_from(["\u2028", "\u2029", "\x85", "\x7f", "\U0001f600", "é", "ド"]),
        st.characters(codec="utf-8", min_codepoint=0x20, exclude_characters='"\\'),
    ),
    max_size=8,
)


@st.composite
def corpora(draw, doc_ids):
    topic_count = draw(st.integers(1, 40))
    documents = draw(st.lists(
        st.builds(
            Document,
            doc_ids,
            st.sets(st.integers(0, topic_count - 1), min_size=1, max_size=4).map(sorted),
        ),
        min_size=1,
        max_size=20,
    ))
    return corpus_from_documents(documents, topic_count)


def refuse_per_line_parse(number, raw, topic_count):
    raise AssertionError(f"line {number} took the per-line path: {raw!r}")


@given(corpora(UNESCAPED_IDS))
@settings(max_examples=200, deadline=None)
def test_saved_ids_load_back_with_array_operations(tmp_path_factory, corpus):
    path = tmp_path_factory.getbasetemp() / "unescaped.jsonl"
    save_corpus(corpus, path)
    for block_bytes in BLOCK_SIZES:
        with mock.patch("fomo.corpus.BLOCK_BYTES", block_bytes), mock.patch(
            "fomo.corpus._parse_record", refuse_per_line_parse
        ):
            assert load_corpus(path) == corpus


@pytest.mark.parametrize("doc_id", ['say "hi"', "a\\b", "tab\there", "\x00", "line\nbreak"])
def test_escaped_ids_round_trip_line_by_line(tmp_path, doc_id):
    corpus = corpus_from_documents((Document("plain", (0,)), Document(doc_id, (1,))), 2)
    path = tmp_path / "escaped.jsonl"
    save_corpus(corpus, path)
    with mock.patch("fomo.corpus._parse_record", wraps=_parse_record) as parse:
        assert load_corpus(path) == corpus
    assert parse.called


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
def test_a_saved_form_error_comes_before_a_later_blocks_error(tmp_path, monkeypatch, block_bytes):
    # Line 2 repeats a topic id in a block of saved-form lines; a line of
    # invalid JSON follows more than a block later.
    monkeypatch.setattr("fomo.corpus.BLOCK_BYTES", block_bytes)
    good = '{"doc_id":"b","topics":[0]}\n' * (BLOCK_BYTES // 20)
    path = tmp_path / "two_errors.jsonl"
    path.write_text(
        HEADER_3 + '\n{"doc_id":"a","topics":[1,1]}\n' + good + '{"doc_id":"c","topics":[0\n',
        encoding="utf-8",
    )
    with pytest.raises(CorpusFormatError, match=r"^line 2: duplicate topic ids in \[1, 1\]$"):
        load_corpus(path)
