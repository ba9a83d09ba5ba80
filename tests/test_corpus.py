"""Prevalence models, synthetic generation, and the corpus file format."""

import hashlib
import json
import math
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from corpus_documents import Document, corpus_from_documents, doc_ids_of, documents_of, id_columns
from hypothesis import given, settings
from hypothesis import strategies as st
from splitmix64_oracle import GAMMA, MASK64, SplitMix64, mix64

import fomo.corpus
from fomo.corpus import (
    BLOCK_BYTES,
    BLOCK_DRAWS,
    MAX_DOCUMENTS,
    MAX_TOPIC_ID,
    MAX_TOPIC_IDS,
    MAX_ZIPF_TOPICS,
    SAVE_BLOCK_BYTES,
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

    def test_topic_ids_above_the_cap_fail_before_allocating(self):
        # 10^7 documents at 11 certain topics each would store 1.1e8 ids.
        dist = TopicDistribution((1.0,) * 11)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"above the limit of {MAX_TOPIC_IDS}"):
                generate_corpus(MAX_DOCUMENTS, dist, seed=0)
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

    @pytest.mark.parametrize(
        "indptr, indices, topic_count, message",
        [
            ([0, 1], [0], 0, "topic_count must be >= 1, got 0"),
            ([0, 1], [0.0], 2, "topic ids must be integers, got float64"),
            ([0, 2], [0], 2, "indptr must hold 2 offsets from 0 to 1"),
            ([1, 1], [0], 2, "indptr must hold 2 offsets from 0 to 1"),
        ],
    )
    def test_rejects_a_bad_count_id_type_or_indptr(self, indptr, indices, topic_count, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Corpus(*id_columns(["a"]), np.array(indptr), np.array(indices), topic_count)

    @pytest.mark.parametrize(
        "id_bytes, idptr, message",
        [
            (np.array([97, 98]), [0, 1, 2], "id_bytes must be 1-D uint8, got 1-D int64"),
            (np.array([[97, 98]], np.uint8), [0, 1, 2],
             "id_bytes must be 1-D uint8, got 2-D uint8"),
            (b"ab", [0.0, 1.0, 2.0], "idptr offsets must be integers, got float64"),
            (b"ab", [0], "a corpus must contain at least one document"),
            (b"ab", [1, 1, 2], "idptr must hold offsets rising from 0 to 2"),
            (b"ab", [0, 1, 1], "idptr must hold offsets rising from 0 to 2"),
            (b"ab", [0, 2, 1, 2], "idptr must hold offsets rising from 0 to 2"),
            (b"a\xff", [0, 1, 2], "id byte 1 is not UTF-8 (invalid start byte)"),
            (b"\xc3", [0, 0, 1], "id byte 0 is not UTF-8 (unexpected end of data)"),
            ("é".encode(), [0, 1, 2], "document 1's id starts inside a UTF-8 character"),
            ("aé".encode(), [0, 2, 3], "document 1's id starts inside a UTF-8 character"),
        ],
    )
    def test_rejects_ids_that_are_not_utf8_between_rising_offsets(self, id_bytes, idptr, message):
        if isinstance(id_bytes, bytes):
            id_bytes = np.frombuffer(id_bytes, np.uint8)
        documents = len(idptr) - 1
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Corpus(id_bytes, idptr, np.arange(documents + 1), np.zeros(documents, int), 1)

    def test_accepts_empty_and_utf8_ids(self):
        ids = ["", "é", "", "ド\U0001f600", "a"]
        corpus = Corpus(*id_columns(ids), np.arange(6), np.zeros(5, int), 1)
        assert doc_ids_of(corpus) == ids
        assert [corpus.doc_id(d) for d in range(5)] == ids

    def test_rejects_offsets_that_are_no_integers(self):
        # Cast to int64, 1.7 would read as 1.
        message = "indptr offsets must be integers, got float64"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Corpus(*id_columns(["a", "b"]), [0, 1.7, 3.0], [0, 1, 2], 3)

    def test_a_numpy_topic_count_is_stored_as_int(self, tmp_path):
        corpus = Corpus(*id_columns(["a"]), np.array([0, 1]), np.array([2]), np.int64(3))
        assert type(corpus.topic_count) is int
        save_corpus(corpus, tmp_path / "corpus.jsonl")
        assert load_corpus(tmp_path / "corpus.jsonl") == corpus

    @pytest.mark.parametrize("topic_count", [3.0, True, "3", np.True_])
    def test_rejects_a_topic_count_that_is_no_integer(self, topic_count):
        message = f"topic_count must be an integer, got {topic_count!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Corpus(*id_columns(["a"]), np.array([0, 1]), np.array([0]), topic_count)

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
        assert (corpus.id_bytes.dtype, corpus.idptr.dtype) == (np.uint8, np.int64)
        assert (corpus.indptr.dtype, corpus.indices.dtype) == (np.int64, np.int32)
        assert corpus.idptr.shape == (21,) and corpus.idptr[-1] == corpus.id_bytes.size
        assert corpus.indptr.shape == (21,) and corpus.indptr[-1] == corpus.indices.size
        for column in (corpus.id_bytes, corpus.idptr, corpus.indptr, corpus.indices):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = column[0]

    def test_arrays_whose_dtype_fits_are_kept_without_a_copy(self):
        id_bytes, idptr = np.frombuffer(b"ab", np.uint8).copy(), np.array([0, 1, 2])
        indptr = np.array([0, 1, 3])
        indices = np.array([0, 0, 2], dtype=np.int32)
        corpus = Corpus(id_bytes, idptr, indptr, indices, topic_count=3)
        assert corpus.id_bytes is id_bytes
        assert corpus.idptr is idptr
        assert corpus.indptr is indptr
        assert corpus.indices is indices

    def test_checks_hold_bool_masks_only(self):
        # 10^6 documents holding 1.2 * 10^6 topic ids, built as arrays whose
        # dtypes fit: the checks' masks take about 2.3 MiB, and one int64
        # temporary a document would take 7.6 MiB more. ASCII ids take no
        # decode pass.
        n = 10**6
        lengths = np.ones(n, np.int64)
        lengths[::5] = 2
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        indices = (np.arange(indptr[-1]) - np.repeat(indptr[:-1], lengths)).astype(np.int32)
        id_bytes, idptr = id_columns(f"d{d}" for d in range(n))
        tracemalloc.start()
        try:
            Corpus(id_bytes, idptr, indptr, indices, topic_count=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_utf8_ids_are_checked_a_slice_at_a_time(self):
        # 10^6 ids of "é" and digits, 7.9 MB: decoded a slice at a time and
        # their starts tested a slice of offsets at a time, they trace about
        # 2 MiB; decoded at once beside a lead-byte mask, 22.6 MiB.
        n = 10**6
        columns = *id_columns(f"é{d}" for d in range(n)), np.arange(n + 1), np.zeros(n, np.int32)
        tracemalloc.start()
        try:
            Corpus(*columns, topic_count=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @given(
        st.lists(st.sampled_from([b"a", b"\xc3\xa9", "ド".encode(), b"\xf0\x9f\x98\x80", b"",
                                  b"\xff", b"\x80", b"\xc3", b"\xe3\x83", b"\xed\xa0\x80"]),
                 min_size=1, max_size=12),
        st.integers(1, 5),
    )
    @settings(max_examples=300)
    def test_a_slice_cut_anywhere_finds_the_error_of_a_whole_decode(self, pieces, slice_bytes):
        # Ids of whole or broken UTF-8 pieces, checked in slices of 1 to 5
        # bytes and offsets: the first bad byte and its reason, or the first
        # id that starts inside a character, as the whole decode finds them.
        data = b"".join(pieces)
        idptr = np.cumsum([0, *map(len, pieces)])
        try:
            data.decode()
        except UnicodeDecodeError as exc:
            expected = f"id byte {exc.start} is not UTF-8 ({exc.reason})"
        else:
            cut = [d for d, at in enumerate(idptr[:-1]) if at < len(data) and data[at] & 0xC0 == 0x80]
            expected = f"document {cut[0]}'s id starts inside a UTF-8 character" if cut else None
        columns = np.frombuffer(data, np.uint8), idptr, np.arange(len(pieces) + 1)
        with mock.patch("fomo.corpus.BLOCK_BYTES", slice_bytes):
            if expected is None:
                Corpus(*columns, np.zeros(len(pieces), int), 1)
            else:
                with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                    Corpus(*columns, np.zeros(len(pieces), int), 1)

    def test_topics_present_and_counts(self):
        corpus = corpus_from_documents(
            (Document("a", (0,)), Document("b", (0, 2))), topic_count=4
        )
        assert corpus.topics_present == frozenset({0, 2})
        assert corpus.topic_counts() == [2, 0, 1, 0]
        assert corpus.empirical_prevalences() == {0: 1.0, 2: 0.5}

    def test_per_topic_counts_take_four_bytes_a_topic(self):
        # Held for the corpus's life, sized by the declared topic count.
        corpus = corpus_from_documents((Document("a", (0,)),), topic_count=MAX_ZIPF_TOPICS)
        assert corpus._topic_counts.dtype == np.int32
        assert corpus.topic_counts()[:2] == [1, 0] and type(corpus.topic_counts()[0]) is int

    def test_per_topic_counts_refuse_a_declared_count_above_the_cap(self):
        corpus = corpus_from_documents((Document("a", (0,)),), topic_count=MAX_ZIPF_TOPICS + 1)
        for read in (Corpus.topic_counts, Corpus.empirical_prevalences):
            with pytest.raises(ValueError, match=f"^topic_count {MAX_ZIPF_TOPICS + 1} is above"):
                read(corpus)
        assert corpus_from_documents((Document("a", (0,)),), MAX_ZIPF_TOPICS).topics_present == {0}


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

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "v2.jsonl"
        path.write_text(
            '{"format":"fomo-corpus","version":2,"topic_count":2}\n'
            '{"doc_id":"a","topics":[0]}\n',
            encoding="utf-8",
        )
        with pytest.raises(CorpusFormatError, match="^line 1: unsupported version 2$"):
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
        assert doc_ids_of(load_corpus(path)) == ids
        path.write_text("\n".join([HEADER_3, *saved, *spaced, ""]), encoding="utf-8")
        assert doc_ids_of(load_corpus(path)) == ids + ids

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
        assert len(corpus) == 10_001 and corpus.doc_id(5_000) == "x" * 2**20
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


# Ids save_corpus writes without any escape: every character UTF-8
# encodes but quote, backslash and control characters below U+0020, with
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


@given(corpora(UNESCAPED_IDS), st.data())
@settings(max_examples=200, deadline=None)
def test_saved_ids_load_back_with_array_operations(tmp_path_factory, corpus, data):
    path = tmp_path_factory.getbasetemp() / "unescaped.jsonl"
    save_corpus(corpus, path)
    # The same lines in saved form, each listing its topic ids in any order.
    listed = tmp_path_factory.getbasetemp() / "listed.jsonl"
    lines = [
        json.dumps({"doc_id": doc_id, "topics": data.draw(st.permutations(topics))},
                   separators=(",", ":"), ensure_ascii=False)
        for doc_id, topics in documents_of(corpus)
    ]
    header = path.read_text(encoding="utf-8").split("\n", 1)[0]
    listed.write_text("\n".join([header, *lines, ""]), encoding="utf-8")
    for block_bytes in BLOCK_SIZES:
        with mock.patch("fomo.corpus.BLOCK_BYTES", block_bytes), mock.patch(
            "fomo.corpus._parse_record", refuse_per_line_parse
        ):
            assert load_corpus(path) == corpus
            assert load_corpus(listed) == corpus


def test_a_block_takes_the_lines_whose_bounds_fit_the_budget(tmp_path):
    # A line's bound is its 25-byte frame, its id's bytes and a slot of
    # digits + 1 bytes a topic: 29 bytes for "d<d>" and one 1-digit topic,
    # 1,027 for the 1,000-byte id. A block takes the leading lines whose
    # bounds, times 8, sum to at most the budget; a line over the budget
    # is a block of its own.
    documents = [Document(f"d{d}", (d % 7,)) for d in range(10)]
    documents.insert(5, Document("x" * 1000, (1,)))
    corpus = corpus_from_documents(documents, 7)
    lines = "".join(
        json.dumps({"doc_id": doc_id, "topics": list(topics)}, separators=(",", ":")) + "\n"
        for doc_id, topics in documents
    )
    for budget, blocks in [
        (3 * 29 * 8, [3, 2, 1, 3, 2]),  # three lines exactly at the budget
        (3 * 29 * 8 - 1, [2, 2, 1, 1, 2, 2, 1]),  # one byte under: two
        (1_027 * 8, [5, 1, 5]),
        (1, [1] * 11),
    ]:
        path = tmp_path / f"{budget}.jsonl"
        with mock.patch("fomo.corpus.SAVE_BLOCK_BYTES", budget), mock.patch(
            "fomo.corpus._saved_block", wraps=fomo.corpus._saved_block
        ) as encode:
            save_corpus(corpus, path)
        assert [stop - start for _, start, stop, _ in (c.args for c in encode.call_args_list)] == blocks
        assert path.read_text(encoding="utf-8").split("\n", 1)[1] == lines


@pytest.mark.parametrize("width", [1, 2, 40, 1_000, 10**5])
def test_saved_ids_of_every_width_load_back_byte_for_byte(tmp_path, width):
    # One gather takes a saved-form block's ids, whatever their widths:
    # UTF-8, empty, short and long ids keep every byte, in order.
    ids = ["", "é", "d7", "ド" * width, "\U0001f600", *(f"d{d}" for d in range(300)), ""]
    text = "".join('{"doc_id":"%s","topics":[0]}\n' % doc_id for doc_id in ids)
    id_bytes, sizes, _, _ = fomo.corpus._saved_lines(text)
    expected, idptr = id_columns(ids)
    assert id_bytes.tobytes() == expected.tobytes()
    assert np.array_equal(sizes, np.diff(idptr))
    corpus = corpus_from_documents([Document(doc_id, (0,)) for doc_id in ids], 1)
    save_corpus(corpus, tmp_path / "widths.jsonl")
    assert (tmp_path / "widths.jsonl").read_text(encoding="utf-8").split("\n", 1)[1] == text
    assert load_corpus(tmp_path / "widths.jsonl") == corpus


@pytest.mark.parametrize("doc_count", [1, 9, 10, 11, 99, 100, 101, 1000, 1001])
def test_generated_ids_are_d_and_the_document_number(doc_count):
    corpus = generate_corpus(doc_count, TopicDistribution((1.0,)), seed=0)
    assert doc_ids_of(corpus) == [f"d{d}" for d in range(doc_count)]


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
def test_topic_ids_are_checked_once_per_block(tmp_path, block_bytes):
    # Each block is checked as it is read, and the joined arrays once
    # more, as any corpus is, when the corpus is built.
    corpus = generate_corpus(300, zipf_prevalences(8, 0.5, 0.05), seed=4)
    path = tmp_path / "checked.jsonl"
    save_corpus(corpus, path)
    with mock.patch("fomo.corpus.BLOCK_BYTES", block_bytes), mock.patch(
        "fomo.corpus._first_disordered", wraps=fomo.corpus._first_disordered
    ) as check:
        loaded = load_corpus(path)
        with open(path, "r", encoding="utf-8") as fh:
            fh.readline()  # the header
            blocks = sum(1 for _ in fomo.corpus._line_blocks(fh))
    assert blocks > 1 if block_bytes < BLOCK_BYTES else blocks == 1
    assert loaded == corpus
    assert check.call_count == blocks + 1
    for array in (loaded.id_bytes, loaded.idptr, loaded.indptr, loaded.indices):
        assert not array.flags.writeable
    assert (loaded.indptr.dtype, loaded.indices.dtype) == (np.int64, np.int32)


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
def test_a_saved_form_block_with_unsorted_ids_loads_with_array_operations(tmp_path, block_bytes):
    # Line 9 lists [2,0]: its block is sorted as a whole, not read line by line.
    lines = ['{"doc_id":"d%d","topics":[%d]}' % (d, d % 3) for d in range(20)]
    lines[7] = '{"doc_id":"d7","topics":[2,0]}'
    path = tmp_path / "unsorted.jsonl"
    path.write_text("\n".join([HEADER_3, *lines, ""]), encoding="utf-8")
    expected = [Document(f"d{d}", (d % 3,)) for d in range(20)]
    expected[7] = Document("d7", (0, 2))
    with mock.patch("fomo.corpus.BLOCK_BYTES", block_bytes), mock.patch(
        "fomo.corpus._parse_record", refuse_per_line_parse
    ):
        assert load_corpus(path) == corpus_from_documents(expected, 3)


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
@pytest.mark.parametrize("unsorted_at", [3, 12])
@pytest.mark.parametrize(
    "bad, message",
    [("[1,1]", r"duplicate topic ids in \[1, 1\]"), ("[5,2]", "topic id 5 outside 0..2")],
)
def test_a_bad_id_beside_unsorted_ids_names_its_line(
    tmp_path, block_bytes, unsorted_at, bad, message
):
    # Line 9 breaks the id rule, and a line before or after it in saved
    # form lists [2,0]: sorting that line's block leaves line 9 at fault.
    lines = ['{"doc_id":"d%d","topics":[%d]}' % (d, d % 3) for d in range(20)]
    lines[unsorted_at - 2] = '{"doc_id":"u","topics":[2,0]}'
    lines[7] = '{"doc_id":"d7","topics":%s}' % bad
    path = tmp_path / "unsorted_and_bad.jsonl"
    path.write_text("\n".join([HEADER_3, *lines, ""]), encoding="utf-8")
    with mock.patch("fomo.corpus.BLOCK_BYTES", block_bytes):
        with pytest.raises(CorpusFormatError, match=f"^line 9: {message}$"):
            load_corpus(path)


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


# Ids of every kind save_corpus meets: ASCII, any UTF-8, and the ones it
# must escape or must not lose (quote, backslash, NUL first, inside and
# last, other control characters), U+2028, the empty id and a long one.
SAVED_IDS = st.one_of(
    st.text(st.characters(codec="ascii"), max_size=8),
    st.text(st.characters(codec="utf-8"), max_size=8),
    st.sampled_from(
        ['"', "\\", "\x00", "\x00a", "a\x00b", "a\x00", "\x1f", "\n\t", "\x7f", "\u2028", "",
         "x" * 10**4]
    ),
)


@st.composite
def topic_lists(draw, limit):
    """Sorted topic ids below ``limit``: a few, or now and then hundreds,
    spread up to the largest id."""
    if draw(st.integers(0, 9)):
        return sorted(draw(st.sets(st.integers(0, limit - 1), min_size=1, max_size=4)))
    count = draw(st.integers(1, min(limit, 500)))
    step = draw(st.integers(1, max(1, (limit - 1) // max(1, count - 1))))
    offset = draw(st.integers(0, limit - 1 - (count - 1) * step))
    return list(range(offset, offset + count * step, step))


@st.composite
def saved_corpora(draw):
    topic_count = draw(st.sampled_from([1, 7, 10, 11, 1000, MAX_TOPIC_ID + 1, 2**40]))
    limit = min(topic_count, MAX_TOPIC_ID + 1)
    documents = draw(st.lists(
        st.builds(Document, SAVED_IDS, topic_lists(limit)), min_size=1, max_size=20
    ))
    return corpus_from_documents(documents, topic_count)


@given(saved_corpora(), st.sampled_from([1, 2_000, 20_000, SAVE_BLOCK_BYTES]))
@settings(max_examples=300, deadline=None)
def test_each_saved_line_is_json_dumps_of_its_document(tmp_path_factory, corpus, block_bytes):
    # A line's bound, times 8, is 216 bytes or more. A budget of 1 byte
    # gives every line a block of its own; 2,000 bytes give blocks of a few
    # short lines, escaped ones among them, and a block of its own to a
    # line of a long id or hundreds of topics; 20,000 bytes give blocks of
    # many lines, hundreds of topics among them, and a block of its own to
    # a line of the 10^4-character id.
    path = tmp_path_factory.getbasetemp() / "oracle.jsonl"
    with mock.patch("fomo.corpus.SAVE_BLOCK_BYTES", block_bytes):
        save_corpus(corpus, path)
    lines = [
        json.dumps({"doc_id": doc_id, "topics": list(topics)}, separators=(",", ":"),
                   ensure_ascii=False) + "\n"
        for doc_id, topics in documents_of(corpus)
    ]
    header = '{"format":"fomo-corpus","version":1,"topic_count":%d}\n' % corpus.topic_count
    assert path.read_bytes() == (header + "".join(lines)).encode()
    assert load_corpus(path) == corpus


def test_saving_a_large_corpus_keeps_memory_bounded(tmp_path):
    # One block of all 200,000 lines would take about 7 MB of buffer and as
    # much again in each span mask; blocks of SAVE_BLOCK_BYTES keep the
    # peak near one block's working memory, whatever the document count.
    corpus = generate_corpus(200_000, zipf_prevalences(64, 0.36, 1 / 8571), seed=7)
    tracemalloc.start()
    try:
        save_corpus(corpus, tmp_path / "large.jsonl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * SAVE_BLOCK_BYTES


@pytest.mark.parametrize(
    "doc_count, topics, shift",
    [(40_000, 10, 0), (4_000, 1_000, 0), (4_000, 1_000, 2**31 - 1_000)],
    ids=["1-digit", "3-digit", "10-digit"],
)
def test_saving_many_topics_a_document_stays_near_the_budget(tmp_path, doc_count, topics, shift):
    # Documents of about half their topics, ids shifted to 10 digits in the
    # last case: beside its bytes in the block's buffer and its two span
    # masks, each topic takes its slot of digits + 1 bytes, the slot's
    # nonzero mask, its text and the _digits temporaries. A block charged
    # 8 times its lines' bounds stays well under twice the budget.
    drawn = generate_corpus(doc_count, TopicDistribution((0.5,) * topics), seed=3)
    ids = (drawn.id_bytes, drawn.idptr)
    corpus = Corpus(*ids, drawn.indptr, drawn.indices + shift, topics + shift)
    path = tmp_path / "many.jsonl"
    tracemalloc.start()
    try:
        save_corpus(corpus, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * SAVE_BLOCK_BYTES
    lines = [
        json.dumps({"doc_id": doc_id, "topics": list(topics)}, separators=(",", ":")) + "\n"
        for doc_id, topics in documents_of(corpus)
    ]
    header = '{"format":"fomo-corpus","version":1,"topic_count":%d}\n' % corpus.topic_count
    assert path.read_bytes() == (header + "".join(lines)).encode()


@pytest.mark.parametrize("char", ["x", "é"])
def test_a_long_id_is_saved_within_a_few_times_its_bytes(tmp_path, char):
    # The line is a block of its own: its buffer, two span masks and the
    # id's escape test take a few times the id's bytes.
    long_id = Document(char * 2**20, (0,))
    corpus = corpus_from_documents((long_id, Document("d1", (1,))), 2)
    path = tmp_path / "long_id.jsonl"
    tracemalloc.start()
    try:
        save_corpus(corpus, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(long_id.doc_id.encode())
    assert load_corpus(path) == corpus


def test_a_wide_line_costs_only_its_own_bytes(tmp_path):
    # A line of 10^5 topics and a 10^5-character id, about 0.7 MB, between
    # 4,000 short ones: in a block of fixed rows its width would be paid by
    # every row (4,001 rows, 2.8 GB); here the peak stays linear in the line.
    short = [Document(f"d{d}", (d % 7,)) for d in range(4_000)]
    wide = Document("x" * 10**5, tuple(range(10**5)))
    corpus = corpus_from_documents([*short[:2_000], wide, *short[2_000:]], 10**5)
    line = len('{"doc_id":"%s","topics":[%s]}\n' % (wide.doc_id, ",".join(map(str, wide.topics))))
    tracemalloc.start()
    try:
        save_corpus(corpus, tmp_path / "wide.jsonl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * line
    assert load_corpus(tmp_path / "wide.jsonl") == corpus


def test_no_document_line_goes_through_json_dumps(tmp_path):
    # A line over the block budget, for its long id or its many topics,
    # is encoded as a block of its own: json.dumps writes the header
    # alone, and stays the oracle of every line.
    dumps = json.dumps

    def header_only(obj, **kwargs):
        if "doc_id" in obj:
            raise AssertionError(f"json.dumps wrote a document line: {str(obj)[:40]}")
        return dumps(obj, **kwargs)

    long_id = [Document("x" * 2**20, (0,)), Document("d1", (1,))]
    short = [Document(f"d{d}", (d % 7,)) for d in range(4_000)]
    wide = [*short[:2_000], Document("x" * 10**5, tuple(range(10**5))), *short[2_000:]]
    for name, documents, topic_count in [("long_id", long_id, 2), ("wide", wide, 10**5)]:
        path = tmp_path / f"{name}.jsonl"
        with mock.patch("fomo.corpus.json.dumps", header_only):
            save_corpus(corpus_from_documents(documents, topic_count), path)
        lines = [
            dumps({"doc_id": doc_id, "topics": list(topics)}, separators=(",", ":")) + "\n"
            for doc_id, topics in documents
        ]
        header = '{"format":"fomo-corpus","version":1,"topic_count":%d}\n' % topic_count
        assert path.read_bytes() == (header + "".join(lines)).encode()


def generated_by_oracle(doc_count, prevalences, seed):
    """The corpus generate_corpus draws, one document at a time from the
    sequential SplitMix64 stream keyed by (seed, d): round r tests topic i
    with draw r*m + i + 1, and the first round with a topic wins."""
    thresholds = [min(int(Fraction(q) * 2**64), MASK64) for q in prevalences]
    documents = []
    for d in range(doc_count):
        stream = SplitMix64(mix64(mix64(seed) + (d + 1) * GAMMA))
        topics = ()
        while not topics:
            topics = tuple(i for i, cut in enumerate(thresholds) if stream.next_u64() < cut)
        documents.append(Document(f"d{d}", topics))
    return corpus_from_documents(documents, len(prevalences))


@pytest.mark.parametrize(
    "prevalences, doc_count, block_draws",
    [
        ((0.3, 1.0, 0.05, 1.0), 500, BLOCK_DRAWS),  # topics present in every round
        ((0.05, 0.02), 3_000, BLOCK_DRAWS),  # most rounds empty
        ((0.4, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005), 500, 100),  # blocks of 14 documents
    ],
)
def test_generation_matches_a_per_document_oracle(monkeypatch, prevalences, doc_count, block_draws):
    monkeypatch.setattr("fomo.corpus.BLOCK_DRAWS", block_draws)
    generated = generate_corpus(doc_count, TopicDistribution(prevalences), seed=13)
    assert generated == generated_by_oracle(doc_count, prevalences, seed=13)
