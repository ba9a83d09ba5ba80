"""Topic prevalence models and multi-label corpora.

A corpus is an ordered list of documents, each tagged with one or more
integer topic ids. Real assignments are loaded from a JSON-lines file;
synthetic ones are generated from a prevalence vector, with topic
frequencies following a power law between a chosen most-common and
rarest prevalence.

In memory a corpus is columnar, in compressed sparse row (CSR) form:

    doc_ids   n ids, numpy ``StringDType``; an id of up to 15 bytes of
              UTF-8 sits inside its 16-byte element
    indptr    int64, n + 1 entries; document d's topics are
              ``indices[indptr[d]:indptr[d + 1]]``
    indices   int32, sorted and unique within each document

A document with a short id therefore costs 24 bytes plus 4 per topic:
about 29 bytes at the study calibration's ~1.2 topics per document, or
about 64 MB for a 2,202,935-document production. The arrays are
read-only, and they are the only form a corpus takes in the package.

File format (UTF-8, one JSON object per line):

    {"format":"fomo-corpus","version":1,"topic_count":<m>}
    {"doc_id":"<id>","topics":[0,3]}
    ...

Topics are written sorted ascending without duplicates, and line order
is the corpus's accession order. ``load_corpus(save_corpus(c)) == c``
bit for bit. The loader reads blocks of whole lines: a block whose lines
are all in the form save_corpus writes is checked and parsed with array
operations, any other block line by line as JSON, and each block's topic
ids are checked as it is read.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring

import numpy as np
from numpy.dtypes import StringDType

from .prng import check_probabilities, derive_key_array, stream_u64, u64_thresholds

__all__ = [
    "TopicDistribution",
    "Corpus",
    "CorpusFormatError",
    "DegenerateDistributionError",
    "zipf_prevalences",
    "generate_corpus",
    "save_corpus",
    "load_corpus",
]

CORPUS_FORMAT = "fomo-corpus"
CORPUS_VERSION = 1

# The largest topic id the int32 ``indices`` column holds.
MAX_TOPIC_ID = int(np.iinfo(np.int32).max)

# Documents per block when saving, draws (about 17 bytes each) per block
# when generating, and characters (bytes, in an ASCII file) read per block
# when loading: they bound the working memory beside the corpus itself,
# and change no output byte.
BLOCK_DOCUMENTS = 1 << 12
BLOCK_DRAWS = 1 << 18
BLOCK_BYTES = 1 << 17

# The most topics zipf_prevalences builds and documents generate_corpus
# draws (4.5 times the paper's 2,202,935-document production, about 1 GiB
# to generate), each checked before any allocation.
MAX_ZIPF_TOPICS = 10**6
MAX_DOCUMENTS = 10**7


class CorpusFormatError(ValueError):
    """A corpus file does not parse or violates the format contract."""


class DegenerateDistributionError(ValueError):
    """A prevalence vector that would make generation loop forever."""


@dataclass(frozen=True)
class TopicDistribution:
    """Marginal probability that a document contains each topic.

    Documents are multi-label, so the prevalences do not need to sum
    to 1 (and usually sum above it for realistic corpora).
    """

    prevalences: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.prevalences:
            raise ValueError("a topic distribution needs at least one topic")
        check_probabilities(self.prevalences, "prevalence of topic {}")

    def __len__(self) -> int:
        return len(self.prevalences)

    def empty_document_probability(self) -> float:
        """Chance an unconditioned draw contains no topic at all."""
        if any(q >= 1.0 for q in self.prevalences):
            return 0.0
        return math.exp(math.fsum(math.log1p(-q) for q in self.prevalences))

    def expected_topics_per_document(self) -> float:
        """Mean topic count per document, given documents are nonempty.

        Rejecting empty draws scales every marginal by the same factor
        1 / (1 - P(empty)), so the conditional mean is
        sum(q) / (1 - prod(1 - q)).
        """
        return math.fsum(self.prevalences) / (1.0 - self.empty_document_probability())


def _frozen(values, dtype) -> np.ndarray:
    """``values`` as a read-only array, copied only to change its dtype."""
    frozen = np.asarray(values, dtype=dtype)
    frozen.flags.writeable = False
    return frozen


def _first_disordered(indices: np.ndarray, indptr: np.ndarray, limit: int) -> int | None:
    """The first document whose topic ids are not strictly increasing
    within ``0..limit-1``, or None. Every document must be nonempty."""
    bad = (indices < 0) | (indices >= limit)
    falls = indices[1:] <= indices[:-1]
    falls[indptr[1:-1] - 1] = False  # a document may start below the last one's end
    bad[1:] |= falls
    first = np.flatnonzero(bad)[:1]
    return int(np.searchsorted(indptr, first[0], side="right")) - 1 if first.size else None


@dataclass(frozen=True, eq=False, repr=False)
class Corpus:
    """Documents in accession order, as read-only CSR arrays.

    See the module docstring for the layout. Every document carries at
    least one topic id below ``topic_count``; each document's topics are
    sorted and unique. An array passed in whose dtype already fits is
    kept without a copy and made read-only in place.
    """

    doc_ids: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    topic_count: int

    def __post_init__(self) -> None:
        if self.topic_count < 1:
            raise ValueError(f"topic_count must be >= 1, got {self.topic_count}")
        doc_ids = _frozen(self.doc_ids, StringDType())
        indptr = _frozen(self.indptr, np.int64)
        indices = np.asarray(self.indices)
        n = doc_ids.size
        if not n:
            raise ValueError("a corpus must contain at least one document")
        if indices.size and indices.dtype.kind not in "iu":
            raise ValueError(f"topic ids must be integers, got {indices.dtype}")
        if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError(f"indptr must hold {n + 1} offsets from 0 to {indices.size}")
        empty = np.flatnonzero(np.diff(indptr) < 1)
        if empty.size:
            d = int(empty[0])
            raise ValueError(f"document {d} ({doc_ids[d]!r}) has no topics")
        limit = min(self.topic_count, MAX_TOPIC_ID + 1)
        d = _first_disordered(indices, indptr, limit)
        if d is not None:
            topics = tuple(indices[indptr[d] : indptr[d + 1]].tolist())
            raise ValueError(
                f"document {d}: topic ids must be strictly increasing within "
                f"0..{limit - 1}, got {topics}"
            )
        indices = _frozen(indices, np.int32)
        object.__setattr__(self, "doc_ids", doc_ids)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return self.doc_ids.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self.topic_count == other.topic_count
            and np.array_equal(self.doc_ids, other.doc_ids)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:
        return f"Corpus({len(self)} documents, topic_count={self.topic_count})"

    @cached_property
    def topics_present(self) -> frozenset[int]:
        """Topic ids that occur in some document."""
        return frozenset(np.flatnonzero(self._topic_counts).tolist())

    @cached_property
    def _topic_counts(self) -> np.ndarray:
        # Sized by the declared topic_count: a huge declared count fails
        # here at once with MemoryError.
        return np.bincount(self.indices, minlength=self.topic_count)

    @cached_property
    def absent_topics(self) -> tuple[int, ...]:
        """Topic ids below ``topic_count`` that no document carries."""
        return tuple(np.flatnonzero(self._topic_counts == 0).tolist())

    def topic_counts(self) -> list[int]:
        """Number of documents carrying each topic id."""
        return self._topic_counts.tolist()

    def empirical_prevalences(self) -> dict[int, float]:
        """Observed document fraction per topic, for topics that occur."""
        n = len(self)
        counts = self._topic_counts
        present = np.flatnonzero(counts)
        return {t: c / n for t, c in zip(present.tolist(), counts[present].tolist())}


def zipf_prevalences(
    topic_count: int, max_prevalence: float, min_prevalence: float
) -> TopicDistribution:
    """Power-law prevalences hitting the given extremes exactly.

    q_i = max_prevalence / (i+1)**s with the exponent calibrated so that
    q_0 = max_prevalence and q_{m-1} = min_prevalence. The extremes are
    usually what is known about a collection; the exponent is implied,
    not assumed.
    """
    if not 2 <= topic_count <= MAX_ZIPF_TOPICS:
        raise ValueError(f"topic_count must be in 2..{MAX_ZIPF_TOPICS}, got {topic_count}")
    if not 0.0 < min_prevalence <= max_prevalence <= 1.0:
        raise ValueError(
            f"need 0 < min <= max <= 1, got min={min_prevalence}, max={max_prevalence}"
        )
    s = math.log(max_prevalence / min_prevalence) / math.log(topic_count)
    return TopicDistribution(
        tuple(max_prevalence / (i + 1) ** s for i in range(topic_count))
    )


def generate_corpus(doc_count: int, dist: TopicDistribution, seed: int) -> Corpus:
    """Draw a synthetic multi-label corpus from a prevalence vector.

    Each document includes each topic independently with its prevalence;
    documents that come out empty are redrawn until nonempty (which
    inflates every marginal by 1 / (1 - P(empty)) - negligible when the
    prevalences sum to around 1). Document d is named ``d<d>``.

    Document d's draws come from the SplitMix64 stream keyed by
    (seed, d): redraw round r tests topic i with draw number r*m + i + 1.
    Generation is therefore order-independent and reproducible across
    platforms; blocks of ``max(1, BLOCK_DRAWS // m)`` documents are drawn.

    Raises:
        DegenerateDistributionError: if P(empty document) >= 1 - 1e-9,
            where redrawing would effectively never terminate.
    """
    if not 1 <= doc_count <= MAX_DOCUMENTS:
        raise ValueError(f"doc_count must be in 1..{MAX_DOCUMENTS}, got {doc_count}")
    empty_prob = dist.empty_document_probability()
    if empty_prob >= 1.0 - 1e-9:
        raise DegenerateDistributionError(
            f"empty-document probability {empty_prob} leaves nothing to draw"
        )

    q = np.asarray(dist.prevalences, dtype=float)
    m = len(q)
    always = q >= 1.0
    thresholds = u64_thresholds(q)  # Bernoulli(q) as draw < threshold
    first_round = np.arange(1, m + 1, dtype=np.uint64)

    block = max(1, BLOCK_DRAWS // m)
    lengths = np.empty(doc_count, dtype=np.int64)
    topic_blocks = []
    for start in range(0, doc_count, block):
        stop = min(start + block, doc_count)
        keys = derive_key_array(seed, np.arange(start, stop, dtype=np.uint64))
        included = np.zeros((stop - start, m), dtype=bool)
        pending = np.arange(stop - start)
        round_index = 0
        while pending.size:
            counters = first_round + np.uint64(round_index * m)
            drawn = stream_u64(keys[pending, None], counters) < thresholds
            drawn[:, always] = True
            nonempty = drawn.any(axis=1)
            included[pending[nonempty]] = drawn[nonempty]
            pending = pending[~nonempty]
            round_index += 1
        lengths[start:stop] = included.sum(axis=1)
        topic_blocks.append(np.nonzero(included)[1].astype(np.int32))

    return Corpus(
        doc_ids=np.strings.add("d", np.arange(doc_count).astype(StringDType())),
        indptr=np.concatenate(([0], np.cumsum(lengths))),
        indices=np.concatenate(topic_blocks),
        topic_count=m,
    )


def save_corpus(corpus: Corpus, path: str | os.PathLike) -> None:
    """Write the JSON-lines corpus format; the exact inverse of load_corpus.

    Each line is what ``json.dumps({"doc_id": ..., "topics": [...]},
    separators=(",", ":"), ensure_ascii=False)`` gives, built a block of
    documents at a time. Ids are UTF-8, escaped only for quote, backslash
    and control characters, so a line whose id holds none of these is in
    the form the loader parses with array operations.
    """
    header = {
        "format": CORPUS_FORMAT,
        "version": CORPUS_VERSION,
        "topic_count": corpus.topic_count,
    }
    indptr = corpus.indptr
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for start in range(0, len(corpus), BLOCK_DOCUMENTS):
            stop = min(start + BLOCK_DOCUMENTS, len(corpus))
            ends = (indptr[start : stop + 1] - indptr[start]).tolist()
            topics = list(map(str, corpus.indices[indptr[start] : indptr[stop]].tolist()))
            ids = map(encode_basestring, corpus.doc_ids[start:stop].tolist())
            lines = [
                '{"doc_id":%s,"topics":[%s]}\n' % (doc_id, ",".join(topics[a:b]))
                for doc_id, a, b in zip(ids, ends, ends[1:])
            ]
            fh.write("".join(lines))


def _format_error(line_number: int, message: str) -> CorpusFormatError:
    return CorpusFormatError(f"line {line_number}: {message}")


def _decoded(number: int, raw: str):
    """The JSON value of line ``number``; any failure is a ``line N:`` error."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _format_error(number, f"invalid JSON ({exc.msg})") from exc
    except RecursionError:
        raise _format_error(number, "invalid JSON (nested too deeply)") from None
    except ValueError:  # an integer of more digits than int() converts
        raise _format_error(number, "invalid JSON (an integer with too many digits)") from None


# Files are read with errors="surrogateescape", so a byte that is not
# UTF-8 reads as a lone surrogate; a JSON escape can spell one too.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _check_bytes(number: int, line: str) -> None:
    """Raise the error of a line as read that holds a byte that is not UTF-8."""
    escaped = _SURROGATE.search(line)
    if escaped:
        raise _format_error(number, f"invalid UTF-8 byte 0x{ord(escaped[0]) - 0xDC00:02x}")


def _topics_problem(topics: list[int], topic_count: int) -> str | None:
    """What is wrong with a document's integer topic ids, if anything."""
    if len(set(topics)) != len(topics):
        return f"duplicate topic ids in {topics}"
    for t in topics:
        if not 0 <= t < topic_count:
            return f"topic id {t} outside 0..{topic_count - 1}"
        if t > MAX_TOPIC_ID:
            return f"topic id {t} above the largest supported id {MAX_TOPIC_ID}"
    return None


def _parse_record(number: int, raw: str, topic_count: int) -> tuple[str, list[int]]:
    """Parse and check one document line of any valid JSON spelling."""
    _check_bytes(number, raw)
    if not raw.strip():
        raise _format_error(number, "blank line")
    record = _decoded(number, raw)
    if not isinstance(record, dict):
        raise _format_error(number, "expected an object")
    doc_id = record.get("doc_id")
    if not isinstance(doc_id, str) or _SURROGATE.search(doc_id):
        raise _format_error(number, f"bad doc_id {doc_id!r}")
    topics = record.get("topics")
    if not isinstance(topics, list) or not all(
        isinstance(t, int) and not isinstance(t, bool) for t in topics
    ):
        raise _format_error(number, f"bad topics {topics!r}")
    if not topics:
        raise _format_error(number, f"document {doc_id!r} has no topics")
    problem = _topics_problem(topics, topic_count)
    if problem:
        raise _format_error(number, problem)
    return doc_id, topics


def _sorted_topics(
    topics: np.ndarray, line_ends: np.ndarray, first_line: int, topic_count: int
) -> np.ndarray:
    """Check the topic ids of a block of document lines, numbered from
    ``first_line``, as written (flat, with line i's ending at
    ``line_ends[i]``), and return them sorted within each document.
    Raises the error of the first line with a repeated or out-of-range id."""
    indptr = np.concatenate(([0], line_ends))
    if _first_disordered(topics, indptr, topic_count) is None:
        return topics
    lengths = np.diff(indptr)
    ordered = topics[np.lexsort((topics, np.repeat(np.arange(lengths.size), lengths)))]
    d = _first_disordered(ordered, indptr, topic_count)
    if d is None:
        return ordered
    listed = topics[indptr[d] : indptr[d + 1]].tolist()
    raise _format_error(first_line + d, _topics_problem(listed, topic_count))


# A document line as save_corpus writes it is _HEAD, an id without
# quote, backslash, control character or surrogate, _MIDDLE, one or more
# topic ids of 1 to 9 digits without leading zeros joined by commas, and
# "]}". The fixed parts are compared as 8-byte words read at any byte.
_HEAD = b'{"doc_id":"'
_MIDDLE = b'","topics":['
_POW10 = 10 ** np.arange(9, dtype=np.intc)
# What each byte of a topic list may be: 1 a digit, 2 a comma, 3 the "]".
_TOPIC_BYTE = np.zeros(256, np.uint8)
_TOPIC_BYTE[list(b"0123456789")] = 1
_TOPIC_BYTE[list(b",]")] = 2, 3


def _words(data: bytes) -> np.ndarray:
    """The 8-byte word, in native order, starting at each byte of ``data``."""
    return np.ndarray((len(data) - 7,), np.uint64, data, 0, (1,))


_HEAD_WORDS = _words(_HEAD)[[0, 3]]
_MIDDLE_WORDS = _words(_MIDDLE)[[0, 4]]


def _spans(size: int, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """A mask of ``size`` entries, true on each ``[starts[i], stops[i])``;
    the spans are in order and do not overlap."""
    bounds = np.empty(2 * starts.size + 2, np.int64)
    bounds[0], bounds[-1] = 0, size
    bounds[1:-1:2], bounds[2:-1:2] = starts, stops
    inside = np.zeros(bounds.size - 1, bool)
    inside[1::2] = True
    return np.repeat(inside, np.diff(bounds))


def _saved_lines(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The ids, the flat topic ids as written and the running topic count
    at each line's end, for whole lines all in the form save_corpus
    writes; None if any line is in another form."""
    if not text.isascii() and _SURROGATE.search(text):
        return None
    data = (text if text.endswith("\n") else text + "\n").encode()
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    quotes = np.flatnonzero(buf == ord('"'))
    n = ends.size
    if quotes.size != 6 * n or np.count_nonzero(buf < 0x20) != n or b"\\" in data:
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    middles = quotes[3::6]
    closes = ends - 2
    # Row i of six quotes must start at line i's first quote; the fixed
    # parts and topic bytes checked below then leave no other quote in the
    # line. The second test keeps the words read below in bounds.
    if not ((quotes[::6] == starts + 1) & (middles + len(_MIDDLE) < closes)).all():
        return None
    words = _words(data)
    if not (
        (words[starts] == _HEAD_WORDS[0])
        & (words[starts + 3] == _HEAD_WORDS[1])
        & (words[middles] == _MIDDLE_WORDS[0])
        & (words[middles + 4] == _MIDDLE_WORDS[1])
        & (buf[closes] == ord("]"))
        & (buf[closes + 1] == ord("}"))
    ).all():
        return None

    # Each line's topic ids and its closing "]", back to back.
    listed = buf[_spans(buf.size, middles + len(_MIDDLE), closes + 1)]
    kind = _TOPIC_BYTE[listed]
    separators = np.flatnonzero(kind > 1)
    digits = np.diff(separators, prepend=-1) - 1
    if (
        np.count_nonzero(kind == 0)
        or np.count_nonzero(kind == 3) != n
        or not ((digits >= 1) & (digits <= 9)).all()
        or ((listed[separators - digits] == ord("0")) & (digits > 1)).any()
    ):
        return None
    # Each digit times ten to the power of the digits after it in its id.
    values = listed.astype(np.intc) - ord("0")
    values[separators] = 0
    values *= _POW10[np.repeat(separators, digits + 1) - np.arange(1, listed.size + 1)]
    topics = np.add.reduceat(values, np.concatenate(([0], separators[:-1] + 1)), dtype=np.intc)
    line_ends = np.flatnonzero(kind[separators] == 3) + 1

    # The ids, each followed by its closing quote.
    quoted = buf[_spans(buf.size, starts + len(_HEAD), middles + 1)].tobytes()
    ids = np.array(quoted.decode().split('"')[:-1], dtype=StringDType())
    return ids, topics, line_ends


def _parsed_lines(text: str, first_line: int, topic_count: int) -> tuple[np.ndarray, ...]:
    """What _saved_lines returns, for whole lines of any valid JSON
    spelling numbered from ``first_line``; raises the error of the first
    bad line."""
    ids, topics, ends = [], [], []
    for number, raw in enumerate(io.StringIO(text), start=first_line):
        doc_id, listed = _parse_record(number, raw, topic_count)
        ids.append(doc_id)
        topics.extend(listed)
        ends.append(len(topics))
    return np.array(ids, dtype=StringDType()), np.array(topics, np.intc), np.array(ends, np.int64)


def _line_blocks(fh) -> Iterator[str]:
    """The rest of the open file as blocks of whole lines, about
    BLOCK_BYTES characters each; the last may lack its line end."""
    pending = []
    while chunk := fh.read(BLOCK_BYTES):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield "".join([*pending, chunk[:cut]])
            pending = []
        pending.append(chunk[cut:])
    if any(pending):
        yield "".join(pending)


def load_corpus(path: str | os.PathLike) -> Corpus:
    """Read a JSON-lines corpus, preserving line order as accession order.

    Raises CorpusFormatError naming the first offending line for anything
    malformed: bytes that are not UTF-8, bad JSON, a missing or wrong
    header, out-of-range or duplicate topic ids, or a document with no
    topics. Topic ids may be listed in any order; they are stored sorted.

    The file is read in blocks of whole lines, about BLOCK_BYTES each, and
    only the ids, one flat array of topic ids and the document ends are
    kept. A block whose lines are all in the form save_corpus writes is
    checked and parsed with array operations; any other block is parsed
    line by line as JSON. Each block's topic ids are checked and sorted
    before the next block is read, so errors come in line order.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header_line = fh.readline()
        if not header_line.strip():
            raise _format_error(1, "missing header")
        _check_bytes(1, header_line)
        header = _decoded(1, header_line)
        if not isinstance(header, dict) or header.get("format") != CORPUS_FORMAT:
            raise _format_error(1, f"not a {CORPUS_FORMAT} header")
        if header.get("version") != CORPUS_VERSION:
            raise _format_error(1, f"unsupported version {header.get('version')!r}")
        topic_count = header.get("topic_count")
        if type(topic_count) is not int or topic_count < 1:  # bool is not a count
            raise _format_error(1, f"bad topic_count {topic_count!r}")

        id_blocks = []
        topics = array("i")
        ends = array("q", [0])
        for text in _line_blocks(fh):
            first = len(ends) + 1  # the block's first line number
            ids, listed, line_ends = _saved_lines(text) or _parsed_lines(text, first, topic_count)
            listed = _sorted_topics(listed, line_ends, first, topic_count)
            ends.frombytes((line_ends + len(topics)).tobytes())
            topics.frombytes(listed.tobytes())
            id_blocks.append(ids)
    if len(ends) == 1:
        raise CorpusFormatError("corpus file contains a header but no documents")
    doc_ids = np.concatenate(id_blocks)
    del id_blocks  # freed before Corpus's checks allocate their own arrays
    indptr = np.frombuffer(ends, np.int64)
    return Corpus(doc_ids, indptr, np.frombuffer(topics, np.intc), topic_count)
