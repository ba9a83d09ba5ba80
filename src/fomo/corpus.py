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
bit for bit. The loader reads blocks of whole lines: only the form of a
block's lines picks its parser. A block whose lines are all in the form
save_corpus writes is parsed with array operations, any other block line
by line as JSON. Either way, topic ids listed in any order are sorted
with array operations, one stable sort a block.
"""

from __future__ import annotations

import io
import json
import math
import operator
import os
import re
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring

import numpy as np
from numpy.dtypes import StringDType

from .prng import (
    _map_in_order, check_probabilities, derive_key_array, stream_u64, u64_thresholds
)

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

# Draws (about 17 bytes each) per block when generating, bytes of line
# grid per block when saving (see save_corpus), and characters (bytes, in
# an ASCII file) read per block when loading: they bound the working
# memory beside the corpus itself, and change no output byte.
BLOCK_DRAWS = 1 << 18
SAVE_BLOCK_BYTES = 1 << 20
BLOCK_BYTES = 1 << 17

# The most topics zipf_prevalences builds, and a corpus's per-topic counts
# hold, and the most documents generate_corpus draws (4.5 times the paper's
# 2,202,935-document production, about 1 GiB to generate), each checked
# before any allocation.
MAX_ZIPF_TOPICS = 10**6
MAX_DOCUMENTS = 10**7
# The most topic ids generate_corpus expects to store (documents times the
# sum of the prevalences): ten a document at MAX_DOCUMENTS, 4 bytes an id
# and 8 while the blocks are joined. Checked before the first block.
MAX_TOPIC_IDS = 10**8
# The most redraw rounds generate_corpus expects a document to take,
# 1 / (1 - P(empty)), and the most draws it expects to make, documents
# times topics times that: the study calibration takes 1.98 rounds, so
# 1.27e9 draws at MAX_DOCUMENTS. Both are checked before the first block.
MAX_REDRAW_ROUNDS = 10**3
MAX_DRAWS = 2 * 10**9


class CorpusFormatError(ValueError):
    """A corpus file does not parse or violates the format contract."""


class DegenerateDistributionError(ValueError):
    """A prevalence vector whose documents would take too many redraw rounds."""


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
        if max(self.prevalences) >= 1.0:
            return 0.0
        return math.exp(math.fsum(map(math.log1p, map(operator.neg, self.prevalences))))

    def expected_topics_per_document(self) -> float:
        """Mean topic count per document, given documents are nonempty.

        Rejecting empty draws scales every marginal by the same factor
        1 / (1 - P(empty)), so the conditional mean is
        sum(q) / (1 - prod(1 - q)).
        """
        return math.fsum(self.prevalences) / (1.0 - self.empty_document_probability())


def _frozen(values, dtype) -> np.ndarray:
    """``values`` as a read-only array, copied only to change its dtype."""
    # asarray copies a StringDType array to a new StringDType() instance.
    fits = isinstance(values, np.ndarray) and values.dtype == dtype
    frozen = values if fits else np.asarray(values, dtype=dtype)
    frozen.flags.writeable = False
    return frozen


def _first_disordered(indices: np.ndarray, indptr: np.ndarray, limit: int) -> int | None:
    """The first document whose topic ids are not strictly increasing
    within ``0..limit-1``, or None. Every document must be nonempty."""
    bad = np.empty(indices.size, bool)
    np.less_equal(indices[1:], indices[:-1], out=bad[1:])
    bad[indptr[:-1]] = False  # a document may start below the last one's end
    bad |= indices < 0
    bad |= indices >= limit
    first = int(bad.argmax())
    return int(np.searchsorted(indptr, first, side="right")) - 1 if bad[first] else None


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
        # The header's rule: an integer >= 1, a numpy integer stored as int.
        try:
            topic_count = operator.index(self.topic_count)
        except TypeError:
            topic_count = None
        if topic_count is None or isinstance(self.topic_count, bool):
            raise ValueError(f"topic_count must be an integer, got {self.topic_count!r}")
        if topic_count < 1:
            raise ValueError(f"topic_count must be >= 1, got {topic_count}")
        object.__setattr__(self, "topic_count", topic_count)
        doc_ids = _frozen(self.doc_ids, StringDType())
        indptr = np.asarray(self.indptr)
        indices = np.asarray(self.indices)
        n = doc_ids.size
        if not n:
            raise ValueError("a corpus must contain at least one document")
        for array, name in ((indptr, "indptr offsets"), (indices, "topic ids")):
            if array.size and array.dtype.kind not in "iu":
                raise ValueError(f"{name} must be integers, got {array.dtype}")
        indptr = _frozen(indptr, np.int64)
        if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError(f"indptr must hold {n + 1} offsets from 0 to {indices.size}")
        d = int((indptr[1:] <= indptr[:-1]).argmax())  # the first empty document, if any
        if indptr[d + 1] <= indptr[d]:
            raise ValueError(f"document {d} ({doc_ids[d]!r}) has no topics")
        limit = min(self.topic_count, MAX_TOPIC_ID + 1)
        d = _first_disordered(indices, indptr, limit)
        if d is not None:
            topics = tuple(indices[indptr[d] : indptr[d + 1]].tolist())
            raise ValueError(
                f"document {d}: topic ids must be strictly increasing within "
                f"0..{limit - 1}, got {topics}"
            )
        object.__setattr__(self, "doc_ids", doc_ids)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", _frozen(indices, np.int32))

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
        # Sized by the declared topic_count, as is per-topic state built on
        # it (a trial's first positions), so that count is capped here. A
        # count is at most the document count, and 2**31 documents would
        # hold over 48 GiB of ids and offsets, so int32 holds it.
        if self.topic_count > MAX_ZIPF_TOPICS:
            raise ValueError(
                f"topic_count {self.topic_count} is above the limit of {MAX_ZIPF_TOPICS} "
                f"topics that per-topic counts are built for"
            )
        return np.bincount(self.indices, minlength=self.topic_count).astype(np.int32)

    @cached_property
    def _rarest_counts(self) -> np.ndarray:
        # Each document's smallest topic count: a trial that has seen every
        # topic more common than that learns nothing new from the document.
        # 4 bytes a document, kept once a trial has run.
        return np.minimum.reduceat(self._topic_counts[self.indices], self.indptr[:-1])

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
    documents that come out empty are redrawn until nonempty, which
    scales every marginal by 1 / (1 - P(empty)). The factor is near 1
    only when the prevalences sum well above 1: at the study calibration,
    ``zipf_prevalences(64, 0.36, 1 / 8571)``, they sum to 0.609, P(empty)
    is 0.4958 and the factor is 1.98, so the most common topic is in about
    0.71 of the documents. Document d is named ``d<d>``.

    Document d's draws come from the SplitMix64 stream keyed by
    (seed, d): redraw round r tests topic i with draw number r*m + i + 1.
    Generation is therefore order-independent and reproducible across
    platforms. Blocks of ``max(1, BLOCK_DRAWS // m)`` documents are drawn
    on every usable core through ``prng._map_in_order`` and joined in
    document order, so the corpus is the same to the byte on any number
    of cores; BLOCK_DRAWS bounds each worker's working memory.

    Raises:
        ValueError: for a doc_count outside 1..MAX_DOCUMENTS, when
            doc_count times the sum of the prevalences, the topic ids
            to store, is above MAX_TOPIC_IDS, or when the expected draws,
            doc_count * m / (1 - P(empty document)), are above MAX_DRAWS.
        DegenerateDistributionError: if a document takes more than
            MAX_REDRAW_ROUNDS redraw rounds on average, 1 / (1 - P(empty
            document)).
    """
    if not 1 <= doc_count <= MAX_DOCUMENTS:
        raise ValueError(f"doc_count must be in 1..{MAX_DOCUMENTS}, got {doc_count}")
    stored = doc_count * math.fsum(dist.prevalences)
    if stored > MAX_TOPIC_IDS:
        raise ValueError(
            f"{doc_count} documents at these prevalences hold about {stored:.4g} "
            f"topic ids, above the limit of {MAX_TOPIC_IDS}"
        )
    m = len(dist)
    nonempty = 1.0 - dist.empty_document_probability()
    rounds = 1.0 / nonempty if nonempty else math.inf
    if rounds > MAX_REDRAW_ROUNDS:
        raise DegenerateDistributionError(
            f"a document is nonempty with probability {nonempty:.4g}, so it takes about "
            f"{rounds:.4g} redraw rounds, above the limit of {MAX_REDRAW_ROUNDS}"
        )
    draws = doc_count * m * rounds
    if draws > MAX_DRAWS:
        raise ValueError(
            f"{doc_count} documents of {m} topics at these prevalences take about "
            f"{draws:.4g} draws, above the limit of {MAX_DRAWS}"
        )

    q = np.asarray(dist.prevalences, dtype=float)
    always = np.flatnonzero(q >= 1.0)
    thresholds = u64_thresholds(q)  # Bernoulli(q) as draw < threshold
    first_round = np.arange(1, m + 1, dtype=np.uint64)

    # The ids first: once their larger temporaries are freed, glibc's
    # malloc keeps the draw blocks' pages in its heap instead of returning
    # them and faulting them in again each round (0.5 s of a fresh
    # process's first 10^6 documents on a 2-core guest).
    doc_ids = np.strings.add("d", np.arange(doc_count).astype(StringDType()))
    block = max(1, BLOCK_DRAWS // m)
    lengths = np.empty(doc_count, dtype=np.int64)

    def draw_block(start: int) -> np.ndarray:
        # The topic ids of documents start:stop in document order; writes
        # lengths[start:stop], which no other block touches.
        stop = min(start + block, doc_count)
        keys = derive_key_array(seed, np.arange(start, stop, dtype=np.uint64))
        # Each round's (document, topic) hits, in order within the round; a
        # document hit in a round is done, the rest are drawn again.
        docs, topics = [], []
        pending = np.arange(stop - start)
        round_index = 0
        while pending.size:
            counters = first_round + np.uint64(round_index * m)
            drawn = stream_u64(keys[pending, None], counters) < thresholds
            drawn[:, always] = True
            row, topic = np.divmod(np.flatnonzero(drawn), m)
            docs.append(pending[row])
            topics.append(topic)
            hit = np.zeros(pending.size, dtype=bool)
            hit[row] = True
            pending = pending[~hit]
            round_index += 1
        doc = np.concatenate(docs)
        topic = np.concatenate(topics)
        topic = topic[np.argsort(doc, kind="stable")]  # a document's hits all come from one round
        lengths[start:stop] = np.bincount(doc, minlength=stop - start)
        return topic.astype(np.int32)

    topic_blocks = _map_in_order(draw_block, range(0, doc_count, block))
    return Corpus(
        doc_ids=doc_ids,
        indptr=np.concatenate(([0], np.cumsum(lengths))),
        indices=np.concatenate(topic_blocks),
        topic_count=m,
    )


def save_corpus(corpus: Corpus, path: str | os.PathLike) -> None:
    """Write the JSON-lines corpus format; the exact inverse of load_corpus.

    Each line is what ``json.dumps({"doc_id": ..., "topics": [...]},
    separators=(",", ":"), ensure_ascii=False)`` gives. Ids are UTF-8,
    escaped only for quote, backslash and control characters, so a line
    whose id holds none of these is in the form the loader parses with
    array operations.

    Each block of lines is built as a (rows, width) byte grid, a line a
    row, with NUL bytes between its parts, and written as the grid's
    nonzero bytes; a saved line holds no NUL, which JSON writes as
    ``\\u0000``. A block takes the documents _grid_rows gives it within
    SAVE_BLOCK_BYTES, counting an id by its characters (its UTF-8 bytes
    and escapes may widen a row up to six times) and each topic by its
    slot and the per-topic arrays _line_grid builds beside the grid. A
    document too wide for that budget is a block, and a grid, of its own.
    """
    header = {"format": CORPUS_FORMAT, "version": CORPUS_VERSION, "topic_count": corpus.topic_count}
    digits = len(str(min(corpus.topic_count, MAX_TOPIC_ID + 1) - 1))
    slot = digits + 1  # a topic's digits and its "," or "]"
    # A topic's bytes in a block: its slot in the grid and, beside the grid,
    # its row of _line_grid's `filled`, its byte of the `used` mask, and
    # either _digits' result and int32 temporaries (digits + 16 bytes) or
    # the two intp indices numpy makes of the mask to assign through it
    # (16 bytes).
    topic = 2 * slot + digits + 17
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
        most = SAVE_BLOCK_BYTES // (_FRAME + topic)  # documents a grid can take
        start, window = 0, most
        while start < len(corpus):
            # Every document a grid can take, and one more, or twice what the
            # last grid took if that is fewer: each id is measured about once.
            stop = min(len(corpus), start + 1 + window)
            ids = np.strings.str_len(corpus.doc_ids[start:stop]) + 1  # and the closing quote
            counts = np.diff(corpus.indptr[start : stop + 1])  # topics a document
            rows = _grid_rows(_FRAME + ids + topic * counts, ids, SAVE_BLOCK_BYTES)
            stop = start + max(rows, 1)  # a line no grid holds has a grid of its own
            window = min(most, 2 * (stop - start))
            grid = _line_grid(corpus, start, stop, digits)
            fh.write(grid[grid != 0])
            start = stop


# A document line as save_corpus writes it is _HEAD, the id escaped as
# JSON, _MIDDLE, the topic ids without leading zeros joined by commas, and
# "]}". The loader's array path takes the lines whose id holds no quote,
# backslash, control character or surrogate and whose topic ids have 1 to
# 9 digits; it compares the fixed parts as 8-byte words read at any byte.
_HEAD = b'{"doc_id":"'
_MIDDLE = b'","topics":['
# A grid row beside its id column and topic slots: _HEAD, _MIDDLE[1:], "}\n".
_FRAME = len(_HEAD) + len(_MIDDLE) + 1


def _grid_rows(rows: np.ndarray, ids: np.ndarray, budget: int) -> int:
    """The leading rows, of ``rows`` bytes with ``ids`` bytes of id column
    each, that one grid of save_corpus or _id_array takes: the most whose
    count times the widest row, plus 128 times the widest id column (numpy
    casts an id column through a buffer of 128 elements), is at most
    ``budget`` bytes. 0 if the first row alone is not: that line takes a
    grid of its own, or that id is decoded alone."""
    grid = np.maximum.accumulate(rows) * np.arange(1, rows.size + 1)
    return int(np.count_nonzero(grid + 128 * np.maximum.accumulate(ids) <= budget))


def _line_grid(corpus: Corpus, start: int, stop: int, digits: int) -> np.ndarray:
    """Documents ``start:stop`` as saved lines, a (rows, width) ``uint8``
    grid whose nonzero bytes in order are the lines' bytes; a topic takes
    ``digits`` bytes and its "," or "]"."""
    indptr = corpus.indptr[start : stop + 1]
    lengths = np.diff(indptr)
    topics = corpus.indices[indptr[0] : indptr[-1]]
    quoted = _quoted_ids(corpus.doc_ids[start:stop])
    rows, id_width = quoted.shape
    id_end = len(_HEAD) + id_width
    at = id_end + len(_MIDDLE) - 1  # the first topic's column
    slot_count = int(lengths.max())
    grid = np.zeros((rows, at + slot_count * (digits + 1) + 2), np.uint8)
    grid[:, : len(_HEAD)] = np.frombuffer(_HEAD, np.uint8)
    grid[:, len(_HEAD) : id_end] = quoted
    grid[:, id_end:at] = np.frombuffer(_MIDDLE[1:], np.uint8)
    grid[:, -2:] = np.frombuffer(b"}\n", np.uint8)
    # A row's k-th topic fills its k-th slot: the digits, then "," or "]".
    filled = np.empty((topics.size, digits + 1), np.uint8)
    filled[:, :-1] = _digits(topics, digits)
    filled[:, -1] = ord(",")
    filled[np.cumsum(lengths) - 1, -1] = ord("]")
    used = np.arange(slot_count) < lengths[:, None]  # row-major order is document order
    grid[:, at:-2].reshape((rows, slot_count, digits + 1), copy=False)[used] = filled
    return grid


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """Each value's decimal digits as ASCII, right-aligned in a row of
    ``width`` bytes after NUL bytes; values are below 10**width."""
    digits = np.empty((values.size, width), np.uint8)
    tens = values // 10  # numpy divides by a scalar with a multiply; "%" divides
    digits[:, -1] = values - 10 * tens + ord("0")
    for column in range(width - 2, -1, -1):
        rest, tens = tens, tens // 10
        digits[:, column] = (rest - 10 * tens + ord("0")) * (rest > 0)
    return digits


def _quoted_ids(ids: np.ndarray) -> np.ndarray:
    """Each id as saved, UTF-8 and escaped as JSON, with its closing quote:
    a (rows, width) ``uint8`` array, each row NUL-padded. A lone id, which
    may be one too long for a grid of many, is encoded: a cast would take
    a buffer of 128 of its rows."""
    quoted = np.strings.add(ids, '"')  # a NUL the id ends with is no longer last
    sizes = np.strings.str_len(quoted)
    try:
        data = quoted.astype(f"S{sizes.max()}") if ids.size > 1 else None
    except UnicodeEncodeError:  # not ASCII
        data = None
    if data is None:
        data = np.strings.encode(quoted, "utf-8")
        sizes = np.strings.str_len(data)  # bytes; the quote keeps every NUL
    cells = data.view(np.uint8).reshape(ids.size, -1)
    # Bytes below 0x20, quotes and backslashes: a row holds its padding NULs
    # and its closing quote, and more only if its id needs escapes.
    special = (cells < 0x20) | (cells == ord('"')) | (cells == ord("\\"))
    expected = cells.shape[1] - sizes + 1
    if np.count_nonzero(special) != expected.sum():
        rows = np.flatnonzero(np.count_nonzero(special, axis=1) != expected)
        escaped = [encode_basestring(doc_id)[1:].encode() for doc_id in ids[rows].tolist()]
        data = data.astype(f"S{max(data.itemsize, *map(len, escaped))}")
        data[rows] = escaped
        cells = data.view(np.uint8).reshape(ids.size, -1)
    return cells


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


def _saved_lines(text: str) -> tuple[np.ndarray, ...] | None:
    """The ids, the flat topic ids and the running topic count at each
    line's end, for whole lines all in the form save_corpus writes; None if
    any line is not. The topic ids are read as written, not checked."""
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

    firsts = starts + len(_HEAD)
    return _id_array(buf, firsts, middles - firsts), topics, line_ends


def _id_array(buf: np.ndarray, firsts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The UTF-8 ids at ``buf[firsts[i]:firsts[i] + widths[i]]``, none
    holding a byte below 0x20, as ``StringDType``.

    Runs of ids are read as 8-byte words into NUL-padded grids sized by
    _grid_rows, a row an id's width rounded down to words plus one word,
    each viewed as fixed-width bytes and cast, which decodes UTF-8 and
    drops the padding; no id loses a byte, since none holds a NUL. An id
    too wide for a grid of its own is decoded alone, so a long id costs
    about its own bytes.
    """
    row_bytes = widths // 8 * 8 + 8
    # Every word a grid reads lies inside the block, or in zeros appended
    # when a row as wide as the widest would run past it from the last id.
    end = firsts[-1] + row_bytes.max()
    padded = buf if end <= buf.size else np.concatenate((buf, np.zeros(end - buf.size, np.uint8)))
    words = _words(padded)
    # keep[j] keeps a word's first j bytes, in memory order.
    keep = np.frombuffer(b"".join(b"\xff" * j + bytes(8 - j) for j in range(9)), np.uint64)
    runs = []
    start = 0
    while start < widths.size:
        rows = _grid_rows(row_bytes[start:], row_bytes[start:], buf.size)
        stop = start + max(rows, 1)
        if rows:
            at = np.arange(0, row_bytes[start:stop].max(), 8)  # each row's word offsets
            grid = words[firsts[start:stop, None] + at]
            grid &= keep[np.clip(widths[start:stop, None] - at, 0, 8)]
            runs.append(grid.view(f"S{grid.itemsize * at.size}")[:, 0].astype(StringDType()))
        else:
            lone = buf[firsts[start] : firsts[start] + widths[start]]
            runs.append(np.array([lone.tobytes().decode()], StringDType()))
        start = stop
    return runs[0] if len(runs) == 1 else np.concatenate(runs)


def _parsed_lines(text: str, first_line: int, topic_count: int) -> tuple[np.ndarray, ...]:
    """What _saved_lines returns, for whole lines of any valid JSON
    spelling numbered from ``first_line``, each line checked on its own;
    raises the error of the first bad line."""
    ids, topics, ends = [], [], []
    for number, raw in enumerate(io.StringIO(text), start=first_line):
        doc_id, listed = _parse_record(number, raw, topic_count)
        ids.append(doc_id)
        topics.extend(listed)
        ends.append(len(topics))
    return np.array(ids, dtype=StringDType()), np.array(topics, np.intc), np.array(ends, np.int64)


def _block(text: str, first_line: int, topic_count: int) -> tuple[np.ndarray, ...]:
    """What _parsed_lines returns, for whole lines numbered from
    ``first_line``, with each line's topic ids sorted. Lines all in saved
    form are read with array operations, and any line's ids in any order
    are sorted with one stable sort of the block; a block whose ids still
    break the rule is read line by line, to name its first bad line."""
    parsed = _saved_lines(text) or _parsed_lines(text, first_line, topic_count)
    ids, topics, line_ends = parsed
    indptr = np.concatenate(([0], line_ends))
    if _first_disordered(topics, indptr, topic_count) is None:
        return parsed
    lines = np.repeat(np.arange(line_ends.size), np.diff(indptr))
    topics = topics[np.lexsort((topics, lines))]
    if _first_disordered(topics, indptr, topic_count) is None:
        return ids, topics, line_ends
    _parsed_lines(text, first_line, topic_count)  # a repeated or out-of-range id
    raise AssertionError("a topic id the line checks pass breaks the block's id rule")


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
    parsed with array operations, any other block line by line as JSON;
    either way, the block's topic ids are then sorted and checked with
    array operations (see _block). Each block is checked before the next
    is read, so errors come in line order.
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
            ids, listed, line_ends = _block(text, first, topic_count)
            ends.frombytes((line_ends + len(topics)).tobytes())
            topics.frombytes(listed.tobytes())
            id_blocks.append(ids)
    if len(ends) == 1:
        raise CorpusFormatError("corpus file contains a header but no documents")
    doc_ids = np.concatenate(id_blocks)
    del id_blocks
    indices = np.frombuffer(topics, np.intc)
    return Corpus(doc_ids, np.frombuffer(ends, np.int64), indices, topic_count)
