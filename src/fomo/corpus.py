"""Topic prevalence models and multi-label corpora.

A corpus is an ordered list of documents, each tagged with one or more
integer topic ids. Real assignments are loaded from a JSON-lines file;
synthetic ones are generated from a prevalence vector, with topic
frequencies following a power law between a chosen most-common and
rarest prevalence.

File format (UTF-8, one JSON object per line):

    {"format":"fomo-corpus","version":1,"topic_count":<m>}
    {"doc_id":"<id>","topics":[0,3]}
    ...

Topics are written sorted ascending without duplicates, and line order
is the corpus's accession order. ``load_corpus(save_corpus(c)) == c``
bit for bit.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .prng import derive_key_array, stream_u64, u64_thresholds

__all__ = [
    "TopicDistribution",
    "Document",
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
        for i, q in enumerate(self.prevalences):
            if not 0.0 < q <= 1.0:
                raise ValueError(f"prevalence of topic {i} must be in (0, 1], got {q}")

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


class Document(NamedTuple):
    doc_id: str
    topics: tuple[int, ...]


@dataclass(frozen=True)
class Corpus:
    """Ordered documents with validated topic sets.

    List order is accession order. Every document carries at least one
    topic id below ``topic_count``; topics are stored sorted and unique.
    """

    documents: tuple[Document, ...]
    topic_count: int
    topics_present: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        if self.topic_count < 1:
            raise ValueError(f"topic_count must be >= 1, got {self.topic_count}")
        if not self.documents:
            raise ValueError("a corpus must contain at least one document")
        present: set[int] = set()
        for pos, doc in enumerate(self.documents):
            topics = doc.topics
            if not topics:
                raise ValueError(f"document {pos} ({doc.doc_id!r}) has no topics")
            previous = -1
            for t in topics:
                if not isinstance(t, int) or isinstance(t, bool):
                    raise ValueError(f"document {pos}: topic ids must be integers, got {t!r}")
                if t <= previous:
                    raise ValueError(
                        f"document {pos}: topics must be sorted unique, got {topics}"
                    )
                if not 0 <= t < self.topic_count:
                    raise ValueError(
                        f"document {pos}: topic id {t} outside 0..{self.topic_count - 1}"
                    )
                previous = t
            present.update(topics)
        object.__setattr__(self, "topics_present", frozenset(present))

    def __len__(self) -> int:
        return len(self.documents)

    @cached_property
    def absent_topics(self) -> tuple[int, ...]:
        """Topic ids below ``topic_count`` that no document carries."""
        return tuple(sorted(set(range(self.topic_count)) - self.topics_present))

    def topic_counts(self) -> list[int]:
        """Number of documents carrying each topic id."""
        counts = [0] * self.topic_count
        for doc in self.documents:
            for t in doc.topics:
                counts[t] += 1
        return counts

    def empirical_prevalences(self) -> dict[int, float]:
        """Observed document fraction per topic, for topics that occur."""
        n = len(self.documents)
        return {t: c / n for t, c in enumerate(self.topic_counts()) if c > 0}


def zipf_prevalences(
    topic_count: int, max_prevalence: float, min_prevalence: float
) -> TopicDistribution:
    """Power-law prevalences hitting the given extremes exactly.

    q_i = max_prevalence / (i+1)**s with the exponent calibrated so that
    q_0 = max_prevalence and q_{m-1} = min_prevalence. The extremes are
    usually what is known about a collection; the exponent is implied,
    not assumed.
    """
    if topic_count < 2:
        raise ValueError(f"topic_count must be >= 2, got {topic_count}")
    if not 0.0 < min_prevalence <= max_prevalence <= 1.0:
        raise ValueError(
            f"need 0 < min <= max <= 1, got min={min_prevalence}, max={max_prevalence}"
        )
    s = math.log(max_prevalence / min_prevalence) / math.log(topic_count)
    return TopicDistribution(
        tuple(max_prevalence / (i + 1) ** s for i in range(topic_count))
    )


def _doc_ids(count: int) -> list[str]:
    return [f"d{i}" for i in range(count)]


def generate_corpus(doc_count: int, dist: TopicDistribution, seed: int) -> Corpus:
    """Draw a synthetic multi-label corpus from a prevalence vector.

    Each document includes each topic independently with its prevalence;
    documents that come out empty are redrawn until nonempty (which
    inflates every marginal by 1 / (1 - P(empty)) - negligible when the
    prevalences sum to around 1).

    Document d's draws come from the SplitMix64 stream keyed by
    (seed, d): redraw round r tests topic i with draw number r*m + i + 1.
    Generation is therefore order-independent and reproducible across
    platforms and any parallel schedule.

    Raises:
        DegenerateDistributionError: if P(empty document) >= 1 - 1e-9,
            where redrawing would effectively never terminate.
    """
    if doc_count < 1:
        raise ValueError(f"doc_count must be >= 1, got {doc_count}")
    empty_prob = dist.empty_document_probability()
    if empty_prob >= 1.0 - 1e-9:
        raise DegenerateDistributionError(
            f"empty-document probability {empty_prob} leaves nothing to draw"
        )

    q = np.asarray(dist.prevalences, dtype=float)
    m = len(q)
    always = q >= 1.0
    thresholds = u64_thresholds(q)  # Bernoulli(q) as draw < threshold

    keys = derive_key_array(seed, np.arange(doc_count, dtype=np.uint64))
    topics_by_doc: list[tuple[int, ...] | None] = [None] * doc_count
    pending = np.arange(doc_count)
    round_index = 0
    while pending.size:
        base = keys[pending]
        included = np.empty((pending.size, m), dtype=bool)
        for i in range(m):
            if always[i]:
                included[:, i] = True
                continue
            included[:, i] = stream_u64(base, round_index * m + i + 1) < thresholds[i]
        nonempty = included.any(axis=1)
        for row in np.flatnonzero(nonempty):
            d = int(pending[row])
            topics_by_doc[d] = tuple(int(t) for t in np.flatnonzero(included[row]))
        pending = pending[~nonempty]
        round_index += 1

    ids = _doc_ids(doc_count)
    documents = tuple(
        Document(ids[d], topics_by_doc[d]) for d in range(doc_count)  # type: ignore[arg-type]
    )
    return Corpus(documents=documents, topic_count=m)


def save_corpus(corpus: Corpus, path: str | os.PathLike) -> None:
    """Write the JSON-lines corpus format; the exact inverse of load_corpus."""
    header = {
        "format": CORPUS_FORMAT,
        "version": CORPUS_VERSION,
        "topic_count": corpus.topic_count,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for doc in corpus.documents:
            line = json.dumps(
                {"doc_id": doc.doc_id, "topics": list(doc.topics)},
                separators=(",", ":"),
            )
            fh.write(line + "\n")


def _format_error(line_number: int, message: str) -> CorpusFormatError:
    return CorpusFormatError(f"line {line_number}: {message}")


def load_corpus(path: str | os.PathLike) -> Corpus:
    """Read a JSON-lines corpus, preserving line order as accession order.

    Raises CorpusFormatError naming the offending line for anything
    malformed: bad JSON, a missing or wrong header, out-of-range or
    duplicate topic ids, or a document with no topics.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line.strip():
            raise _format_error(1, "missing header")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise _format_error(1, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(header, dict) or header.get("format") != CORPUS_FORMAT:
            raise _format_error(1, f"not a {CORPUS_FORMAT} header")
        if header.get("version") != CORPUS_VERSION:
            raise _format_error(1, f"unsupported version {header.get('version')!r}")
        topic_count = header.get("topic_count")
        if type(topic_count) is not int or topic_count < 1:  # bool is not a count
            raise _format_error(1, f"bad topic_count {topic_count!r}")

        documents: list[Document] = []
        for number, raw in enumerate(fh, start=2):
            if not raw.strip():
                raise _format_error(number, "blank line")
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise _format_error(number, f"invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise _format_error(number, "expected an object")
            doc_id = record.get("doc_id")
            if not isinstance(doc_id, str):
                raise _format_error(number, f"bad doc_id {doc_id!r}")
            topics = record.get("topics")
            if not isinstance(topics, list) or not all(
                isinstance(t, int) and not isinstance(t, bool) for t in topics
            ):
                raise _format_error(number, f"bad topics {topics!r}")
            if not topics:
                raise _format_error(number, f"document {doc_id!r} has no topics")
            if len(set(topics)) != len(topics):
                raise _format_error(number, f"duplicate topic ids in {topics}")
            for t in topics:
                if not 0 <= t < topic_count:
                    raise _format_error(
                        number, f"topic id {t} outside 0..{topic_count - 1}"
                    )
            documents.append(Document(doc_id, tuple(sorted(topics))))

    if not documents:
        raise CorpusFormatError("corpus file contains a header but no documents")
    return Corpus(documents=tuple(documents), topic_count=topic_count)
