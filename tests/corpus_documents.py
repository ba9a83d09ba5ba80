"""Per-document tuples and id lists for building and reading small test corpora.

``fomo.Corpus`` holds only CSR arrays, its ids as UTF-8 bytes and their
offsets; nothing in the package reads a corpus one document at a time.
Tests write their corpora by hand as ``Document(doc_id, topics)`` tuples
or lists of ids and convert with these helpers.
"""

from typing import NamedTuple

import numpy as np

from fomo.corpus import Corpus


class Document(NamedTuple):
    doc_id: str
    topics: tuple[int, ...]


def id_columns(ids):
    """``(id_bytes, idptr)`` holding the string ``ids`` in order, as UTF-8."""
    encoded = [doc_id.encode() for doc_id in ids]
    return np.frombuffer(b"".join(encoded), np.uint8), np.cumsum([0, *map(len, encoded)])


def doc_ids_of(corpus):
    """The corpus's ids as strings, in accession order."""
    data = corpus.id_bytes.tobytes()
    ends = corpus.idptr.tolist()
    return [data[a:b].decode() for a, b in zip(ends, ends[1:])]


def corpus_from_documents(documents, topic_count):
    """The corpus holding ``documents`` in order; Corpus validates them."""
    documents = tuple(documents)
    return Corpus(
        *id_columns(doc.doc_id for doc in documents),
        indptr=np.cumsum([0, *(len(doc.topics) for doc in documents)]),
        indices=[t for doc in documents for t in doc.topics],
        topic_count=topic_count,
    )


def documents_of(corpus):
    """The corpus's documents as ``Document`` tuples, in accession order."""
    topics = corpus.indices.tolist()
    ends = corpus.indptr.tolist()
    return tuple(
        Document(doc_id, tuple(topics[a:b]))
        for doc_id, a, b in zip(doc_ids_of(corpus), ends, ends[1:])
    )
