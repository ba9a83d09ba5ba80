"""Per-document tuples for building and reading small test corpora.

``fomo.Corpus`` holds only CSR arrays; nothing in the package reads a
corpus one document at a time. Tests write their corpora by hand as
``Document(doc_id, topics)`` tuples and convert with these helpers.
"""

from typing import NamedTuple

import numpy as np

from fomo.corpus import Corpus


class Document(NamedTuple):
    doc_id: str
    topics: tuple[int, ...]


def corpus_from_documents(documents, topic_count):
    """The corpus holding ``documents`` in order; Corpus validates them."""
    documents = tuple(documents)
    return Corpus(
        doc_ids=[doc.doc_id for doc in documents],
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
        for doc_id, a, b in zip(corpus.doc_ids.tolist(), ends, ends[1:])
    )
