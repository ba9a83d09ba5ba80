"""In-memory spans recorded around calls into fomo's layers.

The benchmark instruments from its own files: :func:`instrument` rebinds
the names a module imported from another layer (for example
``fomo.cli.load_corpus``) to wrappers that open a span, call the
original and record counts taken from the arguments and result. The
originals are restored on exit, so nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Iterator

Counter = Callable[[tuple, object], dict]


class Tracer:
    """Spans (name, start, end, parent, trace id, counts), kept in memory
    until :meth:`dump` writes them out."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        parent = self._open[-1] if self._open else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "trace": parent["trace"] if parent else len(self.spans),
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, function: Callable, counter: Counter | None) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
            if counter is not None:
                record["counts"].update(counter(args, result))
            return result

        return traced

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum((duration(s) for s in self.named(name)), 0.0)

    def count(self, name: str, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in self.named(name))

    def self_time(self, record: dict) -> float:
        """The span's duration minus the time its direct children cover."""
        children = [s for s in self.spans if s["parent"] == record["id"]]
        return duration(record) - sum(duration(c) for c in children)

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"format": "fomo-bench-spans", "version": 1, **meta,
                       "spans": self.spans}, fh)


def duration(record: dict) -> float:
    return record["end"] - record["start"]


@contextmanager
def instrument(
    tracer: Tracer, targets: list[tuple[object, str, str, Counter | None]]
) -> Iterator[None]:
    """Wrap ``module.attr`` for each (module, attr, span name, counter)."""
    saved = []
    try:
        for module, attr, name, counter in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, counter))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
