"""In-memory spans recorded around calls into lungct, and their self times."""

import contextlib
import json
import statistics
from time import perf_counter


class Tracer:
    """Records one span per traced call: name, start, end, parent and series id.

    Spans stay in memory until :meth:`write_jsonl` is called at the end of a run.
    """

    def __init__(self):
        self.spans = []
        self.series = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "series": self.series,
            "start": None,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def patched(self, targets):
        """Record a span around every call of ``module.attr`` for each (module, attr, name).

        Patching the name in the calling module's namespace times calls made
        from inside lungct's own functions; the original is put back on exit.
        """
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, function, name):
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def self_times(spans):
    """Map span id -> its duration minus the part of it that its children cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def median_duration(spans, name, scale=1.0, use_self=None):
    """Median duration of the spans called ``name`` times ``scale``; 0.0 if there are none.

    With ``use_self`` (a result of :func:`self_times`) the self time is used.
    """
    values = [
        (use_self[s["id"]] if use_self is not None else s["end"] - s["start"])
        for s in spans if s["name"] == name
    ]
    return statistics.median(values) * scale if values else 0.0
