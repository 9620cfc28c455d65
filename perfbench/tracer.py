"""Spans and counts around the public functions of each trendtag layer.

The tracer replaces a function by a timing wrapper in every loaded
``trendtag`` module that holds a reference to it, because the package
imports functions by name (``pipeline`` calls its own ``detect_bursts``
binding, ``linking`` its own ``milne_witten``). Nothing inside ``src/``
changes; the wrappers live only in the traced process.

Each call opens a frame on a stack. When it returns, its duration is
added to its parent's child time, so a function's self time is its span
minus the part of that interval its child spans cover. Calls of the
coarse functions are kept as span records (name, start, end, parent,
hashtag); the hot ones (called per mention, per pair or per walk) are
only counted and summed, to keep the overhead and memory small.

A hook may read a function's result (an ingest report, a graph size, a
convergence flag). Hooks run after the span has closed and their time is
charged to the tracer, not to the caller's self time.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field


class TracerError(RuntimeError):
    """The traced program lacks a wrapped function, or one was never called."""


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child: float = 0.0
    tag: str | None = None


@dataclass
class Tracer:
    stats: dict[str, Stat] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    stack: list = field(default_factory=list)  # open Span or [child] frames
    tag: str | None = None  # the hashtag being annotated, shared by its spans

    def wrap(self, name: str, fn, hook=None, hot: bool = False, tag_from=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            outer_tag = self.tag
            if tag_from is not None:
                self.tag = tag_from(*args, **kwargs)
            if hot:
                frame = [0.0]
            else:
                frame = Span(len(self.spans), name,
                             parent.id if isinstance(parent, Span) else None,
                             0.0, tag=self.tag)
                self.spans.append(frame)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                child = frame[0] if hot else frame.child
                if not hot:
                    frame.start, frame.end = t0, t1
                stat.calls += 1
                stat.total += t1 - t0
                stat.self_time += t1 - t0 - child
                self.tag = outer_tag
            if hook is not None:
                hook(result, *args, **kwargs)
            if parent is not None:
                done = clock() - t0  # the span plus its hook
                if isinstance(parent, Span):
                    parent.child += done
                else:
                    parent[0] += done
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, module: str, attr: str, name: str, hook=None,
                hot: bool = False, tag_from=None) -> None:
        """Wrap trendtag.<module>.<attr> wherever the package binds it."""
        home = importlib.import_module(f"trendtag.{module}")
        original = getattr(home, attr, None)
        if original is None:
            raise TracerError(f"trendtag.{module} has no attribute {attr!r}")
        wrapper = self.wrap(name, original, hook, hot, tag_from)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "trendtag" or mod_name.startswith("trendtag."):
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)

    def require_called(self, names) -> None:
        never = sorted(n for n in names if self.stats[n].calls == 0)
        if never:
            raise TracerError("layer functions never called: " + ", ".join(never))

    def check_nesting(self) -> None:
        """Every span's children fit inside it (self time is not negative)."""
        for span in self.spans:
            if span.child > span.end - span.start + 1e-6:
                raise TracerError(f"children of span {span.id} ({span.name}) "
                                  f"exceed it: {span.child} > {span.end - span.start}")

    def span_records(self):
        for s in self.spans:
            yield {"id": s.id, "name": s.name, "parent": s.parent, "tag": s.tag,
                   "start": s.start, "end": s.end, "self": s.end - s.start - s.child}
