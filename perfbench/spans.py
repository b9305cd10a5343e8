"""Spans and counters recorded around calls into mcmimo, from outside it.

A :class:`Tracer` replaces selected mcmimo functions with timing wrappers
while it is installed.  A function is replaced wherever a module looks it
up: in its defining module and in every ``mcmimo`` module (the package
included) that imported it by name, so calls between library modules are
seen as well as calls from the benchmark.  A target whose name no longer
exists is listed in ``missing`` and yields no span; it never raises.

Spans nest along the call stack.  A span's self time is its duration minus
the durations of its direct child spans.  Aggregates (calls, self time,
counters and per-call samples for scaling curves) are kept for every span;
the individual span records are kept in memory up to ``max_spans`` and
written out as JSON lines by :meth:`Tracer.write_jsonl`.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``attr`` may be ``Class.method`` for methods and classmethods.  ``name``
    is the span name, or a function of ``(args, kwargs)`` returning it.
    ``span=False`` only counts calls and runs the hooks: the callee's time
    stays in its caller's self time.  ``before(tracer, args, kwargs)``
    returns a token handed to ``after(tracer, args, kwargs, result,
    seconds, token)``.
    """

    module: str
    attr: str
    name: str | Callable
    span: bool = True
    before: Callable | None = None
    after: Callable | None = None


class Tracer:
    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []      # (id, name, start, end, parent, op)
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.missing: list[str] = []
        self.op: int | None = None
        self._stack: list[list] = []      # [child seconds, span id]
        self._next_id = 0
        self._patches: list[tuple] = []   # (owner, attr, original)

    # -- recording -------------------------------------------------------

    def _enter(self) -> list:
        frame = [0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        dur = end - start
        parent = None
        if self._stack:
            self._stack[-1][0] += dur
            parent = self._stack[-1][1]
        self.calls[name] += 1
        self.self_s[name] += dur - frame[0]
        if len(self.spans) < self.max_spans:
            self.spans.append((frame[1], name, start, end, parent, self.op))
        else:
            self.dropped += 1

    def run_span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span named ``name``."""
        frame = self._enter()
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._exit(name, frame, start, perf_counter())

    def _wrap(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = target.name(args, kwargs) if callable(target.name) else target.name
            token = target.before(tracer, args, kwargs) if target.before else None
            if target.span:
                frame = tracer._enter()
            else:
                tracer.calls[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if target.span:
                    tracer._exit(name, frame, start, end)
            if target.after:
                target.after(tracer, args, kwargs, result, end - start, token)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, targets) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "mcmimo" or n.startswith("mcmimo."))]
        by_name = {m.__name__: m for m in mods}
        self.missing = []
        for target in targets:
            owner = by_name.get(target.module)
            *path, leaf = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(leaf)
            if raw is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            if isinstance(raw, classmethod):
                self._patch(owner, leaf, classmethod(self._wrap(raw.__func__, target)))
            elif path:
                self._patch(owner, leaf, self._wrap(raw, target))
            else:
                wrapped = self._wrap(raw, target)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write_jsonl(self, path, header: dict) -> None:
        """Header line, one line per kept span, then one line of aggregates."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "header", **header}) + "\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"kind": "span", "id": sid, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "op": op}) + "\n")
            fh.write(json.dumps({
                "kind": "totals", "calls": dict(self.calls),
                "self_ms": {k: v * 1e3 for k, v in self.self_s.items()},
                "counters": dict(self.counters), "dropped_spans": self.dropped,
                "missing_targets": self.missing}) + "\n")
