"""In-memory span recorder that wraps a package's functions from the outside.

Installing a target replaces the function object everywhere the given
modules bind it, so a call through an imported alias (``from .quadform
import profile as qf_profile``) is recorded under the function's home name.
Each span keeps its name, start, end, parent span and query id; its self
time (the span minus the spans it caused) is computed when it closes.

Leaf targets are hot scalar functions that call no other target.  They are
counted and timed per query instead of one record per call, and their time
is still charged to the enclosing span, so every self time stays exact.
"""

from __future__ import annotations

import functools
import json
import resource
from time import perf_counter


def _usage() -> tuple[float, float]:
    """(peak RSS of this process in MiB, CPU seconds of reaped children)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_maxrss / 1024.0, kids.ru_utime + kids.ru_stime


class Tracer:
    """Records spans of wrapped calls; ``query`` tags every span opened while it is set.

    ``annotate`` maps a span name to ``fn(args, kwargs, result, usage) -> dict``;
    ``usage`` holds ``rss_rise_mb`` (rise of this process's peak RSS across
    the call) and ``child_cpu_s`` (CPU time of children reaped during it).
    The returned fields are stored on the span.
    """

    def __init__(self, annotate=None):
        self.query: str | None = None
        self.spans: list[dict] = []
        self.leaves: dict[tuple[str, str | None], list] = {}
        self._annotate = annotate or {}
        self._stack: list[list] = []        # [span id, seconds covered by children]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = perf_counter()

    # -- installation ------------------------------------------------------

    def install(self, targets, modules, leaves=()):
        """Wrap each ``(name, owner, attr)`` target.

        A module-level function is rebound in every module of ``modules``
        that holds it; a method is replaced on its class.
        """
        for name, owner, attr in targets:
            original = getattr(owner, attr)
            wrapper = (self._leaf if name in leaves else self._span)(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for gname, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, gname, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        annotate = self._annotate.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            before = _usage() if annotate else None
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                span = {"id": sid, "name": name, "query": self.query, "parent": parent,
                        "start": start - self._t0, "end": end - self._t0,
                        "self_s": end - start - frame[1]}
                if annotate and result is not None:
                    after = _usage()
                    span.update(annotate(args, kwargs, result,
                                         {"rss_rise_mb": after[0] - before[0],
                                          "child_cpu_s": after[1] - before[1]}))
                self.spans.append(span)

        return wrapper

    def _leaf(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                if self._stack:
                    self._stack[-1][1] += dur
                acc = self.leaves.setdefault((name, self.query), [0, 0.0])
                acc[0] += 1
                acc[1] += dur

        return wrapper

    # -- output ----------------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per name: calls, inclusive seconds, self seconds and the spans themselves."""
        out: dict[str, dict] = {}
        for span in self.spans:
            agg = out.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                                "spans": []})
            agg["calls"] += 1
            agg["total_s"] += span["end"] - span["start"]
            agg["self_s"] += span["self_s"]
            agg["spans"].append(span)
        for (name, _), (calls, secs) in self.leaves.items():
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "spans": []})
            agg["calls"] += calls
            agg["total_s"] += secs
            agg["self_s"] += secs
        return out

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
            for (name, query), (calls, secs) in sorted(self.leaves.items(),
                                                        key=lambda kv: (kv[0][0], str(kv[0][1]))):
                fh.write(json.dumps({"name": name, "query": query, "calls": calls,
                                     "total_s": secs, "leaf": True}, sort_keys=True) + "\n")
