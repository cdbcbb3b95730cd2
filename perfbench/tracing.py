"""In-memory span tracer that wraps the simulator's functions from outside.

`Tracer.patch` replaces a function in every ``smartran`` module that
holds a reference to it (``sac_update`` lives in ``engine`` and in
``controller``, ``adam_step`` in ``adam`` and ``sac``), so a call is
traced whichever module makes it. `Tracer.restore` puts the originals
back. A span's duration excludes the time spent in checks run through
`Tracer.untimed`, and its self time is that duration minus its traced
children's.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child_s = array("d")
        self.excluded_s = array("d")
        self.untimed_s = 0.0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, before=None, after=None):
        """name is a span name or a callable of the call's arguments
        returning one. before(args, kwargs) runs inside the span;
        after(args, kwargs, result) runs after it, untimed."""
        stack, clock = self._stack, time.perf_counter
        fixed = None if callable(name) else self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        child_s, excluded_s = self.child_s, self.excluded_s

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(fixed if fixed is not None else self._id(name(args)))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            child_s.append(0.0)
            excluded_s.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                t = clock()
                stack.pop()
                end[i] = t
                if stack:
                    child_s[stack[-1]] += t - start[i] - excluded_s[i]
            if after is not None:
                with self.untimed():
                    after(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def untimed(self):
        """Time spent in the block is removed from every open span."""
        t = time.perf_counter()
        try:
            yield
        finally:
            d = time.perf_counter() - t
            self.untimed_s += d
            for i in self._stack:
                self.excluded_s[i] += d

    def patch(self, module_name: str, attr: str, name, before=None, after=None) -> int:
        """Wrap module_name.attr wherever a smartran module refers to it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(original, name, before, after)
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "smartran" and not mod_name.startswith("smartran."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapper)
                    hits += 1
        return hits

    def patch_method(self, cls, attr: str, name, before=None, after=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, before, after))

    def restore(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    # -- results

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i] - self.excluded_s[i]

    def totals(self) -> dict[str, list]:
        """name -> [calls, busy seconds, self seconds]."""
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(len(self.start)):
            d = self.duration(i)
            entry = out[self.names[self.name_id[i]]]
            entry[0] += 1
            entry[1] += d
            entry[2] += d - self.child_s[i]
        return out

    def write_spans(self, path, origin: float) -> None:
        """One CSV row per span; times in seconds from origin."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_s,end_s,duration_s,self_s\n")
            for i in range(len(self.start)):
                d = self.duration(i)
                fh.write(
                    f"{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i] - origin:.9f},{self.end[i] - origin:.9f},"
                    f"{d:.9f},{d - self.child_s[i]:.9f}\n"
                )
