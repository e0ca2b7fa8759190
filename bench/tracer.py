"""Outside-in tracer for the circuitfan benchmark.

The program is not edited: the tracer rebinds the listed functions and
methods with timing wrappers, in every module of the package that holds a
reference to them (``circuits`` has its own binding of ``exact_rank``, so
patching ``linalg`` alone would miss the calls that matter), and restores the
originals when it is removed.

Every call is a span with a name, a start, an end and the span that was open
when it began.  Spans are kept in flat arrays, so a traced pass of a few
hundred thousand calls stays a few megabytes.  Self time is a span's duration
minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # 1 when no enclosing span has the same name, so a recursive call is
        # not counted twice in total time
        self.outermost = array("b")
        self.counters = {}
        self._stack = [-1]
        self._active = []
        self._patches = []

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def wrap(self, name: str, fn, on_result=None):
        """Return fn wrapped so that each call records a span called name."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        clock, stack, active = self.clock, self._stack, self._active
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        outermost = self.outermost

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            outermost.append(active[nid] == 0)
            end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                active[nid] -= 1
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, package: str, name: str, owner, attr: str, on_result=None):
        """Rebind owner.attr; a module-level function is rebound in every
        module of the package that imported it, a method on its class."""
        original = owner.__dict__[attr]
        wrapper = self.wrap(name, original, on_result)
        if isinstance(owner, type):
            owners = [(owner, attr)]
        else:
            owners = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == package or mod_name.startswith(package + ".")
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for obj, key in owners:
            setattr(obj, key, wrapper)
            self._patches.append((obj, key, original))

    def restore(self) -> None:
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)

    @contextlib.contextmanager
    def installed(self, package: str, targets):
        """Patch every (span name, owner, attr, on_result) target, then restore."""
        try:
            for name, owner, attr, on_result in targets:
                self.patch(package, name, owner, attr, on_result)
            yield self
        finally:
            self.restore()

    def summary(self) -> dict:
        """{span name: (calls, total seconds, self seconds)}."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            row[0] += 1
            if self.outermost[i]:
                row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {name: tuple(row) for name, row in out.items()}

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of name with a span called ancestor among its enclosing spans."""
        nid = self._name_ids.get(name)
        aid = self._name_ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        hits = 0
        for i in range(len(self.start)):
            if self.name_of[i] != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != aid:
                p = self.parent[p]
            hits += p >= 0
        return hits
