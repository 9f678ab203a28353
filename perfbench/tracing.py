"""Spans recorded around speclab's public functions, from outside the package.

A `Tracer` replaces chosen functions and methods with wrappers that record
one span per call: name, start, end, parent span and an optional note taken
from the call's arguments or result. Spans stay in memory until the run
ends. Self time is a span's duration minus the time its direct child spans
cover; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
import types


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.notes = []
        self.raised = []
        self._open = [-1]
        self._patches = []

    # -- recording ---------------------------------------------------------

    def begin(self, name, note=None):
        i = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(None)
        self.parents.append(self._open[-1])
        self.notes.append(note)
        self.raised.append(False)
        self._open.append(i)
        return i

    def end(self, i, raised=False):
        self.ends[i] = self.clock()
        self.raised[i] = raised
        popped = self._open.pop()
        if popped != i:
            raise RuntimeError(f"span {self.names[i]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name, note=None):
        """Record one span around a block."""
        i = self.begin(name, note)
        try:
            yield i
        except BaseException:
            self.end(i, raised=True)
            raise
        self.end(i)

    def wrap(self, name, fn, before=None, after=None):
        """Wrapper recording a span per call of fn.

        before(args, kwargs) -> dict and after(result) -> dict fill the
        span's note; either may be None.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name, before(args, kwargs) if before else None) as i:
                result = fn(*args, **kwargs)
            if after is not None:
                tracer.notes[i] = {**(tracer.notes[i] or {}), **after(result)}
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, package, targets):
        """Wrap each target of `package` (a dotted module prefix).

        targets: (module, qualname, before, after). A qualname `Class`
        wraps `Class.__init__`; `Class.method` wraps the method in the class
        dict, which every caller reaches whether it imported the class by
        name or through its module; a function is rebound in every module of
        the package that binds it, because `from .x import f` copies the
        reference into the importer.
        """
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == package or k.startswith(package + ".")) and m is not None]
        for mod_name, qualname, before, after in targets:
            mod = sys.modules[f"{package}.{mod_name}"]
            name = f"{mod_name}.{qualname}"
            head, _, attr = qualname.partition(".")
            obj = getattr(mod, head)
            if isinstance(obj, type):
                owner, attr = obj, attr or "__init__"
                fn = owner.__dict__[attr]
                if not isinstance(fn, types.FunctionType):
                    raise TypeError(f"{name} is not a plain method")
                self._patch(owner, attr, self.wrap(name, fn, before, after))
            elif isinstance(obj, types.FunctionType):
                traced = self.wrap(name, obj, before, after)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is obj:
                            self._patch(m, key, traced)
            else:
                raise TypeError(f"{name} is neither a class nor a function")

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self):
        dur = self.durations()
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def has_ancestor(self, i, name):
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def write(self, path):
        """Write every span as gzipped JSON: a name table and one row per
        span [name_id, start, end, parent, raised, note]."""
        table = sorted(set(self.names))
        ids = {n: k for k, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [[ids[n], round(s - t0, 9), round(e - t0, 9), p, int(r), note]
                for n, s, e, p, r, note in zip(self.names, self.starts, self.ends,
                                               self.parents, self.raised, self.notes)]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": table, "spans": rows}, fh, separators=(",", ":"))
