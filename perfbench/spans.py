"""Span tracer that measures library layers from outside.

`Tracer.install` replaces the named functions by timing wrappers in every
module that holds them, re-imported names included (`jacobians.project_out`
is `appearance.project_out`), so nested calls become child spans.
`uninstall` puts the originals back, so untraced runs execute unwrapped
code.  Spans are kept in memory as (name, start, end, parent, group) and
written out once at the end.
"""

import contextlib
import json
import time

from aam_cgd import appearance, jacobians, shape_model, warp

import driver

MODULES = {"appearance": appearance, "jacobians": jacobians,
           "shape_model": shape_model, "warp": warp, "driver": driver}


class Tracer:
    def __init__(self, names):
        self.names = list(names)
        self.spans = []        # [name, start, end, parent index, group]
        self._stack = []
        self._group = None
        self._saved = []       # (module, attribute, original)

    def install(self):
        for qualname in self.names:
            mod_name, attr = qualname.split(".")
            original = getattr(MODULES[mod_name], attr)
            wrapper = self._wrap(qualname, original)
            for mod in MODULES.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._group]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def group(self, label, root):
        """Install, record everything inside under one root span named
        `root` and tagged `label` (say "fit-17"), then uninstall."""
        self._group = label
        self.install()
        span = [root, 0.0, 0.0, -1, label]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.uninstall()
            self._group = None

    def self_times(self):
        """(name, group, self seconds) per span: the span's duration minus
        the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(name, group, (t1 - t0) - child[i])
                for i, (name, t0, t1, _, group) in enumerate(self.spans)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "group"],
                       "spans": self.spans}, fh)

