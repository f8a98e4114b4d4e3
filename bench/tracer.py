"""Spans around the public functions of `rmvhash` modules, recorded from outside.

`Tracer.install` replaces each public function of the given modules with a
wrapper that records a span (name, start, end, parent). Calls inside the
package go through module attributes, so they are traced as well. Spans stay
in memory and are summarised by `Tracer.summary` when a traced pass ends.
"""

import functools
import inspect
import time


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self._originals = []

    def install(self):
        for module in self.modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(module).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{short}.{attr}", fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def reset(self):
        self.spans.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        return traced

    def summary(self):
        """Per function: calls (every span), seconds (spans with no ancestor of
        the same name, so recursion is not counted twice); per module: self
        seconds (span time not covered by child spans)."""
        calls, seconds, module_self = {}, {}, {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            if not self._has_ancestor(parent, name):
                seconds[name] = seconds.get(name, 0.0) + end - start
            module = name.split(".", 1)[0]
            module_self[module] = module_self.get(module, 0.0) + (end - start) - child_time[idx]
        return calls, seconds, module_self

    def _has_ancestor(self, parent, name):
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
