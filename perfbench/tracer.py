"""Spans and call counts around the public functions of the ``qko`` modules.

The tracer is installed from outside the program: it replaces every public
function of each ``qko`` module by a wrapper that records a span, and it
patches the ``Cyclo`` arithmetic on the class.  Spans stay in memory and are
written out once, when the job ends.  A span is the list
``[name, start, end, parent, job, tag]``: ``parent`` is the index of the
enclosing span in the same job (-1 at top level) and ``tag`` refines the name
(the conductor, for ``cyclotomic.inverse``) or is ``None``.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

# Cyclo arithmetic runs about 10^5 times per job: counted, not spanned.
COUNTED_METHODS = {"__add__": "cyclotomic.add", "__radd__": "cyclotomic.add",
                   "__mul__": "cyclotomic.mul", "__rmul__": "cyclotomic.mul"}


class Tracer:
    """The spans and call counts of one job."""

    def __init__(self, job: str) -> None:
        self.job = job
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def spanned(self, name: str, fn, tag_of=None):
        spans, stack, job = self.spans, self._stack, self.job
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, job,
                    tag_of(args) if tag_of else None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch the already imported ``qko`` modules in place."""
        modules = [module for name, module in sorted(sys.modules.items())
                   if name == "qko" or name.startswith("qko.")]
        replace: dict[int, object] = {}
        for module in modules:
            short = module.__name__.removeprefix("qko.")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and _is_function(obj)
                        and getattr(obj, "__module__", None) == module.__name__):
                    replace[id(obj)] = self.spanned(f"{short}.{attr}", obj)
        # A function imported by name is bound in the importing module too,
        # and cli dispatches through a dict: rebind every such reference.
        for module in modules:
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in replace:
                    namespace[attr] = replace[id(obj)]
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replace:
                            obj[key] = replace[id(value)]

        cyclo = getattr(sys.modules.get("qko.cyclotomic"), "Cyclo", None)
        methods = dict(vars(cyclo)) if cyclo is not None else {}
        for attr, name in COUNTED_METHODS.items():
            if attr in methods:
                setattr(cyclo, attr, self.counted(name, methods[attr]))
        if "inverse" in methods:
            cyclo.inverse = self.spanned("cyclotomic.inverse", methods["inverse"],
                                         tag_of=lambda args: f"c{args[0].conductor}")


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")

