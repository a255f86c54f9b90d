"""Span tracing of causalbn's public functions, applied from outside the package.

``Tracer.install()`` replaces every public function of every loaded
``causalbn`` module, at every module namespace that binds it (so
``latent.joint`` as well as ``bayesnet.joint``), and the public methods of
the ``Factor`` and ``Dataset`` classes, with a wrapper that records one
span per call: (name, start, end, parent index).  ``restore()`` puts the
original objects back.  Spans stay in memory until the run ends.

A span is named ``<module>.<qualname>`` with the ``causalbn.`` prefix
dropped, e.g. ``bayesnet.joint`` or ``bayesnet.Factor.marginal``.  A
function that does not exist at the traced commit is simply never
wrapped; metrics that name it are reported as absent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "causalbn"
#: classes whose public methods are layers of their own
METHOD_CLASSES = ("Factor", "Dataset")


def _entries(net) -> int:
    total = 1
    for var in net.variables.values():
        total *= len(var.states)
    return total


#: span name -> f(args, result) giving a size recorded with the span
SIZERS = {
    "modelfile.parse_model": lambda args, result: len(args[0].encode("utf-8")),
    "bayesnet.joint": lambda args, result: _entries(args[0]),
    "intervention.interventional_distribution": lambda args, result: _entries(args[0].net),
    "bayesnet.Dataset.to_csv": lambda args, result: len(result.encode("utf-8")),
    "latent.bias_scan": lambda args, result: len(result),
    "intervention.select_sufficient_confounders": lambda args, result: len(result.audit),
}


def span_name(fn) -> str:
    module = fn.__module__.removeprefix(PACKAGE + ".")
    return f"{module}.{fn.__qualname__}"


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - union_length(children[i], start, end)
        for i, (_, start, end, _) in enumerate(spans)
    ]


def within(spans, root: str) -> list[bool]:
    """For each span, whether it is ``root`` or nested under a ``root`` span."""
    flags: list[bool] = []
    for name, _, _, parent in spans:
        flags.append(name == root or (parent >= 0 and flags[parent]))
    return flags


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list = []
        self.sizes: dict[int, int] = {}
        self.names: set[str] = set()
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn):
        name = span_name(fn)
        sizer = SIZERS.get(name)
        spans, stack, sizes = self.spans, self._stack, self.sizes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if sizer is not None:
                try:
                    sizes[idx] = sizer(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # the API changed shape; leave the size absent
            return result

        self.names.add(name)
        return traced

    def _targets(self):
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE):
                    yield module, attr, obj
                elif (
                    inspect.isclass(obj)
                    and obj.__name__ in METHOD_CLASSES
                    and obj.__module__ == module.__name__
                ):
                    for mattr, mobj in list(vars(obj).items()):
                        if not mattr.startswith("_") and inspect.isfunction(mobj):
                            yield obj, mattr, mobj

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for owner, attr, fn in list(self._targets()):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])

    def restore(self) -> None:
        self.active = False
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, and the sum of recorded sizes."""
        out = {n: {"calls": 0, "self_s": 0.0, "size": 0} for n in self.names}
        for i, ((name, _, _, _), own) in enumerate(zip(self.spans, self_times(self.spans))):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += own
            row["size"] += self.sizes.get(i, 0)
        return out

    def count_within(self, root: str, names) -> int:
        """Spans named in ``names`` that run inside a ``root`` span."""
        names = set(names)
        return sum(
            1 for (name, *_), inside in zip(self.spans, within(self.spans, root))
            if inside and name in names
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
