"""Spans around the package's public functions, recorded from outside it.

``Tracer.install()`` wraps every public function of the traced layers and
rebinds it at every module-global name inside ``quantumtoss`` that refers to
it, so a call through ``cli.correlation_spectrum`` or ``roundwaves.psi`` is
recorded as well as a direct one.  Spans ``(name, start, end, parent)`` stay
in memory; ``uninstall()`` puts the original functions back.  A span's self
time is its duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "quantumtoss"
LAYERS = ("cli", "gamespace", "numerics", "correlation", "roundwaves", "reports", "svgplot")

# reports.format_field runs once per CSV field (up to ~10^6 times in one
# command); a span there would cost more than the work it times.  Its time
# stays in the self time of write_csv, the caller.
UNWRAPPED = frozenset({"reports.format_field"})


def _text_bytes(result):
    return len(result.encode("utf-8"))


# name -> (counter, amount of work in one call, from the call's result)
MEASURES = {
    "numerics.hermitian_eigen": ("numerics.hermitian_eigen.dim_sum", lambda r: r.eigenvalues.size),
    "roundwaves.psi": ("roundwaves.psi.points", lambda r: int(np.size(r))),
    "roundwaves.hermite_zeros": ("roundwaves.roots", lambda r: len(r)),
    "roundwaves.density_peaks": ("roundwaves.roots", lambda r: len(r.maxima)),
    "correlation.correlation_spectrum": ("correlation.rows", lambda r: len(r.rows)),
    "reports.write_csv": ("reports.bytes", _text_bytes),
    "reports.write_json": ("reports.bytes", _text_bytes),
    "svgplot.render_svg": ("svgplot.bytes", _text_bytes),
}


class Tracer:
    """Records spans and work counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.counters: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        measure = MEASURES.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name_id, start, time.perf_counter(), parent)
                stack.pop()
            if measure is not None:
                counters[measure[0]] += measure[1](result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in UNWRAPPED):
                    continue
                wrappers[obj] = self._wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def records(self):
        """Finished spans as (name, start, end, parent index)."""
        return [(self.names[s[0]], s[1], s[2], s[3]) for s in self.spans]


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its children.

    ``spans`` is a sequence of (name, start, end, parent index or -1).
    """
    children = collections.defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(spans, counters) -> dict[str, float]:
    """Per-function calls and self seconds, per-layer self seconds, counters."""
    out: dict[str, float] = collections.defaultdict(float)
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
        out[f"layer.{name.split('.')[0]}.self_s"] += own
    out.update(counters)
    return dict(out)
