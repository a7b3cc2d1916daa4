"""Outside-in span tracer for msc3d and the self-time arithmetic over its spans.

The tracer wraps, from outside the package, every public function that the
modules in ``MODULES`` bind as globals (so ``msc3d.complexity.block_downsample``
is wrapped where ``complexity`` calls it), plus ``Volume3D.__post_init__``.
Nothing under ``src/`` changes. Spans are kept in memory; only the process
that installed the tracer records, so forked batch workers run unwrapped
code paths at full speed and leave no spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
from time import perf_counter
from typing import Any, Callable, NamedTuple

MODULES = ("npy_io", "volume", "coarse", "complexity", "stats", "cli")
# Spans of these functions carry the scale factor they ran at, so per-factor
# layer metrics can be reported; read_npy spans carry the path they read.
FACTOR_LAYERS = {"coarse.block_downsample": "factor", "complexity.complexity_map": "scale_factor"}
INFO_ARG = {**FACTOR_LAYERS, "npy_io.read_npy": "path"}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int  # id of the benchmark op the span belongs to
    info: Any = None


class Tracer:
    """Records one span per call of each wrapped msc3d function."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.op = -1
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        info_arg = INFO_ARG.get(name)
        signature = inspect.signature(fn) if info_arg else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            info = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                info = bound.arguments[info_arg]
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op, info)

        return traced

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public functions bound in each msc3d module."""
        wrappers: dict[int, Callable] = {}
        for short in MODULES:
            module = sys.modules[f"msc3d.{short}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("msc3d."):
                    continue
                if id(value) not in wrappers:
                    name = f"{value.__module__.split('.', 1)[1]}.{value.__name__}"
                    wrappers[id(value)] = self._wrap(value, name)
                self._patch(module, attr, wrappers[id(value)])
        volume_cls = sys.modules["msc3d.volume"].Volume3D
        self._patch(volume_cls, "__post_init__", self._wrap(volume_cls.__post_init__, "volume.Volume3D"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def finished(self) -> list[Span]:
        """Completed spans; an open span would mean a wrapper never returned."""
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("tracer still has open spans")
        return list(self.spans)


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _covered(s.start, s.end, kids) for s, kids in zip(spans, children)]


def layer_key(span: Span) -> str:
    """Metric prefix of a span: its name, plus ``.f<factor>`` for factor-tagged layers."""
    if span.name in FACTOR_LAYERS:
        return f"{span.name}.f{span.info}"
    return span.name


def layer_stats(spans: list[Span], ops: set[int]) -> dict[str, dict[str, float]]:
    """Per layer key: median self time per call (``s``) and calls per op (``calls``).

    Only spans whose op is in ``ops`` count, but self time is computed on the
    whole tree first, so a filtered-out parent never changes a child's figure.
    """
    selfs = self_times(spans)
    per_key: dict[str, list[float]] = {}
    for span, own in zip(spans, selfs):
        if span.op in ops:
            per_key.setdefault(layer_key(span), []).append(own)
    n_ops = max(1, len(ops))
    return {
        key: {"s": statistics.median(values), "calls": len(values) / n_ops}
        for key, values in per_key.items()
    }
