"""In-memory span tracing for the benchmark.

A ``Tracer`` replaces the public module-level functions of the measured
``depthseg`` modules with wrappers that record one span per call. The
library's source is not edited: the wrappers work because the library calls
across (and within) modules through module attributes, so ``geometry.warp``
called from ``refine.refine_depth_full`` or ``losses.multiscale_photometric``
is recorded as a child span of its caller.

A span is ``[name, start, end, parent, frame]``: ``parent`` is the index of
the enclosing span (-1 for a top-level span) and ``frame`` the frame id set by
the harness (None during set-up). Spans stay in memory until the run ends.

Inside frames, the tracer also adds up counts taken from a call's public
outputs (``COUNTERS``) and keeps the confidence masks that the
``split_confidence_by_*`` calls return (``KEPT``), so that the wavefront work
can be counted after the run, outside every span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from collections import defaultdict

import numpy as np

# the layers of the benchmark; ``arch`` is table bookkeeping with no compute
# path and is left unmeasured on purpose
LAYERS = ("refine", "geometry", "losses", "metrics", "synth", "tensorio",
          "cli")


def _warp_counts(args, kwargs, result):
    valid = result[1]
    return {"valid_px": int(valid.sum()), "px": int(valid.size)}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _changed(name):
    """Pixels where a pass's output differs from its first argument."""
    def count(args, kwargs, result):
        before = np.asarray(_arg(args, kwargs, 0, name))
        return {"changed_px": int((result != before).sum())}
    return count


# counts taken from public outputs at a span boundary, only inside frames
COUNTERS = {
    "geometry.warp": _warp_counts,
    "tensorio.save_tensor": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "tensorio.load_tensor": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "refine.refine_segmentation_with_depth": _changed("y"),
    "refine.refine_depth_with_segmentation": _changed("depth"),
}

# the (confident, unreliable) masks of each pass's split, one list per call,
# kept by reference in the frames the harness marks with ``keep``
KEPT = {
    "refine.split_confidence_by_agreement": lambda r: [(r.confident,
                                                        r.unreliable)],
    "refine.split_confidence_by_consistency": lambda r: [
        (s.confident, s.unreliable) for s in r],
}


def public_functions(module):
    """Public functions defined in ``module`` itself (not imported ones)."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self.kept: dict[str, list] = defaultdict(list)
        self.frame = None
        self.keep = False
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.frame])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        keeper = KEPT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if self.frame is not None:
                if counter is not None:
                    for key, value in counter(args, kwargs, result).items():
                        self.counts[name][key] += value
                if keeper is not None and self.keep:
                    self.kept[name].append(keeper(result))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, modules):
        """Replace every public function of each module with a wrapper, and
        put the originals back on exit."""
        originals = []
        try:
            for module in modules:
                layer = module.__name__.rsplit(".", 1)[-1]
                for name, fn in public_functions(module).items():
                    originals.append((module, name, fn))
                    setattr(module, name, self.wrap(f"{layer}.{name}", fn))
            yield self
        finally:
            for module, name, fn in reversed(originals):
                setattr(module, name, fn)


def self_times(spans) -> list[float]:
    """Span duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
