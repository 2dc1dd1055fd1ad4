"""Per-layer tracing installed from outside the library by replacing module attributes.

Every public function of the seven qgeo modules is wrapped in a span, and
the wrapper is bound under every name that held the original, in every qgeo
module (``from .x import y`` copies the binding, so patching the defining
module alone would miss calls from ``diagrams`` and ``cli``).  The hot
methods ``Quaternion.__mul__``/``__rmul__``/``inverse`` and
``numpy.random.default_rng`` are only counted, because a span costs about as
much as one of those calls.  Spans are kept in flat arrays in memory and
written out once, when the traced run ends.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("quaternion", "states", "conformal", "local_unitary", "moebius", "diagrams", "cli")

# Private helper traced as a span of its own: the rejection sampler of the
# witness searches.  Its random_local_unitary children are the draws and
# its own calls the accepted transforms (diagrams.accept_ratio).
_REJECTION_SAMPLER = "_sample_transform_rejected"
_REJECTION_SAMPLER_NAME = f"diagrams.{_REJECTION_SAMPLER}"


class Tracer:
    """Spans (name, start, end, parent, run id) and call counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self.counts = {"quaternion.mul": 0, "quaternion.inverse": 0, "states.default_rng": 0}
        self.probe_span = array("i")
        self.probe_s = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"qgeo.{layer}") for layer in LAYERS}
        binders = [importlib.import_module("qgeo"), *mods.values()]
        wrappers = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                public = not attr.startswith("_") or (
                    layer == "diagrams" and attr == _REJECTION_SAMPLER
                )
                if public and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._span(fn, f"{layer}.{attr}")
        for mod in binders:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])

        quaternion = mods["quaternion"].Quaternion
        self._patch(quaternion, "__mul__", self._counted(quaternion.__mul__, "quaternion.mul"))
        self._patch(quaternion, "__rmul__", self._counted(quaternion.__rmul__, "quaternion.mul"))
        self._patch(quaternion, "inverse", self._counted(quaternion.inverse, "quaternion.inverse"))
        self._patch(np.random, "default_rng", self._counted(np.random.default_rng, "states.default_rng"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self._stack
        name_id, parent, run, start, end = self.name_id, self.parent, self.run, self.start, self.end

        def span(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            run.append(self.run_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        span.__wrapped__ = fn
        return span

    def _counted(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def probe_hit(self, duration: float) -> None:
        """Record a speed probe that ran inside the innermost open span."""
        self.probe_span.append(self._stack[-1])
        self.probe_s.append(duration)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Exact call counts per span name and self seconds per layer.

        A span's self time is its duration minus the durations of its direct
        children, and minus any speed probe that interrupted it; children of
        one span never overlap in this single-threaded program.
        """
        n = len(self.start)
        name_id = np.array(self.name_id)
        parent = np.array(self.parent)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        probe_span = np.array(self.probe_span)
        in_span = probe_span >= 0
        np.subtract.at(own, probe_span[in_span], np.array(self.probe_s)[in_span])
        layer_of = np.array([LAYERS.index(nm.split(".")[0]) for nm in self.names], dtype=np.intp)
        layer_self = np.bincount(layer_of[name_id], weights=own, minlength=len(LAYERS))
        calls = np.bincount(name_id, minlength=len(self.names))

        draws = 0
        if _REJECTION_SAMPLER_NAME in self.names:
            sampler = self.names.index(_REJECTION_SAMPLER_NAME)
            rlu = self.names.index("local_unitary.random_local_unitary")
            in_sampler = has_parent & (name_id[np.maximum(parent, 0)] == sampler)
            draws = int(np.count_nonzero(in_sampler & (name_id == rlu)))
        call_counts = {nm: int(c) for nm, c in zip(self.names, calls)}
        return {
            "spans": n,
            "calls": call_counts,
            "counts": dict(self.counts),
            "layer_self_s": {layer: float(s) for layer, s in zip(LAYERS, layer_self)},
            "rejection_draws": draws,
            "rejection_accepted": call_counts.get(_REJECTION_SAMPLER_NAME, 0),
        }

    def dump(self, path: str) -> None:
        """Write every span to an uncompressed .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id),
            parent=np.array(self.parent),
            run=np.array(self.run),
            start=np.array(self.start),
            end=np.array(self.end),
        )

