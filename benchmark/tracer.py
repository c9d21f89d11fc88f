"""Outside-in tracer: spans around the calls into each cvhilbert layer.

`install` replaces every public module-level function of the package, in
every module namespace that binds it (so the names `cli` and `pairing` take
in with `from ... import` are covered too), with a wrapper that records a
span. It also wraps `UnitaryRepresentation.__post_init__` (the span
`representations.verify`) and the numpy kernels `linalg.svd`, `linalg.eigh`
and `linalg.eigvalsh`. The per-element helpers (`compose`, and the methods
`mult`, `apply`, `permutation`) stay unwrapped to keep the overhead low.
`uninstall` puts every original back. The program's code is not changed.

Spans are kept in memory as (name, parent index, start ns, end ns, raised,
computed count) and written out by the caller at the end of the run.
A layer is the module that defines the function, or `linalg` for the numpy
kernels. Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("groups", "variables", "representations", "coherent", "pairing",
          "spectra", "spin", "cli", "linalg")
UNWRAPPED = frozenset({"compose"})
LINALG_KERNELS = ("svd", "eigh", "eigvalsh")

# Counts computed from the objects a wrapped call receives or returns:
# span name -> (counter name, function of (args, result)).
COMPUTED = {
    "groups.generate_permutation_group": (
        "groups.elements", lambda args, result: result[0].order),
    "representations.commutant_basis": (
        "representations.commutant_rows",
        lambda args, result: args[0].group.order * args[0].dim ** 2),
    "representations.verify": (
        "representations.hom_pairs", lambda args, result: args[0].group.order ** 2),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        computed = COMPUTED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result, raised = None, True
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                count = None if raised or computed is None else computed[1](args, result)
                spans[idx] = (name, parent, t0, t1, raised, count)

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, package_modules: dict, linalg_module, rep_class) -> None:
        """Wrap the public functions bound in `package_modules` (layer -> module)."""
        wrappers: dict = {}
        defined_in = {mod.__name__: layer for layer, mod in package_modules.items()}
        for mod in package_modules.values():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or attr in UNWRAPPED
                        or not inspect.isfunction(obj)
                        or obj.__module__ not in defined_in):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{defined_in[obj.__module__]}.{obj.__name__}")
                self._patch(mod, attr, wrappers[obj])
        for kernel in LINALG_KERNELS:
            self._patch(linalg_module, kernel,
                        self._wrap(getattr(linalg_module, kernel), f"linalg.{kernel}"))
        self._patch(rep_class, "__post_init__",
                    self._wrap(rep_class.__post_init__, "representations.verify"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def aggregate(self, start: int, end: int) -> dict[str, float]:
        """Per-name and per-layer totals over the spans start..end-1.

        Keys: `<name>.s` (self seconds), `<name>.calls`, `<layer>.self_s`,
        `<layer>.raised` (exceptions leaving the layer, that is, raised by a
        span whose parent is in another layer or is the caller) and the
        computed counters.
        """
        spans = self.spans
        child_ns = defaultdict(int)
        for i in range(start, end):
            name, parent, t0, t1, _, _ = spans[i]
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.raised"] = 0
        for counter, _ in COMPUTED.values():
            out[counter] = 0
        for i in range(start, end):
            name, parent, t0, t1, raised, count = spans[i]
            layer = name.split(".", 1)[0]
            self_s = (t1 - t0 - child_ns[i]) / 1e9
            out[f"{name}.s"] += self_s
            out[f"{name}.calls"] += 1
            out[f"{layer}.self_s"] += self_s
            if raised and (parent < 0 or spans[parent][0].split(".", 1)[0] != layer):
                out[f"{layer}.raised"] += 1
            if count is not None:
                out[COMPUTED[name][0]] += count
        return out

    def write(self, path) -> None:
        """One JSON line per span: name, parent, start and end in ns, raised."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, t0, t1, raised, count) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start_ns": t0, "end_ns": t1,
                                     "raised": raised, "computed": count}) + "\n")
