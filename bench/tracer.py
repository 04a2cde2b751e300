"""Spans around rwde's layer entry points, installed from outside the package.

Each layer is one rwde module.  Its public functions are wrapped wherever a
module of the package binds them (``from .x import f`` copies the binding, so
patching the defining module alone would miss callers), together with a few
named internal entry points that carry a layer's work: the line walker's
three output modes, its environment block samplers, the gamma row sampler and
the graph and environment constructors.  A span's self time is its duration
minus the time its child spans cover; a layer's busy time is the sum of the
self times of its spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("model", "graphs", "kappa", "environment", "solver", "walk", "stats", "verify")

# (layer, module, class, attribute, work) for entry points that are not
# public module functions.  `work` maps (args, result) to units of work.
_EXTRA = (
    ("environment", "environment", None, "_gamma_rows", lambda a, out: a[2]),
    ("environment", "environment", "Environment", "__init__", None),
    ("environment", "walk", "_LineWalker", "_nn_block", None),
    ("environment", "walk", "_LineWalker", "_gen_block", None),
    ("graphs", "graphs", "WeightedDigraph", "__init__", None),
    ("graphs", "graphs", "WeightedDigraph", "reversed", None),
    ("walk", "walk", "_LineWalker", "final_position", lambda a, out: a[2]),
    ("walk", "walk", "_LineWalker", "positions", lambda a, out: a[2]),
    ("walk", "walk", "_LineWalker", "first_time_at_or_above",
     lambda a, out: a[3] if out is None else out),
)

# The search's work is its node count; it also counts certified results.
SEARCH = "kappa.kappa0_search"
_WORK = {SEARCH: lambda a, out: out.nodes_explored}


class Tracer:
    """Per-job span statistics: ``begin()`` clears them, ``snapshot()``
    returns (busy seconds per layer, {entry point: [calls, inclusive s,
    self s, work, certified searches]})."""

    def __init__(self):
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)
        self.busy = {}
        self.funcs = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"rwde.{layer}")
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    key = f"{layer}.{name}"
                    self._patch_everywhere(obj, self._wrap(obj, layer, key, _WORK.get(key)))
        for layer, modname, clsname, attr, work in _EXTRA:
            mod = importlib.import_module(f"rwde.{modname}")
            if clsname is None:
                obj = getattr(mod, attr)
                self._patch_everywhere(obj, self._wrap(obj, layer, f"{layer}.{attr}", work))
            else:
                cls = getattr(mod, clsname)
                obj = vars(cls)[attr]
                self._patches.append((cls, attr, obj, self._wrap(obj, layer, f"{clsname}.{attr}", work)))

    def _patch_everywhere(self, original, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "rwde" and not name.startswith("rwde."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, fn, layer, key, work):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self.busy[layer] = self.busy.get(layer, 0.0) + dt - child
                st = self.funcs.get(key)
                if st is None:
                    st = self.funcs[key] = [0, 0.0, 0.0, 0, 0]
                st[0] += 1
                st[1] += dt
                st[2] += dt - child
            if work is not None:
                st[3] += work(args, out)
            if key == SEARCH:
                st[4] += bool(out.certified)
            return out

        return span

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def begin(self) -> None:
        self.busy = {}
        self.funcs = {}

    def snapshot(self) -> tuple:
        return self.busy, self.funcs
