"""Outside-in tracing of rydfm, from the benchmark's side only.

Every public function defined in a ``rydfm`` module is replaced, for the
duration of a ``with Tracer(rydfm):`` block, by a wrapper that records a
span.  The wrapper is bound under every name that held the original in any
rydfm module (``spectroscopy.susceptibility`` is ``quantum.susceptibility``
bound by ``from .quantum import ...``), so calls through either name are
seen.  Functions reached only through a dict or a closure (the CLI's
``run_*`` runners, ``quantum._steady_rho21_many``) are not wrapped: their
time is self time of the nearest wrapped caller.

Spans are kept in memory as ``(name, parent_id, start, end)`` with the id
being the list index, and written out by :meth:`Tracer.write_spans`.  Self
time, a span's duration minus the time its child spans cover, is summed
per (root, name) as spans close.  A few counters are taken where the work
happens:

* ``quantum.velocity_nodes`` - velocity nodes passed to the evaluator of
  every ``doppler_average`` call, and ``final_level_nodes`` - the nodes of
  each call's last (returned) mesh level;
* ``carriers`` - points of every ``fm_probe_scan`` carrier grid;
* nested call counts, e.g. ``fm_response`` calls made inside
  ``sensitivity_estimate``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (outer, inner): count the calls of `inner` made while `outer` is running
NESTED = (
    ("analysis.sensitivity_estimate", "pipelines.fm_response"),
    ("pipelines.fm_probe_scan", "quantum.susceptibility"),
)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        # name -> original function, for every public function of every module
        self.functions = {}
        for module in self.modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    self.functions[f"{short}.{attr}"] = obj
        self._nested_outer = defaultdict(list)
        for outer, inner in NESTED:
            self._nested_outer[inner].append(outer)
        self._patched = []
        self.reset()

    # --- recording -----------------------------------------------------------

    def reset(self) -> None:
        """Forget every span and counter (the patches stay)."""
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)    # (root, name) -> seconds
        self.nested = Counter()             # (outer, inner) -> calls
        self.velocity_nodes = 0
        self.final_level_nodes = 0
        self.carriers = 0
        self._root = None
        self._stack = [[-1, None, 0.0]]     # [span id, name, child time]

    def root(self, name: str):
        """Context manager for a top-level span opened by the benchmark."""
        return _Root(self, name)

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        frame = [sid, name, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, t0, t1):
        self._stack.pop()
        parent = self._stack[-1]
        dur = t1 - t0
        self.spans[frame[0]] = (frame[1], parent[0], t0, t1)
        parent[2] += dur
        self.calls[frame[1]] += 1
        self.self_s[(self._root, frame[1])] += dur - frame[2]

    def _wrap(self, name, fn):
        tracer = self
        outers = self._nested_outer.get(name, ())
        hook = {"quantum.doppler_average": self._count_nodes,
                "pipelines.fm_probe_scan": self._count_carriers}.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for outer in outers:
                if any(f[1] == outer for f in tracer._stack):
                    tracer.nested[(outer, name)] += 1
            frame = tracer._open(name)
            t0 = perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, signature, args, kwargs)
            finally:
                tracer._close(frame, t0, perf_counter())

        return traced

    def _count_nodes(self, fn, signature, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        evaluator = bound.arguments.get("f")
        if evaluator is None:
            return fn(*args, **kwargs)
        sizes = []

        def counted(v):
            sizes.append(int(np.size(v)))
            return evaluator(v)

        bound.arguments["f"] = counted
        try:
            return fn(*bound.args, **bound.kwargs)
        finally:
            self.velocity_nodes += sum(sizes)
            self.final_level_nodes += sizes[-1] if sizes else 0

    def _count_carriers(self, fn, signature, args, kwargs):
        grid = signature.bind(*args, **kwargs).arguments.get("carrier_grid")
        if grid is not None:
            self.carriers += int(np.size(grid))
        return fn(*args, **kwargs)

    # --- patching ------------------------------------------------------------

    def __enter__(self):
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.functions.items()}
        originals = {id(fn): fn for fn in self.functions.values()}
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and obj is originals[id(obj)]:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        return self

    def __exit__(self, *exc):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()
        return False

    # --- results -------------------------------------------------------------

    def self_by_name(self) -> dict[str, float]:
        out = defaultdict(float)
        for (_, name), value in self.self_s.items():
            out[name] += value
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,start_s,end_s\n")
            for sid, (name, parent, t0, t1) in enumerate(self.spans):
                handle.write(f"{sid},{parent},{name},{t0:.9f},{t1:.9f}\n")


class _Root:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._root = self.name
        self.frame = self.tracer._open(self.name)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.frame, self.t0, perf_counter())
        return False
