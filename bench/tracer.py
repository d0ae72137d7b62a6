"""Tracing of latstat's layers from the outside.

The tracer never edits latstat.  While active it swaps, in every latstat
module namespace, each public function for a timing wrapper, wraps the
`fn` of every functional that a public factory returns, and (optionally)
replaces the `meet`/`join` methods of the lattice classes with counting
wrappers.  Everything is restored on exit.

Spans are aggregated as they close rather than stored: a scan makes
millions of functional calls, and keeping one record per call would cost
more memory than the scan itself.  A layer's self time is its spans'
duration minus the part covered by their child spans.

Not wrapped, so their time lands in the calling layer:
- `latstat.scalars` (no call boundary worth wrapping: its Fraction cost
  shows inside the functional evaluations);
- the hot element helpers `fn_meet`, `fn_join`, `fn_leq`, `fn_diff`;
- lattice `meet`/`join` methods, which are counted, not timed.

The tracer is single-threaded: callers exclude multi-worker scans.
"""

from __future__ import annotations

import importlib
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("lattice", "semimod", "constructions", "correlation", "generators",
          "acceptance", "jsonio", "cli")
UNWRAPPED = {"fn_meet", "fn_join", "fn_leq", "fn_diff"}
FACTORIES = {"schur_construct", "potential_construct", "multiadd_symmetric_sum",
             "scalar_quadratic"}
SCANS = {"check_generalized_n", "check_generalized_nk"}


class Tracer:
    """Context manager collecting per-layer self time and call counts."""

    def __init__(self, count_lattice_ops: bool = True):
        self.count_lattice_ops = count_lattice_ops
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.meet_join_calls = 0
        self.eval_calls = 0
        self.eval_calls_in_scans = 0
        self.instances = 0
        self._stack = []
        self._scan_depth = 0
        self._undo = []

    # --- span bookkeeping ---

    def _close(self, layer, t0, t1):
        dt = t1 - t0
        child = self._stack.pop()
        self.self_s[layer] += dt - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1] += dt

    def _wrap_function(self, layer, name, func):
        tracer = self
        is_factory = name in FACTORIES
        is_scan = name in SCANS

        def wrapper(*args, **kwargs):
            tracer._stack.append(0.0)
            if is_scan:
                tracer._scan_depth += 1
            t0 = perf_counter()
            try:
                out = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if is_scan:
                    tracer._scan_depth -= 1
                tracer._close(layer, t0, t1)
            if is_factory:
                out.fn = tracer._wrap_eval(out.fn)
            if is_scan:
                tracer.instances += out.instances_checked
            return out

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        return wrapper

    def _wrap_eval(self, fn):
        tracer = self

        def traced_fn(args):
            tracer._stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(args)
            finally:
                t1 = perf_counter()
                tracer._close("constructions", t0, t1)
                tracer.eval_calls += 1
                if tracer._scan_depth:
                    tracer.eval_calls_in_scans += 1

        return traced_fn

    def _count_method(self, method):
        tracer = self

        def counted(obj, a, b):
            tracer.meet_join_calls += 1
            return method(obj, a, b)

        return counted

    # --- install / restore ---

    def __enter__(self):
        mods = {name: importlib.import_module(f"latstat.{name}") for name in LAYERS}
        namespaces = list(mods.values()) + [importlib.import_module("latstat")]
        replacements = {}
        for layer in LAYERS:
            mod = mods[layer]
            for name, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__ and name not in UNWRAPPED):
                    replacements[id(obj)] = (obj, self._wrap_function(layer, name, obj))
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((ns, name, obj))
                    setattr(ns, name, hit[1])
        if self.count_lattice_ops:
            from latstat.correlation import ExplicitSublattice
            from latstat.lattice import FnLattice, TableLattice
            for cls in (FnLattice, TableLattice, ExplicitSublattice):
                for name in ("meet", "join"):
                    original = cls.__dict__[name]
                    self._undo.append((cls, name, original))
                    setattr(cls, name, self._count_method(original))
        return self

    def __exit__(self, *exc):
        for ns, name, obj in reversed(self._undo):
            setattr(ns, name, obj)
        self._undo.clear()
        return False

    # --- results ---

    @property
    def memo_hit_ratio(self) -> float:
        """Share of scan value lookups served by the scan memo: every scanned
        instance looks up two tuples, and each miss is one evaluation."""
        lookups = 2 * self.instances
        return 1.0 - self.eval_calls_in_scans / lookups if lookups else 0.0

    def self_seconds(self) -> dict:
        return {layer: self.self_s.get(layer, 0.0) for layer in LAYERS}
