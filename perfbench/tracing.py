"""Outside-in tracing of folgal's layers, installed by the benchmark worker.

Each traced function is replaced, at every module attribute bound to it, by
a wrapper that counts calls and records a span.  ``from .polyops import
mpoly_gcd`` copies the function into ``galois``, ``ratfunc``, ``solve2d`` and
others, so every folgal module is searched for the same object.  Field
multiplication, ``RationalFunction`` construction and ``FieldSplit`` are
counted at class level.  ``FactorUnavailable`` raised out of
``factor_irreducible`` is counted too.

A layer's total time counts only its outermost activation, so recursion is
not counted twice; its self time is its span's duration minus the time spent
in traced children.  Spans stay in memory until the caller takes them.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

from folgal.sympy_bridge import FactorUnavailable

# layer name -> (module, attribute); the attribute is a module-level function
FUNCTION_LAYERS = {
    "polyops.mpoly_gcd": ("polyops", "mpoly_gcd"),
    "polyops.squarefree_decompose": ("polyops", "squarefree_decompose"),
    "polyops.is_square_over_closure": ("polyops", "is_square_over_closure"),
    "polyops.resultant": ("polyops", "resultant"),
    "numberfield.inverse": ("numberfield", "_invert"),
    "ratfunc.compose_poly": ("ratfunc", "compose_poly"),
    "solve2d.common_zeros": ("solve2d", "common_zeros"),
    "local.classify_singularities": ("local", "classify_singularities"),
    "local.resolve_germ": ("local", "resolve_germ"),
    "local.germ_delta": ("local", "germ_delta"),
    "sympy_bridge.factor_irreducible": ("sympy_bridge", "factor_irreducible"),
    "foliation.inflection_divisor": ("foliation", "inflection_divisor"),
    "foliation.singular_locus": ("foliation", "singular_locus"),
    "monodromy.cross_check": ("monodromy", "cross_check"),
    "klein1d.classify": ("klein1d", "classify"),
    "galois.detect_symmetry": ("galois", "detect_symmetry"),
    "galois.reduce_to_p1": ("galois", "reduce_to_p1"),
    "galois.branching_and_genus": ("galois", "branching_and_genus"),
    "galois.deck_transformations": ("galois", "deck_transformations"),
    "galois.verify_deck": ("galois", "verify_deck"),
    "report.analysis_report": ("report", "analysis_report"),
    "linalg.rref": ("linalg", "rref"),
}

# layer name -> (module, class, methods); every method gets the same wrapper
CLASS_LAYERS = {
    "numberfield.mul": ("numberfield", "FieldElement", ("__mul__", "__rmul__")),
    "ratfunc.RationalFunction": ("ratfunc", "RationalFunction", ("__init__",)),
    "numberfield.FieldSplit": ("numberfield", "FieldSplit", ("__init__",)),
}

# layers too hot to keep one span per call; they are counted and timed only
NO_SPANS = {"numberfield.mul", "numberfield.inverse", "numberfield.FieldSplit"}


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.unavailable = 0  # FactorUnavailable raised by factor_irreducible
        self.spans: list[tuple] = []
        self._depth: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 1
        self._origin = perf_counter()

    def wrap(self, name: str, fn):
        keep_span = name not in NO_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack = self._stack
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            depth = self._depth
            depth[name] = depth.get(name, 0) + 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except FactorUnavailable:
                if name == "sympy_bridge.factor_irreducible":
                    self.unavailable += 1
                raise
            finally:
                end = perf_counter()
                elapsed = end - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                depth[name] -= 1
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - frame[1]
                if not depth[name]:
                    self.total[name] = self.total.get(name, 0.0) + elapsed
                if keep_span:
                    self.spans.append((span_id, parent, name,
                                       start - self._origin, end - self._origin))

        return traced

    def install(self):
        """Wrap every traced layer at each attribute bound to it."""
        modules = {m for m, _ in FUNCTION_LAYERS.values()}
        modules |= {m for m, _, _ in CLASS_LAYERS.values()}
        for mod in sorted(modules):
            importlib.import_module(f"folgal.{mod}")
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "folgal" or n.startswith("folgal."))]
        for name, (mod, attr) in FUNCTION_LAYERS.items():
            original = getattr(sys.modules[f"folgal.{mod}"], attr)
            wrapper = self.wrap(name, original)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for name, (mod, cls_name, methods) in CLASS_LAYERS.items():
            cls = getattr(sys.modules[f"folgal.{mod}"], cls_name)
            wrapper = self.wrap(name, getattr(cls, methods[0]))
            for method in methods:
                setattr(cls, method, wrapper)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "unavailable": self.unavailable,
            "spans": list(self.spans),
        }
