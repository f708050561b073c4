"""Spans and counts around the calls into each layer of ``pa``.

``Tracer.install`` replaces every public function of the ``pa`` modules,
under every module name through which it is looked up, with a wrapper that
records one span: name, parent span, start and end.  The entries of
``verify.CHECKS`` get one span per check, ``FinGroup.quotient`` gets a span,
and the products ``Isom3.__mul__`` and ``QuatExt.__mul__`` are only counted.
The program's caches stay as they are: a cached function is wrapped from
the outside, so a cache hit is a short span.  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "verify", "dihedral", "quat", "cosetenum", "cusplattice", "orbigraph", "slopes")

CHECK_IDS = (
    "brenner-filter", "cusp-236", "cusp-244", "dihedral-order",
    "heckoid-classification", "homology-cases", "isometry-groups", "no-floats",
    "normalizer-soundness", "theta-isom", "triangle-images", "triangle-orders",
)

# Inclusive seconds (".s") and call counts (".calls") reported per function.
FUNCTION_SECONDS = (
    "dihedral.params_for", "dihedral.gamma", "dihedral.normalizer",
    "dihedral.isom_quotient", "dihedral.isom_plus", "dihedral.exceptional_isom",
    "quat.close", "quat.quotient", "quat.recognize", "quat.dihedral_degree",
    "cosetenum.enumerate_cosets", "cosetenum.image_order", "cosetenum.coset_group",
    "cusplattice.spectrum", "cusplattice.attaining_orbits", "cusplattice.brenner_candidates",
    "orbigraph.make_heckoid", "orbigraph.make_dihedral", "orbigraph.h1_z2",
    "orbigraph.canonical_key", "cli.build_parser",
)
FUNCTION_CALLS = (
    "dihedral.gamma", "dihedral.normalizer", "dihedral.exceptional_isom",
    "quat.close", "quat.quotient", "cosetenum.enumerate_cosets",
)
# Work counts: products formed, elements closed, coset rows, lattice vectors.
COUNTS = (
    "quat.close.elements", "quat.mul.Isom3", "quat.mul.QuatExt",
    "cosetenum.cosets", "cusplattice.vectors",
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    out += [(f"verify.check.{cid}.s", "s") for cid in CHECK_IDS]
    out += [(f"{name}.s", "s") for name in FUNCTION_SECONDS]
    out += [(f"{name}.calls", "count") for name in FUNCTION_CALLS]
    out += [(name, "count") for name in COUNTS]
    out.append(("trace.overhead", "ratio"))
    return out


def _is_function(value) -> bool:
    """A plain function, or one behind functools.lru_cache."""
    return inspect.isfunction(value) or hasattr(value, "cache_info")


class Tracer:
    def __init__(self):
        # (name, parent index or -1, start, end, nested in a span of the
        # same name)
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._undo: list = []

    # -- recording -----------------------------------------------------------
    def wrap(self, fn, name: str, on_result=None):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = active[name] > 0
            active[name] += 1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                spans[index] = (name, parent, start, end, nested)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count_calls(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        modules = {m: importlib.import_module(f"pa.{m}") for m in LAYERS}
        counts = self.counts

        def add(name, amount):
            counts[name] += amount

        hooks = {
            "quat.close": lambda g: add("quat.close.elements", len(g)),
            "cosetenum.enumerate_cosets": lambda t: add(
                "cosetenum.cosets", t.n_cosets if t.status == "complete" else 0
            ),
            "cusplattice.vectors_with_coef2_at_most": lambda v: add(
                "cusplattice.vectors", len(v)
            ),
        }
        wrapped: dict[int, object] = {}
        for module in [importlib.import_module("pa"), *modules.values()]:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not _is_function(value):
                    continue
                home = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith("pa.") or home not in modules:
                    continue
                if id(value) not in wrapped:
                    name = f"{home}.{value.__name__}"
                    wrapped[id(value)] = self.wrap(value, name, hooks.get(name))
                self._patch(module, attr, wrapped[id(value)])

        quat, verify = modules["quat"], modules["verify"]
        self._patch(quat.FinGroup, "quotient", self.wrap(quat.FinGroup.quotient, "quat.quotient"))
        self._patch(quat.Isom3, "__mul__", self.count_calls(quat.Isom3.__mul__, "quat.mul.Isom3"))
        self._patch(
            quat.QuatExt, "__mul__", self.count_calls(quat.QuatExt.__mul__, "quat.mul.QuatExt")
        )
        for cid, (criterion, anchor, fn) in list(verify.CHECKS.items()):
            self._undo.append((verify.CHECKS, cid, verify.CHECKS[cid]))
            verify.CHECKS[cid] = (criterion, anchor, self.wrap(fn, f"verify.check.{cid}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- summaries -----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer calls and self time, per-function inclusive time and
        calls, and the work counts (``trace.overhead`` is the caller's)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        for index, (name, parent, start, end, nested) in enumerate(self.spans):
            layer = name.partition(".")[0]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += (end - start) - child_time[index]
            calls[name] += 1
            if not nested:
                inclusive[name] += end - start
        for cid in CHECK_IDS:
            out[f"verify.check.{cid}.s"] = inclusive[f"verify.check.{cid}"]
        for name in FUNCTION_SECONDS:
            out[f"{name}.s"] = inclusive[name]
        for name in FUNCTION_CALLS:
            out[f"{name}.calls"] = calls[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        return out
