"""Spans around lplattice's public functions, installed from outside the package.

`Tracer.install` replaces every public function of each layer module, in every
module namespace that binds it (``independence`` imports ``dcl`` by name,
``sublattice.lattice_join`` calls the module-global ``dcl``, ``verify`` imports
half the package), plus a few methods.  Each call then records a span: name,
request id, parent span, start and end.  Spans stay in memory as one flat
integer array and are written out by `write`.  `uninstall` puts every original
back.

Leaf calls that run per cell or per vector entry get no span, to bound the
overhead: ``core.close`` is left alone, and ``core.StepFunction``
constructions and ``core.norm`` calls are only counted.  Their time counts as
self time of the span that made them.
"""

from __future__ import annotations

import gzip
import importlib
import math
import time
import types
from array import array

LAYERS = ("core", "sublattice", "typespace", "independence", "scenario", "oracles", "verify")
# modules whose globals may hold a layer function under some name
NAMESPACES = ("lplattice",) + tuple(f"lplattice.{m}" for m in LAYERS + ("cli",))
UNWRAPPED = {"core.close"}
COUNTED = {"core.norm"}
# (module, class, attribute) -> span name; classmethods stay classmethods
METHOD_SPANS = {
    ("sublattice", "Sublattice", "make"): "sublattice.Sublattice.make",
    ("sublattice", "Sublattice", "lift"): "sublattice.Sublattice.lift",
    ("core", "Refinement", "__post_init__"): "core.Refinement",
}
METHOD_COUNTS = {("core", "StepFunction", "__post_init__"): "core.StepFunction"}
FIELDS = 6  # name id, request, parent, start ns, end ns, excluded ns
# ops whose time per request is fitted against the request's cell count
SLOPE_OPS = (
    "sublattice.dcl",
    "sublattice.lattice_join",
    "sublattice.cond_exp",
    "typespace.slice_profile",
    "independence.star_independent",
    "independence.canonical_base",
    "scenario.dumps",
)


class Tracer:
    def __init__(self) -> None:
        self.spans = array("q")
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack = [-1]
        self.request = -1
        self.counts: dict[str, int] = {}
        self.dcl_repeats = 0
        self._dcl_seen: set = set()
        self._patches: list[tuple[object, str, object]] = []
        # span name -> the function it wraps
        self.spanned: dict[str, object] = {}

    # --- requests ---------------------------------------------------------

    def begin_request(self, request: int) -> None:
        self.request = request
        self._dcl_seen = set()

    # --- wrappers ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        self.spanned[name] = fn
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        def wrapper(*args, **kwargs):
            i = len(spans) // FIELDS
            spans.extend((nid, tracer.request, stack[-1], 0, 0, 0))
            stack.append(i)
            start = clock()
            spans[i * FIELDS + 3] = start
            try:
                if hook is not None:
                    args, kwargs = hook(args, kwargs)
                    spans[i * FIELDS + 5] = clock() - start
                return fn(*args, **kwargs)
            finally:
                spans[i * FIELDS + 4] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _dcl_hook(self, args, kwargs):
        # dcl(space, generators, tol): materialize the generators once, and
        # note whether this generator set already ran in the same request
        args = list(args)
        if len(args) > 1:
            gens = args[1] = list(args[1])
        else:
            gens = kwargs["generators"] = list(kwargs["generators"])
        space = args[0] if args else kwargs["space"]
        key = (id(space), frozenset(hash(frozenset(g.values.items())) for g in gens))
        if key in self._dcl_seen:
            self.dcl_repeats += 1
        else:
            self._dcl_seen.add(key)
        return tuple(args), kwargs

    # --- install / uninstall ----------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"lplattice.{m}") for m in LAYERS}
        namespaces = [importlib.import_module(m) for m in NAMESPACES]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                if name in UNWRAPPED:
                    continue
                if name in COUNTED:
                    wrapper = self._count(name, obj)
                else:
                    wrapper = self._span(name, obj, self._dcl_hook if name == "sublattice.dcl" else None)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            self._patch(ns, key, wrapper)
        for (layer, cls_name, attr), name in {**METHOD_SPANS, **METHOD_COUNTS}.items():
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = self._span(name, fn) if name in METHOD_SPANS.values() else self._count(name, fn)
            self._patch(cls, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        for owner, attr, old in self._patches:
            if owner.__dict__[attr] is not old:
                raise RuntimeError(f"could not restore {attr}")
        self._patches.clear()

    # --- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as gzipped TSV: request, span, parent, name, start ns, end ns."""
        s = self.spans
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("request\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(s) // FIELDS):
                b = i * FIELDS
                out.write(f"{s[b + 1]}\t{i}\t{s[b + 2]}\t{self.names[s[b]]}\t{s[b + 3]}\t{s[b + 4]}\n")

    def stats(self, cells: dict[int, int]) -> dict:
        """Per-name calls and self time, per-layer totals, and for SLOPE_OPS
        the log-log slope of the op's time per request against the request's
        cell count (`cells`: request -> cells) and its time at the largest
        request."""
        s = self.spans
        count = len(s) // FIELDS
        cover = [0] * count
        for i in range(count):
            b = i * FIELDS
            parent = s[b + 2]
            if parent >= 0:
                cover[parent] += s[b + 4] - s[b + 3]
        calls: dict[str, int] = dict(self.counts)
        self_ns: dict[str, int] = {}
        per_request: dict[str, dict[int, int]] = {op: {} for op in SLOPE_OPS}
        slope_ids = {self._ids[op] for op in SLOPE_OPS if op in self._ids}
        base_id = self._ids.get("independence.canonical_base", -2)
        join_id = self._ids.get("sublattice.lattice_join", -2)
        joins = 0
        for i in range(count):
            b = i * FIELDS
            nid, req, start, end = s[b], s[b + 1], s[b + 3], s[b + 4]
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start) - cover[i] - s[b + 5]
            if nid in slope_ids and not self._has_ancestor(i, nid):
                bucket = per_request[name]
                bucket[req] = bucket.get(req, 0) + end - start
            if nid == join_id and self._has_ancestor(i, base_id):
                joins += 1
        out: dict[str, float] = {}
        for name, n in calls.items():
            out[f"{name}.calls"] = n
        for name, ns in self_ns.items():
            out[f"{name}.self_s"] = ns / 1e9
        for layer in LAYERS:
            out[f"{layer}.calls"] = sum(
                n for name, n in calls.items() if name.startswith(layer + ".") and name in self_ns
            )
            out[f"{layer}.self_s"] = sum(
                ns for name, ns in self_ns.items() if name.startswith(layer + ".")
            ) / 1e9
        largest = max(cells, key=lambda r: (cells[r], -r)) if any(cells.values()) else -1
        for op, times in per_request.items():
            out[f"{op}.slope"] = _loglog_slope([(cells[r], t) for r, t in times.items() if cells.get(r)])
            out[f"{op}.largest_s"] = times.get(largest, 0) / 1e9
        out["trace.largest_cells"] = cells.get(largest, 0)
        bases = calls.get("independence.canonical_base", 0)
        out["independence.canonical_base.joins_per_call"] = joins / bases if bases else 0.0
        dcl_calls = calls.get("sublattice.dcl", 0)
        out["sublattice.dcl.repeat_ratio"] = self.dcl_repeats / dcl_calls if dcl_calls else 0.0
        return out

    def _has_ancestor(self, i: int, nid: int) -> bool:
        s = self.spans
        parent = s[i * FIELDS + 2]
        while parent >= 0:
            if s[parent * FIELDS] == nid:
                return True
            parent = s[parent * FIELDS + 2]
        return False


def _loglog_slope(points: list[tuple[int, int]]) -> float:
    """Least-squares slope of log(time) against log(cells); 0.0 when the
    cell counts do not vary."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
