"""Span tracing of the pcohom layers from outside the package.

Every public function of a layer module is replaced by a timing wrapper at
every module attribute that is bound to it (modules import by name, so
``pairings.h2_space`` and ``cohomology.h2_space`` are two bindings of one
function), plus the methods ``GroupHom.validate``, ``H2Space.coords`` and
``gf.Span.add``.  Nothing inside ``src/`` is edited.

Spans are kept in memory as flat arrays (name id, parent id, start, end)
and turned into per-layer metrics once the run is over.  A layer's self
time is the summed duration of its spans minus the time covered by their
child spans, so self times never add up to more than the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import weakref
from array import array
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("core", "unitriangular", "filtrations", "homsearch", "cohomology",
          "gf", "pairings", "magnus", "catalog")

# (module, class, method) traced in addition to the public functions
METHODS = (("core", "GroupHom", "validate"),
           ("cohomology", "H2Space", "coords"),
           ("gf", "Span", "add"))

ROOT = -1


class SpanLog:
    """Spans as parallel arrays; span i has parent ``parent[i]`` (ROOT for
    a span opened outside every other span)."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")

    def __len__(self):
        return len(self.name_id)

    def add(self, name_idx: int, parent: int, start: float, end: float) -> int:
        self.name_id.append(name_idx)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.name_id) - 1

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children.

        Children of one span never overlap (one thread, strict nesting), so
        subtracting their durations removes exactly the covered time."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, par in enumerate(self.parent):
            if par != ROOT:
                out[par] -= self.end[i] - self.start[i]
        return out


class Tracer:
    def __init__(self):
        self.log = SpanLog()
        self.enabled = True
        self.counters: dict[str, float] = {}
        self._stack = [ROOT]
        self._originals: list = []   # (owner, attribute, original value)
        self._seen: dict[int, weakref.ref] = {}

    # -- recording ----------------------------------------------------
    def _wrap(self, fn, qualname: str, hook=None):
        log = self.log
        idx = len(log.names)
        log.names.append(qualname)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = log.add(idx, stack[-1], 0.0, 0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                log.start[sid] = t0
                log.end[sid] = t1
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def first_sighting(self, obj) -> bool:
        """True the first time this live object is seen (cached results
        come back as the same object)."""
        ref = self._seen.get(id(obj))
        if ref is not None and ref() is obj:
            return False
        self._seen[id(obj)] = weakref.ref(obj)
        return True

    def count(self, name: str, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def paused(self):
        """Run benchmark bookkeeping without recording spans."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- installation -------------------------------------------------
    def install(self, hooks=None):
        """Wrap every layer function at every binding in the loaded
        ``pcohom`` modules.  ``hooks`` maps "layer.function" to a callable
        ``hook(tracer, result)`` run after each traced call."""
        hooks = hooks or {}
        modules = {name: sys.modules[f"pcohom.{name}"] for name in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                qual = f"{layer}.{attr}"
                wrappers[id(fn)] = (fn, self._wrap(fn, qual, hooks.get(qual)))
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            qual = f"{layer}.{cls_name}.{meth}"
            fn = vars(cls)[meth]
            self._originals.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, qual, hooks.get(qual)))
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "pcohom" or mname.startswith("pcohom.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._originals.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, val in reversed(self._originals):
            setattr(owner, attr, val)
        self._originals.clear()

    # -- summaries ----------------------------------------------------
    def layer_summary(self, split: float) -> dict:
        """Per-layer self time for spans starting before ``split`` (set-up)
        and after it (timed phase), plus per-function call counts and
        inclusive times over the timed phase."""
        log = self.log
        selfs = log.self_times()
        setup = {layer: 0.0 for layer in LAYERS}
        timed = {layer: 0.0 for layer in LAYERS}
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        for i, st in enumerate(selfs):
            name = log.names[log.name_id[i]]
            layer = name.split(".", 1)[0]
            if log.start[i] < split:
                setup[layer] += st
                continue
            timed[layer] += st
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + log.end[i] - log.start[i]
        return {"setup_self": setup, "self": timed, "calls": calls,
                "inclusive": incl}

    def dump(self, path):
        """Write the span arrays (and name table) as JSON."""
        log = self.log
        with open(path, "w") as fh:
            json.dump({"names": log.names, "name_id": log.name_id.tolist(),
                       "parent": log.parent.tolist(),
                       "start": log.start.tolist(), "end": log.end.tolist()},
                      fh)


# ---------------------------------------------------------------------
# pcohom-specific counters and the per-layer metric set
# ---------------------------------------------------------------------

def _on_homset(tracer, hs):
    if tracer.first_sighting(hs):
        tracer.count("explored_prefixes", hs.explored_prefixes)
        tracer.count("homs_found", len(hs.homs))


def _on_h2(tracer, space):
    if tracer.first_sighting(space):
        tracer.count("h2_builds")


def _on_liftspan(tracer, lp):
    if tracer.first_sighting(lp):
        tracer.count("liftspan_homs", lp.stats["homs"])
        tracer.count("liftspan_classes", lp.stats["distinct_classes"])


HOOKS = {"homsearch.enumerate_homs": _on_homset,
         "cohomology.h2_space": _on_h2,
         "pairings.liftable_pullback_space": _on_liftspan}

# per-layer metric -> traced function whose timed-phase call count it is
CALL_COUNTS = {
    "core.validate_calls": "core.GroupHom.validate",
    "core.quotient_calls": "core.quotient_group",
    "homsearch.enumerate_calls": "homsearch.enumerate_homs",
    "homsearch.lift_calls": "homsearch.lift_hom",
    "cohomology.pullback_calls": "cohomology.pullback",
    "cohomology.coords_calls": "cohomology.H2Space.coords",
    "cohomology.coboundary_calls": "cohomology.is_coboundary",
    "cohomology.h2_calls": "cohomology.h2_space",
    "gf.rref_calls": "gf.rref",
    "gf.solve_calls": "gf.solve",
    "gf.nullspace_calls": "gf.nullspace",
    "gf.span_add_calls": "gf.Span.add",
    "pairings.liftspan_calls": "pairings.liftable_pullback_space",
}
# per-layer metric -> traced function whose inclusive time it is
INCLUSIVE_TIMES = {
    "cohomology.pullback_s": "cohomology.pullback",
    "gf.rref_s": "gf.rref",
}


def _ratio(num, den):
    """num / den, reported as 0 when the base is 0 (nothing was done)."""
    return num / den if den else 0.0


def layer_metrics(tracer, split: float) -> dict:
    """Every per-layer metric of a traced pass whose timed phase began at
    perf_counter() == split; counters must have been cleared at split."""
    s = tracer.layer_summary(split)
    c = tracer.counters
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = s["self"][layer]
        m[f"{layer}.setup_self_s"] = s["setup_self"][layer]
    for metric, fn in CALL_COUNTS.items():
        m[metric] = s["calls"].get(fn, 0)
    for metric, fn in INCLUSIVE_TIMES.items():
        m[metric] = s["inclusive"].get(fn, 0.0)
    m["homsearch.explored_prefixes"] = c.get("explored_prefixes", 0)
    m["homsearch.homs_found"] = c.get("homs_found", 0)
    m["homsearch.homs_per_prefix"] = _ratio(c.get("homs_found", 0),
                                            c.get("explored_prefixes", 0))
    m["cohomology.h2_builds"] = c.get("h2_builds", 0)
    m["cohomology.h2_hit_frac"] = _ratio(
        m["cohomology.h2_calls"] - c.get("h2_builds", 0), m["cohomology.h2_calls"])
    m["pairings.class_dedup_ratio"] = _ratio(c.get("liftspan_classes", 0),
                                             c.get("liftspan_homs", 0))
    m["trace.spans"] = len(tracer.log)
    return m
