"""Span tracer for the dp6 layers, installed from outside the package.

Each traced public function is replaced by a wrapper in every loaded `dp6.*`
module that binds it (`from .fieldtower import apply` copies the function
object into the importing module, so patching only the defining module would
miss those calls).  A wrapper records one span per call: name, start, end,
parent span and operation id.  Spans stay in memory and are written once, at
the end.  The hot arithmetic methods (`CPoly.__mul__`, `QOmega.__mul__`) get
no span: their count and time are added to the enclosing span, which keeps
memory bounded.

A layer's self time is its span's duration minus its child spans and the hot
methods it called directly.
"""

from __future__ import annotations

import collections
import gzip
import sys
from time import perf_counter

# (metric name, module, attribute); "Class.method" patches the class
SPANS = [
    ("ratfunc.cancel_pair", "dp6._ratfunc", "cancel_pair"),
    ("fieldtower.apply", "dp6.fieldtower", "apply"),
    ("fieldtower.norm", "dp6.fieldtower", "norm"),
    ("fieldtower.norm_class", "dp6.fieldtower", "norm_class"),
    ("fieldtower.composite_group", "dp6.fieldtower", "composite_group"),
    ("fieldtower.rad_mul", "dp6.fieldtower", "RadElement.__mul__"),
    ("fieldtower.rad_mul", "dp6.fieldtower", "RadElement.__pow__"),
    ("curveconfig.induced_sigma_prime_action", "dp6.curveconfig",
     "induced_sigma_prime_action"),
    ("curveconfig.config", "dp6.curveconfig", "config"),
    ("surface.make_surface", "dp6.surface", "make_surface"),
    ("surface.verify_cocycle", "dp6.surface", "verify_cocycle"),
    ("surface.severi_brauer_data", "dp6.surface", "severi_brauer_data"),
    ("points.twisted_orbit", "dp6.points", "twisted_orbit"),
    ("points.validate_point", "dp6.points", "validate_point"),
    ("points.general_position", "dp6.points", "general_position"),
    ("points.composite_for", "dp6.points", "composite_for"),
    ("sarkisov.link", "dp6.sarkisov", "link"),
    ("sarkisov.declared_point_handle", "dp6.sarkisov", "declared_point_handle"),
    ("sarkisov.is_birationally_rigid", "dp6.sarkisov", "is_birationally_rigid"),
    ("birgroup.explore_graph", "dp6.birgroup", "explore_graph"),
    ("birgroup.psi_image", "dp6.birgroup", "psi_image"),
    ("birgroup.check_relation", "dp6.birgroup", "check_relation"),
    ("scenario.load_scenario", "dp6.scenario", "load_scenario"),
    ("cli.run", "dp6.cli", "run"),
]
HOT = [
    ("ratfunc.cpoly_mul", "dp6._ratfunc", "CPoly.__mul__"),
    ("ratfunc.qomega_mul", "dp6._ratfunc", "QOmega.__mul__"),
]
HOT_NAMES = [name for name, _, _ in HOT]


def _single_term(p):
    # CPoly keeps pa + w*pb as two sympy dicts keyed by monomial
    return len(set(p.pa) | set(p.pb or ())) == 1


def _link_key(source, p):
    """Content key of a link call: the same surface and point give the same
    key whether they arrive as a spec or as data (DataSurface, PointHandle)."""
    spec = getattr(source, "spec", source)
    src = spec.key() if hasattr(spec, "key") else source.vertex_key()
    pt = ("pt", p.key()) if hasattr(p, "key") else p.identity_key()
    return src, pt


class Tracer:
    def __init__(self):
        self.names = []             # span name id -> name
        self.spans = []             # (name id, start, end, parent, op, self)
        self.stack = []             # open span indices
        self.child = []             # time covered by children, per open span
        self.op = -1
        self.hot_calls = collections.Counter()
        self.hot_time = collections.Counter()
        self.counts = collections.Counter()
        self.link_keys = set()
        self.bindings = {}          # name -> [(module name, attribute)]
        self._undo = []

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, name, fn, inspect=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, child = self.spans, self.stack, self.child

        def traced(*args, **kwargs):
            if inspect is not None:
                inspect(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                covered = child.pop()
                spans[idx] = (nid, t0, t1, parent, self.op, t1 - t0 - covered)
                if child:
                    child[-1] += t1 - t0
            if name == "fieldtower.norm_class":
                self.counts["fieldtower.norm_class." + result.provenance] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _hot_wrapper(self, name, fn):
        calls, times, child = self.hot_calls, self.hot_time, self.child

        def traced(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            calls[name] += 1
            times[name] += dt
            if child:
                child[-1] += dt
            return result

        traced.__wrapped__ = fn
        return traced

    def _inspect_cancel(self, args):
        num, den = args[0], args[1]
        c = self.counts
        if _single_term(num) and _single_term(den):
            c["ratfunc.cancel_pair.monomial"] += 1
        if num.pb is not None or den.pb is not None:
            c["ratfunc.cancel_pair.omega"] += 1

    def _inspect_link(self, args):
        self.link_keys.add(_link_key(args[0], args[1]))

    # -- installation ------------------------------------------------------
    def install(self):
        """Wrap every target in every dp6 module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "dp6" or n.startswith("dp6."))]
        inspectors = {"ratfunc.cancel_pair": self._inspect_cancel,
                      "sarkisov.link": self._inspect_link}
        for table, hot in ((SPANS, False), (HOT, True)):
            for name, modname, attr in table:
                owner = sys.modules[modname]
                if "." in attr:
                    # a method: every name in the class bound to it, so that
                    # aliases such as `__rmul__ = __mul__` are traced too
                    cls_name, meth = attr.split(".")
                    owners = [getattr(owner, cls_name)]
                    orig = vars(owners[0])[meth]
                else:
                    owners = modules
                    orig = getattr(owner, attr)
                wrapper = (self._hot_wrapper(name, orig) if hot else
                           self._span_wrapper(name, orig, inspectors.get(name)))
                bound = self.bindings.setdefault(name, [])
                for obj in owners:
                    for key, val in list(vars(obj).items()):
                        if val is orig:
                            setattr(obj, key, wrapper)
                            self._undo.append((obj, key, orig))
                            bound.append((obj.__qualname__ if isinstance(obj, type)
                                          else obj.__name__, key))

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def self_check(self, tower):
        """Call apply, norm and cancel_pair through every module that binds
        them, and RadElement products through each of their method names, and
        confirm each call is counted; returns a list of problems."""
        problems = [f"{getattr(obj, '__name__', obj)}.{key} is not traced"
                    for obj, key, _ in self._undo
                    if not hasattr(vars(obj)[key], "__wrapped__")]
        g = tower.element_named("g")
        x = tower.var(tower.variables[0])
        samples = {"fieldtower.apply": (g, x), "fieldtower.norm": (g, x),
                   "ratfunc.cancel_pair": (x.num, x.den)}
        for name, args in samples.items():
            for mod_name, key in self.bindings[name]:
                before = self.calls(name)
                getattr(sys.modules[mod_name], key)(*args)
                if self.calls(name) <= before:
                    problems.append(f"call through {mod_name}.{key} not counted")
            if len(self.bindings[name]) < 2:
                problems.append(f"{name}: only {self.bindings[name]} bound")
        # RadElement products: r*r, x*r (through __rmul__) and r**2
        comp = sys.modules["dp6.fieldtower"].CompositeField(tower, None, 2, x, "k")
        r = comp.r()
        for how, call in (("__mul__", lambda: r * r), ("__rmul__", lambda: x * r),
                          ("__pow__", lambda: r ** 2)):
            before = self.calls("fieldtower.rad_mul")
            call()
            if self.calls("fieldtower.rad_mul") <= before:
                problems.append(f"RadElement.{how} call not counted")
        self.reset()
        return problems

    def reset(self):
        self.spans.clear()
        self.hot_calls.clear()
        self.hot_time.clear()
        self.counts.clear()
        self.link_keys.clear()

    # -- results -----------------------------------------------------------
    def calls(self, name):
        if name in HOT_NAMES:
            return self.hot_calls[name]
        nids = {i for i, n in enumerate(self.names) if n == name}
        return sum(1 for s in self.spans if s is not None and s[0] in nids)

    def summary(self):
        """Per-name calls and self time, plus the derived counts."""
        calls = collections.Counter()
        self_s = collections.Counter()
        child_of = collections.defaultdict(set)
        for nid, t0, t1, parent, op, own in self.spans:
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += own
            if parent >= 0:
                child_of[parent].add(name)
        for name in HOT_NAMES:
            calls[name] = self.hot_calls[name]
            self_s[name] = self.hot_time[name]
        # a composite_for call that ran composite_group was a cache miss
        cf = self.names.index("points.composite_for")
        misses = sum(1 for i, s in enumerate(self.spans) if s[0] == cf
                     and "fieldtower.composite_group" in child_of[i])
        counts = dict(self.counts)
        counts["points.composite_for.misses"] = misses
        counts["sarkisov.link.distinct"] = len(self.link_keys)
        return {"calls": dict(calls), "self_s": dict(self_s), "counts": counts}

    def write(self, path):
        """Write the spans once, as gzipped CSV."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for nid, t0, t1, parent, op, _ in self.spans:
                fh.write(f"{self.names[nid]},{t0:.7f},{t1:.7f},{parent},{op}\n")
