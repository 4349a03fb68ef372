"""Outside-in tracer for mqg.

`Tracer.install()` replaces the public functions and methods of every
mqg module with timing wrappers, from outside the package: nothing in
src/mqg is edited.  Every reference to a wrapped function in an mqg
module (for example `pentagon_report` imported into `mqg.algebra`) is
rebound as well, so calls between layers are seen too.

Each wrapped call is a span.  Spans of the scalar layer (`CycloNum`
operators) are only accumulated, because a run makes millions of them;
every other span is kept in memory as (span_id, name, start, end,
parent_id, run_id), up to SPAN_CAP of them, and written out by `write()`
when the process ends.  Spans beyond the cap are counted as dropped.
Self time (a span's duration minus its children's) is accumulated per
function name by `stats.SelfTimer`.

The wrappers also count what the layers do: `CycloNum` values built,
their largest conductor and how many of those built inside an operation
have a conductor that does not divide the operation's (`op(...)` sets
it), basis triples covered by axiom verification, product-cache misses
and cross-check pairs.  `CycloNum.__eq__` and `__hash__` are only
counted (see COUNTED).  Cache sizes and hit ratios come from each module's
`lru_cache` objects via `cache_info()`.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys

from stats import SelfTimer

LAYERS = ("cyclo", "quiver", "cocycle", "bimodule", "shuffle", "algebra",
          "corep", "cli")

# CycloNum methods traced besides the public ones: the constructor and
# the arithmetic and comparison operators.
CYCLO_DUNDERS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__neg__", "__mul__", "__rmul__", "__truediv__",
                 "__rtruediv__", "__pow__", "__eq__", "__hash__")

# Constant-time accessors called inside the hottest loops; a wrapper
# would cost more than the call and distort the scalar layer's time.
UNTRACED = {"is_zero", "is_rational", "max_conductor", "euler_phi",
            "mobius"}

# Spans kept in memory per process; the identities workload produces
# about 1.7 million, mostly cocycle.phi and cocycle.sigma.
SPAN_CAP = 300_000

# Called tens of millions of times, mostly by dict and lru_cache lookups:
# counted but not timed, so their time is part of the calling span.
COUNTED = {"cyclo.CycloNum.__eq__", "cyclo.CycloNum.__hash__"}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.timer = SelfTimer()
        self.spans = []
        self.spans_dropped = 0
        self._open_ids = []
        self._next_id = 0
        self.op_conductor = None
        self.values_built = 0
        self.values_in_ops = 0
        self.values_inflated = 0
        self.max_conductor = 0
        self.triples = 0
        self.product_misses = 0
        self.cross_check_pairs = 0
        self.import_s = 0.0  # set by cli_boot.py
        self._caches = {}  # layer -> [lru objects]

    # -- spans -------------------------------------------------------------

    def _open(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._open_ids[-1] if self._open_ids else None
        self._open_ids.append((sid, parent))
        self.timer.push(name)

    def _close(self):
        name, start, end = self.timer.pop()
        sid, parent = self._open_ids.pop()
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, name, start, end, parent, self.run_id))
        else:
            self.spans_dropped += 1

    @contextlib.contextmanager
    def op(self, name: str, conductor: int | None):
        """One benchmark operation: a root span, and the conductor of the
        algebra it works over for the inflated-value count."""
        saved = self.op_conductor
        self.op_conductor = conductor
        self._open("bench." + name)
        try:
            yield
        finally:
            self._close()
            self.op_conductor = saved

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, kept: bool):
        if name in COUNTED:
            row = self.timer.totals.setdefault(name, [0, 0.0, 0.0])

            def counted(*args):
                row[0] += 1
                return fn(*args)
            return counted
        if kept:
            open_, close = self._open, self._close
        else:
            open_, close = self.timer.push, self.timer.pop

        def wrapper(*args, **kwargs):
            open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close()

        # a method _count_<name, dots as underscores> adds counters to a span
        extra = getattr(self, "_count_" + name.replace(".", "_"), None)
        if extra is not None:
            return extra(wrapper)
        return wrapper

    def _count_cyclo_CycloNum___init__(self, wrapper):
        def init(obj, *args, **kwargs):
            wrapper(obj, *args, **kwargs)
            n = obj.n
            self.values_built += 1
            if n > self.max_conductor:
                self.max_conductor = n
            c = self.op_conductor
            if c is not None:
                self.values_in_ops += 1
                if c % n:
                    self.values_inflated += 1
        return init

    def _count_algebra_verify_quasi_bialgebra(self, wrapper):
        def verify(M, *args, **kwargs):
            self.triples += M.dim ** 3
            return wrapper(M, *args, **kwargs)
        return verify

    def _count_algebra_MajidAlgebra_product(self, wrapper):
        # a miss is a call that grows MajidAlgebra's private product memo;
        # should the memo go, misses read 0
        def product(M, *args, **kwargs):
            cache = getattr(M, "_prod", None)
            before = len(cache) if cache is not None else 0
            out = wrapper(M, *args, **kwargs)
            if cache is not None and len(cache) > before:
                self.product_misses += 1
            return out
        return product

    def _count_shuffle_QuiverAlgebra_cross_check(self, wrapper):
        def cross_check(A, *args, **kwargs):
            report = wrapper(A, *args, **kwargs)
            self.cross_check_pairs += report.pairs_checked
            return report
        return cross_check

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every layer's public functions and methods in place."""
        modules = {layer: importlib.import_module("mqg." + layer)
                   for layer in LAYERS}
        replaced = {}  # id(original) -> wrapper
        originals = {}
        for layer, mod in modules.items():
            self._caches[layer] = [
                obj for obj in vars(mod).values()
                if hasattr(obj, "cache_info")
                and getattr(obj, "__module__", None) == mod.__name__
            ]
            names = getattr(mod, "__all__", None)
            if names is None:
                names = [k for k in vars(mod) if not k.startswith("_")]
            for attr in names:
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif callable(obj) and attr not in UNTRACED:
                    w = self._wrap(f"{layer}.{attr}", obj, layer != "cyclo")
                    replaced[id(obj)] = w
                    originals[id(obj)] = obj
        # rebind every reference held by any mqg module
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mqg"
                                   or mod_name.startswith("mqg.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and originals[id(obj)] is obj:
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, layer: str, cls):
        kept = layer != "cyclo"
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                if not (layer == "cyclo" and attr in CYCLO_DUNDERS):
                    continue
            if attr in UNTRACED:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(
                    self._wrap(name, raw.__func__, kept)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(
                    self._wrap(name, raw.__func__, kept)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, raw, kept))

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        caches = {}
        for layer, objs in self._caches.items():
            entries = hits = misses = 0
            for obj in objs:
                info = obj.cache_info()
                entries += info.currsize
                hits += info.hits
                misses += info.misses
            caches[layer] = [entries, hits, misses]
        return {
            "functions": self.timer.totals,
            "values_built": self.values_built,
            "values_in_ops": self.values_in_ops,
            "values_inflated": self.values_inflated,
            "max_conductor": self.max_conductor,
            "triples": self.triples,
            "product_misses": self.product_misses,
            "cross_check_pairs": self.cross_check_pairs,
            "caches": caches,
            "import_s": self.import_s,
            "spans_kept": len(self.spans),
            "spans_dropped": self.spans_dropped,
        }

    def write(self, summary_path: str, spans_path: str | None = None):
        with open(summary_path, "w") as fh:
            json.dump(self.summary(), fh)
        if spans_path:
            with open(spans_path, "w") as fh:
                for span in self.spans:
                    fh.write(json.dumps(span) + "\n")
