"""Span recorder installed onto weylforge from outside.

`Recorder.install()` wraps every function named in each module's
`__all__`, and the public and arithmetic methods of the classes listed
there, then rebinds each wrapper in every weylforge module that holds
the original (modules import each other's functions by name).  The
package's files are not touched.

While a request is open, each wrapped call of a non-scalar layer
becomes a span: name, start, end and parent span, kept in compact
arrays.  A layer's self time is its spans' time minus the time their
direct children cover.  The scalar ring is called millions of times,
so its calls are not stored one by one: each call that enters the ring
from another layer adds its count and time to the span that made it,
and calls the ring makes into itself run unwrapped.

Counters (products, terms produced, bytes rendered, checks run) are
taken at the same boundaries; cache hit ratios come from `cache_info()`
on whatever cached callables each module holds.
"""

import functools
import sys
import time
from array import array

LAYERS = ("scalars", "operators", "phase", "wwgm", "superops", "dynamics",
          "expressions", "render", "conformance", "cli")
# The seeded generators count as part of the conformance layer.
MODULE_LAYER = {f"weylforge.{name}": name for name in LAYERS}
MODULE_LAYER["weylforge.sampling"] = "conformance"

ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__call__")
_SCALAR_MUL = ("__mul__", "__rmul__", "__pow__")
_SCALAR_ADD = ("__add__", "__radd__", "__sub__", "__rsub__")

# Counter names in the per-layer report, keyed by the wrapped callable.
_CALL_COUNTERS = {
    "star_product": "phase.star_calls",
    "ms": "wwgm.ms_calls",
    "ms_inverse": "wwgm.ms_inverse_calls",
    "pmb": "superops.pmb_calls",
    "pmb_functions": "superops.pmb_calls",
    "Liouvillian.apply": "superops.liouvillian_calls",
    "Liouvillian.__call__": "superops.liouvillian_calls",
    "t_super_apply": "superops.t_super_calls",
    "pmb_flow_series": "dynamics.flow_calls",
    "classical_flow_series": "dynamics.flow_calls",
    "parse": "expressions.parse_calls",
}
_TERM_LAYERS = ("operators", "phase", "dynamics")
# Prefix of the stderr line on which a traced CLI child reports its totals.
MARKER = "@@bench-trace@@"


def _weylforge_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "weylforge" or name.startswith("weylforge.")) and m is not None]


def cache_totals():
    """{layer: [hits, misses, entries]} summed over each module's caches."""
    out = {}
    for module in _weylforge_modules():
        layer = MODULE_LAYER.get(module.__name__)
        if layer is None:
            continue
        for value in vars(module).values():
            info = getattr(value, "cache_info", None)
            if callable(info):
                got = info()
                row = out.setdefault(layer, [0, 0, 0])
                row[0] += got.hits
                row[1] += got.misses
                row[2] += got.currsize or 0
    return out


def _size(value):
    """Terms in a polynomial, basis dict or flow series (0 otherwise)."""
    if isinstance(value, dict):
        return len(value)
    coefficients = getattr(value, "coefficients", None)
    if coefficients is not None:
        return sum(len(c.items()) for c in coefficients)
    items = getattr(value, "items", None)
    return len(items()) if callable(items) else 0


class Recorder:
    def __init__(self):
        self.on = False
        self.in_scalar = False
        self.names = []  # span name ids index these two lists
        self.name_layer = []
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.scalar_time = {}  # parent span -> seconds inside the ring
        self.counters = dict.fromkeys(
            ["scalars.mul_calls", "scalars.add_calls", "operators.product_calls",
             "operators.peak_terms", "render.bytes_out", "conformance.checks_run"]
            + sorted(set(_CALL_COUNTERS.values()))
            + [f"{layer}.terms_out" for layer in _TERM_LAYERS], 0)
        self.op_poly = None

    # -- installation ---------------------------------------------------------

    def _name_id(self, name, layer):
        self.names.append(name)
        self.name_layer.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, name, layer):
        if layer == "scalars":
            return self._wrap_scalar(fn, name)
        name_id = self._name_id(name, layer)
        counter = _CALL_COUNTERS.get(name)
        post = self._post_hook(name, layer)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.on or rec.in_scalar:
                return fn(*args, **kwargs)
            stack = rec.stack
            sid = len(rec.span_start)
            parent = stack[-1]
            rec.span_name.append(name_id)
            rec.span_parent.append(parent)
            rec.span_start.append(0.0)
            rec.span_end.append(0.0)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                rec.span_start[sid] = start
                rec.span_end[sid] = end
            if counter:
                rec.counters[counter] += 1
            if post is not None:
                rec.on = False
                try:
                    post(result, args, parent)
                finally:
                    rec.on = True
            return result

        return wrapper

    def _wrap_scalar(self, fn, name):
        method = name.rpartition(".")[2]
        counter = ("scalars.mul_calls" if method in _SCALAR_MUL
                   else "scalars.add_calls" if method in _SCALAR_ADD else None)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.on or rec.in_scalar:
                return fn(*args, **kwargs)
            rec.in_scalar = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                rec.in_scalar = False
                parent = rec.stack[-1]
                rec.scalar_time[parent] = rec.scalar_time.get(parent, 0.0) + elapsed
                if counter:
                    rec.counters[counter] += 1

        return wrapper

    def _post_hook(self, name, layer):
        counters = self.counters
        name_layer, span_name = self.name_layer, self.span_name

        def terms(result, args, parent):
            n = _size(result)
            if layer == "operators" and n > counters["operators.peak_terms"]:
                counters["operators.peak_terms"] = n
            caller = span_name[parent] if parent >= 0 else -1
            if caller < 0 or name_layer[caller] != layer:
                counters[f"{layer}.terms_out"] += n

        if name == "OpPoly.__mul__":
            def product(result, args, parent):
                if isinstance(args[1], self.op_poly):
                    counters["operators.product_calls"] += 1
                terms(result, args, parent)
            return product
        if name == "render":
            def rendered(result, args, parent):
                counters["render.bytes_out"] += len(result.encode())
            return rendered
        if name == "run_suite":
            def checked(result, args, parent):
                counters["conformance.checks_run"] += len(result["checks"])
            return checked
        return terms if layer in _TERM_LAYERS else None

    def install(self):
        """Import every weylforge module and patch its public surface."""
        import weylforge  # noqa: F401  (imports all layers)
        import weylforge.cli  # noqa: F401
        import weylforge.sampling  # noqa: F401

        self.op_poly = weylforge.OpPoly
        modules = _weylforge_modules()
        replaced = {}
        for module in modules:
            layer = MODULE_LAYER.get(module.__name__)
            if layer is None:
                continue
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, layer)
                elif callable(obj):
                    replaced[id(obj)] = (obj, self._wrap(obj, name, layer))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap_class(self, cls, layer):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                setattr(cls, attr, type(value)(self._wrap(value.__func__, name, layer)))
            elif callable(value):
                setattr(cls, attr, self._wrap(value, name, layer))

    # -- requests -------------------------------------------------------------

    def begin_request(self):
        """Open a root span; everything until end_request hangs under it."""
        sid = len(self.span_start)
        self.span_name.append(-1)
        self.span_parent.append(-1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.stack = [sid]
        self.on = True

    def end_request(self):
        self.on = False
        sid = self.stack[0]
        self.span_end[sid] = time.perf_counter()
        self.stack = []

    # -- results --------------------------------------------------------------

    def summary(self):
        """Per-layer self seconds and counters; spans are folded here."""
        n = len(self.span_start)
        covered = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for sid in range(n):
            parent = parents[sid]
            if parent >= 0:
                covered[parent] += ends[sid] - starts[sid]
        for parent, seconds in self.scalar_time.items():
            covered[parent] += seconds
        self_s = dict.fromkeys(LAYERS, 0.0)
        self_s["scalars"] = sum(self.scalar_time.values())
        for sid in range(n):
            name_id = self.span_name[sid]
            if name_id >= 0:
                layer = self.name_layer[name_id]
                self_s[layer] += ends[sid] - starts[sid] - covered[sid]
        return {"self_s": self_s, "counters": dict(self.counters), "spans": n}
