"""Long-lived library session driven over stdin/stdout (one JSON per line).

Started by run.py as `python3 bench/session_worker.py [--trace]` with
the package on PYTHONPATH.  Each request names a public weylforge
function and its arguments in the flat form of oracle.py; the worker
builds the package's own objects from them, times only the library
call, and answers with the elapsed time and the flattened result.

Requests:
    {"call": name, "args": [...], "traced": bool}
    {"stats": true}    cache counters, tracer totals and peak memory
"""

import json
import resource
import sys
import time
from fractions import Fraction

import weylforge
from weylforge import GaussianRational, OpPoly, PhasePoly, Scalar

tracer = None
if "--trace" in sys.argv[1:]:
    import tracer as tracer_module

    tracer = tracer_module.Recorder()
    tracer.install()

_FUNCTIONS = ("pmb", "star_product", "moyal_bracket", "ms", "ms_inverse", "diamond",
              "pmb_flow_series", "to_t_basis")


def _decode(arg):
    if not isinstance(arg, dict):
        return arg
    grouped = {}
    for mono, k, j, re, im in arg["terms"]:
        key = tuple((n, m) for n, m in mono)
        grouped.setdefault(key, {})[(k, j)] = GaussianRational(Fraction(re), Fraction(im))
    cls = OpPoly if arg["kind"] == "op" else PhasePoly
    return cls(arg["dof"], {key: Scalar(coeff) for key, coeff in grouped.items()})


def _flat_terms(items):
    out = []
    for key, coeff in items:
        for (k, j), g in coeff.items():
            out.append([[list(b) for b in key], k, j, str(g.re), str(g.im)])
    out.sort()
    return out


def _encode(value):
    """Polynomial or to_t_basis dict -> flat terms; flow series -> a list."""
    coefficients = getattr(value, "coefficients", None)
    if coefficients is not None:
        return [_flat_terms(c.items()) for c in coefficients]
    return _flat_terms(value.items())


def main():
    functions = {name: getattr(weylforge, name) for name in _FUNCTIONS}
    out = sys.stdout
    for line in sys.stdin:
        request = json.loads(line)
        if "stats" in request:
            stats = {
                "caches": tracer_module.cache_totals() if tracer else None,
                "trace": tracer.summary() if tracer else None,
                "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
            out.write(json.dumps(stats) + "\n")
            out.flush()
            continue
        fn = functions[request["call"]]
        args = [_decode(a) for a in request["args"]]
        traced = tracer is not None and request.get("traced")
        if traced:
            tracer.begin_request()
        try:
            start = time.perf_counter()
            result = fn(*args)
            elapsed = time.perf_counter() - start
        except Exception as error:  # reported to the client as a failed call
            if traced:
                tracer.end_request()
            reply = {"ok": False, "error": f"{type(error).__name__}: {error}"}
        else:
            if traced:
                tracer.end_request()
            reply = {"ok": True, "t": elapsed, "result": _encode(result)}
        out.write(json.dumps(reply) + "\n")
        out.flush()


if __name__ == "__main__":
    main()
