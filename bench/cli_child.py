"""Run one weylforge CLI command under the span recorder.

Usage: python3 bench/cli_child.py <weylforge arguments...>

Behaves like the `weylforge` console script (same arguments, output and
exit code) after installing tracer.Recorder.  On the way out it writes
one line to stderr, tracer.MARKER followed by the JSON of the recorder's
summary and the module caches' totals, whatever the exit path.
"""

import json
import sys

import tracer

recorder = tracer.Recorder()
recorder.install()
import weylforge.cli  # noqa: E402  (patched by install)

sys.argv = ["weylforge"] + sys.argv[1:]
recorder.begin_request()
try:
    weylforge.cli.main()
finally:
    recorder.end_request()
    stats = {"trace": recorder.summary(), "caches": tracer.cache_totals()}
    sys.stderr.write(tracer.MARKER + json.dumps(stats) + "\n")
    sys.stderr.flush()
