"""Layered benchmark for weylforge: one command, two workloads.

    python3 bench/run.py --workload {cli-cold,session-warm}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is taken from ./src.  All
load comes from this one process, a single closed-loop client that runs
at most one child interpreter at a time.

--trace 0 runs whole rounds of the workload until S seconds have passed
and prints the end-to-end metrics.  --trace 1 runs a fixed number of
rounds (set by S) under tracer.Recorder, replays the same requests
untraced to measure the tracing overhead, and prints the per-layer
metrics.  Outputs are checked against oracle.py after the timed part.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  The line before it holds a SHA-256 of the first round's
rendered outputs, which a rerun with the same seed must reproduce.

--rounds N fixes the number of rounds of an untraced run and --perturb
alters one coefficient of one result before checking (the verifier
self-test, see selftest.py, uses both).
"""

import argparse
import hashlib
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import gen
import tracer
import verify

HERE = os.path.dirname(os.path.abspath(__file__))
# Each run ends within this many seconds; children are killed past it.
RUN_LIMIT_S = 170.0
CLI_BOOT = "from weylforge.cli import main; main()"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("op_p95_s", "s"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("scalars.self_s", "s"), ("scalars.mul_calls", "count"), ("scalars.add_calls", "count"),
    ("operators.self_s", "s"), ("operators.product_calls", "count"),
    ("operators.terms_out", "count"), ("operators.peak_terms", "count"),
    ("operators.cache_hit_ratio", "ratio"), ("operators.cache_entries", "count"),
    ("phase.self_s", "s"), ("phase.star_calls", "count"), ("phase.terms_out", "count"),
    ("phase.cache_hit_ratio", "ratio"),
    ("wwgm.self_s", "s"), ("wwgm.ms_calls", "count"), ("wwgm.ms_inverse_calls", "count"),
    ("superops.self_s", "s"), ("superops.pmb_calls", "count"),
    ("superops.liouvillian_calls", "count"), ("superops.t_super_calls", "count"),
    ("dynamics.self_s", "s"), ("dynamics.flow_calls", "count"), ("dynamics.terms_out", "count"),
    ("expressions.self_s", "s"), ("expressions.parse_calls", "count"),
    ("render.self_s", "s"), ("render.bytes_out", "bytes"),
    ("cli.self_s", "s"),
    ("conformance.self_s", "s"), ("conformance.checks_run", "count"),
    ("trace.overhead_s", "s"),
)


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return max(0.5, self.end - time.monotonic())


class Context:
    def __init__(self, deadline):
        root = os.getcwd()
        self.root = root
        self.python = sys.executable
        self.deadline = deadline
        env = dict(os.environ)
        env.pop("WEYLFORGE_SEED", None)  # would override the generated --seed
        # Children read the bytecode the warm-up import writes into the
        # checkout, whatever the caller's environment says about caching.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.pop("PYTHONPYCACHEPREFIX", None)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONHASHSEED"] = "0"
        self.env = env


def _drain(proc, timeout):
    """Read stdout and stderr to EOF; kill the child past the timeout."""
    chunks = {proc.stdout: [], proc.stderr: []}
    selector = selectors.DefaultSelector()
    for stream in chunks:
        selector.register(stream, selectors.EVENT_READ)
    stop = time.monotonic() + timeout
    killed = False
    while selector.get_map():
        ready = selector.select(max(0.0, stop - time.monotonic()))
        if not ready and time.monotonic() >= stop and not killed:
            proc.kill()
            killed = True
        for key, _ in ready:
            data = os.read(key.fd, 1 << 16)
            if data:
                chunks[key.fileobj].append(data)
            else:
                selector.unregister(key.fileobj)
                key.fileobj.close()
    selector.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]), killed


def spawn(ctx, argv):
    """Run a child to its end: (wall s, exit code, stdout, stderr, peak RSS KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=ctx.env, cwd=ctx.root)
    out, err, killed = _drain(proc, ctx.deadline.left())
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = -signal.SIGKILL if killed else proc.returncode
    return wall, code, out.decode(), err.decode(), usage.ru_maxrss


def import_setup(ctx, times=9):
    """Fresh interpreter until `import weylforge` is done, `times` times."""
    return [spawn(ctx, [ctx.python, "-c", "import weylforge"])[0] for _ in range(times)]


# --- per-layer aggregation --------------------------------------------------------


class LayerTotals:
    def __init__(self):
        self.self_s = {}
        self.counters = {}
        self.cache = {}  # layer -> [hits, misses, peak entries]

    def add_trace(self, summary):
        for layer, seconds in summary["self_s"].items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + seconds
        for name, value in summary["counters"].items():
            if name == "operators.peak_terms":
                self.counters[name] = max(self.counters.get(name, 0), value)
            else:
                self.counters[name] = self.counters.get(name, 0) + value

    def add_caches(self, after, before=None):
        for layer, (hits, misses, entries) in after.items():
            if before and layer in before:
                hits -= before[layer][0]
                misses -= before[layer][1]
            row = self.cache.setdefault(layer, [0, 0, 0])
            row[0] += hits
            row[1] += misses
            row[2] = max(row[2], entries)

    def metrics(self, overhead_s):
        values = {}
        for name, _unit in PER_LAYER:
            layer, _, what = name.partition(".")
            if what == "self_s":
                values[name] = self.self_s.get(layer, 0.0)
            elif what == "cache_hit_ratio":
                hits, misses, _ = self.cache.get(layer, (0, 0, 0))
                values[name] = hits / (hits + misses) if hits + misses else 0.0
            elif what == "cache_entries":
                values[name] = self.cache.get(layer, (0, 0, 0))[2]
            elif name == "trace.overhead_s":
                values[name] = overhead_s
            else:
                values[name] = self.counters.get(name, 0)
        return values


# --- workloads ----------------------------------------------------------------------


class CliCold:
    """Operations that are whole CLI invocations, each in a fresh interpreter."""

    name = "cli-cold"
    min_rounds = 4  # 4 x 26 commands, so ten lie beyond the 90th percentile
    worker = None

    def __init__(self, seed):
        self.rng = gen.make_rng(seed, "cli")
        self.seen = set()

    def setup(self, ctx):
        return import_setup(ctx)

    def execute(self, ctx, op, traced):
        boot = [os.path.join(HERE, "cli_child.py")] if traced else ["-c", CLI_BOOT]
        wall, code, out, err, rss = spawn(ctx, [ctx.python] + boot + op["argv"])
        result = {"ok": code == 0, "t": wall, "out": out, "code": code, "rss_kib": rss}
        if traced:
            for line in err.splitlines():
                if line.startswith(tracer.MARKER):
                    result["stats"] = json.loads(line[len(tracer.MARKER):])
        return result

    def key(self, op):
        return tuple(op["argv"])

    def digest_item(self, op, result):
        body = result["out"] if result["ok"] else f"exit {result['code']}"
        return json.dumps(op["argv"]) + "\n" + body

    def check(self, ops, results, perturb):
        for op, result in zip(ops, results):
            if result["ok"]:
                reason = verify.check_cli(op, result["out"], perturb)
                if reason:
                    return f"{' '.join(op['argv'])}: {reason}"
                perturb = False
        return None

    def next_round(self, r):
        return gen.cli_round(self.rng, r, self.seen)

    def trace_rounds(self, seconds):
        return max(1, seconds // 15)


def _flat_poly(terms):
    return {(tuple(map(tuple, mono)), k, j): (Fraction(re), Fraction(im))
            for mono, k, j, re, im in terms}


def _encode_arg(arg):
    if isinstance(arg, tuple):
        kind, poly, dof = arg
        terms = [[list(map(list, mono)), k, j, str(g[0]), str(g[1])]
                 for (mono, k, j), g in sorted(poly.items())]
        return {"kind": kind, "dof": dof, "terms": terms}
    return arg


class Worker:
    """One long-lived session interpreter (bench/session_worker.py)."""

    def __init__(self, ctx, traced):
        argv = [ctx.python, os.path.join(HERE, "session_worker.py")] + (["--trace"] if traced else [])
        self.ctx = ctx
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=ctx.env, cwd=ctx.root)
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.proc.stdout, selectors.EVENT_READ)
        self.buffer = b""

    def _ask(self, message):
        self.proc.stdin.write((json.dumps(message) + "\n").encode())
        self.proc.stdin.flush()
        while b"\n" not in self.buffer:
            if not self.selector.select(self.ctx.deadline.left()):
                raise TimeoutError("session worker did not answer in time")
            data = os.read(self.proc.stdout.fileno(), 1 << 20)
            if not data:
                raise RuntimeError("session worker exited")
            self.buffer += data
        line, _, self.buffer = self.buffer.partition(b"\n")
        return json.loads(line)

    def call(self, req, traced=False):
        args = [_encode_arg(a) for a in req["args"]]
        reply = self._ask({"call": req["op"], "args": args, "traced": traced})
        if reply["ok"]:
            result = reply["result"]
            if req["op"] == "pmb_flow_series":
                reply["flat"] = [_flat_poly(c) for c in result]
            else:
                reply["flat"] = _flat_poly(result)
            reply["digest"] = json.dumps(result)
        return reply

    def stats(self):
        return self._ask({"stats": True})

    def close(self):
        """End the session; returns its peak RSS in KiB."""
        self.selector.close()
        self.proc.stdin.close()
        self.proc.stdout.close()
        _, _, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = 0
        return usage.ru_maxrss

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.close()


class SessionWarm:
    name = "session-warm"
    min_rounds = 10  # 10 rounds of 20 calls, so ten lie beyond the 95th percentile
    warm_rounds = 3
    setups = 3

    def __init__(self, seed):
        self.rng = gen.make_rng(seed, "session")
        self.seen = set()
        warm_rng = gen.make_rng(seed, "session-warm-up")
        self.warm = [req for _ in range(self.warm_rounds)
                     for req in gen.session_round(warm_rng, self.seen)]
        self.worker = None

    def next_round(self, r):
        return gen.session_round(self.rng, self.seen)

    def start(self, ctx, traced):
        worker = Worker(ctx, traced)
        for req in self.warm:
            worker.call(req)
        return worker

    def setup(self, ctx):
        samples = []
        for k in range(self.setups):
            start = time.perf_counter()
            worker = self.start(ctx, False)
            samples.append(time.perf_counter() - start)
            if k < self.setups - 1:
                worker.close()
            else:
                self.worker = worker
        return samples

    def execute(self, ctx, req, traced):
        reply = self.worker.call(req, traced)
        reply.setdefault("t", 0.0)
        return reply

    def key(self, req):
        return gen.request_key(req)

    def digest_item(self, req, result):
        return result.get("digest", "failed")

    def check(self, ops, results, perturb):
        flat = [r.get("flat") for r in results]  # None for a failed call
        for index in range(0, len(ops), gen.SESSION_ROUND):
            one = slice(index, index + gen.SESSION_ROUND)
            reason = verify.check_session(ops[one], flat[one], perturb)
            if reason:
                return reason
            perturb = False
        return None

    def trace_rounds(self, seconds):
        return max(1, seconds)


WORKLOADS = {w.name: w for w in (CliCold, SessionWarm)}


# --- running ------------------------------------------------------------------------


def _percentile(values, n, k):
    # Inclusive interpolation stays within the samples.
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=n, method="inclusive")[k]


def run_rounds(ctx, workload, stop, traced=False):
    """Whole rounds until stop(rounds done, elapsed) says so."""
    ops, results, first_round = [], [], 0
    start = time.perf_counter()
    r = 0
    while not stop(r, time.perf_counter() - start):
        batch = workload.next_round(r)
        for op in batch:
            ops.append(op)
            results.append(workload.execute(ctx, op, traced))
        if r == 0:
            first_round = len(batch)
        r += 1
    return ops, results, first_round


def digest(workload, ops, results, first_round):
    sha = hashlib.sha256()
    for op, result in zip(ops[:first_round], results[:first_round]):
        sha.update(workload.digest_item(op, result).encode())
        sha.update(b"\0")
    return sha.hexdigest()


def untraced_metrics(ctx, workload, args):
    setup = workload.setup(ctx)
    if args.rounds:
        stop = lambda r, elapsed: r >= args.rounds  # noqa: E731
    else:
        stop = lambda r, elapsed: r >= workload.min_rounds and elapsed >= args.seconds  # noqa: E731
    ops, results, first_round = run_rounds(ctx, workload, stop)
    if workload.worker is not None:
        rss_kib = workload.worker.close()
    else:
        rss_kib = max(r["rss_kib"] for r in results)
    done = [r["t"] for r in results if r["ok"]]
    if not done:
        raise RuntimeError("no operation completed")
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(done) / sum(r["t"] for r in results),
        "op_p50_s": statistics.median(done),
        "op_p90_s": _percentile(done, 10, 8),
        "op_p95_s": _percentile(done, 20, 18),
        "peak_rss_mib": rss_kib / 1024,
    }
    return ops, results, first_round, metrics, END_TO_END


def traced_metrics(ctx, workload, args):
    rounds = args.rounds or workload.trace_rounds(args.seconds)
    stop = lambda r, elapsed: r >= rounds  # noqa: E731
    totals = LayerTotals()
    session = isinstance(workload, SessionWarm)
    if session:
        workload.worker = workload.start(ctx, True)
        before = workload.worker.stats()["caches"]
    ops, results, first_round = run_rounds(ctx, workload, stop, traced=True)
    if session:
        stats = workload.worker.stats()
        workload.worker.close()
        totals.add_trace(stats["trace"])
        totals.add_caches(stats["caches"], before)
        # Replay the same requests untraced in a fresh, equally warmed session.
        workload.worker = workload.start(ctx, False)
        replay = [workload.execute(ctx, op, False)["t"] for op in ops]
        workload.worker.close()
    else:
        for result in results:
            stats = result.get("stats")
            if stats:
                totals.add_trace(stats["trace"])
                totals.add_caches(stats["caches"])
        replay = [workload.execute(ctx, op, False)["t"] for op in ops]
    overhead = sum(r["t"] for r in results) - sum(replay)
    return ops, results, first_round, totals.metrics(overhead), PER_LAYER


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "weylforge", "__init__.py")):
        print("bench: run from the root of a weylforge checkout (no src/weylforge here)",
              file=sys.stderr)
        return 2
    ctx = Context(Deadline(RUN_LIMIT_S))
    # Compile the package's bytecode before anything is timed.
    warm = spawn(ctx, [ctx.python, "-c", "import weylforge.cli"])
    if warm[1] != 0:
        print(f"bench: the package does not import:\n{warm[3]}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    try:
        run = traced_metrics if args.trace else untraced_metrics
        ops, results, first_round, metrics, table = run(ctx, workload, args)
    finally:
        if workload.worker is not None:
            workload.worker.kill()
    reason = workload.check(ops, results, args.perturb)
    failed = sum(not r["ok"] for r in results)
    keys = [workload.key(op) for op in list(getattr(workload, "warm", [])) + ops]
    repeats = len(keys) - len(set(keys))

    print(f"workload {workload.name}, seed {args.seed}: {len(ops)} operations attempted, "
          f"{failed} failed, outputs {'correct' if reason is None else 'WRONG: ' + reason}")
    for name, unit in table:
        print(f"  {name:28s} {metrics[name]:.6g} {unit}")
    print(f"exact repeats {repeats} of {len(keys)} requests")
    print(f"digest (round 1) {digest(workload, ops, results, first_round)}")
    print(json.dumps({
        "correct": reason is None,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
