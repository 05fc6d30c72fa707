"""Self-test of the benchmark's verifier and of its determinism.

    python3 bench/selftest.py [--seed N]

For each workload, at a small size (one round; two for the session):

  * two runs with the same seed print the same output digest and pass
    their checks;
  * the same run with --perturb (one coefficient of one result altered
    before checking) reports correct = false, so the checks can fail;
  * a traced run prints the same digest, so the tracer leaves outputs
    alone;
  * another seed prints another digest, so the inputs follow the seed.

Exits 0 when every statement holds and 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SMALL = {"cli-cold": 1, "session-warm": 2}


def bench(workload, seed, *extra):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--rounds", str(SMALL[workload])] + list(extra)
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("digest"))
    return digest, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description="verifier self-test")
    parser.add_argument("--seed", type=int, default=7)
    seed = parser.parse_args().seed
    ok = True
    for workload in SMALL:
        first, result = bench(workload, seed)
        again, _ = bench(workload, seed)
        _, perturbed = bench(workload, seed, "--perturb")
        traced, _ = bench(workload, seed, "--trace", "1")
        other, _ = bench(workload, seed + 1)
        facts = {
            "checks pass": result["correct"],
            "same seed, same digest": first == again,
            "perturbed result is caught": perturbed["correct"] is False,
            "traced run, same digest": traced == first,
            "other seed, other digest": other != first,
        }
        for fact, holds in facts.items():
            print(f"{workload:13s} {'PASS' if holds else 'FAIL'}  {fact}")
            ok = ok and holds
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
