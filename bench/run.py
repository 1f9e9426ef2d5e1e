"""wordsim benchmark: one workload per process, closed loop, seeded inputs.

    python3 bench/run.py --workload eval-classical --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The lines before it name every figure with its unit. See
bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time

# One BLAS thread, set before numpy is first imported: wordsim's matrices
# are small, and idle OpenBLAS threads spin on the few shared cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("eval-classical", "train", "serve-learned")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up; for bench/smoke.py")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_all(args):
    """Each workload in its own process, so peak RSS and imports never mix."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<15} {'correct':<8} {'failed/attempted':<17} metrics")
    for name, r in results.items():
        figures = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items())
        print(f"{name:<15} {str(r['correct']):<8} {r['failed']}/{r['attempted']:<15} {figures}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wordsim", "cli.py")):
        print(f"error: no wordsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (imported first so that cli.import_s is wordsim's own)

    t0 = time.perf_counter()
    import wordsim.cli

    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(wordsim.cli.__file__))) != SRC:
        print(f"error: wordsim was imported from {wordsim.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    return harness.run_workload(args, load_spec(), ROOT, import_s)


if __name__ == "__main__":
    sys.exit(main())
